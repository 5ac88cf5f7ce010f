//! The seeded job mix of the `serve-jobs` workload.
//!
//! Each job is a four-point sweep, `policy=<a>,<b> penalty=<p>
//! bench=<x>,<y>`. No (benchmark, policy, penalty) triple repeats within
//! a mix, so every point of every job misses the server's result memo
//! and simulates: the load is the same whichever jobs a run reaches.
//!
//! Each job also carries the client's think time before submitting it,
//! spread evenly below [`THINK_MAX`]. The server accepts connections on
//! a 25 ms poll; a client that submits the instant its previous job ends
//! phase-locks to that poll, so every job would wait the same whole
//! periods and the latency could only move in 25 ms steps. Users arrive
//! at random phases, and so does this client. The think times are a
//! golden-ratio sequence from a seeded start rather than independent
//! draws, so every run's phases cover the period almost exactly evenly
//! and the median latency does not carry the sampling noise of a few
//! hundred random phases.

use std::collections::HashSet;
use std::time::Duration;

use specfetch_synth::suite::Benchmark;

use crate::json::quote;

/// Think times are spread below this: one accept-poll period of the
/// server.
pub const THINK_MAX: Duration = Duration::from_millis(25);

/// One job of the mix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Job {
    /// The `--sweep` spec.
    pub spec: String,
    /// How long the client waits before submitting it.
    pub think: Duration,
}

/// The policies a job draws from (`--sweep` spellings).
pub const POLICIES: [&str; 6] = ["Oracle", "Opt", "Res", "Pess", "Dec", "Dyn"];

/// The miss penalties a job draws from. The warm-up job runs penalty 5,
/// outside this range, so it leaves the jobs' points cold.
pub const PENALTIES: std::ops::RangeInclusive<u64> = 6..=105;

/// The sweep every server warms up with: all 13 traces recorded.
pub const WARMUP_SPEC: &str = "policy=Res penalty=5";

/// splitmix64: a small, well-mixed generator with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Two distinct indices below `n`.
    fn pair(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a, b)
    }
}

/// `n` jobs drawn from `seed`; the same seed gives the same mix.
///
/// # Errors
///
/// When `n` jobs would use more than half of the distinct points, which
/// would make drawing slow (and eventually impossible).
pub fn job_mix(seed: u64, n: usize) -> Result<Vec<Job>, String> {
    let benches: Vec<&str> = Benchmark::all().iter().map(|b| b.name).collect();
    let penalties: Vec<u64> = PENALTIES.collect();
    let capacity = benches.len() * POLICIES.len() * penalties.len();
    if n * 4 > capacity / 2 {
        return Err(format!("a job mix of {n} would reuse points (at most {})", capacity / 8));
    }
    let mut rng = Rng(seed);
    let phase = rng.next() as f64 / 2f64.powi(64);
    let mut used: HashSet<(usize, usize, u64)> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (a, b) = rng.pair(POLICIES.len());
        let (x, y) = rng.pair(benches.len());
        let p = penalties[rng.below(penalties.len())];
        let points = [(x, a, p), (x, b, p), (y, a, p), (y, b, p)];
        if points.iter().any(|t| used.contains(t)) {
            continue;
        }
        used.extend(points);
        let spec = format!(
            "policy={},{} penalty={p} bench={},{}",
            POLICIES[a], POLICIES[b], benches[x], benches[y]
        );
        let golden = 0.618_033_988_749_894_8 * out.len() as f64;
        out.push(Job { spec, think: THINK_MAX.mul_f64((phase + golden).fract()) });
    }
    Ok(out)
}

/// The `POST /jobs` body for a sweep spec at `instrs` per benchmark.
pub fn job_body(spec: &str, instrs: u64) -> String {
    format!("{{\"sweep\":{},\"instrs\":{instrs}}}", quote(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_mix() {
        let a = job_mix(1, 300).unwrap_or_default();
        assert_eq!(a.len(), 300);
        assert_eq!(a, job_mix(1, 300).unwrap_or_default());
        let b = job_mix(2, 300).unwrap_or_default();
        let specs = |m: &[Job]| m.iter().map(|j| j.spec.clone()).collect::<Vec<_>>();
        assert_ne!(specs(&a), specs(&b), "another seed must give other specs");
        assert_eq!(a[..10], job_mix(1, 10).unwrap_or_default()[..], "a mix is a prefix stream");
    }

    #[test]
    fn think_times_cover_one_poll_period_evenly() {
        let mix = job_mix(3, 400).unwrap_or_default();
        assert!(mix.iter().all(|j| j.think < THINK_MAX));
        // Every tenth of the period holds a tenth of any prefix, give or
        // take a few jobs: far more even than independent draws.
        for n in [50, 200, 400] {
            let mut bins = [0usize; 10];
            for j in &mix[..n] {
                bins[(j.think.as_secs_f64() / THINK_MAX.as_secs_f64() * 10.0) as usize] += 1;
            }
            assert!(bins.iter().all(|&b| b.abs_diff(n / 10) <= 2), "{n} jobs: {bins:?}");
        }
        let other = job_mix(4, 1).unwrap_or_default();
        assert_ne!(other[0].think, mix[0].think, "the sequence starts at a seeded phase");
    }

    #[test]
    fn every_point_is_used_once_and_every_spec_parses() {
        let mix = job_mix(7, 400).unwrap_or_default();
        let mut seen = HashSet::new();
        for spec in mix.iter().map(|j| &j.spec) {
            let scenario = specfetch_experiments::parse_sweep(spec);
            let scenario = scenario.map_err(|e| e.to_string());
            assert!(scenario.is_ok(), "{spec}: {scenario:?}");
            let grid = scenario.map(|s| s.grid_points()).unwrap_or_default();
            assert_eq!(grid.len(), 4, "{spec}");
            for p in grid {
                assert!(PENALTIES.contains(&p.cfg.miss_penalty));
                assert!(seen.insert((p.benchmark.name, p.cfg)), "{spec} repeats a point");
            }
        }
        assert!(job_mix(7, 100_000).is_err());
    }

    #[test]
    fn job_bodies_are_json() {
        let body = job_body("policy=Res,Dyn penalty=9 bench=li,gcc", 100_000);
        assert_eq!(body, "{\"sweep\":\"policy=Res,Dyn penalty=9 bench=li,gcc\",\"instrs\":100000}");
        assert!(crate::json::parse(&body).is_ok());
    }
}
