//! Host-speed calibration for end-to-end timings.
//!
//! The benchmark runs on shared virtual machines whose vCPUs are
//! hyperthreads: the other thread of the physical core belongs to
//! another tenant, and its load changes the speed of everything cache-
//! and branch-heavy on ours. On the reference host a 256 KiB pointer
//! chase that never leaves the private L2 took 1.0 to 1.9 ms from one
//! second to the next, and the same `--experiment all` took 3.2 to 6.2
//! s. Host speed decorrelates within a few seconds, so a kernel timed
//! only between operations does not track a multi-second operation.
//!
//! The ledger therefore times a fixed kernel that belongs to the
//! benchmark, not the program, *during* each operation: every
//! [`PERIOD`] of run time it stops the measured process group, times
//! the kernel on the same CPU, and continues the group. Each segment of
//! the operation is scaled by [`NOMINAL_S`] over the mean of the
//! kernel's times at its two ends, raised to [`EXPONENT`]
//! ([`Timing::add`]). A change to the program moves the scaled time in
//! proportion; a change in host speed moves the segment and the kernel
//! together and largely cancels.
//!
//! The kernel is made of the two things the simulator's lanes do most:
//! random read-modify-writes with a data-dependent branch over a table
//! the size of L2 (cache tag arrays), and two-bit saturating counters
//! indexed by branch history (predictor tables). Of the kernels tried on
//! the reference host (an L2 pointer chase, a 4 MiB chase, independent
//! multiply chains, the table, the predictor), this pair explained the
//! most of the run-to-run variation of `--experiment all` and of the
//! sweep: calibrated every 50 ms it cut the per-operation spread from
//! 9.4% to 4.3% and from 8.4% to 6.1% (standard deviation of log time).
//! Calibrating four times less often left 7.1% and 6.4%: host speed
//! changes faster than a sparse sample can follow.
//!
//! The program slows down more than the kernel when the neighbour is
//! busy. Fitting the log of an operation's time against the log of the
//! kernel's mean time over the operation, on four samples of 29 to 45
//! operations of `--experiment all` and of the sweep, gave slopes of
//! 1.25 to 1.42, and a slope of 1.4 left residuals of 2.1–2.8% where a
//! slope of 1 left 2.6–4.4%. Over two sets of ten runs per workload,
//! scaling by the kernel's ratio to the power 1.4 instead of 1 moved
//! the ten-run spreads (quartile distance over median) of the median
//! operation time from 7.7%/4.7% to 4.6%/4.8% (`paper-cold`), from
//! 5.5%/11.9% to 4.3%/6.6% (`sweep-wide`) and from 1.6%/2.9% to
//! 1.5%/4.6% (`store-warm`).

use std::time::Duration;

/// The kernel's time on the reference host (2-vCPU Xeon VM) when its
/// core neighbour is quiet, so scaled times read close to that host's
/// unloaded milliseconds.
pub const NOMINAL_S: f64 = 0.0017;

/// How much faster than the kernel the program slows down with host
/// speed: its time goes as the kernel's time to this power.
pub const EXPONENT: f64 = 1.4;

/// Run time between two calibrations of a running operation. Each
/// calibration stops the operation for about one [`NOMINAL_S`] and
/// evicts its L2, which it then refills: a few percent of its run time,
/// the same on every run.
pub const PERIOD: Duration = Duration::from_millis(50);

/// Entries in the update table: 2 MiB of `u32`.
const TABLE: usize = 1 << 19;

/// Table updates per measurement.
const TABLE_STEPS: usize = 75_000;

/// Two-bit counters in the predictor table.
const COUNTERS: usize = 1 << 14;

/// Predictions per measurement.
const PREDICT_STEPS: usize = 150_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The calibration kernel and its data.
pub struct Calibrator {
    table: Vec<u32>,
    counters: Vec<u8>,
    state: u64,
    history: usize,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the table and the counters from a fixed seed, so every
    /// run does the same work.
    pub fn new() -> Self {
        let mut s = 0x5EED_CA11_B007u64;
        let table = (0..TABLE).map(|_| xorshift(&mut s) as u32).collect();
        Calibrator { table, counters: vec![0; COUNTERS], state: s, history: 0 }
    }

    /// Times one pass of the kernel, in seconds.
    pub fn measure(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let mut s = self.state;
        let mut acc = 0u32;
        for _ in 0..TABLE_STEPS {
            let v = xorshift(&mut s);
            let slot = &mut self.table[(v as usize) & (TABLE - 1)];
            // Taken half the time whatever the table holds, so the
            // branch never becomes predictable as the table evolves.
            if (*slot ^ (v >> 32) as u32) & 1 == 1 {
                *slot = slot.wrapping_add(v as u32);
            } else {
                acc ^= *slot;
            }
        }
        let mut history = self.history;
        for _ in 0..PREDICT_STEPS {
            let v = xorshift(&mut s);
            // Outcomes taken 7 times in 8, like most branches.
            let taken = v & 7 != 0;
            let c = &mut self.counters[(history ^ (v >> 40) as usize) & (COUNTERS - 1)];
            if (*c >= 2) == taken {
                acc = acc.wrapping_add(1);
            }
            *c = match (taken, *c) {
                (true, n) if n < 3 => n + 1,
                (false, n) if n > 0 => n - 1,
                (_, n) => n,
            };
            history = ((history << 1) | usize::from(taken)) & 0xfff;
        }
        self.state = s;
        self.history = history;
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// `wall_s` at nominal host speed, given the kernel's times measured
/// just before and just after it.
pub fn scaled(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * (NOMINAL_S / ((before_s + after_s) / 2.0)).powf(EXPONENT)
}

/// An operation's run time, summed over its segments.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Timing {
    /// Wall time the operation ran, calibration stops excluded.
    pub wall_s: f64,
    /// The same at nominal host speed.
    pub scaled_s: f64,
}

impl Timing {
    /// Adds a segment of `wall_s` that ran between kernel measurements
    /// of `before_s` and `after_s`.
    pub fn add(&mut self, wall_s: f64, before_s: f64, after_s: f64) {
        self.wall_s += wall_s;
        self.scaled_s += scaled(wall_s, before_s, after_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_time_and_repeats_its_work() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert!(a.measure() > 0.0);
        b.measure();
        assert_eq!((a.state, a.history), (b.state, b.history), "two calibrators do the same work");
        assert!(a.table == b.table && a.counters == b.counters);
        assert!(a.counters.iter().all(|&c| c <= 3), "counters saturate at 3");
    }

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        let nominal = scaled(1.0, NOMINAL_S, NOMINAL_S);
        assert!((nominal - 1.0).abs() < 1e-12, "a host at nominal speed is not rescaled");
        // The kernel takes 30% longer on a slower host; the program's
        // time grows as that to the power EXPONENT, and the scaled time stays.
        let slow = scaled(1.3f64.powf(EXPONENT), 1.3 * NOMINAL_S, 1.3 * NOMINAL_S);
        assert!((slow - 1.0).abs() < 1e-12, "{slow}");
        // Before and after are averaged.
        assert!((scaled(1.0, 0.5 * NOMINAL_S, 1.5 * NOMINAL_S) - 1.0).abs() < 1e-12);
        // A program change is passed through in proportion.
        assert!((scaled(0.9, NOMINAL_S, NOMINAL_S) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn segments_are_scaled_one_by_one() {
        let mut t = Timing::default();
        // One second at nominal speed, then one on a host where the kernel
        // takes twice as long.
        t.add(1.0, NOMINAL_S, NOMINAL_S);
        t.add(1.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S);
        assert!((t.wall_s - 2.0).abs() < 1e-12);
        let want = 1.0 + 0.5f64.powf(EXPONENT);
        assert!((t.scaled_s - want).abs() < 1e-12, "{t:?}");
    }
}
