//! Helpers shared by the root integration tests.

use specfetch_bpred::GhrUpdate;
use specfetch_core::{FetchPolicy, SimConfig};

/// Deterministic splitmix64 step — enough randomness to shuffle axis
/// choices, with no dependency and no flaky seeds.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<T: Copy>(rng: &mut u64, choices: &[T]) -> T {
    choices[(next(rng) % choices.len() as u64) as usize]
}

/// A random but always-valid configuration: every axis is drawn from the
/// values the sweep grid exposes, and the one cross-axis constraint
/// (`prefetch` and `stream_buffer` are mutually exclusive) is respected
/// by drawing the prefetcher as a single four-way choice.
pub fn random_config(rng: &mut u64) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.policy = pick(rng, &FetchPolicy::ALL);
    cfg.icache.size_bytes = pick(rng, &[4 * 1024, 8 * 1024, 32 * 1024]);
    cfg.icache.assoc = pick(rng, &[1, 2]);
    cfg.miss_penalty = pick(rng, &[5, 10, 20]);
    cfg.max_unresolved = pick(rng, &[1, 2, 4, 8]);
    cfg.bus_slots = pick(rng, &[1, 2]);
    cfg.classify = next(rng).is_multiple_of(2);
    match next(rng) % 4 {
        0 => cfg.prefetch = true,
        1 => cfg.stream_buffer = true,
        2 => cfg.target_prefetch = true,
        _ => {}
    }
    if next(rng).is_multiple_of(2) {
        cfg.bpred.ghr_update = GhrUpdate::Speculative;
    }
    cfg.validate().expect("randomized config must stay valid");
    cfg
}
