//! Model-conformance property tests (DESIGN §5l): randomized walks of
//! `verify::SweepMachine` driven through the *real* journal API,
//! asserting production agrees with the model fold exactly — the
//! Progress counters, and the resume classification of every point.
//!
//! This lives as a `#[cfg(test)]` module (not an integration test)
//! because it exercises the crate-internal `record_*` surface the
//! runner uses, which is deliberately not public.

use std::path::PathBuf;

use specfetch_verify::{
    point_step, random_walk, replay_of, replay_step, Counters, PointEvent, PointState, ReplayClass,
    Step, SweepEvent, SweepMachine, MODEL_POINTS,
};

use crate::codec::Fields;
use crate::journal::{self, Replayed};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("specfetch-conformance-{tag}-{}", std::process::id()))
}

/// Drives one model walk through the real journal and checks the
/// production counters and resume replay against the model. `job` must
/// be unique per concurrent call — the journal registry is global.
fn drive_walk(tag: &str, job: u64, seed: u64, max_len: usize) {
    let dir = scratch(&format!("{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let key = journal::run_key("conformance", seed);
    journal::activate_job(job, &dir, key, false).expect("activate");
    journal::begin_experiment(job, "conf");

    let walk = random_walk(&SweepMachine, seed, max_len);
    let mut model = [PointState::Unscheduled; MODEL_POINTS];
    let mut counters = Counters::default();
    // Real (unsaturated) attempt counts, as the runner would pass them.
    let mut attempts = [0u32; MODEL_POINTS];
    for ev in &walk {
        // Shutdown is a runner-side latch, not a journalled event.
        let SweepEvent::Point { idx, event } = ev else { continue };
        match point_step(&model[*idx], event) {
            Step::Next(next) => model[*idx] = next,
            other => panic!("seed {seed}: walk emitted non-advancing {event:?} ({other:?})"),
        }
        counters.apply(event);
        match event {
            PointEvent::Schedule => journal::record_scheduled(job, *idx as u64, "li", 1_000, 0xab),
            PointEvent::Attempt => {
                journal::record_attempt(job, *idx as u64, attempts[*idx]);
                attempts[*idx] += 1;
            }
            PointEvent::Complete => journal::record_completed(job, *idx as u64),
            PointEvent::Fail => {
                journal::record_failed(job, *idx as u64, attempts[*idx], "FAILED(model)");
            }
            PointEvent::Interrupt => journal::record_interrupted(job, *idx as u64),
        }
    }
    assert_eq!(
        journal::progress(job),
        Some(journal::Progress {
            scheduled: counters.scheduled,
            completed: counters.completed,
            failed: counters.failed,
            interrupted: counters.interrupted,
        }),
        "seed {seed}: production Progress counters diverged from the model fold"
    );
    journal::release(job);

    // Resume the journal and check every point's replay classification
    // against `replay_of` over the model's final state.
    journal::activate_job(job, &dir, key, true).expect("resume");
    journal::begin_experiment(job, "conf");
    for (idx, state) in model.iter().enumerate() {
        let expected = match replay_of(*state) {
            Some(ReplayClass::Completed) => Some(Replayed::Completed),
            Some(ReplayClass::Failed) => Some(Replayed::Failed {
                attempts: attempts[idx],
                reason: "FAILED(model)".to_owned(),
            }),
            // Pending points (and never-journalled ones) must rerun: the
            // resume API reports nothing for them.
            Some(ReplayClass::Pending) | None => None,
        };
        assert_eq!(journal::replayed(job, idx as u64), expected, "seed {seed} point {idx}");
    }
    journal::release(job);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_model_walks_conform_through_the_real_journal() {
    for seed in 0..32 {
        drive_walk("walk", 0xC0DE_0000 + seed, seed, 64);
    }
}

/// The long-run sweep: `cargo test -p specfetch-experiments -- --ignored`.
#[test]
#[ignore = "long-run property sweep; run explicitly with --ignored"]
fn random_model_walks_conform_long_run() {
    for seed in 0..512 {
        drive_walk("long", 0xC0DE_8000 + seed, seed, 128);
    }
}

/// Every crash-reachable WAL prefix must resume consistently: the
/// journal's replay of a truncated file must match the model's lenient
/// `replay_step` fold over exactly the complete lines that survive the
/// cut. Cuts shorter than the header are rejected loudly (no valid
/// header), never mis-replayed.
#[test]
fn truncated_journal_prefixes_replay_like_the_model_fold() {
    // Write one full walk's WAL, then cut it everywhere interesting.
    let seed = 7u64;
    let dir = scratch("trunc-src");
    let _ = std::fs::remove_dir_all(&dir);
    let key = journal::run_key("conformance-trunc", seed);
    let job = 0xC0DE_F000;
    journal::activate_job(job, &dir, key, false).expect("activate");
    journal::begin_experiment(job, "conf");
    let mut attempts = [0u32; MODEL_POINTS];
    for ev in &random_walk(&SweepMachine, seed, 64) {
        let SweepEvent::Point { idx, event } = ev else { continue };
        match event {
            PointEvent::Schedule => journal::record_scheduled(job, *idx as u64, "li", 1_000, 0xab),
            PointEvent::Attempt => {
                journal::record_attempt(job, *idx as u64, attempts[*idx]);
                attempts[*idx] += 1;
            }
            PointEvent::Complete => journal::record_completed(job, *idx as u64),
            PointEvent::Fail => {
                journal::record_failed(job, *idx as u64, attempts[*idx], "FAILED(model)");
            }
            PointEvent::Interrupt => journal::record_interrupted(job, *idx as u64),
        }
    }
    journal::release(job);
    let wal = std::fs::read(journal::path_for(&dir, key)).expect("read journal");
    let header_len = wal.iter().position(|&b| b == b'\n').expect("header line") + 1;
    assert!(wal.len() > header_len, "walk journalled no events");

    // Cut at every line boundary and three bytes into every line (a
    // torn write). For each prefix, resume a fresh copy and compare
    // against a model fold of the complete lines the cut preserves.
    let mut cuts = vec![header_len - 3];
    for (i, &b) in wal.iter().enumerate() {
        if b == b'\n' {
            cuts.push(i + 1);
            if i + 4 < wal.len() {
                cuts.push(i + 4);
            }
        }
    }
    for (case, &cut) in cuts.iter().enumerate() {
        let cdir = scratch(&format!("trunc-{case}"));
        let _ = std::fs::remove_dir_all(&cdir);
        let cpath = journal::path_for(&cdir, key);
        std::fs::create_dir_all(cpath.parent().expect("journal parent")).expect("mkdir");
        std::fs::write(&cpath, &wal[..cut]).expect("write prefix");

        let cjob = 0xC0DE_F100 + case as u64;
        let activated = journal::activate_job(cjob, &cdir, key, true);
        if cut < header_len {
            // The header itself is torn: the whole file is dropped as a
            // torn tail and the resume reports a missing header.
            assert!(activated.is_err(), "cut {cut}: torn header must be rejected");
            let _ = std::fs::remove_dir_all(&cdir);
            continue;
        }
        activated.expect("torn-tail resume is total past the header");
        journal::begin_experiment(cjob, "conf");

        // The reference fold: complete lines only, checksums verified by
        // the codec's public decoder, dispatched through the model's lenient reader transition.
        let mut model = [PointState::Unscheduled; MODEL_POINTS];
        let mut last_fail: [Option<(u32, String)>; MODEL_POINTS] = [None, None, None];
        let text = String::from_utf8(wal[..cut].to_vec()).expect("utf8 prefix");
        for line in text.split_inclusive('\n') {
            if !line.ends_with('\n') {
                break; // torn tail: the event never happened
            }
            let mut f = Fields::unseal(line).expect("sealed record");
            let Some(event) = specfetch_verify::parse_tag(f.take("kind").expect("kind")) else {
                continue; // the header line
            };
            assert_eq!(f.take_str("exp").expect("exp"), "conf");
            let idx = f.take_u64("idx").expect("idx") as usize;
            if event == PointEvent::Fail {
                let n = f.take_u64("attempts").expect("attempt count") as u32;
                last_fail[idx] = Some((n, f.take_str("reason").expect("reason")));
            }
            model[idx] = replay_step(model[idx], &event);
        }
        for (idx, state) in model.iter().enumerate() {
            let expected = match replay_of(*state) {
                Some(ReplayClass::Completed) => Some(Replayed::Completed),
                Some(ReplayClass::Failed) => {
                    let (n, reason) = last_fail[idx].clone().expect("fail line folded");
                    Some(Replayed::Failed { attempts: n, reason })
                }
                Some(ReplayClass::Pending) | None => None,
            };
            assert_eq!(
                journal::replayed(cjob, idx as u64),
                expected,
                "cut {cut} point {idx}: truncated replay diverged from the model fold"
            );
        }
        journal::release(cjob);
        let _ = std::fs::remove_dir_all(&cdir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
