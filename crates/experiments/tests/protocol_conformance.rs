//! WAL conformance over a *real* run (DESIGN §5l): execute an actual
//! experiment under an activated journal, then replay the on-disk WAL
//! through the model's strict writer-side transition function and
//! assert every recorded event order is one the model allows.
//!
//! The `#[cfg(test)]` conformance module checks model walks against the
//! journal; this test closes the loop from the other side — whatever
//! the production runner actually writes must be a trace of the model.

use std::collections::HashMap;

use specfetch_experiments::codec::Fields;
use specfetch_experiments::{journal, run_experiment, RunOptions};
use specfetch_verify::{parse_tag, point_step, PointEvent, PointState, Step};

#[test]
fn a_real_run_writes_only_model_legal_event_orders() {
    let dir =
        std::env::temp_dir().join(format!("specfetch-protocol-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let job = 0xBEEF_0001;
    let key = journal::run_key("protocol-conformance", 2_000);
    journal::activate_job(job, &dir, key, false).expect("activate journal");

    let opts = RunOptions::smoke().with_instrs(2_000).with_job(job);
    run_experiment("table3", &opts).expect("table3 runs");
    journal::flush();
    journal::release(job);

    let text = std::fs::read_to_string(journal::path_for(&dir, key)).expect("read WAL");
    let mut points: HashMap<(String, u64), PointState> = HashMap::new();
    let mut events = 0usize;
    let mut terminal = (0u64, 0u64, 0u64); // completed, failed, interrupted
    for (lineno, line) in text.lines().enumerate() {
        let mut f = Fields::unseal(line)
            .unwrap_or_else(|e| panic!("line {}: not a sealed record: {e}", lineno + 1));
        let kind = f.take("kind").expect("kind");
        if lineno == 0 {
            assert_eq!(kind, "journal", "header");
            assert_eq!(f.take_u64("format").expect("format"), u64::from(journal::FORMAT_VERSION));
            continue;
        }
        let event = parse_tag(kind).expect("known event tag");
        let exp = f.take_str("exp").expect("experiment");
        let idx = f.take_u64("idx").expect("numeric idx");
        let state = points.entry((exp.clone(), idx)).or_insert(PointState::Unscheduled);
        match point_step(state, &event) {
            Step::Next(next) => *state = next,
            other => panic!(
                "line {}: runner wrote {event:?} for {exp}:{idx} in {state:?} — \
                 the strict model rejects it ({other:?})",
                lineno + 1
            ),
        }
        events += 1;
        match event {
            PointEvent::Complete => terminal.0 += 1,
            PointEvent::Fail => terminal.1 += 1,
            PointEvent::Interrupt => terminal.2 += 1,
            _ => {}
        }
    }
    assert!(events > 0, "the run journalled nothing");
    // A clean uninterrupted run owes every point a Completed terminal.
    assert_eq!(terminal.1, 0, "unexpected terminal failures");
    assert_eq!(terminal.2, 0, "unexpected interruptions");
    for ((exp, idx), state) in &points {
        assert_eq!(*state, PointState::Completed, "{exp}:{idx} did not run to completion");
    }
    assert_eq!(terminal.0 as usize, points.len());
    let _ = std::fs::remove_dir_all(&dir);
}
