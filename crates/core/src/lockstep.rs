//! Config-lockstep batched simulation: one pass over a shared trace
//! advances every configuration of a grid together.
//!
//! A policy/parameter sweep replays the *same* correct path once per
//! configuration. Sequential scheduling walks the shared trace end-to-end
//! N times — N cold passes. The lockstep executor instead advances all N
//! lanes through the trace **round by round**: each round steps every live
//! lane until its trace cursor reaches the round's watermark, so the
//! region of the trace the round covers stays cache-hot while every lane
//! crosses it. Each lane decodes its own instructions straight from the
//! trace through its own [`PredictedSource`] cursor (DESIGN §5h).
//!
//! What is shared and what is not (DESIGN §5d/§5h):
//!
//! - **Shared, read-only**: the trace (`Arc<PredictedTrace>`), a pure
//!   function of the path — never of a configuration.
//! - **Per-lane, private**: everything timing- or policy-dependent —
//!   I-cache tags, miss-gate state, BTB/PHT/RAS/GHR contents, the bus,
//!   in-flight branch events, and all accounting. Lanes stall and resume
//!   at different cycles and walk different wrong paths, so none of this
//!   state may be shared; each lane keeps its own event watermark and
//!   simulated clock.
//!
//! Because each lane is a self-contained engine over an immutable trace,
//! the interleaving order cannot affect results: lockstep output is
//! byte-identical to running the lanes one after another, which is what
//! the equivalence test suite checks.
//!
//! Fault isolation: each lane's construction and stepping run under
//! `catch_unwind`. A panicking lane records its payload as that lane's
//! outcome and is dropped from the batch; sibling lanes keep stepping.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use specfetch_trace::{PredictedSource, PredictedTrace};

use crate::engine::Engine;
use crate::{FrontEnd, SimResult};

/// The captured panic payload of a failed lane.
pub type LanePanic = Box<dyn std::any::Any + Send + 'static>;

/// One lane's outcome: its measurements, or the panic that killed it.
pub type LaneOutcome = Result<SimResult, LanePanic>;

/// Trace-index quantum per round: how far every lane advances before the
/// next lane takes its turn. Rounds cost almost nothing to schedule, so
/// the quantum only sets how much trace the lanes of a batch share in
/// cache. On the paper grid at 200k
/// instructions on a 2-vCPU host, 4K, 16K and 64K measured within noise
/// of each other.
const QUANTUM: usize = 16 * 1024;

/// Runs one front end per lane over a shared trace, in lockstep.
///
/// Returns one [`LaneOutcome`] per front end, in input order. Lane `i`'s
/// result is byte-identical to `fronts[i].run(PredictedTrace::source(trace))`
/// — the executor changes scheduling, never behaviour.
///
/// A lane that panics (during construction, stepping, or final
/// accounting) yields `Err` with the captured payload; all other lanes
/// complete normally.
pub fn run_lockstep(trace: &Arc<PredictedTrace>, fronts: Vec<FrontEnd>) -> Vec<LaneOutcome> {
    let n_instrs = trace.len();
    let n_lanes = fronts.len();
    let mut out: Vec<Option<LaneOutcome>> = (0..n_lanes).map(|_| None).collect();

    // Lane state, flat: engines are stored contiguously and addressed by
    // index; a dead lane's slot is `None`. The scheduler's own state is
    // just these slots plus the shared watermark — no per-round
    // allocation.
    let mut lanes: Vec<Option<Engine<PredictedSource>>> = fronts
        .into_iter()
        .enumerate()
        .map(|(i, fe)| {
            let (cfg, gate) = fe.into_parts();
            let source = PredictedTrace::source(trace);
            match panic::catch_unwind(AssertUnwindSafe(|| Engine::new(cfg, gate, source))) {
                Ok(engine) => Some(engine),
                Err(payload) => {
                    out[i] = Some(Err(payload));
                    None
                }
            }
        })
        .collect();

    let mut watermark = 0usize;
    loop {
        watermark = (watermark + QUANTUM).min(n_instrs);
        let mut any_live = false;
        for (i, slot) in lanes.iter_mut().enumerate() {
            let Some(engine) = slot else { continue };
            let stepped = panic::catch_unwind(AssertUnwindSafe(|| engine.advance_to(watermark)));
            match stepped {
                Ok(()) if engine.finished() => {
                    // `slot` is `Some` here by construction.
                    if let Some(done) = slot.take() {
                        out[i] = Some(panic::catch_unwind(AssertUnwindSafe(|| done.into_result())));
                    }
                }
                Ok(()) => any_live = true,
                Err(payload) => {
                    *slot = None;
                    out[i] = Some(Err(payload));
                }
            }
        }
        if !any_live || watermark >= n_instrs {
            break;
        }
    }

    // Lanes still live when the watermark hit the end of the trace are
    // finished by definition (`advance_to(len)` runs until the stream
    // ends); collect any the loop exit raced past.
    for (i, slot) in lanes.iter_mut().enumerate() {
        if let Some(engine) = slot.take() {
            debug_assert!(engine.finished(), "lane survived past the end of the trace");
            out[i] = Some(panic::catch_unwind(AssertUnwindSafe(|| engine.into_result())));
        }
    }

    out.into_iter()
        .map(|o| o.unwrap_or_else(|| Err(Box::new("lane was never scheduled") as LanePanic)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::gate::{GateDecision, GateView, MissGate};
    use crate::{FetchPolicy, SimConfig, Simulator};
    use specfetch_isa::{Addr, DynInstr, InstrKind, ProgramBuilder};
    use specfetch_trace::VecSource;

    /// A looping program with a conditional, a call/return pair, and
    /// enough straight-line code to cross cache lines.
    fn trace(len: u64) -> Arc<PredictedTrace> {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Seq);
        for _ in 0..6 {
            b.push(InstrKind::Seq);
        }
        let call = b.push(InstrKind::Call { target: Addr::new(0) });
        for _ in 0..3 {
            b.push(InstrKind::Seq);
        }
        let cond = b.push(InstrKind::CondBranch { target: entry });
        b.push(InstrKind::Jump { target: entry });
        let f = b.push(InstrKind::Seq);
        b.push(InstrKind::Return);
        b.patch_target(call, f);
        b.set_entry(entry);
        let p = b.finish().unwrap();

        let ret_to = Addr::new((call.word_index() as u32 * 4 + 4).into());
        let mut path = Vec::new();
        let mut flip = false;
        while (path.len() as u64) < len {
            for w in 0..=6u64 {
                path.push(DynInstr::seq(Addr::from_word(w)));
            }
            path.push(DynInstr::branch(call, p.fetch(call).unwrap(), true, f));
            path.push(DynInstr::seq(f));
            let ret = Addr::new(f.word_index() * 4 + 4);
            path.push(DynInstr::branch(ret, p.fetch(ret).unwrap(), true, ret_to));
            for w in ret_to.word_index()..=ret_to.word_index() + 2 {
                path.push(DynInstr::seq(Addr::from_word(w)));
            }
            flip = !flip;
            if flip {
                path.push(DynInstr::branch(cond, p.fetch(cond).unwrap(), true, entry));
            } else {
                path.push(DynInstr::branch(cond, p.fetch(cond).unwrap(), false, cond.next()));
                let jump = cond.next();
                path.push(DynInstr::branch(jump, p.fetch(jump).unwrap(), true, entry));
            }
        }
        path.truncate(len as usize);
        let mut live = VecSource::new(p, path);
        Arc::new(PredictedTrace::record(&mut live, u64::MAX))
    }

    fn grid() -> Vec<SimConfig> {
        let mut cfgs = Vec::new();
        for policy in FetchPolicy::ALL {
            let mut c = SimConfig::paper_baseline();
            c.policy = policy;
            cfgs.push(c);
            let mut c2 = c;
            c2.max_unresolved = 1;
            c2.miss_penalty = 11;
            cfgs.push(c2);
        }
        cfgs
    }

    #[test]
    fn lockstep_matches_sequential_per_lane() {
        let ov = trace(40_000);
        let fronts: Vec<FrontEnd> =
            grid().into_iter().map(|c| FrontEnd::build(c).unwrap()).collect();
        let batched = run_lockstep(&ov, fronts);
        for (cfg, lane) in grid().into_iter().zip(batched) {
            let sequential = Simulator::new(cfg).run(PredictedTrace::source(&ov));
            assert_eq!(lane.unwrap(), sequential, "lane diverged under {:?}", cfg.policy);
        }
    }

    #[test]
    fn lanes_cross_quantum_boundaries() {
        // A trace longer than several quanta, so the scheduler rounds are
        // actually exercised.
        let ov = trace(QUANTUM as u64 * 3 + 1_234);
        let cfg = SimConfig::paper_baseline();
        let fronts = vec![FrontEnd::build(cfg).unwrap(), FrontEnd::build(cfg).unwrap()];
        let batched = run_lockstep(&ov, fronts);
        let sequential = Simulator::new(cfg).run(PredictedTrace::source(&ov));
        for lane in batched {
            assert_eq!(lane.unwrap(), sequential);
        }
    }

    #[test]
    fn empty_trace_finishes_every_lane() {
        let p = {
            let mut b = ProgramBuilder::new(Addr::new(0));
            b.push_seq(4);
            b.set_entry(Addr::new(0));
            b.finish().unwrap()
        };
        let mut live = VecSource::new(p, Vec::new());
        let ov = Arc::new(PredictedTrace::record(&mut live, u64::MAX));
        let fronts = vec![FrontEnd::build(SimConfig::paper_baseline()).unwrap()];
        let out = run_lockstep(&ov, fronts);
        assert_eq!(out.len(), 1);
        let r = out.into_iter().next().unwrap().unwrap();
        assert_eq!(r.correct_instrs, 0);
    }

    /// A gate that panics on its first miss decision: a mid-batch lane
    /// fault (the first I-cache access is always a cold miss, so every
    /// workload trips it).
    struct FaultyGate;
    impl MissGate for FaultyGate {
        fn decide(&self, _view: &GateView<'_>) -> GateDecision {
            panic!("injected lane fault");
        }
    }

    #[test]
    fn panicking_lane_fails_alone() {
        let ov = trace(30_000);
        let cfg = SimConfig::paper_baseline();
        let fronts = vec![
            FrontEnd::build(cfg).unwrap(),
            FrontEnd::build(cfg).unwrap().with_gate(Box::new(FaultyGate)),
            FrontEnd::build(cfg).unwrap(),
        ];
        let out = run_lockstep(&ov, fronts);
        assert_eq!(out.len(), 3);
        let sequential = Simulator::new(cfg).run(PredictedTrace::source(&ov));
        assert_eq!(*out[0].as_ref().unwrap(), sequential, "sibling lane 0 must complete");
        assert_eq!(*out[2].as_ref().unwrap(), sequential, "sibling lane 2 must complete");
        let payload = out[1].as_ref().unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(msg.contains("injected lane fault"), "unexpected payload: {msg}");
    }
}
