//! Front-end assembly: a validated configuration plus a pluggable miss
//! gate, ready to run over a path source.

use std::panic;
use std::sync::Arc;

use specfetch_trace::{PathSource, PredictedTrace};

use crate::engine::gate::{self, MissGate};
use crate::{run_lockstep, SimConfig, SimConfigError, SimResult};

/// A builder assembling the speculative front end for one run.
///
/// [`FrontEnd::build`] validates the configuration and selects the miss
/// gate implementing `cfg.policy`; [`FrontEnd::with_gate`] swaps in any
/// custom [`MissGate`], making new fetch policies a library-level
/// extension rather than an engine change. The prefetchers (next-line,
/// target, stream buffer) follow the configuration flags.
///
/// # Examples
///
/// Run the paper baseline through an explicitly built front end:
///
/// ```
/// use specfetch_core::{FrontEnd, SimConfig};
/// use specfetch_synth::{Workload, WorkloadSpec};
/// use specfetch_trace::PathSource;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let workload = Workload::generate(&WorkloadSpec::c_like("demo", 3))?;
/// let fe = FrontEnd::build(SimConfig::paper_baseline())?;
/// let r = fe.run(workload.executor(1).take_instrs(20_000));
/// assert_eq!(r.correct_instrs, 20_000);
/// # Ok(())
/// # }
/// ```
pub struct FrontEnd {
    cfg: SimConfig,
    gate: Box<dyn MissGate>,
}

impl FrontEnd {
    /// Validates `cfg` and assembles the front end with the gate of
    /// `cfg.policy`.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn build(cfg: SimConfig) -> Result<Self, SimConfigError> {
        cfg.validate()?;
        Ok(Self::for_valid(cfg))
    }

    /// [`FrontEnd::build`] for a configuration the caller has validated.
    pub(crate) fn for_valid(cfg: SimConfig) -> Self {
        FrontEnd { gate: gate::for_policy(cfg.policy), cfg }
    }

    /// Replaces the miss gate (the reported `SimResult::policy` still
    /// names `cfg.policy` — tag custom-gate sweeps accordingly).
    pub fn with_gate(mut self, gate: Box<dyn MissGate>) -> Self {
        self.gate = gate;
        self
    }

    /// The configuration this front end runs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Simulates until `source` is exhausted and returns the measurements.
    ///
    /// The source is recorded into a [`PredictedTrace`] first and run as a
    /// one-lane [`run_lockstep`] batch, so the result is the lockstep
    /// lane's result for the same path.
    ///
    /// # Panics
    ///
    /// Panics if the stream cannot be replayed from its image (see
    /// [`PredictedTrace::record`]), and re-raises a panic of the engine or
    /// the gate.
    pub fn run<P: PathSource>(self, mut source: P) -> SimResult {
        let trace = Arc::new(PredictedTrace::record(&mut source, u64::MAX));
        match run_lockstep(&trace, vec![self]).pop() {
            Some(Ok(result)) => result,
            Some(Err(payload)) => panic::resume_unwind(payload),
            None => unreachable!("run_lockstep returns one outcome per front end"),
        }
    }

    /// Decomposes the assembled front end (the lockstep executor builds
    /// one engine per lane from these parts).
    pub(crate) fn into_parts(self) -> (SimConfig, Box<dyn MissGate>) {
        (self.cfg, self.gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::gate::{GateDecision, GateView};
    use crate::FetchPolicy;
    use specfetch_isa::{Addr, DynInstr, ProgramBuilder};
    use specfetch_trace::VecSource;

    fn straight_source(n: usize) -> VecSource {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(n);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        let path = (0..n).map(|i| DynInstr::seq(Addr::from_word(i as u64))).collect();
        VecSource::new(p, path)
    }

    #[test]
    fn build_rejects_invalid_configs() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.issue_width = 0;
        assert!(FrontEnd::build(cfg).is_err());
    }

    #[test]
    fn built_front_end_matches_simulator() {
        let cfg = SimConfig::paper_baseline();
        let a = FrontEnd::build(cfg).unwrap().run(straight_source(64));
        let b = crate::Simulator::new(cfg).run(straight_source(64));
        assert_eq!(a, b);
    }

    /// A custom gate plugs in without touching the engine: one that always
    /// force-waits a fixed latency behaves strictly worse than Resume.
    #[test]
    fn custom_gate_runs_end_to_end() {
        struct Sluggish;
        impl MissGate for Sluggish {
            fn decide(&self, view: &GateView<'_>) -> GateDecision {
                GateDecision::ForceWait { until: view.cycle() + 10 }
            }
        }
        let cfg = SimConfig::paper_baseline();
        let slow =
            FrontEnd::build(cfg).unwrap().with_gate(Box::new(Sluggish)).run(straight_source(256));
        let fast = FrontEnd::build(cfg).unwrap().run(straight_source(256));
        assert_eq!(slow.correct_instrs, fast.correct_instrs);
        assert!(slow.cycles > fast.cycles, "sluggish gate must cost cycles");
    }

    #[test]
    fn dynamic_policy_builds_its_gate() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = FetchPolicy::Dynamic;
        let r = FrontEnd::build(cfg).unwrap().run(straight_source(64));
        assert_eq!(r.policy, FetchPolicy::Dynamic);
        assert_eq!(r.correct_instrs, 64);
    }
}
