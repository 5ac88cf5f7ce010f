//! The generated workload and its behavioural interpreter.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use specfetch_isa::{Addr, CfgIssue, CfgReport, DynInstr, InstrKind, Program};
use specfetch_trace::PathSource;

use crate::{generate, BranchBehavior, DispatchTable, SpecError, SynthRng, WorkloadSpec};

/// A generated synthetic program: a static image plus the dynamic
/// behaviours of its data-dependent branch sites.
///
/// Create one with [`Workload::generate`], then obtain any number of
/// independent execution paths with [`Workload::executor`] (each seed
/// gives one deterministic path — the fetch-policy comparisons rely on
/// replaying the *same* path under every policy).
///
/// See the crate-level example.
#[derive(Clone, PartialEq, Debug)]
pub struct Workload {
    name: String,
    /// Shared so every executor (and the engine behind it) can hold the
    /// image without deep-copying it.
    program: Arc<Program>,
    /// Keyed by `pc.word_index()`.
    behaviors: HashMap<u64, BranchBehavior>,
    dispatch: HashMap<u64, DispatchTable>,
}

impl Workload {
    /// Generates the workload described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec fails validation.
    pub fn generate(spec: &WorkloadSpec) -> Result<Workload, SpecError> {
        generate(spec)
    }

    pub(crate) fn from_parts(
        name: String,
        program: Program,
        behaviors: HashMap<u64, BranchBehavior>,
        dispatch: HashMap<u64, DispatchTable>,
    ) -> Self {
        Workload { name, program: Arc::new(program), behaviors, dispatch }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static code image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The static code image as a cheaply clonable shared handle.
    pub fn shared_program(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// The behaviour of the conditional branch at `pc`, if one is there.
    pub fn behavior_at(&self, pc: Addr) -> Option<&BranchBehavior> {
        self.behaviors.get(&pc.word_index())
    }

    /// The dispatch table of the indirect site at `pc`, if one is there.
    pub fn dispatch_at(&self, pc: Addr) -> Option<&DispatchTable> {
        self.dispatch.get(&pc.word_index())
    }

    /// Statically verifies the generated image together with its
    /// behavioural annotations.
    ///
    /// Runs [`specfetch_isa::verify_cfg`] with this workload's dispatch
    /// tables as the indirect-target oracle, then additionally checks the
    /// executor's contract that every conditional carries a
    /// [`BranchBehavior`] (reported as [`CfgIssue::MissingBehavior`]).
    /// A clean report means every correct *and* wrong-path walk the fetch
    /// engine can take stays inside the image — the precondition for the
    /// speculative policies to be comparable at all.
    pub fn analyze(&self) -> CfgReport {
        let mut report = specfetch_isa::verify_cfg(self.program(), |at| {
            self.dispatch_at(at).map(DispatchTable::targets)
        });
        for (at, kind) in self.program().iter() {
            if kind.is_conditional() && self.behavior_at(at).is_none() {
                report.issues.push(CfgIssue::MissingBehavior { at });
            }
        }
        report
    }

    /// A copy of this workload whose first conditional branch is
    /// redirected to an address past the image end — a deliberately
    /// broken workload for exercising the analysis failure paths end to
    /// end (the `repro --corrupt-target` hook and the mutation tests).
    ///
    /// Returns the corrupted workload plus the branch site and bogus
    /// target (so callers can assert the diagnostic is precise), or
    /// `None` if the image has no conditional branch.
    pub fn corrupt_first_branch_target(&self) -> Option<(Workload, Addr, Addr)> {
        let (at, _) = self.program.iter().find(|(_, k)| k.is_conditional())?;
        let bogus = Addr::new(self.program.end().raw() + 0x40);
        let program =
            self.program.with_instr_unchecked(at, InstrKind::CondBranch { target: bogus })?;
        let corrupted = Workload::from_parts(
            self.name.clone(),
            program,
            self.behaviors.clone(),
            self.dispatch.clone(),
        );
        Some((corrupted, at, bogus))
    }

    /// A deterministic execution path: the same `(workload, seed)` always
    /// yields the same instruction stream. The stream is infinite (the
    /// synthetic `main` loops forever); cap it with
    /// [`PathSource::take_instrs`].
    pub fn executor(&self, seed: u64) -> Executor<'_> {
        Executor {
            workload: self,
            rng: SynthRng::seed_from_u64(seed),
            pc: self.program.entry(),
            call_stack: Vec::with_capacity(64),
            loop_counters: HashMap::new(),
            history: 0,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instrs ({} KB), {} static branches",
            self.name,
            self.program.len(),
            self.program.footprint_bytes() / 1024,
            self.program.static_branch_count()
        )
    }
}

/// Executes a [`Workload`], yielding its correct path as a [`PathSource`].
///
/// Produced by [`Workload::executor`].
#[derive(Clone, Debug)]
pub struct Executor<'w> {
    workload: &'w Workload,
    rng: SynthRng,
    pc: Addr,
    call_stack: Vec<Addr>,
    loop_counters: HashMap<u64, u32>,
    /// Outcomes of recent conditionals (bit 0 = most recent), feeding the
    /// `Correlated` behaviour.
    history: u32,
}

impl Executor<'_> {
    /// Current call-stack depth (diagnostic; bounded by the call DAG's
    /// depth).
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }
}

impl PathSource for Executor<'_> {
    fn program(&self) -> &Program {
        &self.workload.program
    }

    fn shared_program(&self) -> Arc<Program> {
        self.workload.shared_program()
    }

    fn next_instr(&mut self) -> Option<DynInstr> {
        let pc = self.pc;
        let kind = self
            .workload
            .program
            .fetch(pc)
            .expect("generated programs are closed: the PC never leaves the image");
        let d = match kind {
            InstrKind::Seq => DynInstr::seq(pc),
            InstrKind::Jump { target } => DynInstr::branch(pc, kind, true, target),
            InstrKind::Call { target } => {
                self.call_stack.push(pc.next());
                DynInstr::branch(pc, kind, true, target)
            }
            InstrKind::Return => {
                let target = self
                    .call_stack
                    .pop()
                    .expect("call DAG guarantees a matching call for every return");
                DynInstr::branch(pc, kind, true, target)
            }
            InstrKind::CondBranch { target } => {
                let behavior = self
                    .workload
                    .behavior_at(pc)
                    .expect("generator attaches a behavior to every conditional");
                let taken = match *behavior {
                    BranchBehavior::Loop { trip } => {
                        let ctr = self.loop_counters.entry(pc.word_index()).or_insert(0);
                        if *ctr < trip {
                            *ctr += 1;
                            true
                        } else {
                            *ctr = 0;
                            false
                        }
                    }
                    BranchBehavior::Biased { p_taken } => self.rng.gen_bool(p_taken),
                    BranchBehavior::Correlated { lag, p_agree } => {
                        let past = (self.history >> (lag - 1)) & 1 == 1;
                        if self.rng.gen_bool(p_agree) {
                            past
                        } else {
                            !past
                        }
                    }
                };
                self.history = (self.history << 1) | taken as u32;
                let next_pc = if taken { target } else { pc.next() };
                DynInstr::branch(pc, kind, taken, next_pc)
            }
            InstrKind::IndirectCall => {
                let table = self
                    .workload
                    .dispatch_at(pc)
                    .expect("generator attaches a table to every indirect site");
                let target = table.pick(self.rng.gen_f64());
                self.call_stack.push(pc.next());
                DynInstr::branch(pc, kind, true, target)
            }
            InstrKind::IndirectJump => {
                let table = self
                    .workload
                    .dispatch_at(pc)
                    .expect("generator attaches a table to every indirect site");
                let target = table.pick(self.rng.gen_f64());
                DynInstr::branch(pc, kind, true, target)
            }
        };
        self.pc = d.next_pc;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_trace::TraceStats;

    fn workload() -> Workload {
        Workload::generate(&WorkloadSpec::cpp_like("t", 11)).unwrap()
    }

    #[test]
    fn executor_is_deterministic_per_seed() {
        let w = workload();
        let mut a = w.executor(5);
        let mut b = w.executor(5);
        for _ in 0..20_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let w = workload();
        let mut a = w.executor(5);
        let mut b = w.executor(6);
        let diverged = (0..20_000).any(|_| a.next_instr() != b.next_instr());
        assert!(diverged);
    }

    #[test]
    fn path_stays_inside_the_image() {
        let w = workload();
        let mut e = w.executor(1);
        for _ in 0..50_000 {
            let d = e.next_instr().unwrap();
            assert!(w.program().contains(d.pc));
            assert!(w.program().contains(d.next_pc));
        }
    }

    #[test]
    fn call_stack_stays_bounded() {
        let w = workload();
        let mut e = w.executor(2);
        let mut max_depth = 0;
        for _ in 0..100_000 {
            e.next_instr();
            max_depth = max_depth.max(e.call_depth());
        }
        // The call DAG bounds depth by the function count.
        assert!(max_depth <= 72 + 1, "depth {max_depth} exceeds the DAG bound");
        assert!(max_depth >= 1, "calls should actually happen");
    }

    #[test]
    fn successor_consistency() {
        // next_pc of each instruction equals pc of the next one.
        let w = workload();
        let mut e = w.executor(3);
        let mut prev: Option<DynInstr> = None;
        for _ in 0..10_000 {
            let d = e.next_instr().unwrap();
            if let Some(p) = prev {
                assert_eq!(p.next_pc, d.pc);
            }
            prev = Some(d);
        }
    }

    #[test]
    fn branch_density_roughly_matches_preset() {
        let w = Workload::generate(&WorkloadSpec::c_like("dens", 4)).unwrap();
        let mut e = w.executor(1).take_instrs(200_000);
        let stats = TraceStats::from_source(&mut e);
        // C-like presets target the paper's 13-20% branch range; allow slack.
        assert!(
            stats.branch_pct() > 8.0 && stats.branch_pct() < 30.0,
            "unexpected branch density {:.1}%",
            stats.branch_pct()
        );
    }

    #[test]
    fn loop_behavior_produces_taken_runs() {
        let w = Workload::generate(&WorkloadSpec::fortran_like("loops", 4)).unwrap();
        let mut e = w.executor(1).take_instrs(200_000);
        let stats = TraceStats::from_source(&mut e);
        // Loop back-edges bias the mix toward taken; correlated and
        // skip-style conditionals pull toward 50%, so the loop-heavy
        // preset must stay clearly above a not-taken-dominated mix.
        assert!(stats.taken_ratio() > 0.45, "taken ratio {:.2}", stats.taken_ratio());
    }

    #[test]
    fn display_mentions_name() {
        assert!(workload().to_string().contains("t:"));
    }
}
