//! Structured program generation.
//!
//! The generator builds a call **DAG**: function `i` may only call
//! functions with larger indices, so call chains always terminate and the
//! interpreter's call stack stays bounded. Each function body is a small
//! AST of basic blocks, loop nests, if/else diamonds, direct calls, and
//! (for C++-like specs) indirect dispatch sites; `main` is an infinite
//! loop that calls the hot set every iteration and each cold function with
//! a small probability — the knob that sets I-cache capacity pressure.

use std::collections::HashMap;

use specfetch_isa::{Addr, InstrKind, ProgramBuilder};

use crate::{BranchBehavior, DispatchTable, SpecError, SynthRng, Workload, WorkloadSpec};

/// Where generated code images start (arbitrary, nonzero to catch
/// zero-confusion bugs).
const BASE: Addr = Addr::new(0x1_0000);

enum Stmt {
    /// `n` sequential instructions.
    Block(usize),
    /// A do-while loop: body then a backward conditional.
    Loop { trip: u32, body: Vec<Stmt> },
    /// A conditional skip/diamond guarding its arms with the given
    /// behaviour (taking the branch skips the then-arm).
    If { behavior: BranchBehavior, then_: Vec<Stmt>, else_: Vec<Stmt> },
    /// Direct call to function `idx`.
    Call(usize),
    /// Indirect call dispatching over `(function, weight)` pairs.
    ICall(Vec<(usize, f64)>),
}

struct Gen<'s> {
    spec: &'s WorkloadSpec,
    rng: SynthRng,
    /// Call sites emitted so far in the function being generated
    /// (bounded by `spec.max_calls_per_fn`).
    calls_in_fn: usize,
}

impl Gen<'_> {
    fn block_len(&mut self) -> usize {
        self.rng.gen_range(self.spec.block_len.0..=self.spec.block_len.1)
    }

    /// Behaviour of a generated if-conditional: correlated with the
    /// global history, weakly biased, or strongly biased.
    fn if_behavior(&mut self) -> BranchBehavior {
        if self.rng.gen_bool(self.spec.corr_branch_frac) {
            return BranchBehavior::Correlated {
                lag: self.rng.gen_range(1..=4),
                p_agree: self.rng.gen_range(0.85..=0.97),
            };
        }
        let p_taken = if self.rng.gen_bool(self.spec.weak_branch_frac) {
            self.rng.gen_range(self.spec.weak_bias.0..=self.spec.weak_bias.1)
        } else if self.rng.gen_bool(0.5) {
            self.spec.strong_bias
        } else {
            1.0 - self.spec.strong_bias
        };
        BranchBehavior::Biased { p_taken }
    }

    /// Statement list for a body; always starts with a straight block so
    /// loop bodies and branch arms contain real work.
    ///
    /// `depth` counts *all* structural nesting (loops and ifs). Capping it
    /// keeps the recursive generation process subcritical — without the
    /// cap the expected number of children per statement exceeds one for
    /// the branchy presets and the tree (and the stack) diverges.
    fn stmts(&mut self, n: usize, fn_idx: usize, depth: usize, loop_depth: usize) -> Vec<Stmt> {
        let mut v = Vec::with_capacity(n + 1);
        v.push(Stmt::Block(self.block_len()));
        for _ in 0..n {
            v.push(self.stmt(fn_idx, depth, loop_depth));
        }
        v
    }

    /// Callee index for a call site in `fn_idx`: a small forward jump,
    /// keeping chains inside a local band of the image (see
    /// [`WorkloadSpec::call_jump`]).
    fn pick_callee(&mut self, fn_idx: usize) -> usize {
        let hi = (fn_idx + self.spec.call_jump).min(self.spec.n_functions - 1);
        self.rng.gen_range(fn_idx + 1..=hi)
    }

    fn stmt(&mut self, fn_idx: usize, depth: usize, loop_depth: usize) -> Stmt {
        const MAX_NEST: usize = 4;
        let spec = self.spec;
        let callees = fn_idx + 1..spec.n_functions;
        let r = self.rng.gen_f64();
        let mut threshold = spec.p_loop;
        if r < threshold && loop_depth < spec.max_loop_depth && depth < MAX_NEST {
            let trip = self.rng.gen_range(spec.loop_trip.0..=spec.loop_trip.1);
            let n = self.rng.gen_range(1..=2);
            return Stmt::Loop { trip, body: self.stmts(n, fn_idx, depth + 1, loop_depth + 1) };
        }
        threshold += spec.p_if;
        if r < threshold && depth < MAX_NEST {
            let behavior = self.if_behavior();
            let then_n = self.rng.gen_range(1..=2);
            let then_ = self.stmts(then_n, fn_idx, depth + 1, loop_depth);
            let else_ = if self.rng.gen_bool(0.5) {
                Vec::new()
            } else {
                self.stmts(1, fn_idx, depth + 1, loop_depth)
            };
            return Stmt::If { behavior, then_, else_ };
        }
        // Calls are only emitted outside loop bodies: a call under a
        // trip-N loop multiplies the callee's whole activation tree by N,
        // which compounds across the call DAG and traps execution in one
        // chain for billions of instructions. Keeping calls at loop depth
        // zero bounds an activation's cost by (fanout)^(DAG depth), which
        // is small because callee indices jump geometrically toward the
        // leaves.
        let may_call = loop_depth == 0 && self.calls_in_fn < spec.max_calls_per_fn;
        threshold += spec.p_call;
        if r < threshold && !callees.is_empty() && may_call {
            let idx = self.pick_callee(fn_idx);
            self.calls_in_fn += 1;
            return Stmt::Call(idx);
        }
        threshold += spec.p_icall;
        if r < threshold && callees.len() >= 2 && may_call {
            let want = spec.dispatch_targets.min(callees.len());
            let mut entries = Vec::with_capacity(want);
            for k in 0..want {
                // Sample distinct-ish targets; weights fall off so one
                // receiver dominates (virtual-dispatch locality).
                let idx = self.pick_callee(fn_idx);
                if entries.iter().any(|&(i, _)| i == idx) {
                    continue;
                }
                entries.push((idx, 1.0 / (1.0 + k as f64)));
            }
            if !entries.is_empty() {
                self.calls_in_fn += 1;
                return Stmt::ICall(entries);
            }
        }
        Stmt::Block(self.block_len())
    }
}

struct Emitter {
    builder: ProgramBuilder,
    behaviors: HashMap<u64, BranchBehavior>,
    call_fixups: Vec<(Addr, usize)>,
    dispatch_fixups: Vec<(Addr, Vec<(usize, f64)>)>,
}

impl Emitter {
    fn emit_stmts(&mut self, stmts: Vec<Stmt>) {
        for s in stmts {
            self.emit(s);
        }
    }

    fn emit(&mut self, stmt: Stmt) {
        match stmt {
            Stmt::Block(n) => {
                self.builder.push_seq(n);
            }
            Stmt::Loop { trip, body } => {
                let top = self.builder.next_addr();
                self.emit_stmts(body);
                let b = self.builder.push(InstrKind::CondBranch { target: top });
                self.behaviors.insert(b.word_index(), BranchBehavior::Loop { trip });
            }
            Stmt::If { behavior, then_, else_ } => {
                let b = self.builder.push(InstrKind::CondBranch { target: BASE });
                self.behaviors.insert(b.word_index(), behavior);
                self.emit_stmts(then_);
                if else_.is_empty() {
                    let join = self.builder.next_addr();
                    self.builder.patch_target(b, join);
                } else {
                    let skip_else = self.builder.push(InstrKind::Jump { target: BASE });
                    let else_lbl = self.builder.next_addr();
                    self.builder.patch_target(b, else_lbl);
                    self.emit_stmts(else_);
                    let join = self.builder.next_addr();
                    self.builder.patch_target(skip_else, join);
                }
            }
            Stmt::Call(idx) => {
                let c = self.builder.push(InstrKind::Call { target: BASE });
                self.call_fixups.push((c, idx));
            }
            Stmt::ICall(entries) => {
                let ic = self.builder.push(InstrKind::IndirectCall);
                self.dispatch_fixups.push((ic, entries));
            }
        }
    }
}

/// Generates the workload a [`WorkloadSpec`] describes.
///
/// Deterministic: the same spec (including its seed) always yields the
/// same program, behaviours, and dispatch tables.
///
/// # Errors
///
/// Returns [`SpecError`] if the spec fails validation.
pub fn generate(spec: &WorkloadSpec) -> Result<Workload, SpecError> {
    spec.validate()?;
    let mut g = Gen { spec, rng: SynthRng::seed_from_u64(spec.seed), calls_in_fn: 0 };

    let mut e = Emitter {
        builder: ProgramBuilder::new(BASE),
        behaviors: HashMap::new(),
        call_fixups: Vec::new(),
        dispatch_fixups: Vec::new(),
    };

    // Generate one function's body, emit it and drop it, so only one AST
    // is ever alive. Emission must draw no randomness: interleaved with
    // generation, it would otherwise change the stream and the image.
    let mut fn_entries = Vec::with_capacity(spec.n_functions);
    for fn_idx in 0..spec.n_functions {
        let n = g.rng.gen_range(spec.stmts_per_fn.0..=spec.stmts_per_fn.1);
        g.calls_in_fn = 0;
        let body = g.stmts(n, fn_idx, 0, 0);
        fn_entries.push(e.builder.next_addr());
        e.emit_stmts(body);
        e.builder.push(InstrKind::Return);
    }

    // main: infinite loop over the hot set plus probabilistic cold calls.
    // Hot roots are spread across the whole index space (stride layout) so
    // their local call bands barely overlap; the remaining functions are
    // cold roots behind biased guards.
    let main_top = e.builder.next_addr();
    e.builder.push_seq(g.rng.gen_range(spec.block_len.0..=spec.block_len.1));
    let hot_roots: Vec<usize> =
        (0..spec.hot_functions).map(|k| k * spec.n_functions / spec.hot_functions).collect();
    for &hot in &hot_roots {
        let c = e.builder.push(InstrKind::Call { target: BASE });
        e.call_fixups.push((c, hot));
    }
    for cold in 0..spec.n_functions {
        if hot_roots.contains(&cold) {
            continue;
        }
        let skip = e.builder.push(InstrKind::CondBranch { target: BASE });
        e.behaviors.insert(
            skip.word_index(),
            BranchBehavior::Biased { p_taken: 1.0 - spec.cold_call_prob },
        );
        let c = e.builder.push(InstrKind::Call { target: BASE });
        e.call_fixups.push((c, cold));
        let join = e.builder.next_addr();
        e.builder.patch_target(skip, join);
    }
    e.builder.push(InstrKind::Jump { target: main_top });

    for (at, idx) in &e.call_fixups {
        e.builder.patch_target(*at, fn_entries[*idx]);
    }
    e.builder.set_entry(main_top);
    let program = match e.builder.finish() {
        Ok(p) => p,
        // A build failure here is a generator-logic bug (every emitted
        // image must be closed), not a recoverable condition — but the
        // builder's own diagnosis beats an opaque expect message.
        Err(e) => panic!("generator emits a closed image: {e}"),
    };

    let dispatch = e
        .dispatch_fixups
        .into_iter()
        .map(|(at, entries)| {
            let resolved: Vec<(Addr, f64)> =
                entries.iter().map(|&(idx, w)| (fn_entries[idx], w)).collect();
            (at.word_index(), DispatchTable::new(&resolved))
        })
        .collect();

    Ok(Workload::from_parts(spec.name.clone(), program, e.behaviors, dispatch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::c_like("det", 99);
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        assert_eq!(a.program(), b.program());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadSpec::c_like("a", 1)).unwrap();
        let b = generate(&WorkloadSpec::c_like("a", 2)).unwrap();
        assert_ne!(a.program(), b.program());
    }

    #[test]
    fn every_cond_branch_has_a_behavior() {
        let w = generate(&WorkloadSpec::cpp_like("beh", 5)).unwrap();
        for (pc, kind) in w.program().iter() {
            if kind.is_conditional() {
                assert!(w.behavior_at(pc).is_some(), "conditional at {pc} lacks a behavior");
            }
            if matches!(kind, InstrKind::IndirectCall | InstrKind::IndirectJump) {
                assert!(w.dispatch_at(pc).is_some(), "indirect at {pc} lacks a table");
            }
        }
    }

    #[test]
    fn fortran_preset_has_no_indirection() {
        let w = generate(&WorkloadSpec::fortran_like("f", 3)).unwrap();
        let has_indirect = w
            .program()
            .iter()
            .any(|(_, k)| matches!(k, InstrKind::IndirectCall | InstrKind::IndirectJump));
        assert!(!has_indirect);
    }

    #[test]
    fn cpp_preset_has_indirection() {
        let w = generate(&WorkloadSpec::cpp_like("cpp", 3)).unwrap();
        let n = w.program().iter().filter(|(_, k)| matches!(k, InstrKind::IndirectCall)).count();
        assert!(n > 0, "cpp-like workloads should contain indirect calls");
    }

    #[test]
    fn block_length_shapes_branch_density() {
        let long = generate(&WorkloadSpec::fortran_like("f", 7)).unwrap();
        let short = generate(&WorkloadSpec::c_like("c", 7)).unwrap();
        let density =
            |w: &Workload| w.program().static_branch_count() as f64 / w.program().len() as f64;
        assert!(
            density(&long) < density(&short),
            "fortran-like images must be less branchy than c-like"
        );
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut s = WorkloadSpec::c_like("x", 1);
        s.n_functions = 0;
        assert!(generate(&s).is_err());
    }
}
