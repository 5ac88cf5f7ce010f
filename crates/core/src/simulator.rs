//! The public simulation entry point.

use specfetch_trace::PathSource;

use crate::{FrontEnd, SimConfig, SimResult};

/// Runs the fetch engine over a path source.
///
/// A `Simulator` is a configured, reusable launcher: [`Simulator::run`]
/// records one [`PathSource`], replays it and returns the full
/// [`SimResult`]. Policy comparisons replay the *same* path (same
/// workload, same seed, same instruction cap) under different configs —
/// the engine never perturbs the path's outcomes, so results are
/// directly comparable. To run many configurations over one recorded
/// path, use [`run_lockstep`](crate::run_lockstep).
///
/// See the crate-level example.
#[derive(Copy, Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`SimConfig::validate`] first when the config comes from user
    /// input.
    pub fn new(config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        Simulator { config }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates until `source` is exhausted and returns the measurements
    /// (see [`FrontEnd::run`]).
    ///
    /// # Panics
    ///
    /// Panics if the stream cannot be replayed from its image (see
    /// [`PredictedTrace::record`](specfetch_trace::PredictedTrace::record)).
    pub fn run<P: PathSource>(&self, source: P) -> SimResult {
        FrontEnd::for_valid(self.config).run(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FetchPolicy, SimConfig};
    use specfetch_isa::{Addr, DynInstr, InstrKind, Program, ProgramBuilder};
    use specfetch_synth::{Workload, WorkloadSpec};
    use specfetch_trace::{PathSource, VecSource};

    fn straight_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(n);
        b.set_entry(Addr::new(0));
        b.finish().unwrap()
    }

    fn straight_path(n: usize) -> Vec<DynInstr> {
        (0..n).map(|i| DynInstr::seq(Addr::from_word(i as u64))).collect()
    }

    fn cfg(policy: FetchPolicy) -> SimConfig {
        let mut c = SimConfig::paper_baseline();
        c.policy = policy;
        c
    }

    /// 64 sequential instructions = 8 lines; every policy sees the same 8
    /// cold misses and no branch penalties.
    #[test]
    fn straight_line_code_costs_only_cold_misses() {
        for policy in FetchPolicy::ALL {
            let src = VecSource::new(straight_program(64), straight_path(64));
            let r = Simulator::new(cfg(policy)).run(src);
            assert_eq!(r.correct_instrs, 64, "{policy}");
            assert_eq!(r.cache_correct.misses, 8, "{policy}");
            assert_eq!(r.lost.branch, 0, "{policy}");
            assert_eq!(r.lost.branch_full, 0, "{policy}");
            assert_eq!(r.lost.wrong_icache, 0, "{policy}");
            // 8 cold misses x 5-cycle penalty stalls. Pessimistic/Decode
            // additionally wait the 2-cycle decode gate per miss (the
            // machine cannot know the just-fetched instructions were not
            // branches until they decode); the aggressive policies pay no
            // such tax.
            if matches!(policy, FetchPolicy::Pessimistic | FetchPolicy::Decode) {
                // Each non-cold miss lands 2 cycles after the last fetch
                // slot of the previous line, so one gate cycle remains to
                // wait out: 7 misses x 1 cycle x 4 slots. (The very first
                // miss sees an empty pipeline and no gate.)
                assert_eq!(r.lost.force_resolve, 7 * 4, "{policy}: {:?}", r.lost);
            } else {
                assert_eq!(r.lost.force_resolve, 0, "{policy}: {:?}", r.lost);
            }
            assert!(r.lost.rt_icache >= 8 * 4, "{policy}: {:?}", r.lost);
            assert!(r.slots_balance() || r.correct_instrs + r.lost.total() <= r.cycles * 4);
            assert_eq!(r.traffic_demand_correct, 8, "{policy}");
            assert_eq!(r.traffic_demand_wrong, 0, "{policy}");
        }
    }

    /// A tight always-taken loop: after warm-up the BTB predicts it and
    /// fetch proceeds at full width with no losses.
    #[test]
    fn predictable_loop_reaches_near_zero_ispi() {
        // loop body: 7 seq + backward cond branch (always taken except the
        // final fall-through doesn't happen within the cap).
        let mut b = ProgramBuilder::new(Addr::new(0));
        let top = b.push_seq(7);
        b.push(InstrKind::CondBranch { target: top });
        b.set_entry(top);
        let p = b.finish().unwrap();

        let mut path = Vec::new();
        for _ in 0..500 {
            for i in 0..7u64 {
                path.push(DynInstr::seq(Addr::from_word(i)));
            }
            path.push(DynInstr::branch(
                Addr::from_word(7),
                InstrKind::CondBranch { target: top },
                true,
                top,
            ));
        }
        let r = Simulator::new(cfg(FetchPolicy::Resume)).run(VecSource::new(p, path));
        assert_eq!(r.correct_instrs, 4000);
        // One cold miss; a handful of early mispredicts while the 2-bit
        // counter trains; then steady state.
        // gshare warm-up costs one mispredict per fresh history context
        // (the GHR walks 0b1, 0b11, ... while the loop trains), so allow a
        // couple dozen before steady state.
        assert!(r.ispi() < 0.08, "ispi {} lost {:?}", r.ispi(), r.lost);
        assert!(r.mispredicts <= 24, "mispredicts {}", r.mispredicts);
    }

    /// The canonical policy-separation scenario from the paper: a
    /// mispredicted branch whose wrong path misses in the cache.
    ///
    /// Layout: branch at line 0, fall-through (wrong path) on line 4,
    /// taken target (correct path) on line 8. The wrong-path line is far
    /// away so it is a compulsory miss.
    fn wrong_path_miss_scenario() -> (Program, Vec<DynInstr>) {
        let mut b = ProgramBuilder::new(Addr::new(0));
        // Entry block: 8 instrs on line 0, then the branch.
        b.push_seq(7);
        let branch_pc = b.push(InstrKind::CondBranch { target: Addr::new(0) }); // patched
                                                                                // Wrong path (fall-through): lines 1..3.
        b.push_seq(24);
        // Correct path target.
        let target = b.next_addr();
        b.push_seq(64);
        b.patch_target(branch_pc, target);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();

        let mut path: Vec<DynInstr> = (0..7).map(|i| DynInstr::seq(Addr::from_word(i))).collect();
        path.push(DynInstr::branch(branch_pc, InstrKind::CondBranch { target }, true, target));
        for i in 0..64u64 {
            path.push(DynInstr::seq(Addr::new(target.raw() + 4 * i)));
        }
        (p, path)
    }

    #[test]
    fn oracle_and_pessimistic_never_fill_wrong_path() {
        for policy in [FetchPolicy::Oracle, FetchPolicy::Pessimistic] {
            let (p, path) = wrong_path_miss_scenario();
            let r = Simulator::new(cfg(policy)).run(VecSource::new(p, path));
            assert_eq!(r.traffic_demand_wrong, 0, "{policy}");
        }
    }

    #[test]
    fn optimistic_and_resume_fill_the_wrong_path_line() {
        for policy in [FetchPolicy::Optimistic, FetchPolicy::Resume] {
            let (p, path) = wrong_path_miss_scenario();
            let r = Simulator::new(cfg(policy)).run(VecSource::new(p, path));
            // The cold branch is predicted not-taken (weak counter), so
            // fetch falls through onto line 1 and misses there.
            assert!(r.traffic_demand_wrong >= 1, "{policy}: {r}");
            assert_eq!(r.mispredicts, 1, "{policy}");
        }
    }

    #[test]
    fn resume_recovers_faster_than_optimistic_on_wrong_path_miss() {
        let run = |policy| {
            let (p, path) = wrong_path_miss_scenario();
            Simulator::new(cfg(policy)).run(VecSource::new(p, path))
        };
        let opt = run(FetchPolicy::Optimistic);
        let res = run(FetchPolicy::Resume);
        // Optimistic blocks on the wrong-path fill past the resolve;
        // Resume redirects immediately (wrong_icache = 0 by construction).
        assert!(opt.lost.wrong_icache > 0, "optimistic {:?}", opt.lost);
        assert_eq!(res.lost.wrong_icache, 0, "resume {:?}", res.lost);
        assert!(res.cycles <= opt.cycles);
    }

    #[test]
    fn decode_waits_out_misfetches_only() {
        // A BTB-missing unconditional jump: pure misfetch. Decode must not
        // issue the wrong-path fill during the 2-cycle wait.
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(7);
        let j = b.push(InstrKind::Jump { target: Addr::new(0) });
        b.push_seq(24); // fall-through wrong path, distinct lines
        let target = b.next_addr();
        b.push_seq(32);
        b.patch_target(j, target);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        let mut path: Vec<DynInstr> = (0..7).map(|i| DynInstr::seq(Addr::from_word(i))).collect();
        path.push(DynInstr::branch(j, InstrKind::Jump { target }, true, target));
        for i in 0..32u64 {
            path.push(DynInstr::seq(Addr::new(target.raw() + 4 * i)));
        }
        let r = Simulator::new(cfg(FetchPolicy::Decode)).run(VecSource::new(p, path));
        assert_eq!(r.misfetches, 1);
        assert_eq!(
            r.traffic_demand_wrong, 0,
            "a misfetch transient must not reach memory under Decode"
        );
    }

    #[test]
    fn slots_accounting_identity_holds_on_synthetic_workloads() {
        let w = Workload::generate(&WorkloadSpec::cpp_like("bal", 7)).unwrap();
        for policy in FetchPolicy::ALL {
            let mut c = cfg(policy);
            c.classify = true;
            let r = Simulator::new(c).run(w.executor(3).take_instrs(30_000));
            assert_eq!(
                r.cycles * 4,
                r.correct_instrs + r.lost.total() + unused_slack(&r),
                "{policy}: lost {:?}",
                r.lost
            );
        }
    }

    fn unused_slack(r: &crate::SimResult) -> u64 {
        r.cycles * r.issue_width as u64 - r.correct_instrs - r.lost.total()
    }

    #[test]
    fn miss_counts_pair_up_as_in_paper_footnote() {
        // Footnote 3: Pessimistic and Oracle generate the same misses;
        // Optimistic and Resume generate the same misses.
        let w = Workload::generate(&WorkloadSpec::c_like("pairs", 9)).unwrap();
        let run = |policy| Simulator::new(cfg(policy)).run(w.executor(5).take_instrs(40_000));
        let oracle = run(FetchPolicy::Oracle);
        let pess = run(FetchPolicy::Pessimistic);
        let opt = run(FetchPolicy::Optimistic);
        let res = run(FetchPolicy::Resume);
        assert_eq!(
            oracle.traffic_demand_correct + oracle.traffic_demand_wrong,
            pess.traffic_demand_correct + pess.traffic_demand_wrong,
            "oracle vs pessimistic traffic"
        );
        // Optimistic and Resume fill (nearly) the same lines; Resume can
        // avoid refetches via the resume buffer and recovers earlier (so
        // it walks less wrong path, generating slightly fewer wrong-path
        // misses), so allow a modest slack rather than exact equality.
        let opt_t = opt.total_traffic();
        let res_t = res.total_traffic();
        let diff = opt_t.abs_diff(res_t) as f64 / opt_t.max(1) as f64;
        assert!(diff < 0.06, "optimistic {opt_t} vs resume {res_t}");
    }

    #[test]
    fn classification_is_consistent_with_miss_rates() {
        let w = Workload::generate(&WorkloadSpec::c_like("cls", 11)).unwrap();
        let mut c = cfg(FetchPolicy::Optimistic);
        c.classify = true;
        let r = Simulator::new(c).run(w.executor(2).take_instrs(60_000));
        let cls = r.classification.expect("classification enabled");
        assert_eq!(cls.correct_accesses, r.correct_instrs);
        assert_eq!(
            cls.both_miss + cls.spec_pollute,
            r.cache_correct.misses,
            "correct-path misses must be BM + SPo"
        );
        assert_eq!(cls.wrong_path, r.cache_wrong.misses);
    }

    #[test]
    fn deeper_speculation_reduces_ispi() {
        let w = Workload::generate(&WorkloadSpec::c_like("depth", 13)).unwrap();
        let run = |depth| {
            let mut c = cfg(FetchPolicy::Resume);
            c.max_unresolved = depth;
            Simulator::new(c).run(w.executor(4).take_instrs(60_000))
        };
        let d1 = run(1);
        let d4 = run(4);
        assert!(d1.lost.branch_full > d4.lost.branch_full);
        assert!(
            d4.ispi() < d1.ispi(),
            "depth 4 ISPI {} should beat depth 1 ISPI {}",
            d4.ispi(),
            d1.ispi()
        );
    }

    #[test]
    fn prefetch_reduces_ispi_on_sequential_code() {
        let src = || VecSource::new(straight_program(4096), straight_path(4096));
        let mut base = cfg(FetchPolicy::Resume);
        let mut pref = base;
        pref.prefetch = true;
        let r0 = Simulator::new(base).run(src());
        let r1 = Simulator::new(pref).run(src());
        assert!(r1.prefetches_issued() > 0);
        // Steady state: without prefetch a line costs 2 fetch + 5 stall
        // cycles (ISPI 2.5); with next-line prefetch the 5-cycle fill
        // overlaps the 2 fetch cycles, leaving 3 stall cycles (ISPI 1.5).
        assert!(r1.ispi() < r0.ispi() * 0.7, "prefetch ISPI {} vs base {}", r1.ispi(), r0.ispi());
        base.prefetch = false; // silence unused-mut lint paranoia
        let _ = base;
    }

    /// A tight alternation between two distant lines via taken jumps:
    /// next-line prefetching cannot help, target prefetching can.
    #[test]
    fn target_prefetch_covers_taken_branches() {
        // Program: line A (7 seq + jump to B), line B far away (7 seq +
        // jump back to A')... build a chain of blocks each ending in a
        // jump to a far block, cycling through enough lines to overflow
        // nothing but never being sequential.
        let mut b = ProgramBuilder::new(Addr::new(0));
        // 32 blocks: the jump sources land on even lines 0..62, one per
        // slot of the 64-entry target table (64 blocks would alias).
        let n_blocks = 32usize;
        let mut jumps = Vec::new();
        for _ in 0..n_blocks {
            b.push_seq(7);
            jumps.push(b.push(InstrKind::Jump { target: Addr::new(0) }));
            b.push_seq(8); // dead padding so consecutive blocks are 2 lines apart
        }
        for (i, &j) in jumps.iter().enumerate() {
            let next_block = ((i + 1) % n_blocks) as u64 * 16;
            b.patch_target(j, Addr::from_word(next_block));
        }
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();

        let mut path = Vec::new();
        for round in 0..12 {
            let _ = round;
            for i in 0..n_blocks as u64 {
                let base = i * 16;
                for k in 0..7 {
                    path.push(DynInstr::seq(Addr::from_word(base + k)));
                }
                let target = Addr::from_word(((i + 1) % n_blocks as u64) * 16);
                path.push(DynInstr::branch(
                    Addr::from_word(base + 7),
                    InstrKind::Jump { target },
                    true,
                    target,
                ));
            }
        }

        let run = |target_prefetch: bool| {
            let mut c = cfg(FetchPolicy::Resume);
            // 64 blocks x 2 lines = 4KB: fits an 8K cache, so force misses
            // with a small cache instead.
            c.icache.size_bytes = 1024;
            c.target_prefetch = target_prefetch;
            Simulator::new(c).run(VecSource::new(p.clone(), path.clone()))
        };
        let plain = run(false);
        let tp = run(true);
        assert!(tp.traffic_target_prefetch > 0, "target prefetches must issue");
        assert!(
            tp.ispi() < plain.ispi(),
            "target prefetch ISPI {} should beat plain {}",
            tp.ispi(),
            plain.ispi()
        );
    }

    #[test]
    fn both_path_prefetching_composes() {
        let w = Workload::generate(&WorkloadSpec::c_like("both", 31)).unwrap();
        let run = |next: bool, target: bool| {
            let mut c = cfg(FetchPolicy::Resume);
            c.prefetch = next;
            c.target_prefetch = target;
            Simulator::new(c).run(w.executor(2).take_instrs(120_000))
        };
        let none = run(false, false);
        let nl = run(true, false);
        let both = run(true, true);
        assert!(nl.ispi() < none.ispi(), "next-line must help");
        // Pierce & Mudge: next-line provides most of the gain; adding
        // target prefetching should not catastrophically hurt and adds
        // traffic.
        assert!(both.total_traffic() >= nl.total_traffic());
        assert!(both.ispi() < none.ispi());
        assert_eq!(none.traffic_target_prefetch, 0);
        assert!(both.traffic_target_prefetch > 0);
    }

    #[test]
    fn stream_buffer_covers_sequential_code() {
        let src = || VecSource::new(straight_program(4096), straight_path(4096));
        let base = cfg(FetchPolicy::Resume);
        let mut sb = base;
        sb.stream_buffer = true;
        let r0 = Simulator::new(base).run(src());
        let r1 = Simulator::new(sb).run(src());
        assert!(r1.prefetches_issued() > 0, "stream must issue prefetches");
        assert!(r1.prefetch_hits > 0, "misses must be served from the FIFO head");
        assert!(
            r1.ispi() < r0.ispi() * 0.75,
            "stream buffer ISPI {} vs plain {}",
            r1.ispi(),
            r0.ispi()
        );
        // Every line still crosses the bus exactly once.
        assert!(r1.total_traffic() <= 4096 / 8 + 1, "traffic {}", r1.total_traffic());
    }

    #[test]
    fn stream_buffer_behaves_on_synthetic_workloads() {
        let w = Workload::generate(&WorkloadSpec::c_like("sb", 41)).unwrap();
        let base = cfg(FetchPolicy::Resume);
        let mut sb = base;
        sb.stream_buffer = true;
        let r0 = Simulator::new(base).run(w.executor(2).take_instrs(120_000));
        let r1 = Simulator::new(sb).run(w.executor(2).take_instrs(120_000));
        assert_eq!(r0.correct_instrs, r1.correct_instrs);
        assert!(r1.prefetches_issued() > 0);
        assert!(r1.prefetch_hits > 0);
        // On branchy code a naive single stream buffer sharing the one
        // blocking bus *loses*: nearly every miss restarts the stream and
        // the mostly-useless fills delay demand misses — the paper's own
        // bandwidth caution, amplified. (Jouppi's gains assumed a separate
        // fill path.) Assert the damage is the bounded bus-contention kind,
        // not a runaway.
        assert!(r1.ispi() < r0.ispi() * 1.4, "stream {} vs plain {}", r1.ispi(), r0.ispi());
        assert!(r1.lost.bus > r0.lost.bus, "the loss must come from bus contention");
    }

    #[test]
    fn oracle_is_best_or_tied_on_average() {
        let w = Workload::generate(&WorkloadSpec::cpp_like("orc", 17)).unwrap();
        let run =
            |policy| Simulator::new(cfg(policy)).run(w.executor(6).take_instrs(60_000)).ispi();
        let oracle = run(FetchPolicy::Oracle);
        // Oracle can in principle lose to Optimistic/Resume thanks to the
        // wrong-path prefetch effect, but it must dominate the
        // conservative policies.
        assert!(oracle <= run(FetchPolicy::Pessimistic) + 1e-9);
        assert!(oracle <= run(FetchPolicy::Decode) + 1e-9);
    }

    #[test]
    fn results_are_deterministic() {
        let w = Workload::generate(&WorkloadSpec::c_like("det", 23)).unwrap();
        let run =
            || Simulator::new(cfg(FetchPolicy::Resume)).run(w.executor(9).take_instrs(20_000));
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
