//! Static CFG verification of a [`Program`] image.
//!
//! The fetch-policy comparison is only meaningful if every code image is
//! structurally sound: the Optimistic and Resume policies fetch down
//! *wrong* paths, so not only the recorded correct path but every
//! speculative walk the front end can take must stay inside a valid
//! static program. [`verify_cfg`] checks that before any simulation runs:
//!
//! - the entry point and every direct branch/call target resolve to an
//!   instruction inside the image;
//! - indirect dispatch targets (supplied by the caller — the synth layer
//!   passes its dispatch tables) resolve likewise;
//! - all code is reachable from the entry point;
//! - returns pair with calls: no abstract walk reaches a `Return` with an
//!   empty call stack;
//! - the correct path never falls through past the end of the image; and
//! - every *wrong-path* walk — the fall-through of a taken conditional,
//!   the static target of a not-taken one, and everything the
//!   decode-guided walk reaches from those divergence points — stays
//!   inside the image.
//!
//! # The abstract walk
//!
//! Reachability runs over `(instruction, depth-class)` states, where the
//! call-stack depth is abstracted to the two-point lattice
//! `{zero, positive}`: a `Call` reaches its target at *positive* depth
//! and its fall-through (the return site) at the caller's depth; a
//! `Return` at *zero* depth is a call/return pairing violation. This
//! keeps the walk linear in the image size while still catching a return
//! that can execute with nothing on the stack.
//!
//! The wrong-path closure follows the *decode-guided* walk the fetch
//! engine actually performs: sequential instructions fall through, direct
//! transfers redirect to their static target (decode computes it two
//! cycles after fetch, which is what bounds a misfetch), and returns or
//! indirect transfers halt the walk unless a dispatch table names their
//! possible (BTB-predictable) targets. The transient fetch-stage
//! fall-through at an unconditional transfer under a BTB miss is *not* an
//! escape: the engine halts gracefully at the image edge until decode
//! redirects, so only the decode-guided closure must be in-image.

use std::fmt;

use crate::{Addr, InstrKind, Program, INSTR_BYTES};

/// One structural defect found by [`verify_cfg`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CfgIssue {
    /// The entry point lies outside the image.
    EntryOutOfImage {
        /// The offending entry address.
        entry: Addr,
    },
    /// A direct transfer targets an address outside the image.
    TargetOutOfImage {
        /// The transfer's address.
        at: Addr,
        /// Its out-of-image target.
        target: Addr,
    },
    /// An indirect site's dispatch table names a target outside the image.
    DispatchTargetOutOfImage {
        /// The indirect site's address.
        at: Addr,
        /// The out-of-image table entry.
        target: Addr,
    },
    /// An indirect site has no dispatch table at all.
    MissingDispatch {
        /// The indirect site's address.
        at: Addr,
    },
    /// A conditional branch carries no behavioural annotation.
    ///
    /// Never emitted by [`verify_cfg`] itself (behaviours are not part of
    /// the ISA image); annotation layers such as `specfetch-synth`'s
    /// workload analysis append it so one typed issue enum covers the
    /// whole report.
    MissingBehavior {
        /// The unannotated conditional's address.
        at: Addr,
    },
    /// An instruction can never execute: no path from the entry reaches it.
    Unreachable {
        /// The dead instruction's address.
        at: Addr,
        /// What sits there.
        kind: InstrKind,
    },
    /// A `Return` is reachable with an empty call stack.
    ReturnUnderflow {
        /// The return's address.
        at: Addr,
    },
    /// The correct path can fall through past the end of the image.
    FallthroughEscape {
        /// The last instruction the path executes before escaping.
        at: Addr,
    },
    /// A wrong-path walk can fall through past the end of the image.
    WrongPathEscape {
        /// The last instruction the walk visits before escaping.
        at: Addr,
    },
}

impl fmt::Display for CfgIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgIssue::EntryOutOfImage { entry } => {
                write!(f, "entry point {entry} is outside the image")
            }
            CfgIssue::TargetOutOfImage { at, target } => {
                write!(f, "transfer at {at} targets {target} outside the image")
            }
            CfgIssue::DispatchTargetOutOfImage { at, target } => {
                write!(f, "indirect site at {at} dispatches to {target} outside the image")
            }
            CfgIssue::MissingDispatch { at } => {
                write!(f, "indirect site at {at} has no dispatch table")
            }
            CfgIssue::MissingBehavior { at } => {
                write!(f, "conditional at {at} has no branch behavior")
            }
            CfgIssue::Unreachable { at, kind } => {
                write!(f, "instruction at {at} ({kind}) is unreachable from the entry")
            }
            CfgIssue::ReturnUnderflow { at } => {
                write!(f, "return at {at} is reachable with an empty call stack")
            }
            CfgIssue::FallthroughEscape { at } => {
                write!(f, "correct path falls off the image end after {at}")
            }
            CfgIssue::WrongPathEscape { at } => {
                write!(f, "wrong-path walk falls off the image end after {at}")
            }
        }
    }
}

/// The outcome of one [`verify_cfg`] run: walk statistics plus every
/// issue found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CfgReport {
    /// Static instructions in the image.
    pub instrs: usize,
    /// Instructions reachable from the entry on correct paths.
    pub reachable: usize,
    /// Conditional branches in the image (the wrong-path seed points).
    pub conditionals: usize,
    /// Instructions visited by the wrong-path (decode-guided) closure.
    pub wrong_path_visited: usize,
    /// Every structural defect found, in discovery order.
    pub issues: Vec<CfgIssue>,
}

impl CfgReport {
    /// Did the image pass every check?
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// A one-line verdict: the first issue plus how many more there are,
    /// or `"ok"` for a clean image. Compact enough for a `FAILED(...)`
    /// cell.
    pub fn headline(&self) -> String {
        match self.issues.as_slice() {
            [] => "ok".to_owned(),
            [only] => only.to_string(),
            [first, rest @ ..] => format!("{first} (+{} more)", rest.len()),
        }
    }
}

impl fmt::Display for CfgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs, {} reachable, {} conditionals, {} wrong-path-visited: {}",
            self.instrs,
            self.reachable,
            self.conditionals,
            self.wrong_path_visited,
            self.headline()
        )
    }
}

/// Depth-class bits for the reachability walk.
const DEPTH_ZERO: u8 = 1;
const DEPTH_POS: u8 = 2;

/// Statically verifies `program`'s control-flow graph.
///
/// `dispatch` supplies the possible targets of each indirect site (by the
/// site's address); return `None` for a site with no table — that is
/// itself reported as [`CfgIssue::MissingDispatch`]. Callers without any
/// indirect-dispatch knowledge can pass `|_| None`.
///
/// See the [module docs](self) for the exact invariants checked.
pub fn verify_cfg<F>(program: &Program, dispatch: F) -> CfgReport
where
    F: Fn(Addr) -> Option<Vec<Addr>>,
{
    let len = program.len();
    let base = program.base();
    let idx_of = |a: Addr| -> Option<usize> {
        if a < base {
            return None;
        }
        let i = ((a.raw() - base.raw()) / INSTR_BYTES) as usize;
        (i < len).then_some(i)
    };
    let addr_of = |i: usize| Addr::new(base.raw() + i as u64 * INSTR_BYTES);

    let mut issues = Vec::new();

    // Pass 1 — static target resolution, over the whole image (a dead
    // dangling branch is still a defect: a wrong-path walk may fetch it).
    let mut dispatch_idx: Vec<Option<Vec<usize>>> = vec![None; len];
    let mut conds = Vec::new();
    for (i, (at, kind)) in program.iter().enumerate() {
        if kind.is_conditional() {
            conds.push(i);
        }
        if let Some(target) = kind.static_target() {
            if idx_of(target).is_none() {
                issues.push(CfgIssue::TargetOutOfImage { at, target });
            }
        }
        if matches!(kind, InstrKind::IndirectJump | InstrKind::IndirectCall) {
            match dispatch(at) {
                None => issues.push(CfgIssue::MissingDispatch { at }),
                Some(targets) => {
                    let mut resolved = Vec::with_capacity(targets.len());
                    for target in targets {
                        match idx_of(target) {
                            Some(j) => resolved.push(j),
                            None => {
                                issues.push(CfgIssue::DispatchTargetOutOfImage { at, target });
                            }
                        }
                    }
                    dispatch_idx[i] = Some(resolved);
                }
            }
        }
    }

    // Pass 2 — correct-path reachability over (instruction, depth-class)
    // states.
    let entry_idx = idx_of(program.entry());
    if entry_idx.is_none() {
        issues.push(CfgIssue::EntryOutOfImage { entry: program.entry() });
    }
    let mut seen = vec![0u8; len];
    let mut work: Vec<(usize, u8)> = Vec::new();
    let push = |i: usize, d: u8, seen: &mut Vec<u8>, work: &mut Vec<(usize, u8)>| {
        if seen[i] & d == 0 {
            seen[i] |= d;
            work.push((i, d));
        }
    };
    let mut fallthrough_escapes = vec![false; len];
    let mut return_underflows = vec![false; len];
    if let Some(e) = entry_idx {
        push(e, DEPTH_ZERO, &mut seen, &mut work);
    }
    while let Some((i, d)) = work.pop() {
        let fall = |i: usize| (i + 1 < len).then_some(i + 1);
        match program.kind_at(i) {
            InstrKind::Seq => match fall(i) {
                Some(n) => push(n, d, &mut seen, &mut work),
                None => fallthrough_escapes[i] = true,
            },
            InstrKind::CondBranch { target } => {
                if let Some(t) = idx_of(target) {
                    push(t, d, &mut seen, &mut work);
                }
                match fall(i) {
                    Some(n) => push(n, d, &mut seen, &mut work),
                    None => fallthrough_escapes[i] = true,
                }
            }
            InstrKind::Jump { target } => {
                if let Some(t) = idx_of(target) {
                    push(t, d, &mut seen, &mut work);
                }
            }
            InstrKind::Call { target } => {
                if let Some(t) = idx_of(target) {
                    push(t, DEPTH_POS, &mut seen, &mut work);
                }
                // The matched return resumes at the call's fall-through,
                // at the caller's own depth.
                match fall(i) {
                    Some(n) => push(n, d, &mut seen, &mut work),
                    None => fallthrough_escapes[i] = true,
                }
            }
            InstrKind::Return => {
                if d == DEPTH_ZERO {
                    return_underflows[i] = true;
                }
                // At positive depth the continuation is the matching
                // call's fall-through, already a successor of the call.
            }
            InstrKind::IndirectJump => {
                for &t in dispatch_idx[i].as_deref().unwrap_or_default() {
                    push(t, d, &mut seen, &mut work);
                }
            }
            InstrKind::IndirectCall => {
                for &t in dispatch_idx[i].as_deref().unwrap_or_default() {
                    push(t, DEPTH_POS, &mut seen, &mut work);
                }
                match fall(i) {
                    Some(n) => push(n, d, &mut seen, &mut work),
                    None => fallthrough_escapes[i] = true,
                }
            }
        }
    }
    for (i, &underflow) in return_underflows.iter().enumerate() {
        if underflow {
            issues.push(CfgIssue::ReturnUnderflow { at: addr_of(i) });
        }
    }
    for (i, &escape) in fallthrough_escapes.iter().enumerate() {
        if escape {
            issues.push(CfgIssue::FallthroughEscape { at: addr_of(i) });
        }
    }
    if entry_idx.is_some() {
        for (i, &s) in seen.iter().enumerate() {
            if s == 0 {
                issues.push(CfgIssue::Unreachable { at: addr_of(i), kind: program.kind_at(i) });
            }
        }
    }

    // Pass 3 — wrong-path closure. Seeds are both successors of every
    // reachable conditional (whichever way the branch actually goes, the
    // *other* successor is the wrong path a speculative policy fetches);
    // the walk is decode-guided from there.
    let mut wp = vec![false; len];
    let mut wp_work: Vec<usize> = Vec::new();
    let mut wp_escapes = vec![false; len];
    let wp_push = |i: usize, wp: &mut Vec<bool>, wp_work: &mut Vec<usize>| {
        if !wp[i] {
            wp[i] = true;
            wp_work.push(i);
        }
    };
    for &i in &conds {
        if seen[i] != 0 {
            if let Some(t) = program.kind_at(i).static_target().and_then(idx_of) {
                wp_push(t, &mut wp, &mut wp_work);
            }
            if i + 1 < len {
                wp_push(i + 1, &mut wp, &mut wp_work);
            } else {
                wp_escapes[i] = true;
            }
        }
    }
    while let Some(i) = wp_work.pop() {
        let kind = program.kind_at(i);
        match kind {
            InstrKind::Seq => {
                if i + 1 < len {
                    wp_push(i + 1, &mut wp, &mut wp_work);
                } else {
                    wp_escapes[i] = true;
                }
            }
            InstrKind::CondBranch { target } => {
                // On a wrong path the predictor may steer either way.
                if let Some(t) = idx_of(target) {
                    wp_push(t, &mut wp, &mut wp_work);
                }
                if i + 1 < len {
                    wp_push(i + 1, &mut wp, &mut wp_work);
                } else {
                    wp_escapes[i] = true;
                }
            }
            InstrKind::Jump { target } => {
                if let Some(t) = idx_of(target) {
                    wp_push(t, &mut wp, &mut wp_work);
                }
            }
            InstrKind::Call { target } => {
                if let Some(t) = idx_of(target) {
                    wp_push(t, &mut wp, &mut wp_work);
                }
                // A wrong-path return can resume at the call's return site.
                if i + 1 < len {
                    wp_push(i + 1, &mut wp, &mut wp_work);
                } else {
                    wp_escapes[i] = true;
                }
            }
            // Decode cannot compute these targets; the walk halts unless
            // the BTB supplies one — and every BTB-predictable target is a
            // dispatch-table entry (indirect) or a call return site
            // (return), both already in the closure.
            InstrKind::Return => {}
            InstrKind::IndirectJump | InstrKind::IndirectCall => {
                for &t in dispatch_idx[i].as_deref().unwrap_or_default() {
                    wp_push(t, &mut wp, &mut wp_work);
                }
                if kind == InstrKind::IndirectCall {
                    if i + 1 < len {
                        wp_push(i + 1, &mut wp, &mut wp_work);
                    } else {
                        wp_escapes[i] = true;
                    }
                }
            }
        }
    }
    for (i, &escape) in wp_escapes.iter().enumerate() {
        if escape {
            issues.push(CfgIssue::WrongPathEscape { at: addr_of(i) });
        }
    }

    CfgReport {
        instrs: len,
        reachable: seen.iter().filter(|&&s| s != 0).count(),
        conditionals: conds.len(),
        wrong_path_visited: wp.iter().filter(|&&v| v).count(),
        issues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    /// `f` at the base (Seq, Return); `main` after it (Call f, Seq,
    /// CondBranch back to main, Jump back to main). Structurally clean.
    fn clean_program() -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let f = b.push(InstrKind::Seq);
        b.push(InstrKind::Return);
        let main = b.push(InstrKind::Call { target: f });
        b.push(InstrKind::Seq);
        b.push(InstrKind::CondBranch { target: main });
        b.push(InstrKind::Jump { target: main });
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn clean_program_passes_all_checks() {
        let p = clean_program();
        let r = verify_cfg(&p, |_| None);
        assert!(r.is_ok(), "unexpected issues: {:?}", r.issues);
        assert_eq!(r.instrs, 6);
        assert_eq!(r.reachable, 6);
        assert_eq!(r.conditionals, 1);
        assert!(r.wrong_path_visited > 0);
        assert_eq!(r.headline(), "ok");
    }

    #[test]
    fn corrupted_target_is_pinpointed() {
        let p = clean_program();
        // The conditional sits at word 4 of the image.
        let at = Addr::new(0x1010);
        let bad = Addr::new(0x9000);
        let p = p.with_instr_unchecked(at, InstrKind::CondBranch { target: bad }).unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::TargetOutOfImage { at, target: bad }), "{r}");
    }

    #[test]
    fn unreachable_code_is_reported() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let dead = b.push(InstrKind::Seq);
        let live = b.push(InstrKind::Jump { target: Addr::new(4) });
        b.set_entry(live);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::Unreachable { at: dead, kind: InstrKind::Seq }));
        assert_eq!(r.reachable, 1);
    }

    #[test]
    fn return_with_empty_stack_is_reported() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Return);
        b.push(InstrKind::Jump { target: entry });
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::ReturnUnderflow { at: entry }), "{r}");
    }

    #[test]
    fn return_under_a_call_is_fine() {
        let p = clean_program();
        let r = verify_cfg(&p, |_| None);
        assert!(!r.issues.iter().any(|i| matches!(i, CfgIssue::ReturnUnderflow { .. })));
    }

    #[test]
    fn missing_dispatch_table_is_reported() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::IndirectJump);
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::MissingDispatch { at: entry }));
    }

    #[test]
    fn dispatch_target_out_of_image_is_reported() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::IndirectJump);
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let bad = Addr::new(0x4000);
        let r = verify_cfg(&p, |_| Some(vec![bad]));
        assert!(r.issues.contains(&CfgIssue::DispatchTargetOutOfImage { at: entry, target: bad }));
    }

    #[test]
    fn dispatch_targets_extend_reachability() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::IndirectJump);
        let island = b.push(InstrKind::Jump { target: Addr::new(4) });
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let no_table = verify_cfg(&p, |_| None);
        assert!(no_table
            .issues
            .contains(&CfgIssue::Unreachable { at: island, kind: p.fetch(island).unwrap() }));
        let with_table = verify_cfg(&p, |at| (at == entry).then(|| vec![island]));
        assert!(with_table.is_ok(), "{with_table}");
    }

    #[test]
    fn correct_path_fallthrough_escape_is_reported() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Seq);
        let last = b.push(InstrKind::Seq);
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::FallthroughEscape { at: last }), "{r}");
    }

    #[test]
    fn wrong_path_escape_at_trailing_conditional_is_reported() {
        // The conditional is the last instruction: its not-taken wrong
        // path falls off the image.
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Seq);
        let cond = b.push(InstrKind::CondBranch { target: entry });
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.contains(&CfgIssue::WrongPathEscape { at: cond }), "{r}");
    }

    #[test]
    fn wrong_path_walk_through_seq_tail_escapes() {
        // cond -> (taken) loops; its fall-through walks two Seqs and then
        // off the end, even though the correct path never goes there...
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Seq);
        b.push(InstrKind::CondBranch { target: entry });
        b.push(InstrKind::Seq);
        let last = b.push(InstrKind::Seq);
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        // ...so the tail Seqs are both unreachable (correct path) and a
        // wrong-path escape route.
        assert!(r.issues.contains(&CfgIssue::WrongPathEscape { at: last }), "{r}");
    }

    #[test]
    fn headline_counts_extra_issues() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let entry = b.push(InstrKind::Return);
        b.push(InstrKind::Seq);
        b.set_entry(entry);
        let p = b.finish().unwrap();
        let r = verify_cfg(&p, |_| None);
        assert!(r.issues.len() >= 2, "{r}");
        assert!(r.headline().contains("more"), "{}", r.headline());
        assert!(!r.is_ok());
        assert!(r.to_string().contains("instrs"));
    }

    #[test]
    fn issue_display_is_nonempty() {
        let a = Addr::new(4);
        let issues = [
            CfgIssue::EntryOutOfImage { entry: a },
            CfgIssue::TargetOutOfImage { at: a, target: a },
            CfgIssue::DispatchTargetOutOfImage { at: a, target: a },
            CfgIssue::MissingDispatch { at: a },
            CfgIssue::MissingBehavior { at: a },
            CfgIssue::Unreachable { at: a, kind: InstrKind::Seq },
            CfgIssue::ReturnUnderflow { at: a },
            CfgIssue::FallthroughEscape { at: a },
            CfgIssue::WrongPathEscape { at: a },
        ];
        for i in issues {
            assert!(!i.to_string().is_empty());
        }
    }
}
