//! Workload characterisation (the paper's Table 2 quantities).

use std::collections::HashSet;
use std::fmt;

use specfetch_isa::{DynInstr, InstrKind};

use crate::PathSource;

/// Summary statistics of a dynamic path.
///
/// These are the quantities the paper reports to characterise each
/// workload: dynamic instruction count, the fraction of instructions that
/// are control transfers ("% Branches" of Table 2), the conditional-branch
/// taken ratio, and the dynamic code footprint (how many distinct
/// instruction-cache lines the path touches — the quantity that drives
/// I-cache miss rates).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use specfetch_trace::{read_trace_text, PredictedTrace, TraceStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "SFT1 text\nbase 0x0\nentry 0x0\nimage 2\ns\nb 0x0\npath 2\nt\nn\nend\n";
/// let trace = Arc::new(read_trace_text(text.as_bytes(), u64::MAX)?);
/// let stats = TraceStats::from_source(&mut PredictedTrace::source(&trace));
/// assert_eq!(stats.instrs, 4);
/// assert_eq!(stats.cond_branches, 2);
/// assert_eq!(stats.taken_conds, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceStats {
    /// Total retired instructions.
    pub instrs: u64,
    /// Control transfers of any kind.
    pub branches: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_conds: u64,
    /// Direct unconditional jumps.
    pub jumps: u64,
    /// Direct calls.
    pub calls: u64,
    /// Returns.
    pub returns: u64,
    /// Indirect jumps and calls.
    pub indirects: u64,
    /// Distinct 32-byte instruction-cache lines touched by the path.
    pub touched_lines_32b: u64,
}

impl TraceStats {
    /// Line size used for the dynamic-footprint statistic (the paper's
    /// I-cache line size).
    pub const FOOTPRINT_LINE_BYTES: u64 = 32;

    /// Accumulates one retired instruction.
    fn observe(&mut self, d: &DynInstr, touched: &mut HashSet<u64>) {
        self.instrs += 1;
        if touched.insert(d.pc.line(Self::FOOTPRINT_LINE_BYTES).index()) {
            self.touched_lines_32b += 1;
        }
        match d.kind {
            InstrKind::Seq => {}
            InstrKind::CondBranch { .. } => {
                self.branches += 1;
                self.cond_branches += 1;
                if d.taken {
                    self.taken_conds += 1;
                }
            }
            InstrKind::Jump { .. } => {
                self.branches += 1;
                self.jumps += 1;
            }
            InstrKind::Call { .. } => {
                self.branches += 1;
                self.calls += 1;
            }
            InstrKind::Return => {
                self.branches += 1;
                self.returns += 1;
            }
            InstrKind::IndirectJump | InstrKind::IndirectCall => {
                self.branches += 1;
                self.indirects += 1;
            }
        }
    }

    /// Drains a source and summarises it.
    pub fn from_source<P: PathSource>(source: &mut P) -> Self {
        let mut stats = TraceStats::default();
        let mut touched = HashSet::new();
        while let Some(d) = source.next_instr() {
            stats.observe(&d, &mut touched);
        }
        stats
    }

    /// Percentage of instructions that are control transfers (Table 2's
    /// "% Branches"). Zero for an empty trace.
    pub fn branch_pct(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            100.0 * self.branches as f64 / self.instrs as f64
        }
    }

    /// Fraction of conditional branches that were taken. Zero if there were
    /// none.
    pub fn taken_ratio(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.taken_conds as f64 / self.cond_branches as f64
        }
    }

    /// Dynamic code footprint in bytes (touched 32-byte lines × 32).
    pub fn dynamic_footprint_bytes(&self) -> u64 {
        self.touched_lines_32b * Self::FOOTPRINT_LINE_BYTES
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs, {:.1}% branches ({} cond, {:.0}% taken), footprint {} KB",
            self.instrs,
            self.branch_pct(),
            self.cond_branches,
            100.0 * self.taken_ratio(),
            self.dynamic_footprint_bytes() / 1024,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSource;
    use specfetch_isa::{Addr, ProgramBuilder};

    fn mixed_path() -> VecSource {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(64);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        let t = Addr::new(0x20);
        let path = vec![
            DynInstr::seq(Addr::new(0)),
            DynInstr::branch(Addr::new(4), InstrKind::CondBranch { target: t }, true, t),
            DynInstr::branch(t, InstrKind::CondBranch { target: t }, false, t.next()),
            DynInstr::branch(Addr::new(0x24), InstrKind::Jump { target: t }, true, t),
            DynInstr::branch(t, InstrKind::Call { target: Addr::new(0x40) }, true, Addr::new(0x40)),
            DynInstr::branch(Addr::new(0x40), InstrKind::Return, true, Addr::new(0x24)),
            DynInstr::branch(Addr::new(0x24), InstrKind::IndirectCall, true, Addr::new(0x80)),
        ];
        VecSource::new(p, path)
    }

    #[test]
    fn counts_each_kind() {
        let stats = TraceStats::from_source(&mut mixed_path());
        assert_eq!(stats.instrs, 7);
        assert_eq!(stats.branches, 6);
        assert_eq!(stats.cond_branches, 2);
        assert_eq!(stats.taken_conds, 1);
        assert_eq!(stats.jumps, 1);
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.indirects, 1);
    }

    #[test]
    fn ratios() {
        let stats = TraceStats::from_source(&mut mixed_path());
        assert!((stats.branch_pct() - 100.0 * 6.0 / 7.0).abs() < 1e-9);
        assert!((stats.taken_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let stats = TraceStats::from_source(&mut mixed_path());
        // PCs: 0x0,0x4 (line 0), 0x20,0x24 (line 1), 0x40 (line 2)
        assert_eq!(stats.touched_lines_32b, 3);
        assert_eq!(stats.dynamic_footprint_bytes(), 96);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(1);
        b.set_entry(Addr::new(0));
        let mut s = VecSource::new(b.finish().unwrap(), vec![]);
        let stats = TraceStats::from_source(&mut s);
        assert_eq!(stats, TraceStats::default());
        assert_eq!(stats.branch_pct(), 0.0);
        assert_eq!(stats.taken_ratio(), 0.0);
    }

    #[test]
    fn display_mentions_counts() {
        let stats = TraceStats::from_source(&mut mixed_path());
        let s = stats.to_string();
        assert!(s.contains("7 instrs"));
    }
}
