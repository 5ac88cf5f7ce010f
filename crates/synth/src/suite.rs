//! The thirteen calibrated benchmark models.
//!
//! Each [`Benchmark`] names one program from the paper's Table 2 and
//! carries (a) the paper's reported characteristics ([`PaperRow`]) and (b)
//! a tuned [`WorkloadSpec`] whose generated workload reproduces those
//! characteristics approximately. The `specfetch-experiments` crate prints
//! paper-vs-measured columns from exactly this data.
//!
//! # Examples
//!
//! ```
//! use specfetch_synth::suite::Benchmark;
//!
//! let all = Benchmark::all();
//! assert_eq!(all.len(), 13);
//! let gcc = Benchmark::by_name("gcc").unwrap();
//! let w = gcc.workload().unwrap();
//! assert!(w.program().len() > 1000);
//! ```

use std::fmt;

use crate::{SpecError, Workload, WorkloadSpec};

/// Source-language family of a benchmark (the paper analyses results by
/// this grouping).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Lang {
    /// SPEC92 Fortran floating-point codes: few branches, deep loops.
    Fortran,
    /// C integer codes: branchy, moderate call density.
    C,
    /// C++ codes: branchy, many small functions, virtual dispatch.
    Cpp,
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lang::Fortran => write!(f, "Fortran"),
            Lang::C => write!(f, "C"),
            Lang::Cpp => write!(f, "C++"),
        }
    }
}

/// The paper's reported characteristics for one benchmark (Tables 2–3),
/// kept verbatim so experiments can print paper-vs-measured columns.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PaperRow {
    /// Dynamic instructions, in millions (Table 2).
    pub instr_millions: f64,
    /// Percentage of executed instructions that are branches (Table 2).
    pub branch_pct: f64,
    /// 8 KB direct-mapped I-cache miss rate, percent (Table 3).
    pub miss_8k: f64,
    /// 32 KB direct-mapped I-cache miss rate, percent (Table 3).
    pub miss_32k: f64,
    /// PHT mispredict ISPI at speculation depth 1 (Table 3).
    pub pht_ispi_b1: f64,
    /// PHT mispredict ISPI at speculation depth 4 (Table 3).
    pub pht_ispi_b4: f64,
    /// BTB misfetch ISPI (depth-insensitive in the paper; Table 3).
    pub btb_misfetch_ispi: f64,
    /// BTB (target) mispredict ISPI (Table 3).
    pub btb_mispredict_ispi: f64,
}

/// One of the paper's thirteen benchmark programs, as a calibrated
/// synthetic model.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Benchmark {
    /// The paper's program name.
    pub name: &'static str,
    /// Language family.
    pub lang: Lang,
    /// The paper's reported numbers.
    pub paper: PaperRow,
}

/// Fixed generator seed per benchmark: calibrated workloads must never
/// drift between runs.
fn gen_seed(name: &str) -> u64 {
    // FNV-1a over the name, so seeds are stable and per-benchmark.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

impl Benchmark {
    /// All thirteen benchmarks, in the paper's table order.
    pub fn all() -> &'static [Benchmark] {
        &SUITE
    }

    /// Looks a benchmark up by its paper name.
    pub fn by_name(name: &str) -> Option<&'static Benchmark> {
        SUITE.iter().find(|b| b.name == name)
    }

    /// The execution seed experiments use for this benchmark's correct
    /// path (fixed so every policy replays the same path).
    pub fn path_seed(&self) -> u64 {
        gen_seed(self.name) ^ 0x5eed
    }

    /// The calibrated generator parameters for this benchmark.
    pub fn spec(&self) -> WorkloadSpec {
        // SUITE and KNOBS are parallel arrays. Every `Benchmark` this
        // module hands out is one of SUITE's, so the name always matches;
        // a hand-built one falls back to the first calibration rather
        // than panicking mid-sweep.
        let knobs = SUITE
            .iter()
            .zip(KNOBS.iter())
            .find_map(|(b, k)| (b.name == self.name).then_some(k))
            .unwrap_or(&KNOBS[0]);
        knobs.apply(self.name, self.lang, gen_seed(self.name))
    }

    /// Generates the calibrated workload.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] (never expected for the built-in specs —
    /// a unit test locks that in).
    pub fn workload(&self) -> Result<Workload, SpecError> {
        Workload::generate(&self.spec())
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.lang)
    }
}

/// The paper's Table 2/3 rows.
static SUITE: [Benchmark; 13] = [
    Benchmark {
        name: "doduc",
        lang: Lang::Fortran,
        paper: PaperRow {
            instr_millions: 1150.0,
            branch_pct: 8.5,
            miss_8k: 2.94,
            miss_32k: 0.48,
            pht_ispi_b1: 0.22,
            pht_ispi_b4: 0.37,
            btb_misfetch_ispi: 0.04,
            btb_mispredict_ispi: 0.00,
        },
    },
    Benchmark {
        name: "fpppp",
        lang: Lang::Fortran,
        paper: PaperRow {
            instr_millions: 4330.0,
            branch_pct: 2.8,
            miss_8k: 7.27,
            miss_32k: 1.08,
            pht_ispi_b1: 0.08,
            pht_ispi_b4: 0.12,
            btb_misfetch_ispi: 0.01,
            btb_mispredict_ispi: 0.00,
        },
    },
    Benchmark {
        name: "su2cor",
        lang: Lang::Fortran,
        paper: PaperRow {
            instr_millions: 4780.0,
            branch_pct: 4.4,
            miss_8k: 1.33,
            miss_32k: 0.00,
            pht_ispi_b1: 0.08,
            pht_ispi_b4: 0.10,
            btb_misfetch_ispi: 0.00,
            btb_mispredict_ispi: 0.00,
        },
    },
    Benchmark {
        name: "ditroff",
        lang: Lang::C,
        paper: PaperRow {
            instr_millions: 39.0,
            branch_pct: 17.5,
            miss_8k: 3.18,
            miss_32k: 0.58,
            pht_ispi_b1: 0.44,
            pht_ispi_b4: 0.64,
            btb_misfetch_ispi: 0.22,
            btb_mispredict_ispi: 0.00,
        },
    },
    Benchmark {
        name: "gcc",
        lang: Lang::C,
        paper: PaperRow {
            instr_millions: 144.0,
            branch_pct: 16.0,
            miss_8k: 4.48,
            miss_32k: 1.71,
            pht_ispi_b1: 0.53,
            pht_ispi_b4: 0.63,
            btb_misfetch_ispi: 0.28,
            btb_mispredict_ispi: 0.05,
        },
    },
    Benchmark {
        name: "li",
        lang: Lang::C,
        paper: PaperRow {
            instr_millions: 1360.0,
            branch_pct: 17.7,
            miss_8k: 3.33,
            miss_32k: 0.06,
            pht_ispi_b1: 0.35,
            pht_ispi_b4: 0.54,
            btb_misfetch_ispi: 0.24,
            btb_mispredict_ispi: 0.04,
        },
    },
    Benchmark {
        name: "tex",
        lang: Lang::C,
        paper: PaperRow {
            instr_millions: 148.0,
            branch_pct: 10.0,
            miss_8k: 2.85,
            miss_32k: 1.00,
            pht_ispi_b1: 0.27,
            pht_ispi_b4: 0.36,
            btb_misfetch_ispi: 0.11,
            btb_mispredict_ispi: 0.03,
        },
    },
    Benchmark {
        name: "cfront",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 16.5,
            branch_pct: 13.4,
            miss_8k: 7.24,
            miss_32k: 2.63,
            pht_ispi_b1: 0.50,
            pht_ispi_b4: 0.56,
            btb_misfetch_ispi: 0.34,
            btb_mispredict_ispi: 0.05,
        },
    },
    Benchmark {
        name: "db++",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 87.0,
            branch_pct: 17.6,
            miss_8k: 1.57,
            miss_32k: 0.42,
            pht_ispi_b1: 0.16,
            pht_ispi_b4: 0.41,
            btb_misfetch_ispi: 0.13,
            btb_mispredict_ispi: 0.01,
        },
    },
    Benchmark {
        name: "groff",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 57.0,
            branch_pct: 17.5,
            miss_8k: 5.33,
            miss_32k: 1.68,
            pht_ispi_b1: 0.42,
            pht_ispi_b4: 0.57,
            btb_misfetch_ispi: 0.39,
            btb_mispredict_ispi: 0.06,
        },
    },
    Benchmark {
        name: "idl",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 21.1,
            branch_pct: 19.6,
            miss_8k: 2.17,
            miss_32k: 0.67,
            pht_ispi_b1: 0.30,
            pht_ispi_b4: 0.49,
            btb_misfetch_ispi: 0.10,
            btb_mispredict_ispi: 0.04,
        },
    },
    Benchmark {
        name: "lic",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 6.0,
            branch_pct: 16.5,
            miss_8k: 3.93,
            miss_32k: 1.68,
            pht_ispi_b1: 0.45,
            pht_ispi_b4: 0.56,
            btb_misfetch_ispi: 0.27,
            btb_mispredict_ispi: 0.00,
        },
    },
    Benchmark {
        name: "porky",
        lang: Lang::Cpp,
        paper: PaperRow {
            instr_millions: 164.0,
            branch_pct: 19.8,
            miss_8k: 2.51,
            miss_32k: 0.66,
            pht_ispi_b1: 0.42,
            pht_ispi_b4: 0.48,
            btb_misfetch_ispi: 0.20,
            btb_mispredict_ispi: 0.04,
        },
    },
];

/// The tunable generator parameters of one benchmark, as found by the
/// calibration search (`cargo run --release -p specfetch-synth --example
/// calibrate`). Kept as plain data so re-calibration is a mechanical
/// table update.
#[derive(Copy, Clone, Debug)]
struct Knobs {
    block_len: (usize, usize),
    n_functions: usize,
    stmts_per_fn: (usize, usize),
    hot_functions: usize,
    cold_call_prob: f64,
    p_loop: f64,
    loop_trip: (u32, u32),
    weak_branch_frac: f64,
    max_loop_depth: usize,
    call_jump: usize,
}

impl Knobs {
    fn apply(&self, name: &str, lang: Lang, seed: u64) -> WorkloadSpec {
        let mut s = match lang {
            Lang::Fortran => WorkloadSpec::fortran_like(name, seed),
            Lang::C => WorkloadSpec::c_like(name, seed),
            Lang::Cpp => WorkloadSpec::cpp_like(name, seed),
        };
        s.block_len = self.block_len;
        s.n_functions = self.n_functions;
        s.stmts_per_fn = self.stmts_per_fn;
        s.hot_functions = self.hot_functions;
        s.cold_call_prob = self.cold_call_prob;
        s.p_loop = self.p_loop;
        s.loop_trip = self.loop_trip;
        s.weak_branch_frac = self.weak_branch_frac;
        s.max_loop_depth = self.max_loop_depth;
        s.call_jump = self.call_jump;
        s
    }
}

/// Calibrated knob values, in [`SUITE`] order.
static KNOBS: [Knobs; 13] = [
    // doduc
    Knobs {
        block_len: (3, 11),
        n_functions: 120,
        stmts_per_fn: (7, 14),
        hot_functions: 14,
        cold_call_prob: 0.1850,
        p_loop: 0.0392,
        loop_trip: (2, 5),
        weak_branch_frac: 0.22,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // fpppp
    Knobs {
        block_len: (15, 36),
        n_functions: 17,
        stmts_per_fn: (11, 18),
        hot_functions: 13,
        cold_call_prob: 0.4020,
        p_loop: 0.0619,
        loop_trip: (2, 4),
        weak_branch_frac: 0.10,
        max_loop_depth: 1,
        call_jump: 12,
    },
    // su2cor
    Knobs {
        block_len: (3, 18),
        n_functions: 57,
        stmts_per_fn: (6, 11),
        hot_functions: 38,
        cold_call_prob: 0.0292,
        p_loop: 0.0700,
        loop_trip: (3, 10),
        weak_branch_frac: 0.10,
        max_loop_depth: 2,
        call_jump: 10,
    },
    // ditroff
    Knobs {
        block_len: (1, 6),
        n_functions: 91,
        stmts_per_fn: (6, 11),
        hot_functions: 5,
        cold_call_prob: 0.0950,
        p_loop: 0.1570,
        loop_trip: (2, 2),
        weak_branch_frac: 0.32,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // gcc
    Knobs {
        block_len: (2, 5),
        n_functions: 372,
        stmts_per_fn: (5, 11),
        hot_functions: 28,
        cold_call_prob: 0.1078,
        p_loop: 0.0600,
        loop_trip: (2, 10),
        weak_branch_frac: 0.38,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // li
    Knobs {
        block_len: (1, 6),
        n_functions: 52,
        stmts_per_fn: (5, 9),
        hot_functions: 10,
        cold_call_prob: 0.0014,
        p_loop: 0.0980,
        loop_trip: (2, 6),
        weak_branch_frac: 0.30,
        max_loop_depth: 2,
        call_jump: 14,
    },
    // tex
    Knobs {
        block_len: (2, 9),
        n_functions: 169,
        stmts_per_fn: (5, 9),
        hot_functions: 5,
        cold_call_prob: 0.0900,
        p_loop: 0.1000,
        loop_trip: (2, 10),
        weak_branch_frac: 0.26,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // cfront
    Knobs {
        block_len: (1, 7),
        n_functions: 507,
        stmts_per_fn: (3, 7),
        hot_functions: 24,
        cold_call_prob: 0.3050,
        p_loop: 0.0137,
        loop_trip: (2, 8),
        weak_branch_frac: 0.34,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // db++
    Knobs {
        block_len: (2, 7),
        n_functions: 143,
        stmts_per_fn: (3, 6),
        hot_functions: 31,
        cold_call_prob: 0.1475,
        p_loop: 0.1266,
        loop_trip: (2, 8),
        weak_branch_frac: 0.32,
        max_loop_depth: 2,
        call_jump: 14,
    },
    // groff
    Knobs {
        block_len: (2, 6),
        n_functions: 507,
        stmts_per_fn: (3, 7),
        hot_functions: 3,
        cold_call_prob: 0.1800,
        p_loop: 0.0343,
        loop_trip: (2, 8),
        weak_branch_frac: 0.36,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // idl
    Knobs {
        block_len: (1, 7),
        n_functions: 195,
        stmts_per_fn: (6, 12),
        hot_functions: 5,
        cold_call_prob: 0.0800,
        p_loop: 0.1200,
        loop_trip: (2, 8),
        weak_branch_frac: 0.30,
        max_loop_depth: 2,
        call_jump: 12,
    },
    // lic
    Knobs {
        block_len: (1, 6),
        n_functions: 439,
        stmts_per_fn: (3, 6),
        hot_functions: 10,
        cold_call_prob: 0.0718,
        p_loop: 0.0900,
        loop_trip: (2, 3),
        weak_branch_frac: 0.30,
        max_loop_depth: 2,
        call_jump: 10,
    },
    // porky
    Knobs {
        block_len: (1, 4),
        n_functions: 160,
        stmts_per_fn: (4, 8),
        hot_functions: 8,
        cold_call_prob: 0.0233,
        p_loop: 0.1220,
        loop_trip: (2, 12),
        weak_branch_frac: 0.30,
        max_loop_depth: 2,
        call_jump: 12,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_trace::{PathSource, TraceStats};

    #[test]
    fn thirteen_benchmarks_in_paper_order() {
        let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "doduc", "fpppp", "su2cor", "ditroff", "gcc", "li", "tex", "cfront", "db++",
                "groff", "idl", "lic", "porky"
            ]
        );
    }

    #[test]
    fn language_grouping_matches_paper() {
        use Lang::*;
        let langs: Vec<Lang> = Benchmark::all().iter().map(|b| b.lang).collect();
        assert_eq!(langs[..3], [Fortran, Fortran, Fortran]);
        assert_eq!(langs[3..7], [C, C, C, C]);
        assert!(langs[7..].iter().all(|&l| l == Cpp));
    }

    #[test]
    fn every_suite_image_stores_at_most_four_bytes_per_instruction() {
        for b in Benchmark::all() {
            let p = b.workload().unwrap().shared_program();
            assert!(p.heap_bytes() <= 4 * p.len(), "{}: {} bytes", b.name, p.heap_bytes());
        }
    }

    #[test]
    fn by_name_round_trips() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::by_name(b.name).unwrap().name, b.name);
        }
        assert!(Benchmark::by_name("nonesuch").is_none());
    }

    #[test]
    fn every_spec_is_valid_and_generates() {
        for b in Benchmark::all() {
            let spec = b.spec();
            assert_eq!(spec.validate(), Ok(()), "{} spec invalid", b.name);
            let w = b.workload().unwrap();
            assert!(w.program().len() > 200, "{} image too small", b.name);
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = Benchmark::all().iter().map(|b| b.spec().seed).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "generator seeds must be distinct");
        assert_eq!(Benchmark::by_name("gcc").unwrap().spec().seed, seeds[4]);
    }

    #[test]
    fn fortran_benchmarks_are_less_branchy_than_cpp() {
        let measure = |name: &str| {
            let b = Benchmark::by_name(name).unwrap();
            let w = b.workload().unwrap();
            let mut e = w.executor(b.path_seed()).take_instrs(150_000);
            TraceStats::from_source(&mut e).branch_pct()
        };
        let fpppp = measure("fpppp");
        let porky = measure("porky");
        assert!(
            fpppp < porky / 2.0,
            "fpppp ({fpppp:.1}%) should be far less branchy than porky ({porky:.1}%)"
        );
    }

    #[test]
    fn display_includes_lang() {
        assert_eq!(Benchmark::by_name("gcc").unwrap().to_string(), "gcc (C)");
    }
}
