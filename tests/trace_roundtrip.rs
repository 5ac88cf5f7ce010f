//! Property-style tests of the `.sft` trace formats. A file is an image
//! plus one record per data-dependent transfer; the readers walk those
//! records over the image straight into a `PredictedTrace`, and the
//! writers give the same bytes back.
//!
//! Cases are drawn from the in-repo [`SynthRng`] under fixed seeds, so the
//! sweep is deterministic and reproducible. Files are encoded here by
//! hand, independently of the writers.

use std::sync::Arc;

use specfetch::isa::{Addr, InstrKind, Program, ProgramBuilder};
use specfetch::synth::suite::Benchmark;
use specfetch::synth::SynthRng;
use specfetch::trace::{
    read_trace_binary, read_trace_text, write_trace_binary, write_trace_text, PathSource,
    PredictedTrace, TraceError,
};

const CASES: usize = 64;

/// One path record: a conditional's direction or a successor.
#[derive(Copy, Clone, Debug)]
enum Rec {
    Taken(bool),
    Target(Addr),
}

/// A random valid program: 4..=96 instructions with in-image targets.
fn random_program(rng: &mut SynthRng) -> Program {
    let n = rng.gen_range(4usize..=96);
    let mut b = ProgramBuilder::new(Addr::new(0x4000));
    let addr_of = |i: usize| Addr::new(0x4000 + 4 * i as u64);
    for _ in 0..n {
        let target = addr_of(rng.gen_range(0usize..=n - 1));
        b.push(match rng.gen_range(0u32..=6) {
            0 | 1 => InstrKind::Seq,
            2 => InstrKind::CondBranch { target },
            3 => InstrKind::Jump { target },
            4 => InstrKind::Call { target },
            5 => InstrKind::Return,
            _ => InstrKind::IndirectCall,
        });
    }
    b.set_entry(addr_of(rng.gen_range(0usize..=n - 1)));
    b.finish().expect("targets are in-image by construction")
}

fn random_target(rng: &mut SynthRng, program: &Program) -> Addr {
    Addr::new(0x4000 + 4 * rng.gen_range(0usize..=program.len() - 1) as u64)
}

/// A random record stream, mostly inconsistent with the image.
fn random_records(rng: &mut SynthRng, program: &Program) -> Vec<Rec> {
    let n = rng.gen_range(0usize..=199);
    (0..n)
        .map(|_| match rng.gen_range(0u32..=2) {
            0 => Rec::Taken(false),
            1 => Rec::Taken(true),
            _ => Rec::Target(random_target(rng, program)),
        })
        .collect()
}

/// A record stream consistent with `program`, drawn by walking it from
/// its entry: a random direction at each conditional, a random in-image
/// successor at each return or indirect transfer. `None` if the walk
/// runs into a loop of direct transfers, a path no file can describe.
fn walked_records(rng: &mut SynthRng, program: &Program) -> Option<Vec<Rec>> {
    let n = rng.gen_range(0usize..=199);
    let (mut records, mut pc, mut stretch) = (Vec::new(), program.entry(), 0);
    while let Some(kind) = program.fetch(pc) {
        let record = match kind {
            InstrKind::Seq | InstrKind::Jump { .. } | InstrKind::Call { .. } => None,
            _ if records.len() == n => return Some(records),
            InstrKind::CondBranch { .. } => Some(Rec::Taken(rng.gen_range(0u32..=1) == 1)),
            _ => Some(Rec::Target(random_target(rng, program))),
        };
        pc = match (kind, record) {
            (InstrKind::Seq, _) | (_, Some(Rec::Taken(false))) => pc.next(),
            (_, Some(Rec::Target(target))) => target,
            _ => kind.static_target().expect("a direct transfer"),
        };
        stretch = if record.is_some() { 0 } else { stretch + 1 };
        records.extend(record);
        if stretch > program.len() {
            return None;
        }
    }
    Some(records)
}

/// A random program and a consistent record stream for it.
fn walked_case(rng: &mut SynthRng) -> (Program, Vec<Rec>) {
    loop {
        let program = random_program(rng);
        if let Some(records) = walked_records(rng, &program) {
            return (program, records);
        }
    }
}

/// The `.sft` text of `program` and `records`.
fn text_file(program: &Program, records: &[Rec]) -> Vec<u8> {
    let (base, entry, n) = (program.base(), program.entry(), program.len());
    let mut s = format!("SFT1 text\nbase {base}\nentry {entry}\nimage {n}\n");
    for (_, kind) in program.iter() {
        s += &match kind {
            InstrKind::Seq => "s".to_owned(),
            InstrKind::CondBranch { target } => format!("b {target}"),
            InstrKind::Jump { target } => format!("j {target}"),
            InstrKind::Call { target } => format!("c {target}"),
            InstrKind::Return => "r".to_owned(),
            InstrKind::IndirectJump => "x".to_owned(),
            InstrKind::IndirectCall => "y".to_owned(),
        };
        s.push('\n');
    }
    s += &format!("path {}\n", records.len());
    for r in records {
        s += &match r {
            Rec::Taken(true) => "t\n".to_owned(),
            Rec::Taken(false) => "n\n".to_owned(),
            Rec::Target(target) => format!("@ {target}\n"),
        };
    }
    (s + "end\n").into_bytes()
}

/// The `.sftb` (version 2) bytes of `program` and `records`.
fn binary_file(program: &Program, records: &[Rec]) -> Vec<u8> {
    let mut b = b"SFTB".to_vec();
    b.extend(2u16.to_le_bytes());
    for word in [program.base().raw(), program.entry().raw(), program.len() as u64] {
        b.extend(word.to_le_bytes());
    }
    for (_, kind) in program.iter() {
        let (op, target) = match kind {
            InstrKind::Seq => (0, None),
            InstrKind::CondBranch { target } => (1, Some(target)),
            InstrKind::Jump { target } => (2, Some(target)),
            InstrKind::Call { target } => (3, Some(target)),
            InstrKind::Return => (4, None),
            InstrKind::IndirectJump => (5, None),
            InstrKind::IndirectCall => (6, None),
        };
        b.push(op);
        b.extend(target.map(|t| t.raw().to_le_bytes()).into_iter().flatten());
    }
    b.extend((records.len() as u64).to_le_bytes());
    for r in records {
        match r {
            Rec::Taken(taken) => b.push(u8::from(*taken)),
            Rec::Target(target) => {
                b.push(2);
                b.extend(target.raw().to_le_bytes());
            }
        }
    }
    let sum = fnv1a(&b);
    b.extend(sum.to_le_bytes());
    b
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn read_text(bytes: &[u8]) -> Result<PredictedTrace, TraceError> {
    read_trace_text(bytes, u64::MAX)
}

fn read_binary(bytes: &[u8]) -> Result<PredictedTrace, TraceError> {
    read_trace_binary(bytes, u64::MAX)
}

fn text_of(trace: &PredictedTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace_text(trace, &mut buf).unwrap();
    buf
}

fn binary_of(trace: &PredictedTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace_binary(trace, &mut buf).unwrap();
    buf
}

/// Any consistent text file reads and writes back byte for byte.
#[test]
fn text_round_trip() {
    let mut rng = SynthRng::seed_from_u64(0x7E87);
    for case in 0..CASES {
        let (program, records) = walked_case(&mut rng);
        let bytes = text_file(&program, &records);
        let trace = read_text(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(trace.record_count(), records.len(), "case {case}");
        assert_eq!(text_of(&trace), bytes, "case {case}");
    }
}

/// Any consistent binary file reads and writes back byte for byte, to
/// the trace its text form holds.
#[test]
fn binary_round_trip() {
    let mut rng = SynthRng::seed_from_u64(0xB17);
    for case in 0..CASES {
        let (program, records) = walked_case(&mut rng);
        let bytes = binary_file(&program, &records);
        let trace = read_binary(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(binary_of(&trace), bytes, "case {case}");
        assert_eq!(read_text(&text_file(&program, &records)).unwrap(), trace, "case {case}");
    }
}

/// Truncating a binary trace never panics and never parses.
#[test]
fn binary_truncation_is_rejected() {
    let mut rng = SynthRng::seed_from_u64(0x72C);
    for case in 0..CASES {
        let (program, records) = walked_case(&mut rng);
        let bytes = binary_file(&program, &records);
        let cut = ((bytes.len() as f64) * rng.gen_f64()) as usize;
        assert!(read_binary(&bytes[..cut]).is_err(), "case {case}: cut at {cut}");
    }
}

/// Records drawn without regard to the image either read (and then
/// write back unchanged) or fail with a typed path error; neither
/// reader panics.
#[test]
fn inconsistent_records_fail_typed() {
    let mut rng = SynthRng::seed_from_u64(0xBAD);
    let mut failed = 0;
    for case in 0..4 * CASES {
        let program = random_program(&mut rng);
        let records = random_records(&mut rng, &program);
        let (text, binary) = (text_file(&program, &records), binary_file(&program, &records));
        match (read_text(&text), read_binary(&binary)) {
            (Ok(t), Ok(b)) => {
                assert_eq!((text_of(&t), binary_of(&b)), (text, binary), "case {case}");
            }
            (Err(t), Err(b)) => {
                assert_eq!(t.to_string(), b.to_string(), "case {case}");
                assert!(
                    matches!(
                        t,
                        TraceError::WalkedOffImage { .. }
                            | TraceError::RecordMismatch { .. }
                            | TraceError::RecordsPastEnd { .. }
                            | TraceError::EndlessLoop { .. }
                    ),
                    "case {case}: {t}"
                );
                failed += 1;
            }
            (t, b) => panic!("case {case}: the formats disagree: {t:?} / {b:?}"),
        }
    }
    assert!(failed > CASES, "most random streams disagree with their image ({failed})");
}

/// Where a hand-written path stops, and how each kind of disagreement
/// with the image is reported.
#[test]
fn hand_written_paths_stop_cleanly_or_fail_typed() {
    // 0: seq; 4: call f; 8: seq; c: bcond -> 0; (f) 10: seq; 14: ret
    let image = "SFT1 text\nbase 0x0\nentry 0x0\nimage 6\ns\nc 0x10\ns\nb 0x0\ns\nr\n";
    let read = |path: &str, max: u64| {
        let n = path.lines().count();
        read_trace_text(format!("{image}path {n}\n{path}end\n").as_bytes(), max)
    };
    let pcs = |t: PredictedTrace| {
        let mut s = PredictedTrace::source(&Arc::new(t));
        std::iter::from_fn(|| s.next_instr()).map(|d| d.pc.raw()).collect::<Vec<_>>()
    };
    // Returns and loops; the walk stops before the return it has no
    // record for, and before the conditional it has no record for.
    assert_eq!(pcs(read("@ 0x8\nn\n", u64::MAX).unwrap()), [0, 4, 16, 20, 8, 12, 16]);
    assert_eq!(pcs(read("@ 0x8\n", u64::MAX).unwrap()), [0, 4, 16, 20, 8]);
    assert_eq!(pcs(read("@ 0x8\nt\n@ 0x8\n", 3).unwrap()), [0, 4, 16]);
    let e = |path: &str| read(path, u64::MAX).unwrap_err().to_string();
    assert_eq!(e("t\n"), "path record kind mismatch for instruction at 0x14");
    assert_eq!(e("@ 0x4000\n"), "path walked off the program image at 0x4000");
    assert_eq!(e("@ 0xc\nn\nn\n"), "path record kind mismatch for instruction at 0x14");

    // Falling off the image end is a clean stop, unless records remain.
    let straight = "SFT1 text\nbase 0x0\nentry 0x0\nimage 2\ns\ns\n";
    let t = read_trace_text(format!("{straight}path 0\nend\n").as_bytes(), u64::MAX).unwrap();
    assert_eq!(t.len(), 2);
    let e = read_trace_text(format!("{straight}path 1\nt\nend\n").as_bytes(), u64::MAX);
    assert_eq!(
        e.unwrap_err().to_string(),
        "path records left when the path reached the image end at 0x8"
    );

    // A loop of direct transfers without records never ends.
    let spin = "SFT1 text\nbase 0x0\nentry 0x0\nimage 2\ns\nj 0x0\npath 0\nend\n";
    let e = read_trace_text(spin.as_bytes(), u64::MAX).unwrap_err();
    assert!(matches!(e, TraceError::EndlessLoop { .. }), "{e}");
}

/// record(path) written to either format reads back as the same trace,
/// and that trace replays the live executor's path.
#[test]
fn record_replay_fixpoint() {
    let w = specfetch::synth::Workload::generate(&specfetch::synth::WorkloadSpec::cpp_like(
        "fixpoint", 5,
    ))
    .unwrap();
    let trace = PredictedTrace::record(&mut w.executor(3), 20_000);
    assert_eq!(read_trace_text(text_of(&trace).as_slice(), 20_000).unwrap(), trace);
    assert_eq!(read_trace_binary(binary_of(&trace).as_slice(), 20_000).unwrap(), trace);

    let mut replay = PredictedTrace::source(&Arc::new(trace));
    let mut live = w.executor(3);
    let mut n = 0;
    while let Some(d) = replay.next_instr() {
        assert_eq!(Some(d), live.next_instr(), "instruction {n}");
        n += 1;
    }
    assert_eq!(n, 20_000);
}

/// The suite's paths write the same files as before the readers and
/// writers moved onto `PredictedTrace`: FNV-1a of each file's bytes, as
/// the earlier outcome-vector writer produced them.
#[test]
fn suite_trace_files_are_pinned() {
    for (name, text_sum, binary_sum) in [
        ("li", 0xfcaf_e1dd_3760_4827, 0xc08d_eedc_257c_0709),
        ("gcc", 0xbd4d_e293_cb2a_be61, 0x6ebf_be03_a000_e2f1),
    ] {
        let bench = Benchmark::by_name(name).unwrap();
        let workload = bench.workload().unwrap();
        let trace = PredictedTrace::record(&mut workload.executor(bench.path_seed()), 200_000);
        let (text, binary) = (text_of(&trace), binary_of(&trace));
        assert_eq!(fnv1a(&text), text_sum, "{name} .sft");
        assert_eq!(fnv1a(&binary), binary_sum, "{name} .sftb");
        assert_eq!(text_of(&read_text(&text).unwrap()), text, "{name} .sft reads back");
        assert_eq!(binary_of(&read_binary(&binary).unwrap()), binary, "{name} .sftb reads back");
    }
}
