//! Byte-level pins on the thirteen suite images and on what the CFG
//! verifier reports about them.
//!
//! The report goldens only see an image through the numbers a simulation
//! prints; these pins see all of it. [`every_suite_image_matches_its_fingerprint`]
//! hashes every instruction, branch behaviour and dispatch table of each
//! benchmark, and [`verifier_reports_under_seeded_defects_match_their_pins`]
//! hashes the full [`CfgReport`] (statistics, every issue, issue order)
//! that [`verify_cfg`] produces for each image under a fixed set of
//! seeded defects. A change to the generator's emission order or to the
//! verifier's walks must leave both unchanged.

use specfetch_isa::{verify_cfg, Addr, CfgReport, InstrKind, Program};
use specfetch_synth::suite::Benchmark;
use specfetch_synth::Workload;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a of each benchmark's image: entry, then per instruction its
/// address and kind, a conditional's `behavior_at` and an indirect
/// site's `dispatch_at`.
const IMAGE_PINS: [(&str, u64); 13] = [
    ("doduc", 0xb9c4_dc5d_d8c0_2fde),
    ("fpppp", 0x6d9d_06ef_9638_37f7),
    ("su2cor", 0x8079_9ada_7df6_c34c),
    ("ditroff", 0x48de_3942_d296_fd34),
    ("gcc", 0xe3ea_dc72_2b48_2077),
    ("li", 0xbf68_57d4_ddfe_e895),
    ("tex", 0x422f_8ee5_467d_218c),
    ("cfront", 0x35d5_112f_e28d_cd01),
    ("db++", 0xac15_86d8_c7b2_0e96),
    ("groff", 0x53bf_20dc_5e6e_3e5a),
    ("idl", 0x8612_f663_f721_9f76),
    ("lic", 0x7bc6_251d_2692_8c08),
    ("porky", 0x60a9_82a9_af92_fcd9),
];

fn image_fingerprint(w: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.feed(&w.program().entry().raw().to_le_bytes());
    for (pc, kind) in w.program().iter() {
        h.feed(&pc.raw().to_le_bytes());
        h.feed(format!("{kind:?}").as_bytes());
        if kind.is_conditional() {
            h.feed(format!("{:?}", w.behavior_at(pc)).as_bytes());
        }
        if matches!(kind, InstrKind::IndirectJump | InstrKind::IndirectCall) {
            h.feed(format!("{:?}", w.dispatch_at(pc)).as_bytes());
        }
    }
    h.0
}

#[test]
fn every_suite_image_matches_its_fingerprint() {
    let mut got = Vec::new();
    for b in Benchmark::all() {
        got.push((b.name, image_fingerprint(&b.workload().unwrap())));
    }
    assert_eq!(got, IMAGE_PINS, "a suite image changed");
}

/// The seeded defects, in the order [`REPORT_PINS`] lists them. Each
/// pin hashes the `Debug` text of all thirteen reports for that case,
/// in suite order.
const CASES: [&str; 10] = [
    "clean",
    "out-of-image target at len/2",
    "first conditional retargeted to itself",
    "Seq at the end of the entry run made a Return",
    "Seq at index 0 made an IndirectJump with no table",
    "IndirectJumps at index 0 and len-1 with tables",
    "last instruction made a Seq",
    "first indirect site's table dropped",
    "closing Jump retargeted to index 0, whose run ends in a Return",
    "several at once: a Jump out of the image at len/2, main's first Call a CondBranch \
     to index 0, the last instruction a Seq, the first indirect site's table dropped",
];

const REPORT_PINS: [(&str, u64); 10] = [
    (CASES[0], 0xf298_f380_279c_a84f),
    (CASES[1], 0x9453_1f43_f79c_8616),
    (CASES[2], 0xbca3_0208_9a6b_f26c),
    (CASES[3], 0xc007_4a6a_e0db_845e),
    (CASES[4], 0x1141_bedd_656d_b735),
    (CASES[5], 0x0da1_8c1a_91d8_11cc),
    (CASES[6], 0x11d4_62a8_6ecf_1423),
    (CASES[7], 0xf1b5_1547_2dd0_935a),
    (CASES[8], 0x175a_83f3_460a_b140),
    (CASES[9], 0x502b_23dc_f29b_63d1),
];

fn addr_of(p: &Program, i: usize) -> Addr {
    p.iter().nth(i).unwrap().0
}

fn mutate(p: &Program, i: usize, kind: InstrKind) -> Program {
    p.with_instr_unchecked(addr_of(p, i), kind).unwrap()
}

/// Verifies `p` with `w`'s dispatch tables, except at the sites listed
/// in `overrides`, which get the given table or none.
fn verify_with(w: &Workload, p: &Program, overrides: &[(Addr, Option<&[Addr]>)]) -> CfgReport {
    verify_cfg(p, |at| match overrides.iter().find(|(site, _)| *site == at) {
        Some((_, table)) => *table,
        None => w.dispatch_at(at).map(|t| t.targets()),
    })
}

/// An override that drops the table of `p`'s first indirect site, if
/// it has one.
fn drop_first_table(p: &Program) -> Vec<(Addr, Option<&[Addr]>)> {
    let site =
        p.iter().find(|(_, k)| matches!(k, InstrKind::IndirectJump | InstrKind::IndirectCall));
    site.map(|(at, _)| (at, None)).into_iter().collect()
}

/// The report for seeded defect `case` (an index into [`CASES`]).
fn seeded_report(w: &Workload, case: usize) -> CfgReport {
    let p = w.program();
    let len = p.len();
    let bogus = Addr::new(p.end().raw() + 0x40);
    match case {
        0 => verify_with(w, p, &[]),
        1 => verify_with(w, &mutate(p, len / 2, InstrKind::Call { target: bogus }), &[]),
        2 => {
            let (at, _) = p.iter().find(|(_, k)| k.is_conditional()).unwrap();
            let q = p.with_instr_unchecked(at, InstrKind::CondBranch { target: at }).unwrap();
            verify_with(w, &q, &[])
        }
        3 => {
            let mut at = p.entry();
            while p.fetch(at.next()) == Some(InstrKind::Seq) {
                at = at.next();
            }
            assert_eq!(p.fetch(at), Some(InstrKind::Seq));
            verify_with(w, &p.with_instr_unchecked(at, InstrKind::Return).unwrap(), &[])
        }
        4 => {
            assert_eq!(p.fetch(p.base()), Some(InstrKind::Seq));
            verify_with(w, &mutate(p, 0, InstrKind::IndirectJump), &[])
        }
        5 => {
            let q =
                mutate(&mutate(p, 0, InstrKind::IndirectJump), len - 1, InstrKind::IndirectJump);
            let first = [addr_of(p, 1), bogus];
            let last = [p.entry()];
            verify_with(w, &q, &[(addr_of(p, 0), Some(&first)), (addr_of(p, len - 1), Some(&last))])
        }
        6 => verify_with(w, &mutate(p, len - 1, InstrKind::Seq), &[]),
        7 => verify_with(w, p, &drop_first_table(p)),
        8 => {
            // Function 0 becomes reachable at depth zero, so the Return
            // that ends its first run underflows while main stays live.
            assert_eq!(p.fetch(addr_of(p, len - 1)), Some(InstrKind::Jump { target: p.entry() }));
            let mut end = 0;
            while p.fetch(addr_of(p, end + 1)) == Some(InstrKind::Seq) {
                end += 1;
            }
            let q = mutate(p, len - 1, InstrKind::Jump { target: p.base() });
            verify_with(w, &mutate(&q, end, InstrKind::Return), &[])
        }
        9 => {
            // One report with an out-of-image target, a return
            // underflow, both escapes, dead code and (in the C++ images)
            // a missing table, so their relative order is pinned too.
            let (call, _) = p
                .iter()
                .skip_while(|&(at, _)| at != p.entry())
                .find(|(_, k)| matches!(k, InstrKind::Call { .. }))
                .unwrap();
            let q = mutate(p, len / 2, InstrKind::Jump { target: bogus });
            let q =
                q.with_instr_unchecked(call, InstrKind::CondBranch { target: p.base() }).unwrap();
            let q = mutate(&q, len - 1, InstrKind::Seq);
            verify_with(w, &q, &drop_first_table(p))
        }
        _ => unreachable!("no seeded defect {case}"),
    }
}

#[test]
fn verifier_reports_under_seeded_defects_match_their_pins() {
    let workloads: Vec<Workload> = Benchmark::all().iter().map(|b| b.workload().unwrap()).collect();
    let mut got = Vec::new();
    for (case, name) in CASES.iter().enumerate() {
        let mut h = Fnv::new();
        for w in &workloads {
            h.feed(w.name().as_bytes());
            h.feed(format!("{:?}", seeded_report(w, case)).as_bytes());
        }
        got.push((*name, h.0));
    }
    assert_eq!(got, REPORT_PINS, "a verifier report changed");
}
