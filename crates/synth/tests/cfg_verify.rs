//! Property tests: every program the generator emits passes the static
//! CFG verifier, across all thirteen calibrated benchmark models and
//! randomized generator seeds — plus mutation tests proving the verifier
//! actually pinpoints a seeded defect (a verifier that passes everything
//! would also pass these, so the property alone is not enough).

use specfetch_isa::{verify_cfg, CfgIssue};
use specfetch_synth::suite::Benchmark;
use specfetch_synth::{SynthRng, Workload};

/// Every calibrated benchmark (at its committed generator seed) verifies
/// clean, with the whole image reachable and wrong-path-covered.
#[test]
fn all_thirteen_benchmarks_verify_clean() {
    for b in Benchmark::all() {
        let w = b.workload().unwrap();
        let r = w.analyze();
        assert!(r.is_ok(), "{}: {r}", b.name);
        assert_eq!(r.reachable, r.instrs, "{}: dead code in the image", b.name);
        assert_eq!(r.wrong_path_visited, r.instrs, "{}: wrong-path closure has holes", b.name);
        assert!(r.conditionals > 0, "{}: no conditionals generated", b.name);
    }
}

/// The structural invariants are seed-independent: re-seeding each
/// benchmark's generator with random draws still verifies clean.
#[test]
fn randomized_seeds_verify_clean_for_every_model() {
    let mut rng = SynthRng::seed_from_u64(0x05ee_dcf9);
    for b in Benchmark::all() {
        for _ in 0..3 {
            let mut spec = b.spec();
            spec.seed = rng.next_u64();
            let w = Workload::generate(&spec)
                .unwrap_or_else(|e| panic!("{} reseeded spec invalid: {e}", b.name));
            let r = w.analyze();
            assert!(r.is_ok(), "{} @ seed {}: {r}", b.name, spec.seed);
            assert_eq!(r.reachable, r.instrs, "{} @ seed {}", b.name, spec.seed);
        }
    }
}

/// Corrupting a single branch target produces exactly the right
/// diagnostic, naming the corrupted site and its bogus target.
#[test]
fn corrupted_branch_target_yields_a_precise_diagnostic() {
    let b = Benchmark::by_name("li").unwrap();
    let w = b.workload().unwrap();
    let (corrupted, at, bogus) = w.corrupt_first_branch_target().unwrap();
    let r = corrupted.analyze();
    assert!(!r.is_ok());
    assert!(
        r.issues.contains(&CfgIssue::TargetOutOfImage { at, target: bogus }),
        "expected TargetOutOfImage at {at} -> {bogus}, got: {:?}",
        r.issues
    );
    // The original workload is untouched (corruption is copy-on-write).
    assert!(w.analyze().is_ok());
}

/// The verifier also catches defects the builder cannot: an in-image
/// retarget that strands code. Redirect the first conditional to its own
/// address (a self-loop) — anything only reachable through its
/// fall-through or old target may become dead, and if nothing does, the
/// report must still be structurally consistent.
#[test]
fn verifier_statistics_stay_consistent_under_in_image_retarget() {
    let b = Benchmark::by_name("doduc").unwrap();
    let w = b.workload().unwrap();
    let (at, _) = w.program().iter().find(|(_, k)| k.is_conditional()).unwrap();
    let p = w
        .program()
        .with_instr_unchecked(at, specfetch_isa::InstrKind::CondBranch { target: at })
        .unwrap();
    let r = verify_cfg(&p, |a| w.dispatch_at(a).map(|t| t.targets()));
    assert!(r.reachable <= r.instrs);
    let dead = r.issues.iter().filter(|i| matches!(i, CfgIssue::Unreachable { .. })).count();
    assert_eq!(r.reachable + dead, r.instrs, "reachability and dead-code reports disagree");
}
