//! Integration tests for the static kernel verifier: the production
//! registry must prove clean, and every seeded corpus defect must be
//! flagged with its expected rule.

use landau_check::corpus::{corpus, run_corpus_kernel};
use landau_check::verify::{verify_registry, VerifyRule};
use landau_core::kernels::{inner_integral_kokkos_cached, inner_integral_kokkos_model, IpCoeffs};
use landau_core::registry::{KernelRegistry, VerifyInput};
use landau_vgpu::kokkos::PlainFactory;
use landau_vgpu::symbolic::SymbolicCtx;

#[test]
fn production_kernels_prove_clean_over_the_policy_family() {
    let reg = KernelRegistry::standard();
    let input = VerifyInput::representative();
    let report = verify_registry(&reg, &input);
    assert!(report.kernels.len() >= 2, "both kokkos kernels verified");
    for k in &report.kernels {
        assert!(
            k.is_clean(),
            "{}: {} violation(s): {:?}",
            k.name,
            k.findings.len(),
            k.findings
        );
        assert!(k.blocks > 0, "{}: no blocks analyzed", k.name);
        assert!(
            k.vector_lengths.len() >= 5,
            "{}: family too small to call a sweep",
            k.name
        );
    }
    assert_eq!(report.violations(), 0);
    // The staged kernel's footprint is affine (strided staging writes +
    // broadcast reads), so the bulk of the obligations must be discharged
    // in the affine domain — symbolically over all lane pairs, not by
    // sampling.
    let proofs = report.proofs();
    assert!(proofs.total() > 0);
    assert!(proofs.affine > 0, "expected affine proofs, got {proofs:?}");
}

/// Logging every scratch access must not perturb the arithmetic: each
/// registered kernel computes bitwise the coefficients of its plain run.
#[test]
fn symbolic_runs_match_plain_runs_bitwise() {
    let input = VerifyInput::representative();
    let (ip, sl) = (&input.ip, &input.species);
    let bits = |c: &IpCoeffs| {
        let gk = c.gk.iter().flatten();
        let gd = c.gd.iter().flatten();
        gk.chain(gd).map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    for e in KernelRegistry::standard().entries() {
        for vl in [1usize, 8, 16] {
            let plain = match e.name {
                "inner_integral_kokkos_staged" => inner_integral_kokkos_model(ip, sl, vl).0,
                "inner_integral_kokkos_cached" => {
                    inner_integral_kokkos_cached(ip, sl, vl, &input.table, &PlainFactory).0
                }
                other => panic!("{other}: registered kernel without a plain run here"),
            };
            let logged = (e.run_symbolic)(&input, vl, &SymbolicCtx::new());
            assert!(!plain.gk.is_empty(), "{}: no coefficients", e.name);
            assert_eq!(bits(&logged), bits(&plain), "{} at vl={vl}", e.name);
        }
    }
}

#[test]
fn every_seeded_defect_is_flagged_with_its_rule() {
    let ks = corpus();
    let defects: Vec<_> = ks.iter().filter(|k| k.expected.is_some()).collect();
    assert!(defects.len() >= 6, "corpus must seed at least 6 defects");
    for k in &defects {
        let bf = run_corpus_kernel(k);
        let want = k.expected.unwrap();
        assert!(
            bf.findings.iter().any(|(r, _, _)| *r == want),
            "{}: expected {} among {:?}",
            k.name,
            want.code(),
            bf.findings
        );
    }
}

#[test]
fn corpus_defect_classes_cover_the_issue_list() {
    // The six classes the verifier is specified against, at minimum.
    let need = [
        VerifyRule::RaceReadWrite,     // missing barrier
        VerifyRule::BarrierDivergence, // divergent barrier_if
        VerifyRule::RaceWriteWrite,    // off-by-one lane stride overlap
        VerifyRule::Capacity,          // over-capacity on smallest GpuSpec
        VerifyRule::ReduceOrder,       // order-dependent raw accumulation
        VerifyRule::OutOfBounds,       // out-of-bounds affine index
    ];
    let have: Vec<_> = corpus().iter().filter_map(|k| k.expected).collect();
    for rule in need {
        assert!(
            have.contains(&rule),
            "corpus missing a {} defect",
            rule.code()
        );
    }
}

#[test]
fn clean_control_stays_clean() {
    let ks = corpus();
    let control = ks
        .iter()
        .find(|k| k.expected.is_none())
        .expect("corpus has a clean control");
    let bf = run_corpus_kernel(control);
    assert!(bf.findings.is_empty(), "{:?}", bf.findings);
    assert!(bf.proofs.total() > 0, "control must discharge obligations");
}
