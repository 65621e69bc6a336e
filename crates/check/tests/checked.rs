//! Acceptance tests for the checked execution mode: each of the three
//! seeded defect classes (un-barriered lane race, coloring violation,
//! scratch over-allocation) is caught, while the real operator kernels and
//! assembly paths run clean under the checker.

use landau_core::ipdata::IpData;
use landau_core::kernels::{
    assemble_colored_checked, assemble_setvalues, inner_integral_kokkos_model,
    inner_integral_kokkos_with,
};
use landau_core::species::{Species, SpeciesList};
use landau_fem::assemble::csr_pattern;
use landau_fem::coloring::{color_batches, color_elements};
use landau_fem::FemSpace;
use landau_mesh::presets::uniform_mesh;
use landau_testkit::oracle::landau_element_matrices;
use landau_vgpu::kokkos::{Team, TeamFactory, TeamPolicy};
use landau_vgpu::{CheckCtx, Finding, GpuSpec, Tally};

fn setup() -> (FemSpace, SpeciesList, IpData) {
    let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
    let sl = SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 0.5,
            temperature: 2.0,
        },
    ]);
    let mut ip = IpData::new(&space, &sl);
    let nd = space.n_dofs;
    let mut state = vec![0.0; 2 * nd];
    for (s, sp) in sl.list.iter().enumerate() {
        let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) + 0.01);
        state[s * nd..(s + 1) * nd].copy_from_slice(&v);
    }
    ip.pack(&space, &state);
    (space, sl, ip)
}

fn policy(vl: usize) -> TeamPolicy {
    TeamPolicy {
        league_size: 1,
        team_size: 1,
        vector_length: vl,
    }
}

/// Seeded defect 1: lanes cooperatively stage scratch, then read across
/// lanes *without* a barrier — the classic shared-memory race. Strict mode
/// aborts at the first conflicting access.
#[test]
#[should_panic(expected = "write-write")]
fn seeded_lane_race_is_caught() {
    let ctx = CheckCtx::strict(GpuSpec::v100());
    let mut t = Tally::new();
    let mut m = ctx.member(0, policy(8), &mut t);
    let mut sm = m.scratch(4);
    // Defect: the index map folds 8 lanes onto 4 cells in one epoch.
    m.vector_for(8, |j, lane| sm.write(lane, j % 4, j as f64));
}

/// The same race in collecting mode: the defect is reported (not panicked)
/// with the precise cell and lane pair, so a batch run can list every
/// conflict at once.
#[test]
fn seeded_lane_race_is_reported_in_collecting_mode() {
    let ctx = CheckCtx::new(GpuSpec::v100());
    let mut t = Tally::new();
    let mut m = ctx.member(0, policy(4), &mut t);
    let mut sm = m.scratch(2);
    m.vector_for(4, |j, lane| sm.write(lane, j % 2, 1.0));
    let findings = ctx.findings();
    assert!(!findings.is_empty());
    assert!(findings
        .iter()
        .all(|f| matches!(f, Finding::ScratchRace { .. })));
}

/// Seeded defect 2: a deliberately wrong coloring (all elements in one
/// color batch) violates the disjoint-scatter contract on any mesh with
/// shared dofs, and the ownership map refuses it.
#[test]
fn seeded_coloring_violation_is_caught() {
    let (space, sl, ip) = setup();
    let (coeffs, _) = landau_core::kernels::inner_integral_cpu(&ip, &sl);
    let (ce, _) = landau_element_matrices(&space, &sl, &ip, &coeffs);
    let pat = csr_pattern(&space);
    let mut mats = vec![pat.clone(), pat.clone()];
    // Defect: one batch containing every element — adjacent elements share
    // dofs, so their scatters overlap.
    let bogus = vec![(0..space.n_elements()).collect::<Vec<_>>()];
    let err = assemble_colored_checked(&space, 2, &ce, &mut mats, &bogus)
        .expect_err("single-color batch must violate the scatter contract");
    assert!(err.first_elem != err.second_elem);
    assert!(err.slot < pat.vals.len());
}

/// Seeded defect 3: cumulative scratch allocation past the device's
/// per-block shared memory is a hard error under a strict context.
#[test]
#[should_panic(expected = "scratch over-allocation")]
fn seeded_scratch_over_allocation_is_caught() {
    let tiny = GpuSpec {
        shared_mem_per_block: 256, // 32 f64 slots
        max_threads_per_block: 1024,
        warp_size: 32,
    };
    let ctx = CheckCtx::strict(tiny);
    let mut t = Tally::new();
    let mut m = ctx.member(0, policy(4), &mut t);
    let _a = m.scratch(16); // 128 B, fits
    let _b = m.scratch(32); // cumulative 384 B > 256 B
}

/// The real inner-integral kernel, run under the checker across the whole
/// league: zero findings, and bitwise-identical coefficients to the plain
/// (unchecked) execution.
#[test]
fn operator_kernel_runs_clean_under_checker() {
    let (_space, sl, ip) = setup();
    for vl in [1usize, 8, 16] {
        let ctx = CheckCtx::new(GpuSpec::v100());
        let (checked, t) = inner_integral_kokkos_with(&ip, &sl, vl, &ctx);
        ctx.assert_clean();
        let (plain, _) = inner_integral_kokkos_model(&ip, &sl, vl);
        assert_eq!(checked.max_rel_diff(&plain), 0.0, "vl={vl}");
        assert!(t.flops > 0);
    }
}

/// The real graph coloring satisfies the scatter contract: checked colored
/// assembly succeeds and reproduces the MatSetValues reference values.
#[test]
fn real_coloring_passes_checked_assembly() {
    let (space, sl, ip) = setup();
    let (coeffs, _) = landau_core::kernels::inner_integral_cpu(&ip, &sl);
    let (ce, _) = landau_element_matrices(&space, &sl, &ip, &coeffs);
    let (colors, ncolors) = color_elements(&space);
    let batches = color_batches(&colors, ncolors);
    let pat = csr_pattern(&space);
    let mut reference = vec![pat.clone(), pat.clone()];
    assemble_setvalues(&space, 2, &ce, &mut reference);
    let mut checked = vec![pat.clone(), pat.clone()];
    let t = assemble_colored_checked(&space, 2, &ce, &mut checked, &batches)
        .expect("the real coloring must satisfy the scatter contract");
    assert!(t.atomics > 0);
    for s in 0..2 {
        for (v, r) in checked[s].vals.iter().zip(&reference[s].vals) {
            assert!((v - r).abs() < 1e-12 * (1.0 + r.abs()));
        }
    }
}
