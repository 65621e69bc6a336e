//! The rank-two Jacobian tail against the per-species tail it replaced
//! (`landau_testkit::oracle::species_tail`): every species' materialised
//! matrix `k_α A_K + d_α A_D + c_α D_z` stays within 1e-14 (relative to
//! its largest entry) of the matrix built from `S` scaled element matrices
//! and `S` scatters, on the same kernel coefficients.

use landau_core::kernels::inner_integral_cpu_cached;
use landau_core::operator::AssemblyPath;
use landau_core::{Backend, LandauOperator, Species, SpeciesList};
use landau_fem::FemSpace;
use landau_mesh::presets::{uniform_mesh, MeshSpec, RefineShell};
use landau_testkit::oracle::species_tail;

fn ion(mass: f64, charge: f64, temperature: f64) -> Species {
    Species {
        name: "i".into(),
        mass,
        charge,
        density: 0.5,
        temperature,
    }
}

/// The §V problem: ten species on the 80-cell Q3 mesh, atomic scatter.
fn section_v() -> LandauOperator {
    let spec = MeshSpec {
        domain_radius: 5.0,
        base_level: 2,
        shells: vec![RefineShell {
            radius: 2.8,
            max_cell_size: 0.65,
        }],
        tail_box: None,
    };
    let space = FemSpace::new(spec.build(), 3);
    let mut op = LandauOperator::new(space, SpeciesList::thermal_quench_10(0.02), Backend::Cpu);
    op.assembly = AssemblyPath::Atomic;
    op
}

fn q2(species: Vec<Species>, assembly: AssemblyPath) -> LandauOperator {
    let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
    let mut op = LandauOperator::new(space, SpeciesList::new(species), Backend::Cpu);
    op.assembly = assembly;
    op
}

/// Largest over species of `max |pair − reference| / max |reference|`
/// (the plain difference for a species whose reference is all zero).
fn rel_diff(op: &mut LandauOperator, e_field: f64) -> f64 {
    let mut state = op.initial_state();
    for (i, v) in state.iter_mut().enumerate() {
        *v *= 1.0 + 0.05 * ((i % 5) as f64 - 2.0);
    }
    let pair = op.assemble(&state, e_field).mats;
    // `assemble` left `state` packed; the CPU kernel is deterministic, so
    // these are the coefficients it assembled from.
    let (coeffs, _) = inner_integral_cpu_cached(&op.ipdata, &op.species, op.tensor_table());
    let mut reference = pair.clone();
    species_tail(op, &coeffs, e_field, &mut reference);
    let mut worst = 0.0f64;
    for (p, r) in pair.iter().zip(&reference) {
        let scale = r.vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let diff = p
            .vals
            .iter()
            .zip(&r.vals)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        worst = worst.max(if scale > 0.0 { diff / scale } else { diff });
    }
    worst
}

#[test]
fn ten_species_section_v_operator() {
    let d = rel_diff(&mut section_v(), 0.0);
    assert!(d < 1e-14, "{d:e}");
}

#[test]
fn two_species_q2_mesh() {
    let mut op = q2(
        vec![Species::electron(), ion(2.0, 1.0, 2.0)],
        AssemblyPath::SetValues,
    );
    let d = rel_diff(&mut op, 0.0);
    assert!(d < 1e-14, "{d:e}");
}

#[test]
fn with_an_electric_field() {
    let mut op = q2(
        vec![Species::electron(), ion(2.0, 1.0, 2.0)],
        AssemblyPath::SetValues,
    );
    let d = rel_diff(&mut op, 0.3);
    assert!(d < 1e-14, "{d:e}");
    let d = rel_diff(&mut section_v(), -0.02);
    assert!(d < 1e-14, "{d:e}");
}

/// A neutral species: `k_α = d_α = c_α = 0`, so its block is zero on both
/// sides, and it leaves the charged species' blocks as they were.
#[test]
fn with_a_species_factor_of_zero() {
    let mut op = q2(
        vec![Species::electron(), ion(4.0, 0.0, 1.0), ion(2.0, 1.0, 2.0)],
        AssemblyPath::Colored,
    );
    let d = rel_diff(&mut op, 0.3);
    assert!(d < 1e-14, "{d:e}");
    let state = op.initial_state();
    let mats = op.assemble(&state, 0.3).mats;
    assert!(mats[1].vals.iter().all(|&v| v == 0.0));
}
