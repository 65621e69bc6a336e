//! Shared helpers for the table/figure harness binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin` (`table1` … `table8`, `fig4`, `fig5`, `meshes`) that prints the
//! same rows/series the paper reports, regenerated from this
//! implementation. See `EXPERIMENTS.md` for the paper-vs-measured record.

use landau_core::operator::{AssemblyPath, Backend, LandauOperator};
use landau_core::solver::{ThetaMethod, TimeIntegrator};
use landau_core::species::SpeciesList;
use landau_fem::FemSpace;
use landau_hwsim::IterationProfile;
use landau_mesh::presets::{MeshSpec, RefineShell};

/// Build the §V performance test problem: 10 species (e, D, 8×W) on a
/// mesh of roughly `ne_target` Q3 elements (the paper uses 80; Table IV's
/// utilization study uses 320).
pub fn perf_operator(ne_target: usize, backend: Backend) -> LandauOperator {
    let sl = SpeciesList::thermal_quench_10(0.02);
    // A modest adapted mesh; the paper's perf meshes likewise do not
    // resolve the heavy-species scales.
    let mut spec = MeshSpec {
        domain_radius: 5.0,
        base_level: 2,
        shells: vec![RefineShell {
            radius: 2.8,
            max_cell_size: 0.65,
        }],
        tail_box: None,
    };
    if ne_target > 150 {
        spec.shells.push(RefineShell {
            radius: 1.6,
            max_cell_size: 0.33,
        });
    }
    if ne_target > 400 {
        spec.base_level = 3;
    }
    let space = FemSpace::new(spec.build(), 3);
    let mut op = LandauOperator::new(space, sl, backend);
    op.assembly = AssemblyPath::Atomic; // the GPU assembly path
    op
}

/// Measure the real per-Newton-iteration operation profile by assembling
/// the Jacobian and mass kernels once on the virtual device and reading
/// back the counters; factor/solve FLOPs come from the band solver's cost
/// model at the bandwidth of the geometry's solver ordering.
pub fn measured_profile(op: &mut LandauOperator) -> IterationProfile {
    op.device.reset_counters();
    let state = op.initial_state();
    let _ = op.assemble(&state, 0.0);
    let _ = op.assemble_shifted_mass(1.0);
    let jac = op.device.kernel_stats("landau_jacobian");
    let mass = op.device.kernel_stats("mass");
    let s = op.species.len();
    let n = op.n();
    // Bandwidth of the reordered block, in the ordering the integrator
    // solves in.
    let bw = op.bandwidth();
    IterationProfile {
        kernel_flops: jac.flops,
        kernel_bytes: jac.dram_read + jac.dram_write,
        mass_flops: mass.flops,
        mass_bytes: mass.dram_read + mass.dram_write,
        atomics: jac.atomics + mass.atomics,
        factor_flops: (s * 2 * n * bw * (bw + 1)) as u64,
        solve_flops: (s * 12 * n * bw) as u64,
        host_flops: (s * n * 2000) as u64,
    }
}

/// A short real solver run measuring Newton iterations per time step (the
/// multiplier between time steps and the throughput tables' iterations).
pub fn measure_newton_per_step(op: LandauOperator, steps: usize, dt: f64) -> f64 {
    let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
    ti.rtol = 1e-8;
    let mut state = ti.op.initial_state();
    let mut iters = 0usize;
    for _ in 0..steps {
        let s = ti.step(&mut state, dt, 0.0, None);
        iters += s.newton_iters;
    }
    iters as f64 / steps as f64
}

/// The workspace root (bench mains may run with the package directory as
/// cwd, so outputs anchor here instead of relative paths).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Minimum over `reps` of the seconds `body` takes on a fresh `setup()` —
/// the timing behind the gated speed-up ratios (min-of-N over min-of-N).
pub fn min_seconds<S, R>(reps: usize, setup: impl Fn() -> S, mut body: impl FnMut(S) -> R) -> f64 {
    use std::hint::black_box;
    (0..reps)
        .map(|_| {
            let input = setup();
            let start = std::time::Instant::now();
            black_box(body(black_box(input)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Minimum over `reps` rounds of the seconds each of two arms takes, the
/// arms alternating within a round so a slow spell of the host lands on
/// both — the timing behind a gated ratio of two arms.
pub fn min_seconds_pair<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    use std::hint::black_box;
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = std::time::Instant::now();
        black_box(a());
        best.0 = best.0.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        black_box(b());
        best.1 = best.1.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Write a flat `{"metric": value}` JSON map to `file_name` at the
/// workspace root (bench mains run with the package directory as cwd).
/// Returns the path written so mains can echo it for CI logs.
pub fn write_bench_json(file_name: &str, entries: &[(String, f64)]) -> std::path::PathBuf {
    let path = workspace_root().join(file_name);
    let mut s = String::from("{\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("  \"{name}\": {value:e}{comma}\n"));
    }
    s.push_str("}\n");
    std::fs::write(&path, s).expect("write bench json");
    path
}

/// Render an aligned text table.
pub fn print_table(title: &str, col_label: &str, cols: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    print!("{col_label:>20}");
    for c in cols {
        print!("{c:>16}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:>20}");
        for v in vals {
            print!("{v:>16}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_problem_matches_paper_scale() {
        let op = perf_operator(80, Backend::Cpu);
        assert_eq!(op.species.len(), 10);
        let ne = op.space.n_elements();
        assert!((50..140).contains(&ne), "expected ~80 elements, got {ne}");
        assert_eq!(op.space.tab.nq, 16);
    }

    #[test]
    fn measured_profile_is_sane() {
        let mut op = perf_operator(80, Backend::CudaModel);
        let p = measured_profile(&mut op);
        assert!(p.kernel_flops > p.mass_flops);
        assert!(p.atomics > 0);
        let ai = p.kernel_flops as f64 / p.kernel_bytes as f64;
        assert!(ai > 2.0, "Jacobian AI suspiciously low: {ai}");
    }
}
