//! Property and reuse tests for the geometry-invariant tensor cache.
//!
//! The cache must be numerically invisible: cached and uncached `IpCoeffs`
//! agree to ≤1e-14 relative difference under every backend and under a
//! memory budget that forces tile recomputation, and a table built once and
//! reused across time steps yields bitwise-identical Jacobians to
//! rebuilding it every step. The five-stream, stage-once CPU kernel must
//! leave the bits of the seven-stream, stage-per-tile one it replaced.

use landau_core::ipdata::IpData;
use landau_core::kernels::{
    inner_integral_cpu, inner_integral_cpu_cached, inner_integral_cuda_model,
    inner_integral_cuda_model_cached, inner_integral_kokkos_cached, inner_integral_kokkos_model,
};
use landau_core::solver::{ThetaMethod, TimeIntegrator};
use landau_core::tensor::landau_tensor_2d;
use landau_core::tensor_cache::DEFAULT_BUDGET_BYTES;
use landau_core::{Backend, LandauOperator, Species, SpeciesList, TensorTable};
use landau_fem::FemSpace;
use landau_mesh::presets::{uniform_mesh, MeshSpec, RefineShell};
use landau_testkit::oracle::{coeff_bits, SevenStreamTable};
use landau_testkit::{cases, prop_assert, Rng};
use landau_vgpu::kokkos::PlainFactory;

fn plasma() -> SpeciesList {
    SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 0.5,
            temperature: 2.0,
        },
    ])
}

/// A randomly perturbed two-species state packed to integration points.
fn random_ipdata(rng: &mut Rng, space: &FemSpace, sl: &SpeciesList) -> IpData {
    let nd = space.n_dofs;
    let mut state = vec![0.0; sl.len() * nd];
    for (s, sp) in sl.list.iter().enumerate() {
        let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) + 0.01);
        state[s * nd..(s + 1) * nd].copy_from_slice(&v);
    }
    for x in state.iter_mut() {
        *x *= 1.0 + 0.2 * (rng.f64_in(-1.0, 1.0));
    }
    let mut ip = IpData::new(space, sl);
    ip.pack(space, &state);
    ip
}

/// The tentpole property: cached vs uncached coefficients within 1e-14
/// relative, for all three backends, both with the full table and with a
/// zero budget that forces every tile to be recomputed on the fly.
#[test]
fn cached_matches_uncached_across_backends_and_budgets() {
    let space = FemSpace::new(uniform_mesh(3.0, 1), 3);
    let sl = plasma();
    cases(4, |rng, case| {
        let ip = random_ipdata(rng, &space, &sl);
        let full = TensorTable::build(&ip.points, usize::MAX);
        let recompute = TensorTable::build(&ip.points, 0);
        let (cpu, _) = inner_integral_cpu(&ip, &sl);
        let (cuda, _) = inner_integral_cuda_model(&ip, &sl, 16);
        let (kk, _) = inner_integral_kokkos_model(&ip, &sl, 8);
        for table in [&full, &recompute] {
            let (c_cpu, _) = inner_integral_cpu_cached(&ip, &sl, table);
            let (c_cuda, _) = inner_integral_cuda_model_cached(&ip, &sl, 16, table);
            let (c_kk, _) = inner_integral_kokkos_cached(&ip, &sl, 8, table, &PlainFactory);
            let mode = table.mode();
            prop_assert!(
                case,
                cpu.max_rel_diff(&c_cpu) <= 1e-14,
                "cpu {:?}: {}",
                mode,
                cpu.max_rel_diff(&c_cpu)
            );
            prop_assert!(
                case,
                cuda.max_rel_diff(&c_cuda) <= 1e-14,
                "cuda {:?}: {}",
                mode,
                cuda.max_rel_diff(&c_cuda)
            );
            prop_assert!(
                case,
                kk.max_rel_diff(&c_kk) <= 1e-14,
                "kokkos {:?}: {}",
                mode,
                kk.max_rel_diff(&c_kk)
            );
        }
    });
}

/// A table built once and reused for three time steps must give bitwise
/// identical Jacobians (and trajectories) to rebuilding it every step.
#[test]
fn table_reused_three_steps_is_bitwise_identical_to_rebuild() {
    let build = || {
        let op = LandauOperator::new(
            FemSpace::new(uniform_mesh(3.0, 1), 3),
            plasma(),
            Backend::Cpu,
        );
        let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
        ti.rtol = 1e-6;
        ti
    };
    let mut reuse = build();
    let kept = reuse.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
    let mut s_reuse = reuse.op.initial_state();
    let mut s_rebuild = s_reuse.clone();
    for step in 0..3 {
        // The rebuild arm is a fresh integrator on a fresh geometry every
        // step, so its table is genuinely built again (a second enable on
        // one geometry would hand back the first table); the reuse
        // integrator keeps streaming the step-0 table.
        let mut rebuild = build();
        let rebuilt = rebuild.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
        assert!(!std::sync::Arc::ptr_eq(&kept, &rebuilt));
        reuse.step(&mut s_reuse, 0.3, 0.0, None);
        rebuild.step(&mut s_rebuild, 0.3, 0.0, None);
        for (a, b) in s_reuse.iter().zip(&s_rebuild) {
            assert_eq!(a.to_bits(), b.to_bits(), "state diverged at step {step}");
        }
        let ja = reuse.op.assemble(&s_reuse, 0.0);
        let jb = rebuild.op.assemble(&s_rebuild, 0.0);
        for (ma, mb) in ja.mats.iter().zip(&jb.mats) {
            for (a, b) in ma.vals.iter().zip(&mb.vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "Jacobian diverged at step {step}");
            }
        }
    }
}

/// The cache build is recorded on the device, and cached assembly shifts
/// the jacobian counters from tensor flops to table streaming.
#[test]
fn cache_accounting_reaches_device_counters() {
    let mut op = LandauOperator::new(
        FemSpace::new(uniform_mesh(3.0, 1), 3),
        plasma(),
        Backend::Cpu,
    );
    let state = op.initial_state();
    let _ = op.assemble(&state, 0.0);
    let uncached = op.device.kernel_stats("landau_jacobian");
    assert_eq!(uncached.cache_read, 0);
    op.device.reset_counters();
    op.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
    let build = op.device.kernel_stats("tensor_table_build");
    assert_eq!(build.launches, 1);
    assert!(build.cache_build_flops > 0);
    let _ = op.assemble(&state, 0.0);
    let cached = op.device.kernel_stats("landau_jacobian");
    assert!(cached.cache_read > 0 && cached.cache_flops_saved > 0);
    assert!(
        cached.flops < uncached.flops / 3,
        "cached {} vs uncached {}",
        cached.flops,
        uncached.flops
    );
}

/// The invariant the five-stream layout rests on: `U^K`'s second column is
/// `U^D`'s `rz`/`zz` pair by assignment, so `k01`/`k11` carry the bits of
/// `d1`/`d2` at every pair of points — near the axis, nearly coincident,
/// far apart.
#[test]
fn tensor_k_second_column_is_d_bitwise() {
    cases(256, |rng, case| {
        let near_axis = case % 4 == 1;
        let r_max = if near_axis { 1e-6 } else { 5.0 };
        let (r, z) = (rng.f64_in(1e-12, r_max), rng.f64_in(-5.0, 5.0));
        let (rb, zb) = match case % 4 {
            0 | 1 => (rng.f64_in(1e-12, r_max), rng.f64_in(-5.0, 5.0)),
            // Nearly coincident, down to where `k² = 1 − O(sep²)` is still
            // under 1 (the kernels mask exact coincidence).
            2 => (r * (1.0 + rng.f64_in(1e-6, 1e-3)), z),
            _ => (r, z + r * rng.f64_in(1e-6, 1e-3)),
        };
        let t = landau_tensor_2d(r, z, rb, zb);
        prop_assert!(
            case,
            t.k[0][1].to_bits() == t.d[1].to_bits() && t.k[1][1].to_bits() == t.d[2].to_bits(),
            "({}, {}) vs ({}, {}): {:?}",
            r,
            z,
            rb,
            zb,
            t
        );
    });
}

/// The new CPU kernel against the kernel it replaced, in both table modes.
fn assert_matches_seven_stream_oracle(what: &str, ip: &IpData, sl: &SpeciesList) {
    for (budget, resident) in [(usize::MAX, true), (0, false)] {
        let (new, _) = inner_integral_cpu_cached(ip, sl, &TensorTable::build(&ip.points, budget));
        let old = SevenStreamTable::build(ip, resident).inner_integral(ip, sl);
        assert_eq!(
            coeff_bits(&new),
            coeff_bits(&old),
            "{what}, resident table: {resident}"
        );
    }
}

#[test]
fn cpu_cached_kernel_is_bitwise_the_seven_stream_oracle() {
    // The §V problem: ten species on the ~80-cell Q3 mesh.
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
    let sl = SpeciesList::thermal_quench_10(0.02);
    let mut rng = Rng::new(13);
    assert_matches_seven_stream_oracle("sec. V", &random_ipdata(&mut rng, &space, &sl), &sl);

    // Two species on Q2 (nq = 9: the unroll remainder runs), then with one
    // species' field factors exactly 0.0 and with −0.0 field values, where
    // `0.0 + −0.0` and `0.0·x` decide the sign of a staged zero.
    let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
    let mut sl = plasma();
    let mut ip = random_ipdata(&mut rng, &space, &sl);
    assert_matches_seven_stream_oracle("Q2", &ip, &sl);
    sl.list[1].charge = 0.0;
    assert_matches_seven_stream_oracle("Q2, neutral species", &ip, &sl);
    for v in [&mut ip.f, &mut ip.dfr, &mut ip.dfz] {
        for x in v.iter_mut().step_by(3) {
            *x = -0.0;
        }
    }
    assert_matches_seven_stream_oracle("Q2, -0.0 field values", &ip, &sl);
    for x in ip.f.iter_mut().chain(&mut ip.dfr).chain(&mut ip.dfz) {
        *x = -0.0;
    }
    assert_matches_seven_stream_oracle("Q2, all-(-0.0) field", &ip, &sl);
}
