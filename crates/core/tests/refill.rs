//! The persistent, refill-in-place solver of `TimeIntegrator` against the
//! rebuild-every-iteration path it replaced
//! (`landau_testkit::oracle::RebuildIntegrator`): one run through every
//! way the solver's storage gets reused — a `dt` that changes between
//! steps, a θ that changes, a source term, an injected singular block
//! with its rollback, a damped retry — must land on the same bits.

use landau_core::fault_sites::SITE_LU_FACTOR;
use landau_core::solver::{SolveError, StepStats, ThetaMethod, TimeIntegrator};
use landau_core::{Backend, FaultKind, FaultPlan, LandauOperator, Species, SpeciesList};
use landau_fem::FemSpace;
use landau_mesh::presets::uniform_mesh;
use landau_testkit::oracle::RebuildIntegrator;

fn operator() -> LandauOperator {
    let plasma = SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 0.5,
            temperature: 2.0,
        },
    ]);
    let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
    LandauOperator::new(space, plasma, Backend::Cpu)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The fields of `StepStats` that are not wall-clock times.
fn counters(s: &StepStats) -> (usize, bool, u64) {
    (s.newton_iters, s.converged, s.residual.to_bits())
}

#[test]
fn refill_in_place_matches_rebuild_every_iteration_bitwise() {
    let mut ti = TimeIntegrator::new(operator(), ThetaMethod::BackwardEuler);
    let mut oracle = RebuildIntegrator::new(
        operator(),
        ThetaMethod::BackwardEuler,
        ti.op.perm().to_vec(),
    );
    ti.rtol = 1e-7;
    oracle.rtol = ti.rtol;
    assert_eq!(
        (
            oracle.atol,
            oracle.max_newton,
            oracle.divergence_ratio,
            oracle.stall_window
        ),
        (ti.atol, ti.max_newton, ti.divergence_ratio, ti.stall_window),
        "the oracle's defaults drifted from TimeIntegrator::new"
    );

    let mut state = ti.op.initial_state();
    let mut state_ref = state.clone();
    let n = ti.op.n();
    // A cold electron source, switched on for one step.
    let cold = Species {
        name: "cold".into(),
        mass: 1.0,
        charge: -1.0,
        density: 0.5,
        temperature: 0.2,
    };
    let mut source = vec![0.0; state.len()];
    source[..n].copy_from_slice(&ti.op.space.interpolate(|r, z| cold.maxwellian(r, z, 0.0)));

    let dts = [0.3, 0.15, 0.4, 0.2, 0.25, 0.1, 0.35, 0.3];
    let mut total_newton = 0;
    for (k, &dt) in dts.iter().enumerate() {
        let method = if k >= 5 {
            ThetaMethod::CrankNicolson
        } else {
            ThetaMethod::BackwardEuler
        };
        ti.method = method;
        oracle.method = method;
        let src = (k == 2).then_some(&source[..]);

        if k == 3 {
            // The second factorization of this step meets a singular
            // block: the first Newton update is already in `state`, so the
            // rollback is load-bearing, and the solver is left holding a
            // half-factored poisoned block for the retry to refill.
            let before = bits(&state);
            let plan = || FaultPlan::seeded(11).with(SITE_LU_FACTOR, 1, FaultKind::SingularBlock);
            ti.op.device.arm_faults(plan());
            oracle.op.device.arm_faults(plan());
            let err = ti.try_step(&mut state, dt, 0.1, src).expect_err("poisoned");
            let err_ref = oracle
                .try_step_damped(&mut state_ref, dt, 0.1, src, 0)
                .expect_err("poisoned");
            assert!(matches!(err, SolveError::SingularJacobian { row: 0, .. }));
            assert_eq!(err, err_ref);
            assert_eq!(bits(&state), before, "failed step must restore f^n");
            assert_eq!(bits(&state_ref), before);
            ti.op.device.disarm_faults();
            oracle.op.device.disarm_faults();
        }

        // The step after the fault is the recovery layer's damped retry.
        let backtracks = if k == 3 { 2 } else { 0 };
        let stats = ti
            .try_step_damped(&mut state, dt, 0.1, src, backtracks)
            .unwrap_or_else(|e| panic!("step {k}: {e}"));
        let stats_ref = oracle
            .try_step_damped(&mut state_ref, dt, 0.1, src, backtracks)
            .unwrap_or_else(|e| panic!("oracle step {k}: {e}"));
        assert_eq!(counters(&stats), counters(&stats_ref), "step {k}");
        assert_eq!(bits(&state), bits(&state_ref), "step {k} (dt {dt})");
        assert!(stats.newton_iters >= 2, "step {k} refilled a used solver");
        total_newton += stats.newton_iters;
    }
    assert!(total_newton >= 16);
}

#[test]
fn failed_factorization_time_is_recorded() {
    let mut ti = TimeIntegrator::new(operator(), ThetaMethod::BackwardEuler);
    let mut state = ti.op.initial_state();
    ti.op.device.arm_faults(FaultPlan::seeded(11).with(
        SITE_LU_FACTOR,
        0,
        FaultKind::SingularBlock,
    ));
    // `step` reports failure through `converged`, with the stats filled.
    let stats = ti.step(&mut state, 0.3, 0.1, None);
    assert!(!stats.converged);
    assert_eq!(stats.newton_iters, 0);
    assert!(
        stats.t_factor > 0.0,
        "the factorization that failed took time: {stats:?}"
    );
}
