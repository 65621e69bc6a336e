//! Acceptance tests for the resilience stack: seeded fault injection,
//! the transactional `try_step` taxonomy, and the adaptive recovery
//! policy.
//!
//! Every defect class the solve path claims to survive is injected at a
//! reproducible point and shown to be (a) detected, (b) attributed to the
//! right [`SolveError`] variant with `state` bitwise restored to `f^n`,
//! and (c) recovered from by [`AdaptiveStepper`]. The converse is proved
//! too: with [`FaultPlan::none`] the guarded paths produce bitwise the
//! same states as the plain integrator.

use landau_core::fault_sites::{SITE_LANDAU_JACOBIAN, SITE_LU_FACTOR};
use landau_core::solver::{NonFiniteSite, SolveError, StepStats, ThetaMethod, TimeIntegrator};
use landau_core::{
    AdaptiveStepper, Backend, FaultKind, FaultPlan, LandauOperator, RecoveryConfig, Species,
    SpeciesList,
};
use landau_fem::FemSpace;
use landau_mesh::presets::uniform_mesh;

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

fn make_ti() -> TimeIntegrator {
    let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
    let op = LandauOperator::new(space, plasma(), Backend::Cpu);
    TimeIntegrator::new(op, ThetaMethod::BackwardEuler)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn nan_fault_is_detected_attributed_and_rolled_back() {
    let mut ti = make_ti();
    let mut state = ti.op.initial_state();
    let f_n = state.clone();
    // Poison the *second* assemble: iteration 0 updates the state, then
    // iteration 1's residual goes NaN — so the rollback is load-bearing.
    ti.op
        .device
        .arm_faults(FaultPlan::seeded(7).with(SITE_LANDAU_JACOBIAN, 1, FaultKind::Nan));
    let err = ti
        .try_step(&mut state, 0.3, 0.1, None)
        .expect_err("a NaN'd kernel output must fail the step");
    assert_eq!(
        err,
        SolveError::NonFinite {
            site: NonFiniteSite::Residual
        },
        "wrong attribution: {err}"
    );
    assert_eq!(bits(&state), bits(&f_n), "failed step must leave f^n");
    let log = ti.op.device.fault_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].site, SITE_LANDAU_JACOBIAN);
    assert_eq!(log[0].tally, 1);
    ti.op.device.disarm_faults();
    // The same step, clean, succeeds.
    let st = ti
        .try_step(&mut state, 0.3, 0.1, None)
        .expect("clean retry converges");
    assert!(st.converged);
}

#[test]
fn singular_block_is_detected_attributed_and_rolled_back() {
    let mut ti = make_ti();
    let mut state = ti.op.initial_state();
    let f_n = state.clone();
    ti.op.device.arm_faults(FaultPlan::seeded(11).with(
        SITE_LU_FACTOR,
        0,
        FaultKind::SingularBlock,
    ));
    let err = ti
        .try_step(&mut state, 0.3, 0.1, None)
        .expect_err("a poisoned LU block must fail the step");
    match err {
        SolveError::SingularJacobian { block, row } => {
            assert!(block < 2, "block out of range: {block}");
            assert_eq!(row, 0, "poison zeroes the first row of the block");
        }
        other => panic!("wrong attribution: {other}"),
    }
    assert_eq!(bits(&state), bits(&f_n), "failed step must leave f^n");
    ti.op.device.disarm_faults();
}

#[test]
fn perturb_fault_triggers_divergence_guard() {
    let mut ti = make_ti();
    let mut state = ti.op.initial_state();
    let f_n = state.clone();
    // A silent ×(1+1e12) corruption of one coefficient lane on the second
    // assemble: the residual norm explodes past `divergence_ratio · r0`.
    ti.op.device.arm_faults(FaultPlan::seeded(13).with(
        SITE_LANDAU_JACOBIAN,
        1,
        FaultKind::Perturb { rel: 1e12 },
    ));
    let err = ti
        .try_step(&mut state, 0.3, 0.1, None)
        .expect_err("a huge silent corruption must fail the step");
    assert!(
        matches!(err, SolveError::NewtonDiverged { .. }),
        "wrong attribution: {err}"
    );
    assert_eq!(bits(&state), bits(&f_n), "failed step must leave f^n");
    ti.op.device.disarm_faults();
}

#[test]
fn adaptive_stepper_recovers_from_transient_faults() {
    let ti = make_ti();
    let mut stepper = AdaptiveStepper::new(ti);
    let mut state = stepper.ti.op.initial_state();
    // Two consecutive poisoned assembles: the first attempt and the damped
    // retry both see NaNs; the Δt-halved attempt runs clean and recovers.
    stepper
        .ti
        .op
        .device
        .arm_faults(FaultPlan::seeded(23).with_repeated(
            SITE_LANDAU_JACOBIAN,
            0,
            2,
            FaultKind::Nan,
        ));
    let (st, rec) = stepper
        .advance(&mut state, 0.3, 0.1, None)
        .expect("transient faults must be recovered");
    assert!(st.converged);
    assert!(rec.retried > 0, "{rec:?}");
    assert!(state.iter().all(|v| v.is_finite()));
    assert!(
        !stepper.ti.op.device.fault_log().is_empty(),
        "plan never fired"
    );
    stepper.ti.op.device.disarm_faults();
}

#[test]
fn fault_free_paths_are_bitwise_identical() {
    let dt = 0.3;
    let e = 0.1;
    // (a) the historical plain step;
    let mut ti_a = make_ti();
    let mut sa = ti_a.op.initial_state();
    let st_a = ti_a.step(&mut sa, dt, e, None);
    assert!(st_a.converged);
    // (b) try_step with an armed-but-empty plan;
    let mut ti_b = make_ti();
    ti_b.op.device.arm_faults(FaultPlan::none());
    let mut sb = ti_b.op.initial_state();
    let st_b = ti_b.try_step(&mut sb, dt, e, None).expect("clean step");
    assert!(st_b.converged);
    // (c) the full recovery wrapper.
    let ti_c = make_ti();
    let mut stepper = AdaptiveStepper::new(ti_c);
    let mut sc = stepper.ti.op.initial_state();
    let (st_c, rec) = stepper.advance(&mut sc, dt, e, None).expect("clean step");
    assert!(st_c.converged);
    assert_eq!(rec.retried, 0);
    assert_eq!(rec.substeps, 1);
    assert_eq!(
        bits(&sa),
        bits(&sb),
        "try_step with FaultPlan::none() altered the arithmetic"
    );
    assert_eq!(
        bits(&sa),
        bits(&sc),
        "AdaptiveStepper's fast path altered the arithmetic"
    );
    assert_eq!(st_a.newton_iters, st_b.newton_iters);
    assert_eq!(st_a.newton_iters, st_c.newton_iters);
}

#[test]
fn one_newton_budget_fails_transactionally() {
    let mut ti = make_ti();
    ti.max_newton = 1;
    let mut state = ti.op.initial_state();
    let f_n = state.clone();
    // A stiff pulse-scale step cannot meet a 1e-7 tolerance in one
    // quasi-Newton iteration.
    let err = ti
        .try_step(&mut state, 5.0, 0.4, None)
        .expect_err("one Newton iteration cannot converge a stiff step");
    assert!(
        matches!(
            err,
            SolveError::NewtonDiverged { .. } | SolveError::NewtonStalled { .. }
        ),
        "wrong attribution: {err}"
    );
    assert_eq!(
        bits(&state),
        bits(&f_n),
        "exhausted budget must leave f^n bitwise"
    );
}

#[test]
fn recovery_budget_exhaustion_is_structured() {
    let mut ti = make_ti();
    ti.max_newton = 1;
    let mut stepper = AdaptiveStepper::with_config(
        ti,
        RecoveryConfig {
            max_retries: 2,
            backtracks: 1,
            min_dt_fraction: 0.25,
            ..Default::default()
        },
    );
    let mut state = stepper.ti.op.initial_state();
    let f_n = state.clone();
    let fail = stepper
        .advance(&mut state, 5.0, 0.4, None)
        .expect_err("no amount of halving converges in one iteration");
    assert!(fail.attempts > 0);
    assert!(fail.dt_fraction <= 1.0);
    assert_eq!(bits(&state), bits(&f_n), "failed advance must leave f^n");
}

#[test]
fn subdivided_advance_takes_no_sliver_substep() {
    // Eight substeps of `dt/8` cover `dt` exactly. Summed in seconds they
    // fell a few ulps short, and a ninth "substep" of `1e-16 · dt` ran a
    // full solve and reported its size as the smallest fraction used.
    for dt in [0.05, 0.3, 0.4, 0.7] {
        let mut stepper = AdaptiveStepper::with_config(
            make_ti(),
            RecoveryConfig {
                // Keep the scale where the test put it.
                growth_streak: usize::MAX,
                ..Default::default()
            },
        );
        stepper.dt_scale = 0.125;
        let mut state = stepper.ti.op.initial_state();
        let (stats, rec) = stepper
            .advance(&mut state, dt, 0.0, None)
            .expect("a healthy subdivided advance");
        assert!(stats.converged);
        assert_eq!(rec.substeps, 8, "dt = {dt}: {rec:?}");
        assert_eq!(rec.dt_fraction_min, 0.125, "dt = {dt}: {rec:?}");
    }
}

#[test]
fn theta_checked_validates_range() {
    assert!(ThetaMethod::theta_checked(0.5).is_ok());
    assert!(ThetaMethod::theta_checked(1.0).is_ok());
    for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        assert!(
            ThetaMethod::theta_checked(bad).is_err(),
            "theta = {bad} must be rejected"
        );
    }
}

#[test]
fn merge_keeps_worst_residual() {
    let mut a = StepStats {
        residual: 1e-3,
        converged: true,
        ..Default::default()
    };
    let b = StepStats {
        residual: 1e-9,
        converged: true,
        ..Default::default()
    };
    a.merge(&b);
    assert_eq!(a.residual, 1e-3, "merge must keep the max residual");
    assert!(a.converged);
}
