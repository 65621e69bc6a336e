//! `perf80_solo`: the paper's §V performance problem, solo.
//!
//! Ten species (e, D, eight W states) on ~80 Q3 cells, atomic assembly,
//! backward Euler at `rtol 1e-6`, `dt 0.05`, tensor cache on. A round is
//! 16 `step` calls from the seeded initial state on one integrator.

use crate::replay;
use crate::run::{compute_e2e, run_rounds, Ctx, Unit};
use crate::util::{density_scales, median, percentile, scale_species, timed};
use crate::workloads::build_space;
use landau_core::operator::{AssemblyPath, Backend, LandauOperator};
use landau_core::solver::{StepStats, ThetaMethod, TimeIntegrator};
use landau_core::species::SpeciesList;
use landau_core::tensor_cache::DEFAULT_BUDGET_BYTES;
use landau_fem::FemSpace;
use landau_mesh::presets::{MeshSpec, RefineShell};
use std::time::Instant;

pub const STEPS_PER_ROUND: usize = 16;
pub const DT: f64 = 0.05;
const RTOL: f64 = 1e-6;
/// The problem is set up this many times; set-up time is the median.
const SETUPS: usize = 3;
/// Untimed steps before the first round: the 87 MB tensor table is paged
/// in by the first two sweeps over it.
const WARM_UP_STEPS: usize = 2;
/// Density is conserved by every Newton update; energy only to the Newton
/// tolerance (`rtol 1e-6` leaves ~3e-9 over 16 steps).
const DENSITY_TOL: f64 = 1e-10;
const ENERGY_TOL: f64 = 1e-7;
/// Atomic assembly adds element matrices in thread order, so two rounds
/// agree to rounding, not bitwise.
const ROUND_AGREEMENT_TOL: f64 = 1e-9;

pub fn species() -> SpeciesList {
    SpeciesList::thermal_quench_10(0.02)
}

pub fn mesh_spec() -> MeshSpec {
    MeshSpec {
        domain_radius: 5.0,
        base_level: 2,
        shells: vec![RefineShell {
            radius: 2.8,
            max_cell_size: 0.65,
        }],
        tail_box: None,
    }
}

/// The §V operator on `space` for one backend.
pub fn operator(space: FemSpace, backend: Backend) -> LandauOperator {
    let mut op = LandauOperator::new(space, species(), backend);
    op.assembly = AssemblyPath::Atomic;
    op
}

pub struct Problem {
    pub ti: TimeIntegrator,
    pub init: Vec<f64>,
}

fn setup(ctx: &mut Ctx) -> Problem {
    ctx.tr.enter("setup", 0);
    let space = build_space(ctx, &mesh_spec(), 3);
    let op = ctx
        .tr
        .call("core.operator.new", 0, || operator(space, Backend::Cpu));
    let mut ti = ctx.tr.call("core.integrator.new", 0, || {
        TimeIntegrator::new(op, ThetaMethod::BackwardEuler)
    });
    ti.rtol = RTOL;
    let (table, table_s) = timed(|| {
        ctx.tr.call("core.tensor_cache.build", 0, || {
            ti.enable_tensor_cache(DEFAULT_BUDGET_BYTES)
        })
    });
    ctx.tr.exit();
    ctx.set("core.tensor_cache.build_ms", table_s * 1e3);
    ctx.set(
        "core.tensor_cache.table_mb",
        table.table_bytes() as f64 / (1 << 20) as f64,
    );
    let mut init = ti.op.initial_state();
    scale_species(
        &mut init,
        &density_scales(ctx.cfg.seed, ti.op.species.len()),
    );
    Problem { ti, init }
}

pub fn run(ctx: &mut Ctx) {
    let mut total = StepStats {
        converged: true,
        ..Default::default()
    };
    let mut steps = 0u64;
    let mut first_round: Option<(u64, Vec<f64>)> = None;
    let mut mid_state: Option<Vec<f64>> = None;

    let rounds = run_rounds(
        ctx,
        SETUPS,
        setup,
        |_, p: &mut Problem| {
            let mut scratch = p.init.clone();
            for _ in 0..WARM_UP_STEPS {
                p.ti.step(&mut scratch, DT, 0.0, None);
            }
        },
        |ctx, p, round| {
            let mut state = p.init.clone();
            let mut unit = Unit {
                wall_s: 0.0,
                newton: 0,
                op_ms: Vec::with_capacity(STEPS_PER_ROUND),
                first_ms: 0.0,
            };
            let mut unconverged = 0;
            let t_round = Instant::now();
            for i in 0..STEPS_PER_ROUND {
                let t_step = Instant::now();
                let op_id = round * STEPS_PER_ROUND as u64 + i as u64;
                let s = ctx
                    .tr
                    .call("step", op_id, || p.ti.step(&mut state, DT, 0.0, None));
                unit.op_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
                unit.newton += s.newton_iters as u64;
                unconverged += u64::from(!s.converged);
                total.merge(&s);
                if i + 1 == STEPS_PER_ROUND / 2 && mid_state.is_none() {
                    mid_state = Some(state.clone());
                }
            }
            unit.wall_s = t_round.elapsed().as_secs_f64();
            unit.first_ms = unit.op_ms[0];
            steps += STEPS_PER_ROUND as u64;
            ctx.ops(STEPS_PER_ROUND as u64, unconverged, "perf80_solo steps");

            let m = &p.ti.moments;
            for s in 0..p.ti.op.species.len() {
                let (d0, d1) = (m.density(&p.init, s), m.density(&state, s));
                ctx.check(((d1 - d0) / d0).abs() <= DENSITY_TOL, || {
                    format!("perf80_solo round {round}: species {s} density {d0:e} -> {d1:e}")
                });
            }
            let (e0, e1) = (m.total_energy(&p.init), m.total_energy(&state));
            ctx.check(((e1 - e0) / e0).abs() <= ENERGY_TOL, || {
                format!("perf80_solo round {round}: total energy {e0:e} -> {e1:e}")
            });
            match &first_round {
                None => first_round = Some((unit.newton, state)),
                Some((newton0, state0)) => {
                    let scale = state0.iter().fold(0.0f64, |a, x| a.max(x.abs()));
                    let diff = state0
                        .iter()
                        .zip(&state)
                        .fold(0.0f64, |a, (x, y)| a.max((x - y).abs()));
                    ctx.check(
                        unit.newton == *newton0 && diff <= ROUND_AGREEMENT_TOL * scale,
                        || {
                            format!(
                                "perf80_solo round {round} differs from round 0: {} vs {newton0} \
                                 Newton iterations, final state off by {:e} relative",
                                unit.newton,
                                diff / scale
                            )
                        },
                    );
                }
            }
            unit
        },
    );
    compute_e2e(ctx, &rounds);
    if !ctx.cfg.traced {
        return;
    }

    let step_ms: Vec<f64> = rounds
        .traced
        .iter()
        .flat_map(|u| u.op_ms.iter().copied())
        .collect();
    ctx.set("core.solver.steps", steps as f64);
    ctx.set("core.solver.newton_iters", total.newton_iters as f64);
    ctx.set(
        "core.solver.newton_per_step",
        total.newton_iters as f64 / steps as f64,
    );
    ctx.set("core.solver.step_ms_p50", percentile(&step_ms, 0.50));
    ctx.set("core.solver.step_ms_p90", percentile(&step_ms, 0.90));
    let t = total.t_total;
    ctx.set("core.solver.landau_frac", total.t_landau / t);
    ctx.set("core.solver.factor_frac", total.t_factor / t);
    ctx.set("core.solver.solve_frac", total.t_solve / t);
    ctx.set(
        "core.solver.other_frac",
        1.0 - (total.t_landau + total.t_factor + total.t_solve) / t,
    );

    let state = mid_state.expect("a round ran");
    let host = replay::host_roofline(ctx);
    let assemble_s = replay::kernel_and_assembly(ctx, &state, &host);
    let linear_s = replay::solo_band(ctx, &state);
    // `step` evaluates one more residual than it takes Newton updates, so
    // assembles per update = (iters + steps) / iters.
    let assembles_per_iter = (total.newton_iters as f64 + steps as f64) / total.newton_iters as f64;
    let replayed = assembles_per_iter * assemble_s + linear_s;
    let measured = median(&step_ms) / 1e3 / (total.newton_iters as f64 / steps as f64);
    ctx.set("core.solver.unattributed_frac", 1.0 - replayed / measured);
}
