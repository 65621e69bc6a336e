//! `batch256_fused`: 256 vertices × 2 species advanced in lockstep.
//!
//! The batch-scaling problem (Q2 mesh, e + i⁺ of mass 2 at T 0.7), the
//! built-in ±10 % density profile across vertices, the default batch
//! mode. A round is one `advance(0.4, 4, 0.0)` on a fresh batch built
//! outside the timed region.

use crate::replay;
use crate::run::{compute_e2e, run_rounds, Ctx, Unit};
use crate::util::{density_scales, scale_species, timed};
use crate::workloads::build_space;
use landau_core::batch::{BatchStats, BatchedAdvance};
use landau_core::moments::Moments;
use landau_core::operator::{Backend, LandauOperator};
use landau_core::species::{Species, SpeciesList};
use landau_mesh::presets::{MeshSpec, RefineShell};

pub const VERTICES: usize = 256;
pub const DT: f64 = 0.4;
pub const STEPS: usize = 4;
const DENSITY_TOL: f64 = 1e-10;
/// Energy is conserved to the Newton tolerance of the batch: `rtol 1e-6`
/// leaves ~2e-7 on the worst lane over four steps.
const ENERGY_TOL: f64 = 1e-6;

fn mesh_spec() -> MeshSpec {
    MeshSpec {
        domain_radius: 4.0,
        base_level: 1,
        shells: vec![RefineShell {
            radius: 1.5,
            max_cell_size: 1.0,
        }],
        tail_box: None,
    }
}

fn plasma() -> SpeciesList {
    SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 1.0,
            temperature: 0.7,
        },
    ])
}

/// A fresh batch of `vertices` with the seeded per-species scales applied
/// on top of its built-in profile.
fn build(ctx: &mut Ctx, vertices: usize) -> (BatchedAdvance, f64) {
    ctx.tr.enter("setup", 0);
    let space = build_space(ctx, &mesh_spec(), 2);
    let (mut batch, build_s) = timed(|| {
        ctx.tr.call("core.batch.new", 0, || {
            BatchedAdvance::new(&space, &plasma(), Backend::Cpu, vertices)
        })
    });
    ctx.tr.exit();
    let scales = density_scales(ctx.cfg.seed, 2);
    for state in &mut batch.states {
        scale_species(state, &scales);
    }
    (batch, build_s)
}

/// Bitwise fingerprint of every lane's state.
fn fingerprint(states: &[Vec<f64>]) -> u64 {
    states.iter().flatten().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn run(ctx: &mut Ctx) {
    let mut total = BatchStats::default();
    let mut first_round: Option<(u64, u64)> = None;
    let mut moments: Option<Moments> = None;

    let rounds = run_rounds(
        ctx,
        0,
        |ctx| {
            let (batch, build_s) = build(ctx, VERTICES);
            ctx.set("core.batch.build_ms", build_s * 1e3);
            batch
        },
        |_, _| {},
        |ctx, batch: &mut BatchedAdvance, round| {
            let initial = batch.states.clone();
            let (stats, wall_s) = timed(|| {
                ctx.tr
                    .call("advance", round, || batch.advance(DT, STEPS, 0.0))
            });
            let lane_steps = (VERTICES * STEPS) as u64;
            ctx.ops(
                lane_steps,
                (stats.failed * STEPS) as u64,
                "batch256_fused lane-steps",
            );
            total.merge(&stats);

            let m = moments.get_or_insert_with(|| Moments::new(batch.space(), &plasma()));
            let mut worst = (0.0f64, 0.0f64);
            for (f0, f1) in initial.iter().zip(&batch.states) {
                for s in 0..2 {
                    let d0 = m.density(f0, s);
                    worst.0 = worst.0.max(((m.density(f1, s) - d0) / d0).abs());
                }
                let e0 = m.total_energy(f0);
                worst.1 = worst.1.max(((m.total_energy(f1) - e0) / e0).abs());
            }
            ctx.check(worst.0 <= DENSITY_TOL && worst.1 <= ENERGY_TOL, || {
                format!(
                    "batch256_fused round {round}: worst lane drifts: density {:e}, energy {:e}",
                    worst.0, worst.1
                )
            });
            let this = (stats.newton_iters as u64, fingerprint(&batch.states));
            let reference = *first_round.get_or_insert(this);
            ctx.check(this == reference, || {
                format!("batch256_fused round {round}: final states differ from round 0 ({this:?} vs {reference:?})")
            });
            let ms = wall_s * 1e3;
            Unit {
                wall_s,
                newton: stats.productive_newton_iters as u64,
                op_ms: vec![ms],
                first_ms: ms,
            }
        },
    );
    compute_e2e(ctx, &rounds);
    if !ctx.cfg.traced {
        return;
    }

    let n_rounds = (rounds.untraced.len() + rounds.traced.len()) as f64;
    let round_ms: Vec<f64> = rounds.traced.iter().map(|u| u.wall_s * 1e3).collect();
    ctx.set("core.batch.round_ms_p50", crate::util::median(&round_ms));
    ctx.set("core.batch.launches", total.launches as f64 / n_rounds);
    ctx.set(
        "core.batch.lanes_per_launch",
        total.active_lane_sum as f64 / total.launches.max(1) as f64,
    );
    ctx.set(
        "core.batch.newton_rounds",
        total.newton_rounds as f64 / n_rounds,
    );
    ctx.set("core.batch.retired_per_newton", total.retired_per_newton);
    ctx.set("core.batch.retried", total.retried as f64);
    ctx.set("core.batch.failed_lanes", total.failed as f64);

    // The narrow use of the same layer: one vertex through the fused path.
    let (mut one, _) = build(ctx, 1);
    let table = one
        .tensor_table()
        .expect("the batch builds its tensor table");
    ctx.set(
        "core.tensor_cache.table_mb",
        table.table_bytes() as f64 / (1 << 20) as f64,
    );
    let rates: Vec<f64> = (0..replay::REPS)
        .map(|k| {
            let (mut b, _) = build(ctx, 1);
            let stats = ctx
                .tr
                .call("advance.lanes1", k as u64, || b.advance(DT, STEPS, 0.0));
            stats.newton_per_sec
        })
        .collect();
    ctx.set(
        "core.batch.newton_per_sec.lanes1",
        crate::util::median(&rates),
    );

    let state = one.states.remove(0);
    let mut op = LandauOperator::new((**one.space()).clone(), plasma(), Backend::Cpu);
    replay::batched_band(ctx, &mut op, &state, DT);
}
