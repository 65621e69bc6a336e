//! `quench_solo`: one thermal quench through `QuenchDriver`, the service
//! bypassed.
//!
//! The tier-1 physics configuration with the conservation monitor on and
//! real disk checkpoints every two steps and at the phase change. The
//! driver does not enable the tensor cache, so the closed-form kernel
//! (the paper's Algorithm 1 proper) dominates. A round is one whole run
//! on a fresh driver, advanced one step per `run_budgeted(Some(1))` call —
//! how a `landau-serve` worker advances a job with `slice_steps 1`
//! (`run()` is `run_budgeted(None)`), and what lets the harness time each
//! step from outside.

use crate::replay;
use crate::run::{compute_e2e, run_rounds, Ctx, Unit};
use crate::util::{density_scales, percentile, scale_species, timed};
use landau_core::ckpt::{CheckpointPolicy, CheckpointStore, DirStorage};
use landau_core::invariants::Watchdog;
use landau_obs::timeseries::SeriesSink;
use landau_obs::MetricRegistry;
use landau_quench::{QuenchConfig, QuenchDriver, RunOutcome};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 42;
/// Final `(T_e, n_e)` of the default-seed run; other seeds scale the
/// initial densities and are checked on everything but these.
const REFERENCE: (f64, f64) = (4.838_300_743_841_23e-1, 2.986_646_803_075_677);
const REFERENCE_TOL: f64 = 1e-6;
const DRIFT_TOL: f64 = 1e-10;
const CHECKPOINT_EVERY: u64 = 2;

pub fn config() -> QuenchConfig {
    QuenchConfig {
        ion_mass: 16.0,
        cells_per_vt: 0.7,
        k_outer: 2.0,
        domain: 4.0,
        t_cold: 0.2,
        mass_factor: 2.0,
        pulse_duration: 2.0,
        dt: 0.25,
        max_equil_steps: 10,
        // The whole cold pulse: pulse_duration / dt.
        quench_steps: 8,
        monitor: Some(Watchdog::recording()),
        ..QuenchConfig::default()
    }
}

pub struct Problem {
    driver: QuenchDriver,
    ckpt_dir: PathBuf,
}

fn setup(ctx: &mut Ctx, round: u64) -> Problem {
    ctx.tr.enter("setup", round);
    let (mut driver, build_s) = timed(|| {
        ctx.tr
            .call("quench.driver.new", round, || QuenchDriver::new(config()))
    });
    ctx.set("quench.driver_build_ms", build_s * 1e3);
    scale_species(&mut driver.state, &density_scales(ctx.cfg.seed, 2));
    let ckpt_dir = ctx.scratch_dir("quench-ckpt").join(round.to_string());
    let storage = DirStorage::new(&ckpt_dir).expect("checkpoint directory under the output dir");
    ctx.tr.call("quench.enable_checkpointing", round, || {
        driver.enable_checkpointing(
            Box::new(storage),
            2,
            CheckpointPolicy::every_steps(CHECKPOINT_EVERY).and_on_phase_change(),
        )
    });
    ctx.tr.exit();
    Problem { driver, ckpt_dir }
}

pub fn run(ctx: &mut Ctx) {
    let mut setups = 0u64;
    let mut steps = 0u64;
    let mut equil_steps = 0u64;
    let mut newton = 0u64;
    let mut retries = 0u64;
    let (mut equil_s, mut quench_s) = (Vec::new(), Vec::new());
    // The newest run's timeseries sink and checkpoint directory, for the
    // replay after the rounds.
    let mut last: Option<(Arc<SeriesSink>, PathBuf)> = None;

    let rounds = run_rounds(
        ctx,
        0,
        |ctx| {
            setups += 1;
            setup(ctx, setups - 1)
        },
        |_, _| {},
        |ctx, p: &mut Problem, round| {
            let mut unit = Unit {
                wall_s: 0.0,
                newton: 0,
                op_ms: Vec::new(),
                first_ms: 0.0,
            };
            let (mut t_equil, mut t_quench) = (0.0, 0.0);
            let t_run = Instant::now();
            let mut outcome = Ok(RunOutcome::Paused);
            while outcome == Ok(RunOutcome::Paused) {
                let t_step = Instant::now();
                let op_id = round * 1000 + unit.op_ms.len() as u64;
                outcome = ctx
                    .tr
                    .call("run_budgeted", op_id, || p.driver.run_budgeted(Some(1)))
                    .map_err(|e| e.to_string());
                let s = t_step.elapsed().as_secs_f64();
                unit.op_ms.push(s * 1e3);
                if p.driver.samples.last().is_some_and(|s| s.quenching) {
                    t_quench += s;
                } else {
                    t_equil += s;
                }
            }
            unit.wall_s = t_run.elapsed().as_secs_f64();
            unit.first_ms = unit.op_ms[0];
            unit.newton = p.driver.stats.newton_iters as u64;

            let d = &p.driver;
            let done = d.completed_steps();
            let failed_steps = u64::from(outcome.is_err() || !d.stats.converged);
            ctx.ops(done + failed_steps, failed_steps, "quench_solo steps");
            if let Err(e) = &outcome {
                ctx.failures.push(format!("quench_solo round {round}: {e}"));
            }
            steps += done;
            equil_steps += d.samples.iter().filter(|s| !s.quenching).count() as u64 - 1;
            newton += unit.newton;
            retries += d.recovery.retried as u64;
            equil_s.push(t_equil);
            quench_s.push(t_quench);

            let fin = *d.samples.last().expect("the run recorded samples");
            if ctx.cfg.seed == DEFAULT_SEED {
                let (t_ref, n_ref) = REFERENCE;
                ctx.check(
                    ((fin.t_e - t_ref) / t_ref).abs() <= REFERENCE_TOL
                        && ((fin.n_e - n_ref) / n_ref).abs() <= REFERENCE_TOL,
                    || {
                        format!(
                            "quench_solo round {round}: final T_e {:e}, n_e {:e}; reference {t_ref:e}, {n_ref:e}",
                            fin.t_e, fin.n_e
                        )
                    },
                );
            }
            ctx.check(fin.t_e.is_finite() && fin.n_e > 1.0, || {
                format!(
                    "quench_solo round {round}: no cold plasma arrived, n_e {}",
                    fin.n_e
                )
            });
            let mut store = CheckpointStore::new(
                Box::new(DirStorage::new(&p.ckpt_dir).expect("checkpoint directory")),
                2,
            );
            let loaded = store.load_latest();
            ctx.check(matches!(loaded, Ok(Some(_))), || {
                format!("quench_solo round {round}: the last checkpoint generation does not load")
            });
            if let Some((_, old_dir)) = last.replace((d.series.clone(), p.ckpt_dir.clone())) {
                let _ = std::fs::remove_dir_all(old_dir);
            }
            unit
        },
    );

    // The monitor publishes into the process-global registry; its gauges
    // keep the maximum over every step of every round.
    let snap = MetricRegistry::global().snapshot();
    let drift = ["mass", "momentum", "energy"]
        .iter()
        .filter_map(|q| snap.gauge(&format!("invariant.{q}.drift_max")))
        .fold(0.0f64, f64::max);
    ctx.check(
        snap.counter("invariant.steps") > 0 && drift < DRIFT_TOL,
        || {
            format!(
                "quench_solo: invariant drift_max {drift:e} over {} monitored steps",
                snap.counter("invariant.steps")
            )
        },
    );
    compute_e2e(ctx, &rounds);

    let (series, ckpt_dir) = last.expect("a round ran");
    if ctx.cfg.traced {
        let n_rounds = (rounds.untraced.len() + rounds.traced.len()) as f64;
        let step_ms: Vec<f64> = rounds
            .traced
            .iter()
            .flat_map(|u| u.op_ms.iter().copied())
            .collect();
        ctx.set("quench.steps", steps as f64 / n_rounds);
        ctx.set("quench.equil_steps", equil_steps as f64 / n_rounds);
        ctx.set("quench.newton_iters", newton as f64 / n_rounds);
        ctx.set("quench.step_ms_p50", percentile(&step_ms, 0.50));
        ctx.set("quench.step_ms_p90", percentile(&step_ms, 0.90));
        ctx.set("quench.equil_s", crate::util::median(&equil_s));
        ctx.set("quench.quench_s", crate::util::median(&quench_s));
        ctx.set("quench.recovery_retries", retries as f64);
        ctx.set(
            "core.ckpt.saves",
            snap.counter("ckpt.writes") as f64 / n_rounds,
        );
        ctx.set("core.invariants.drift_max", drift);

        let series = series.snapshot();
        let (text, export_s) = timed(|| {
            ctx.tr
                .call("obs.timeseries.export", 0, || series.to_json_text())
        });
        ctx.set("obs.timeseries.records", series.len() as f64);
        ctx.set("obs.timeseries.kb", text.len() as f64 / 1024.0);
        ctx.set("obs.timeseries.export_ms", export_s * 1e3);

        let frame = CheckpointStore::new(
            Box::new(DirStorage::new(&ckpt_dir).expect("checkpoint directory")),
            2,
        )
        .load_latest()
        .ok()
        .flatten()
        .expect("the driver's last frame");
        replay::checkpoints(ctx, &frame.payload, &ckpt_dir.join("replay"));
    }
    let _ = std::fs::remove_dir_all(ctx.scratch_dir("quench-ckpt"));
}
