//! One workload run: the shared context, the round loop of the three
//! compute workloads, and the result line the driver reads.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, percentile, timed};
use landau_obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the run may measure for.
    pub seconds: f64,
    /// `--trace 1`: recorder on, layer replay, per-layer metrics.
    pub traced: bool,
    /// Where traces and scratch files (checkpoints) go.
    pub out_dir: PathBuf,
}

/// Share of a traced run's seconds spent on workload rounds; the layer
/// replay gets the rest. The first half of the rounds runs with the
/// recorder off, which gives the tracing overhead.
const TRACED_ROUNDS_SHARE: f64 = 0.6;

/// Everything a workload accumulates while it runs.
pub struct Ctx {
    pub cfg: RunCfg,
    pub tr: Tracer,
    /// Operations attempted: steps, lane-steps, jobs, and output checks.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    t0: Instant,
}

impl Ctx {
    pub fn new(cfg: RunCfg) -> Self {
        Ctx {
            tr: Tracer::new(cfg.traced),
            cfg,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            t0: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Count `n` program operations, `bad` of which failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(format!("{bad} of {n} {what} failed"));
        }
    }

    /// An output check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layers.insert(name, value);
    }

    /// A scratch directory of this process under the output directory.
    pub fn scratch_dir(&self, label: &str) -> PathBuf {
        self.cfg
            .out_dir
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()))
    }

    /// Seconds the workload's rounds may use before the replay starts.
    pub fn rounds_budget(&self) -> f64 {
        if self.cfg.traced {
            TRACED_ROUNDS_SHARE * self.cfg.seconds
        } else {
            self.cfg.seconds
        }
    }
}

/// One unit of fixed work of a compute workload, as the harness saw it.
pub struct Unit {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Productive Newton iterations.
    pub newton: u64,
    /// Latency of each user-visible operation in the unit, in ms.
    pub op_ms: Vec<f64>,
    /// Unit start to its first result, in ms.
    pub first_ms: f64,
}

/// The units a run measured, by recorder state.
pub struct Rounds {
    pub setup_s: Vec<f64>,
    pub untraced: Vec<Unit>,
    pub traced: Vec<Unit>,
}

/// Run set-up and units until the seconds are used.
///
/// `setups_up_front > 0` sets the problem up that many times before the
/// rounds (set-up time is their median) and runs every round on the last
/// one; `0` sets up a fresh problem before each round, outside its timed
/// region. A round starts only if the longest one so far would still end
/// inside the budget, so a run ends on time whatever the machine's speed.
pub fn run_rounds<P>(
    ctx: &mut Ctx,
    setups_up_front: usize,
    mut setup: impl FnMut(&mut Ctx) -> P,
    mut warm_up: impl FnMut(&mut Ctx, &mut P),
    mut unit: impl FnMut(&mut Ctx, &mut P, u64) -> Unit,
) -> Rounds {
    let mut rounds = Rounds {
        setup_s: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let mut kept: Option<P> = None;
    for _ in 0..setups_up_front {
        let (p, s) = timed(|| setup(ctx));
        rounds.setup_s.push(s);
        kept = Some(p);
    }
    if let Some(p) = &mut kept {
        warm_up(ctx, p);
    }
    let budget = ctx.rounds_budget();
    let phases: &[(bool, f64)] = if ctx.cfg.traced {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    let mut round = 0u64;
    let mut longest = 0.0f64;
    for &(recorder_on, share) in phases {
        ctx.tr.set_on(recorder_on);
        let mut done_here = 0;
        while done_here == 0 || ctx.elapsed() + longest <= share * budget {
            let t_round = Instant::now();
            let mut fresh;
            let problem = match &mut kept {
                Some(p) => p,
                None => {
                    let (p, s) = timed(|| setup(ctx));
                    rounds.setup_s.push(s);
                    fresh = p;
                    &mut fresh
                }
            };
            ctx.tr.enter("run", round);
            let u = unit(ctx, problem, round);
            ctx.tr.exit();
            if recorder_on {
                rounds.traced.push(u);
            } else {
                rounds.untraced.push(u);
            }
            longest = longest.max(t_round.elapsed().as_secs_f64());
            round += 1;
            done_here += 1;
        }
    }
    ctx.tr.set_on(ctx.cfg.traced);
    rounds
}

/// The end-to-end metrics of a compute workload, from its untraced units.
pub fn compute_e2e(ctx: &mut Ctx, rounds: &Rounds) {
    let units = &rounds.untraced;
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let total_wall: f64 = walls.iter().sum();
    let newton: u64 = units.iter().map(|u| u.newton).sum();
    let ops: Vec<f64> = units.iter().flat_map(|u| u.op_ms.iter().copied()).collect();
    let firsts: Vec<f64> = units.iter().map(|u| u.first_ms).collect();
    println!(
        "{} set-ups (s): {:.4?}\n{} rounds (s): {walls:.3?}",
        rounds.setup_s.len(),
        rounds.setup_s,
        walls.len()
    );
    ctx.set_e2e("setup_s", median(&rounds.setup_s));
    ctx.set_e2e("time_to_solution_s", median(&walls));
    ctx.set_e2e("newton_per_sec", newton as f64 / total_wall);
    ctx.set_e2e("jobs_per_sec", units.len() as f64 / total_wall);
    ctx.set_e2e("e2e_ms_p50", percentile(&ops, 0.50));
    ctx.set_e2e("e2e_ms_p95", percentile(&ops, 0.95));
    ctx.set_e2e("first_record_ms_p50", median(&firsts));
    ctx.set("bench.latency_samples", ops.len() as f64);
    if !rounds.traced.is_empty() {
        let traced: Vec<f64> = rounds.traced.iter().map(|u| u.wall_s).collect();
        ctx.set(
            "bench.trace_overhead_frac",
            median(&traced) / median(&walls) - 1.0,
        );
    }
}

/// Close a run: the metrics that every workload reports the same way, the
/// printed table, and the result line.
pub fn finish(ctx: &mut Ctx) -> (String, bool) {
    ctx.set_e2e("peak_rss_mb", peak_rss_mb());
    ctx.set("bench.spans", ctx.tr.spans().len() as f64);
    ctx.set(
        "bench.failed_frac",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
    );
    let (defs, values): (&[_], _) = if ctx.cfg.traced {
        (&PER_LAYER, ctx.layers.clone())
    } else {
        (&END_TO_END, ctx.e2e.clone())
    };
    let mut metrics = Vec::new();
    for m in defs {
        // A layer this workload does not reach did no work: 0. An
        // end-to-end metric is never 0; one that is was not measured.
        let v = values.get(m.name).copied().unwrap_or(0.0);
        if !ctx.cfg.traced && v == 0.0 {
            ctx.attempted += 1;
            ctx.failed += 1;
            ctx.failures.push(format!("{} was not measured", m.name));
        }
        println!("{:<52} {:>16.6} {}", m.name, v, m.unit);
        metrics.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(v)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    for f in &ctx.failures {
        println!("FAILED: {f}");
    }
    let correct = ctx.failed == 0 && ctx.attempted > 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(ctx.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(ctx.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_text();
    (line, correct)
}
