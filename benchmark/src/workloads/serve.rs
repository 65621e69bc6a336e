//! `serve_flood`: a closed loop of small quenches through `QuenchServer`.
//!
//! Two workers, two slice permits, four tenants at quota 1, admission
//! bounds nothing reaches. Each tenant scans seeded permutations of nine
//! scenario variants (`t_cold` × `mass_factor`) and keeps four jobs in
//! flight — 16 in all — submitting its next case when one returns. Load
//! comes from this one thread, which sleeps between polls. The first 16
//! jobs fill the window and are left out of the latency samples.

use crate::run::Ctx;
use crate::util::{median, percentile, shuffled, timed};
use landau_obs::{Journal, MetricRegistry};
use landau_quench::{QuenchConfig, QuenchDriver};
use landau_serve::{JobHandle, JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
const TENANTS: usize = 4;
const IN_FLIGHT_PER_TENANT: usize = 4;
const IN_FLIGHT: usize = TENANTS * IN_FLIGHT_PER_TENANT;
const T_COLD: [f64; 3] = [0.12, 0.15, 0.18];
const MASS_FACTOR: [f64; 3] = [2.5, 3.0, 3.5];
pub const VARIANTS: usize = T_COLD.len() * MASS_FACTOR.len();
const SETUPS: usize = 5;
const POLL: Duration = Duration::from_millis(1);
/// Share of the flood's seconds after which no new job is submitted; the
/// window then drains (16 jobs, ~2 s) and the outputs are checked (nine
/// direct runs, ~1 s) in what is left.
const SUBMIT_SHARE: f64 = 0.85;

/// The load test's smallest two-phase quench: one equilibration step and
/// one quench step on a coarse mesh.
pub fn variant(v: usize) -> QuenchConfig {
    QuenchConfig {
        domain: 2.0,
        cells_per_vt: 0.3,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold: T_COLD[v / MASS_FACTOR.len()],
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps: 1,
        pulse_duration: 3.0,
        mass_factor: MASS_FACTOR[v % MASS_FACTOR.len()],
        ..QuenchConfig::default()
    }
}

/// One tenant's endless scan: seeded permutations of the variants, one
/// after another, so every window of nine jobs costs the same whatever
/// the seed.
pub struct Scan {
    rng: u64,
    queue: VecDeque<usize>,
}

impl Scan {
    pub fn new(seed: u64, tenant: usize) -> Self {
        Scan {
            rng: seed ^ (tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            queue: VecDeque::new(),
        }
    }

    pub fn next_variant(&mut self) -> usize {
        if self.queue.is_empty() {
            self.queue.extend(shuffled(&mut self.rng, VARIANTS));
        }
        self.queue.pop_front().expect("just refilled")
    }
}

/// The first `per_tenant` variants of every tenant's scan.
#[cfg(test)]
pub fn job_list(seed: u64, per_tenant: usize) -> Vec<Vec<usize>> {
    (0..TENANTS)
        .map(|t| {
            let mut scan = Scan::new(seed, t);
            (0..per_tenant).map(|_| scan.next_variant()).collect()
        })
        .collect()
}

struct Started {
    server: QuenchServer,
    registry: Arc<MetricRegistry>,
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// Server construction, and one driver build per variant: what every job
/// repeats before its first slice.
fn setup(ctx: &mut Ctx) -> Started {
    ctx.tr.enter("setup", 0);
    let registry = Arc::new(MetricRegistry::new());
    let (server, start_s) = timed(|| {
        ctx.tr.call("serve.server_start", 0, || {
            let server = QuenchServer::with_registry(
                ServeConfig {
                    workers: WORKERS,
                    max_active_slices: WORKERS,
                    max_in_flight_per_tenant: 4 * IN_FLIGHT_PER_TENANT,
                    max_in_flight_total: 4 * IN_FLIGHT,
                    ..ServeConfig::default()
                },
                registry.clone(),
            );
            for t in 0..TENANTS {
                server.set_tenant_quota(&tenant_name(t), 1);
            }
            server
        })
    });
    let (_, builds_s) = timed(|| {
        for v in 0..VARIANTS {
            ctx.tr.call("quench.driver.new", v as u64, || {
                QuenchDriver::new(variant(v))
            });
        }
    });
    ctx.tr.exit();
    ctx.set("serve.server_start_ms", start_s * 1e3);
    ctx.set("quench.driver_build_ms", builds_s * 1e3 / VARIANTS as f64);
    Started { server, registry }
}

struct InFlight {
    handle: JobHandle,
    tenant: usize,
    variant: usize,
    index: usize,
    submitted_us: f64,
    submit_call_us: f64,
}

struct Done {
    index: usize,
    first_ms: f64,
    e2e_ms: f64,
    /// Seconds since the flood began.
    at_s: f64,
}

struct Flood {
    done: Vec<Done>,
    submit_us: Vec<f64>,
    scrape_ms: Vec<f64>,
    scrape_bytes: usize,
    in_flight_sum: u64,
    polls: u64,
    poll_gap_ms_max: f64,
    /// `series_json()` of the first completed job of each variant.
    series: Vec<Option<String>>,
}

/// Run the closed loop on `started` for about `seconds`, then drain.
fn flood(ctx: &mut Ctx, started: &Started, seconds: f64, scrape: bool) -> Flood {
    let server = &started.server;
    let mut scans: Vec<Scan> = (0..TENANTS).map(|t| Scan::new(ctx.cfg.seed, t)).collect();
    let mut out = Flood {
        done: Vec::new(),
        submit_us: Vec::new(),
        scrape_ms: Vec::new(),
        scrape_bytes: 0,
        in_flight_sum: 0,
        polls: 0,
        poll_gap_ms_max: 0.0,
        series: vec![None; VARIANTS],
    };
    let mut next_index = 0usize;
    let mut submit = |ctx: &mut Ctx, out: &mut Flood, tenant: usize| -> Option<InFlight> {
        let variant = scans[tenant].next_variant();
        let index = next_index;
        next_index += 1;
        let spec = JobSpec {
            slice_steps: 1,
            ..JobSpec::new(
                format!("t{tenant}-j{index}-v{variant}"),
                self::variant(variant),
            )
        };
        let submitted_us = ctx.tr.now_us();
        let (result, call_s) = timed(|| server.submit(&tenant_name(tenant), spec));
        out.submit_us.push(call_s * 1e6);
        match result {
            Ok(handle) => Some(InFlight {
                handle,
                tenant,
                variant,
                index,
                submitted_us,
                submit_call_us: call_s * 1e6,
            }),
            Err(rejected) => {
                ctx.ops(1, 1, &format!("serve_flood submissions ({rejected})"));
                None
            }
        }
    };

    ctx.tr.enter("run", 0);
    let t0 = Instant::now();
    let mut slots: Vec<Option<InFlight>> = Vec::with_capacity(IN_FLIGHT);
    for k in 0..IN_FLIGHT {
        slots.push(submit(ctx, &mut out, k % TENANTS));
    }
    let mut last_poll = Instant::now();
    let mut next_scrape_s = 1.0;
    while slots.iter().any(Option::is_some) {
        std::thread::sleep(POLL);
        let gap_ms = last_poll.elapsed().as_secs_f64() * 1e3;
        last_poll = Instant::now();
        out.poll_gap_ms_max = out.poll_gap_ms_max.max(gap_ms);
        out.polls += 1;
        out.in_flight_sum += slots.iter().flatten().count() as u64;
        let now_s = t0.elapsed().as_secs_f64();
        let submitting = now_s < SUBMIT_SHARE * seconds;
        for (lane, slot) in slots.iter_mut().enumerate() {
            let Some(job) = slot else { continue };
            let status = job.handle.status();
            if !status.is_terminal() {
                continue;
            }
            let job = slot.take().expect("checked above");
            ctx.ops(
                1,
                u64::from(status != JobStatus::Completed),
                &format!("serve_flood jobs ({status:?})"),
            );
            if let (Some(first_ms), Some(e2e_ms)) = job.handle.latency_ms() {
                out.done.push(Done {
                    index: job.index,
                    first_ms,
                    e2e_ms,
                    at_s: now_s,
                });
                let id = job.handle.id.0;
                let lane = lane as u32 + 1;
                let t = job.submitted_us;
                let span = ctx.tr.record("job", (t, t + e2e_ms * 1e3), None, id, lane);
                ctx.tr
                    .record("submit", (t, t + job.submit_call_us), span, id, lane);
                ctx.tr
                    .record("first_record", (t, t + first_ms * 1e3), span, id, lane);
                ctx.tr.record(
                    "wait",
                    (t + first_ms * 1e3, t + e2e_ms * 1e3),
                    span,
                    id,
                    lane,
                );
            }
            if out.series[job.variant].is_none() && status == JobStatus::Completed {
                out.series[job.variant] = Some(job.handle.series_json());
            }
            if submitting {
                *slot = submit(ctx, &mut out, job.tenant);
            }
        }
        if scrape && now_s >= next_scrape_s {
            next_scrape_s += 1.0;
            let (text, s) = timed(|| ctx.tr.call("metrics_scrape", 0, || server.metrics_scrape()));
            out.scrape_ms.push(s * 1e3);
            out.scrape_bytes = text.len();
        }
    }
    ctx.tr.exit();
    out
}

/// Throughput and latency of a flood, warm-up left out.
struct Measured {
    jobs_per_sec: f64,
    e2e_ms: Vec<f64>,
    first_ms: Vec<f64>,
    /// Wall seconds of each consecutive `IN_FLIGHT` completions.
    turns_s: Vec<f64>,
}

fn measure(flood: &Flood) -> Option<Measured> {
    let mut done: Vec<&Done> = flood.done.iter().collect();
    done.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    if done.len() < 2 * IN_FLIGHT {
        return None;
    }
    // The window opens when the 16th job has returned.
    let open_s = done[IN_FLIGHT - 1].at_s;
    let close_s = done.last().expect("non-empty").at_s;
    let counted = &done[IN_FLIGHT..];
    let turns_s = done
        .chunks_exact(IN_FLIGHT)
        .map(|c| c.last().expect("non-empty chunk").at_s)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    let samples: Vec<&&Done> = done.iter().filter(|d| d.index >= IN_FLIGHT).collect();
    Some(Measured {
        jobs_per_sec: counted.len() as f64 / (close_s - open_s),
        e2e_ms: samples.iter().map(|d| d.e2e_ms).collect(),
        first_ms: samples.iter().map(|d| d.first_ms).collect(),
        turns_s,
    })
}

pub fn run(ctx: &mut Ctx) {
    let journal = Journal::global();
    journal.drain();
    let (published0, dropped0) = (journal.published(), journal.dropped());

    let mut setup_s = Vec::new();
    let mut started = None;
    for _ in 0..SETUPS {
        let (s, secs) = timed(|| setup(ctx));
        setup_s.push(secs);
        started = Some(s);
    }
    let mut started = started.expect("SETUPS > 0");

    // A traced run floods twice: recorder off, then on with a scrape a
    // second, each on a fresh server; the ratio is the tracing overhead.
    let budget = ctx.cfg.seconds - ctx.elapsed();
    let mut untraced_rate = None;
    if ctx.cfg.traced {
        ctx.tr.set_on(false);
        let plain = flood(ctx, &started, 0.47 * budget, false);
        untraced_rate = measure(&plain).map(|m| m.jobs_per_sec);
        ctx.tr.set_on(true);
        started = setup(ctx);
    }
    let seconds = if ctx.cfg.traced {
        0.47 * budget
    } else {
        budget
    };
    let newton0 = started
        .registry
        .snapshot()
        .counter("quench.step.newton_iters");
    let t_flood = Instant::now();
    let result = flood(ctx, &started, seconds, ctx.cfg.traced);
    let flood_s = t_flood.elapsed().as_secs_f64();
    let snap = started.registry.snapshot();

    // Every variant's served timeseries must equal a direct driver run's.
    for (v, served) in result.series.iter().enumerate() {
        let mut direct = QuenchDriver::new(variant(v));
        let ran = direct.run();
        let expected = direct.series.snapshot().to_json_text();
        ctx.check(
            ran.is_ok() && served.as_deref() == Some(expected.as_str()),
            || format!("serve_flood variant {v}: served series_json differs from a direct QuenchDriver run"),
        );
    }

    let Some(m) = measure(&result) else {
        ctx.check(false, || {
            format!(
                "serve_flood: only {} jobs completed; at least {} are needed",
                result.done.len(),
                2 * IN_FLIGHT
            )
        });
        return;
    };
    let newton = snap.counter("quench.step.newton_iters") - newton0;
    ctx.set_e2e("setup_s", median(&setup_s));
    ctx.set_e2e("time_to_solution_s", median(&m.turns_s));
    ctx.set_e2e("newton_per_sec", newton as f64 / flood_s);
    ctx.set_e2e("jobs_per_sec", m.jobs_per_sec);
    ctx.set_e2e("e2e_ms_p50", percentile(&m.e2e_ms, 0.50));
    ctx.set_e2e("e2e_ms_p95", percentile(&m.e2e_ms, 0.95));
    ctx.set_e2e("first_record_ms_p50", percentile(&m.first_ms, 0.50));
    ctx.set("bench.latency_samples", m.e2e_ms.len() as f64);
    if !ctx.cfg.traced {
        return;
    }

    if let Some(rate) = untraced_rate {
        ctx.set("bench.trace_overhead_frac", rate / m.jobs_per_sec - 1.0);
    }
    ctx.set("bench.generator_poll_ms_max", result.poll_gap_ms_max);
    let hist = |name: &str| snap.histograms.get(name).cloned().unwrap_or_default();
    let slices = hist("serve.slice_ms");
    ctx.set("serve.submit_us_p50", percentile(&result.submit_us, 0.50));
    ctx.set(
        "serve.queue_wait_ms_mean",
        hist("serve.queue_wait_ms").mean(),
    );
    ctx.set("serve.slice_ms_mean", slices.mean());
    ctx.set("serve.slices", snap.counter("serve.slices") as f64);
    ctx.set(
        "serve.worker_busy_frac",
        slices.sum as f64 / 1e3 / (WORKERS as f64 * flood_s),
    );
    ctx.set(
        "serve.in_flight_mean",
        result.in_flight_sum as f64 / result.polls.max(1) as f64,
    );
    ctx.set("serve.rejected", snap.counter("serve.rejected_jobs") as f64);
    ctx.set("serve.rt_steals", started.server.steal_count() as f64);
    let grants = started.server.grant_log();
    let per_tenant: Vec<usize> = (0..TENANTS)
        .map(|t| {
            let name = tenant_name(t);
            grants.iter().filter(|(g, _)| *g == name).count()
        })
        .collect();
    let (most, least) = (
        *per_tenant.iter().max().expect("tenants") as f64,
        *per_tenant.iter().min().expect("tenants") as f64,
    );
    ctx.set("serve.fairness_spread", (most - least) / most.max(1.0));
    if !result.scrape_ms.is_empty() {
        ctx.set("serve.scrape_ms_p50", percentile(&result.scrape_ms, 0.50));
        ctx.set("serve.scrape_kb", result.scrape_bytes as f64 / 1024.0);
    }
    // How far the server's own log2-bucket median is from the exact one
    // (warm-up jobs included on both sides).
    let all_e2e: Vec<f64> = result.done.iter().map(|d| d.e2e_ms).collect();
    ctx.set(
        "serve.hist_p50_over_exact_p50",
        hist("serve.job_e2e_ms").quantiles(&[0.5])[0] / percentile(&all_e2e, 0.50),
    );
    let (events, drain_s) = timed(|| ctx.tr.call("obs.journal.drain", 0, || journal.drain()));
    std::hint::black_box(events);
    ctx.set(
        "obs.journal.published",
        (journal.published() - published0) as f64,
    );
    ctx.set("obs.journal.dropped", (journal.dropped() - dropped0) as f64);
    ctx.set("obs.journal.drain_ms", drain_s * 1e3);
}
