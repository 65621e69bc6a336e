//! Live-telemetry cost benchmark: the event journal and the OpenMetrics
//! scrape path must be cheap enough to leave on in production.
//!
//! Two gates — bitwise identity and scrape validity; the costs beside
//! them are reported (the repository benchmark's `serve_flood` judges the
//! journal and the scrape under real event volume):
//!   1. *Journal overhead* — a checkpoint-per-step batched advance (each
//!      step publishes `ckpt_write` journal events from inside the hot
//!      loop) runs with the global journal enabled vs disabled, ABAB
//!      min-of-3, and the two trajectories must agree bit for bit
//!      (`obs.journal_bitwise_identical`): publishing is observation,
//!      never arithmetic. The reported overhead fraction
//!      (`obs.journal_overhead_frac`) is the workload's event volume
//!      priced at the measured per-publish cost (its own ABAB min-of-3
//!      microbench: batched publishes against an enabled vs disabled
//!      ring) over the solve time — the marginal publish is ~100 ns
//!      against multi-second segments, far below what end-to-end
//!      timing can resolve on a shared machine.
//!   2. *Scrape latency* — an in-process [`QuenchServer`] is flooded
//!      with small quenches, then `metrics_scrape()` is called
//!      repeatedly under that warm registry. Every scrape must validate
//!      as OpenMetrics (`obs.scrape_valid`); the p99 wall time
//!      (`serve.scrape_p99_ms`) is reported.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench obs_live -- --quick`.
//! Results land in `BENCH_obs_live.json` at the workspace root.

use landau_bench::{perf_operator, write_bench_json};
use landau_core::operator::Backend;
use landau_core::{BatchedAdvance, CheckpointPolicy, MemStorage};
use landau_obs::{Journal, MetricRegistry};
use landau_quench::QuenchConfig;
use landau_serve::rt::block_on;
use landau_serve::{JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 2 } else { 4 };
    let scrapes = if quick { 20 } else { 50 };
    let dt = 0.5;
    let journal = Journal::global();

    // Gate 1: journal overhead. Two batches follow the identical
    // trajectory, both checkpointing every macro step (the checkpoint
    // hook publishes a journal event per write, so the ring sees real
    // hot-loop traffic). Arm A runs with the journal enabled, arm B
    // with it disabled; ABAB interleave, min of 3, so a scheduler
    // hiccup in either arm cannot masquerade as journal cost.
    let base_op = perf_operator(80, Backend::Cpu);
    let mk = || {
        let mut b = BatchedAdvance::on(
            base_op.geometry().clone(),
            &base_op.species,
            Backend::Cpu,
            1,
        );
        b.enable_checkpointing(
            Box::new(MemStorage::new()),
            2,
            CheckpointPolicy::every_steps(1),
        );
        b
    };
    let mut arm_on = mk();
    let mut arm_off = mk();
    // Warm-up: one advance per arm outside the timed arms.
    journal.set_enabled(true);
    arm_on.advance(dt, 1, 0.0);
    journal.set_enabled(false);
    arm_off.advance(dt, 1, 0.0);
    let published_before = journal.published();
    let mut t_on = f64::INFINITY;
    let mut t_off = f64::INFINITY;
    // Alternate which arm goes first each round (AB, BA, AB) so a
    // monotone background-load drift cannot bias one arm, and keep the
    // min of each: the true per-publish cost is sub-microsecond against
    // multi-second segments, so any stable gap is a bug, and the mins
    // converge while single runs wander by several percent.
    for round in 0..3 {
        for leg in 0..2 {
            let on_leg = (round + leg) % 2 == 0;
            journal.set_enabled(on_leg);
            let arm = if on_leg { &mut arm_on } else { &mut arm_off };
            let t0 = Instant::now();
            arm.advance(dt, steps, 0.0);
            let t = t0.elapsed().as_secs_f64();
            if on_leg {
                t_on = t_on.min(t);
            } else {
                t_off = t_off.min(t);
            }
        }
    }
    journal.set_enabled(true);
    journal.drain();
    let published = journal.published() - published_before;
    assert!(published > 0, "the enabled arm published no journal events");
    let identical = arm_on.states[0].len() == arm_off.states[0].len()
        && arm_on.states[0]
            .iter()
            .zip(&arm_off.states[0])
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "journal recording changed the computed state bitwise"
    );

    // Per-publish cost microbench, same ABAB min-of-3 shape: batches of
    // publishes against an enabled ring (drained between batches so
    // every publish takes the full claim-write-release path) vs a
    // disabled ring (the early-out the solver pays when journalling is
    // off). The marginal cost prices the workload's event volume.
    const BATCH: usize = 32_768;
    let micro = Journal::with_capacity(BATCH * 2);
    let mut t_pub = f64::INFINITY;
    let mut t_skip = f64::INFINITY;
    for round in 0..3 {
        for leg in 0..2 {
            let on_leg = (round + leg) % 2 == 0;
            micro.set_enabled(on_leg);
            let t0 = Instant::now();
            for i in 0..BATCH {
                micro.publish(landau_obs::Event::checkpoint_write(i as u64, 0));
            }
            let t = t0.elapsed().as_secs_f64();
            if on_leg {
                t_pub = t_pub.min(t);
                micro.drain();
            } else {
                t_skip = t_skip.min(t);
            }
        }
    }
    let per_event = ((t_pub - t_skip) / BATCH as f64).max(0.0);
    let journal_overhead = published as f64 * per_event / t_on;
    eprintln!(
        "journal: enabled {t_on:.3}s, disabled {t_off:.3}s (raw {:+.2}%, min of 3); \
         {published} events at {:.0} ns/publish -> {:.4}% priced overhead",
        100.0 * (t_on / t_off - 1.0),
        1e9 * per_event,
        100.0 * journal_overhead
    );

    // Gate 2: scrape latency against a warm registry. The flood fills
    // the serve histograms and the journal, so each scrape renders a
    // realistically-sized exposition (snapshot → alerts → re-snapshot →
    // render) and must still validate.
    let registry = Arc::new(MetricRegistry::new());
    let server = QuenchServer::with_registry(
        ServeConfig {
            workers: 2,
            max_active_slices: 2,
            ..ServeConfig::default()
        },
        registry.clone(),
    );
    let cfg = QuenchConfig {
        domain: 2.0,
        cells_per_vt: 0.3,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold: 0.15,
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps: 1,
        pulse_duration: 3.0,
        mass_factor: 3.0,
        ..QuenchConfig::default()
    };
    let handles: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(
                    "obs-bench",
                    JobSpec::new(format!("scrape-j{i}"), cfg.clone()),
                )
                .expect("scrape flood admitted")
        })
        .collect();
    for h in &handles {
        assert_eq!(block_on(h.wait()), JobStatus::Completed, "flood job failed");
    }
    let mut scrape_ms: Vec<f64> = Vec::with_capacity(scrapes);
    let mut all_valid = true;
    // Warm-up scrape so first-allocation costs stay out of the samples.
    let _ = server.metrics_scrape();
    for _ in 0..scrapes {
        let t0 = Instant::now();
        let text = server.metrics_scrape();
        scrape_ms.push(1e3 * t0.elapsed().as_secs_f64());
        if landau_obs::openmetrics::validate(&text).is_err() {
            all_valid = false;
        }
    }
    scrape_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 =
        scrape_ms[((0.99 * scrape_ms.len() as f64).ceil() as usize).clamp(1, scrape_ms.len()) - 1];
    assert!(all_valid, "a scrape failed OpenMetrics validation");
    eprintln!(
        "scrape: {scrapes} scrapes, p99 {p99:.3} ms (min {:.3}, max {:.3})",
        scrape_ms.first().unwrap(),
        scrape_ms.last().unwrap()
    );

    let entries = vec![
        ("obs.journal_overhead_frac".to_string(), journal_overhead),
        (
            "obs.journal_bitwise_identical".to_string(),
            if identical { 1.0 } else { 0.0 },
        ),
        ("obs.journal_events_published".to_string(), published as f64),
        ("serve.scrape_p99_ms".to_string(), p99),
        (
            "obs.scrape_valid".to_string(),
            if all_valid { 1.0 } else { 0.0 },
        ),
    ];
    let path = write_bench_json("BENCH_obs_live.json", &entries);
    println!("wrote {}", path.display());
}
