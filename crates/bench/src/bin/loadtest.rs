//! Deterministic load test for the `landau-serve` job service.
//!
//! Drives a seeded flood of concurrent small quenches from several
//! tenants through [`QuenchServer`], honouring backpressure (rejected
//! submissions retry after the server's `retry_after_ms` hint), then
//! reports:
//!
//! * p50/p99 submit-to-first-record and end-to-end latency, read from
//!   the server's own `serve.*` histograms via the batch
//!   [`landau_obs::HistogramSnapshot::quantiles`] API,
//! * throughput (completed jobs per second of wall time),
//! * fairness spread across tenants (relative grant-count imbalance),
//! * a kill–resume probe: one job is cancelled mid-flight and resumed,
//!   and its exported timeseries must be byte-identical to an
//!   uninterrupted run of the same scenario. The probe also drains the
//!   global event journal in two batches and checks that the merged
//!   stream is seq-ordered and survives a `landau-obs-events/1`
//!   round-trip,
//! * retention: the flood lets each handle go once its job is terminal,
//!   and the high-water marks of the server's job table
//!   (`serve.jobs_retained`) and of `landau-obs`'s per-job span trees
//!   (`obs.traced_jobs`) must stay within the admission window,
//! * a live scrape probe: `metrics_scrape()` is called while the flood
//!   is still in flight and must return valid OpenMetrics text carrying
//!   `serve_*`, `alert_*`, and journal drop-counter families.
//!
//! Results land in `BENCH_serve.json` (gated by `bench_gate`) and the
//! raw `serve.*` latency histograms in `SERVE_latency_hist.json` (CI
//! artifact). `--quick` is the CI shape: 200 jobs across 4 tenants.

use landau_bench::{print_table, workspace_root, write_bench_json};
use landau_obs::{events_to_json, merge_drained, parse_events, EventKind, Journal, MetricRegistry};
use landau_quench::QuenchConfig;
use landau_serve::rt::block_on;
use landau_serve::{JobHandle, JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Splitmix64: the workspace-standard deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The smallest two-phase quench that still runs real physics: one
/// equilibration step plus one quench step on a coarse mesh (~300 ms of
/// solver work on one core).
fn small_quench(rng: &mut u64, quench_steps: usize) -> QuenchConfig {
    // Seeded scenario jitter so the flood is not one memoizable problem.
    let t_cold = [0.12, 0.15, 0.18][(splitmix64(rng) % 3) as usize];
    let mass_factor = [2.5, 3.0, 3.5][(splitmix64(rng) % 3) as usize];
    QuenchConfig {
        domain: 2.0,
        cells_per_vt: 0.3,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold,
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps,
        pulse_duration: 3.0,
        mass_factor,
        ..QuenchConfig::default()
    }
}

/// Kill–resume probe: run a scenario to completion, then the same
/// scenario cancelled after its first record and resumed; the two
/// timeseries exports must be byte-identical. Doubles as the journal
/// semantics probe: the events emitted around the kill/resume are
/// drained in two batches whose merge must be seq-ordered and must
/// survive a `landau-obs-events/1` encode/parse round-trip.
fn resume_probe(server: &QuenchServer) -> bool {
    let journal = Journal::global();
    journal.drain(); // discard any events from earlier in the process
    let mut rng = 7u64;
    let cfg = small_quench(&mut rng, 4);
    let reference = {
        let h = server
            .submit("probe", JobSpec::new("probe-ref", cfg.clone()))
            .expect("probe admitted");
        if block_on(h.wait()) != JobStatus::Completed {
            return false;
        }
        h.series_json()
    };
    let h = server
        .submit("probe", JobSpec::new("probe-kill", cfg))
        .expect("probe admitted");
    let mut stream = h.stream();
    if block_on(stream.next()).is_none() {
        return false;
    }
    h.cancel();
    if block_on(h.wait()) != JobStatus::Cancelled {
        return false;
    }
    // First drain batch: everything up to and including the cancel.
    let batch_a = journal.drain();
    let h2 = match server.resume(h.id) {
        Ok(h2) => h2,
        Err(_) => return false,
    };
    if block_on(h2.wait()) != JobStatus::Completed || h2.series_json() != reference {
        return false;
    }
    let batch_b = journal.drain();
    journal_probe(batch_a, batch_b, journal.dropped(), h.id.0)
}

/// Check the journal semantics exercised by the kill–resume probe:
/// batch-independent merge ordering, lifecycle coverage for the killed
/// job, and a lossless `landau-obs-events/1` round-trip.
fn journal_probe(
    batch_a: Vec<landau_obs::Event>,
    batch_b: Vec<landau_obs::Event>,
    dropped: u64,
    killed_job: u64,
) -> bool {
    let merged = merge_drained(vec![batch_a, batch_b]);
    if merged.windows(2).any(|w| w[0].seq >= w[1].seq) {
        eprintln!("journal probe: merged drain is not strictly seq-ordered");
        return false;
    }
    let kinds_for_killed: Vec<EventKind> = merged
        .iter()
        .filter(|e| e.job == killed_job)
        .map(|e| e.kind)
        .collect();
    for want in [
        EventKind::JobSubmitted,
        EventKind::JobCancelled,
        EventKind::JobResumed,
        EventKind::JobCompleted,
    ] {
        if !kinds_for_killed.contains(&want) {
            eprintln!("journal probe: killed job missing {want:?} event");
            return false;
        }
    }
    let text = events_to_json(&merged, dropped).to_text();
    match parse_events(&text) {
        Ok((parsed, parsed_dropped)) => {
            let seqs_match = parsed.len() == merged.len()
                && parsed
                    .iter()
                    .zip(&merged)
                    .all(|(p, m)| p.seq == m.seq && p.kind == m.kind && p.job == m.job);
            if !seqs_match || parsed_dropped != dropped {
                eprintln!("journal probe: round-trip mismatch");
                return false;
            }
            true
        }
        Err(e) => {
            eprintln!("journal probe: round-trip parse failed: {e}");
            false
        }
    }
}

struct Args {
    jobs: usize,
    tenants: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 1000,
        tenants: 8,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                args.jobs = 200;
                args.tenants = 4;
            }
            "--jobs" => args.jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N"),
            "--tenants" => {
                args.tenants = it.next().and_then(|v| v.parse().ok()).expect("--tenants K")
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            other => panic!("unknown argument {other}"),
        }
    }
    args.tenants = args.tenants.max(1);
    args
}

fn main() {
    let args = parse_args();
    let registry = Arc::new(MetricRegistry::new());
    let server = QuenchServer::with_registry(
        ServeConfig {
            workers: 2,
            max_active_slices: 2,
            // Bounded queues sized well below the flood so the reject /
            // retry-after path is genuinely exercised.
            max_in_flight_per_tenant: 8,
            max_in_flight_total: 24,
            min_retry_after_ms: 10,
            ..ServeConfig::default()
        },
        registry.clone(),
    );
    let tenants: Vec<String> = (0..args.tenants).map(|i| format!("tenant-{i}")).collect();
    for t in &tenants {
        server.set_tenant_quota(t, 1);
    }

    let resume_ok = resume_probe(&server);

    let mut rng = args.seed;
    let mut in_flight: Vec<JobHandle> = Vec::new();
    let mut completed = 0usize;
    // High-water marks of what the process keeps per job: entries in the
    // server's table, and per-job span trees in `landau-obs`.
    let (mut retained_max, mut traced_max) = (0usize, 0usize);
    let mut retries = 0u64;
    let t0 = Instant::now();
    for i in 0..args.jobs {
        let tenant = &tenants[i % tenants.len()];
        let spec = JobSpec {
            slice_steps: 1,
            ..JobSpec::new(format!("{tenant}-j{i}"), small_quench(&mut rng, 1))
        };
        // Honour backpressure: bounced submissions wait the hinted
        // interval and retry — the client half of the reject contract.
        let handle = loop {
            match server.submit(tenant, spec.clone()) {
                Ok(h) => break h,
                Err(rej) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(rej.retry_after_ms.min(250)));
                }
            }
        };
        in_flight.push(handle);
        // A client that has its result lets the handle go; the job's
        // record and span tree must go with it.
        in_flight.retain(|h| {
            let status = h.status();
            completed += usize::from(status == JobStatus::Completed);
            !status.is_terminal()
        });
        retained_max = retained_max.max(server.jobs_retained());
        traced_max = traced_max.max(landau_obs::traced_jobs().len());
        // Seeded sub-millisecond arrival jitter.
        std::thread::sleep(Duration::from_micros(splitmix64(&mut rng) % 800));
    }
    // Live scrape probe: while the flood is still in flight, a scrape
    // must come back as valid OpenMetrics carrying the serve, alert,
    // and journal families.
    let scrape = server.metrics_scrape();
    landau_obs::openmetrics::validate(&scrape).expect("mid-load scrape is valid OpenMetrics");
    for family in [
        "serve_",
        "alert_",
        "obs_journal_published",
        "obs_journal_dropped",
    ] {
        assert!(
            scrape.contains(family),
            "mid-load scrape is missing the {family} family"
        );
    }
    for h in in_flight {
        completed += usize::from(block_on(h.wait()) == JobStatus::Completed);
    }
    let wall = t0.elapsed().as_secs_f64();

    // Fairness spread: relative imbalance of slice grants across tenants
    // (0 = perfectly even). The probe tenant is excluded.
    let grants = server.grant_log();
    let per_tenant: Vec<f64> = tenants
        .iter()
        .map(|t| grants.iter().filter(|(g, _)| g == t).count() as f64)
        .collect();
    let gmax = per_tenant.iter().cloned().fold(f64::MIN, f64::max);
    let gmin = per_tenant.iter().cloned().fold(f64::MAX, f64::min);
    let spread = if gmax > 0.0 {
        (gmax - gmin) / gmax
    } else {
        1.0
    };

    let snap = registry.snapshot();
    let rejected = snap.counter("serve.rejected_jobs") as f64;
    let throughput = completed as f64 / wall.max(1e-9);

    // Latency quantiles come from the server's own histograms now, via
    // the single-pass batch API (one bucket walk per histogram).
    let hist_quantiles = |name: &str| -> Vec<f64> {
        snap.histograms
            .get(name)
            .map(|h| h.quantiles(&[0.50, 0.99]))
            .unwrap_or_else(|| vec![0.0, 0.0])
    };
    let first_q = hist_quantiles("serve.submit_to_first_record_ms");
    let e2e_q = hist_quantiles("serve.job_e2e_ms");

    let entries = vec![
        ("serve.jobs_total".to_string(), args.jobs as f64),
        ("serve.jobs_completed".to_string(), completed as f64),
        ("serve.tenants".to_string(), args.tenants as f64),
        ("serve.p50_submit_to_first_ms".to_string(), first_q[0]),
        ("serve.p99_submit_to_first_ms".to_string(), first_q[1]),
        ("serve.p50_e2e_ms".to_string(), e2e_q[0]),
        ("serve.p99_e2e_ms".to_string(), e2e_q[1]),
        ("serve.throughput_jobs_per_sec".to_string(), throughput),
        ("serve.fairness_spread".to_string(), spread),
        ("serve.rejected_jobs".to_string(), rejected),
        ("serve.jobs_retained".to_string(), retained_max as f64),
        ("obs.traced_jobs".to_string(), traced_max as f64),
        (
            "serve.resume_bitwise_identical".to_string(),
            if resume_ok { 1.0 } else { 0.0 },
        ),
    ];
    let path = write_bench_json("BENCH_serve.json", &entries);
    println!("wrote {}", path.display());

    // Raw serve.* histograms (log2 buckets) as a CI artifact.
    let mut hist = String::from("{\n");
    let serve_hists: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("serve."))
        .collect();
    for (i, (name, h)) in serve_hists.iter().enumerate() {
        let comma = if i + 1 == serve_hists.len() { "" } else { "," };
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(b, n)| format!("\"{b}\": {n}"))
            .collect();
        let q = h.quantiles(&[0.5, 0.99]);
        hist.push_str(&format!(
            "  \"{name}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": {{{}}}}}{comma}\n",
            h.count,
            h.min,
            h.max,
            q[0],
            q[1],
            buckets.join(", ")
        ));
    }
    hist.push_str("}\n");
    let hist_path = workspace_root().join("SERVE_latency_hist.json");
    std::fs::write(&hist_path, hist).expect("write latency histogram");
    println!("wrote {}", hist_path.display());

    print_table(
        "landau-serve load test",
        "metric",
        &["value".to_string()],
        &entries
            .iter()
            .map(|(k, v)| (k.clone(), vec![format!("{v:.2}")]))
            .collect::<Vec<_>>(),
    );
    println!(
        "\n{} jobs, {} tenants, seed {}: {completed} completed in {wall:.1}s ({retries} submit retries, {} steals)",
        args.jobs,
        args.tenants,
        args.seed,
        server.steal_count()
    );
    assert_eq!(completed, args.jobs, "not every job completed");
    assert!(resume_ok, "kill-resume probe was not bitwise identical");
}
