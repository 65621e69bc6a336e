//! Live-telemetry exporter for the `landau-serve` observability plane.
//!
//! Spins up an in-process [`QuenchServer`], drives a small seeded job
//! flood through it, then exports the three telemetry artifacts the
//! paper-repro CI ships:
//!
//! * `OBS_scrape.txt` — the server's [`QuenchServer::metrics_scrape`]
//!   output: the full metric registry plus journal drop counters and
//!   freshly-evaluated `alert.*` families, rendered as OpenMetrics text
//!   and checked by [`landau_obs::openmetrics::validate`],
//! * `JOURNAL_events.json` — the drained event journal in the stable
//!   `landau-obs-events/1` schema (round-trip checked before writing),
//! * `OBS_job_trace.json` — the per-job Chrome trace of one served job:
//!   a single rooted span tree stitched across executor workers and
//!   pool threads (deterministic timestamps).
//!
//! `--smoke` is the CI shape: the same pipeline with hard assertions on
//! every artifact, exiting nonzero on any telemetry regression.

use landau_bench::workspace_root;
use landau_obs::{events_to_json, parse_events, Journal, MetricRegistry};
use landau_quench::QuenchConfig;
use landau_serve::rt::block_on;
use landau_serve::{JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::sync::Arc;

/// The same minimal two-phase quench the load test floods with.
fn small_quench() -> QuenchConfig {
    QuenchConfig {
        domain: 2.0,
        cells_per_vt: 0.3,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold: 0.15,
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps: 2,
        pulse_duration: 3.0,
        mass_factor: 3.0,
        ..QuenchConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    landau_obs::set_recording(true);
    landau_obs::reset_spans();
    let journal = Journal::global();
    journal.drain(); // start the export from a clean tail

    let registry = Arc::new(MetricRegistry::new());
    let server = QuenchServer::with_registry(
        ServeConfig {
            workers: 2,
            max_active_slices: 2,
            ..ServeConfig::default()
        },
        registry.clone(),
    );
    let tenants = ["obs-a", "obs-b"];
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let tenant = tenants[i % tenants.len()];
            server
                .submit(
                    tenant,
                    JobSpec::new(format!("{tenant}-j{i}"), small_quench()),
                )
                .expect("smoke flood admitted")
        })
        .collect();
    for h in &handles {
        assert_eq!(block_on(h.wait()), JobStatus::Completed, "smoke job failed");
    }

    let root = workspace_root();

    // 1. OpenMetrics scrape of the live registry + journal + alerts.
    let scrape = server.metrics_scrape();
    landau_obs::openmetrics::validate(&scrape).expect("scrape is valid OpenMetrics");
    if smoke {
        for family in [
            "serve_",
            "alert_",
            "obs_journal_published",
            "obs_journal_dropped",
        ] {
            assert!(scrape.contains(family), "scrape missing {family}");
        }
    }
    let scrape_path = root.join("OBS_scrape.txt");
    std::fs::write(&scrape_path, &scrape).expect("write OBS_scrape.txt");

    // 2. Drained journal tail in the stable events schema.
    let events = journal.drain();
    let doc = events_to_json(&events, journal.dropped());
    let text = doc.to_text();
    let (parsed, _) = parse_events(&text).expect("journal export round-trips");
    assert_eq!(parsed.len(), events.len(), "journal round-trip lost events");
    if smoke {
        assert!(
            !events.is_empty(),
            "smoke flood published no journal events"
        );
    }
    let journal_path = root.join("JOURNAL_events.json");
    std::fs::write(&journal_path, &text).expect("write JOURNAL_events.json");

    // 3. Per-job Chrome trace: one rooted span tree per served job. A
    // job's tree lives as long as a handle to it, so `handles` stays in
    // scope until the trace is written.
    let jobs = landau_obs::traced_jobs();
    if smoke {
        assert!(!jobs.is_empty(), "no job accumulated any spans");
    }
    let trace_path = root.join("OBS_job_trace.json");
    if let Some(&job) = jobs.first() {
        let snap = landau_obs::job_spans_snapshot(job);
        let trace = landau_obs::job_chrome_trace(job, &snap);
        std::fs::write(&trace_path, trace.to_text()).expect("write OBS_job_trace.json");
    }
    drop(handles);

    eprintln!(
        "wrote {} ({} lines), {} ({} events), {} ({} traced jobs){}",
        scrape_path.display(),
        scrape.lines().count(),
        journal_path.display(),
        events.len(),
        trace_path.display(),
        jobs.len(),
        if smoke {
            " [smoke assertions passed]"
        } else {
            ""
        }
    );
}
