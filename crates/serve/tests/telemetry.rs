//! Live-telemetry integration tests: per-job span stitching across
//! kill/resume, the OpenMetrics scrape under a warm registry, and the
//! SLO watchdog's Record/Fail contract.
//!
//! Spans and the journal accumulate into process-global state, so every
//! test serializes on [`lock`] and resets what it uses.

use landau_obs::{AlertMode, EventKind, Journal, MetricRegistry};
use landau_quench::QuenchConfig;
use landau_serve::rt::block_on;
use landau_serve::{JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::sync::{Arc, Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The smallest two-phase quench that still runs real physics.
fn tiny_cfg(quench_steps: usize) -> QuenchConfig {
    QuenchConfig {
        domain: 2.0,
        cells_per_vt: 0.3,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold: 0.15,
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps,
        pulse_duration: 3.0,
        mass_factor: 3.0,
        ..QuenchConfig::default()
    }
}

fn small_server(mode: AlertMode) -> (QuenchServer, Arc<MetricRegistry>) {
    let registry = Arc::new(MetricRegistry::new());
    let server = QuenchServer::with_registry(
        ServeConfig {
            workers: 2,
            max_active_slices: 2,
            alert_mode: mode,
            ..ServeConfig::default()
        },
        registry.clone(),
    );
    (server, registry)
}

#[test]
fn killed_and_resumed_job_forms_one_rooted_span_tree() {
    let _l = lock();
    landau_obs::set_recording(true);
    landau_obs::reset_spans();
    let (server, _reg) = small_server(AlertMode::Record);

    // One-step slices so the kill lands between slices and the resumed
    // job reruns several more of them.
    let spec = JobSpec {
        slice_steps: 1,
        ..JobSpec::new("stitch-probe", tiny_cfg(4))
    };
    let h = server.submit("acme", spec).expect("admitted");
    let mut stream = h.stream();
    assert!(block_on(stream.next()).is_some(), "first record arrived");
    h.cancel();
    assert_eq!(block_on(h.wait()), JobStatus::Cancelled);
    if !landau_obs::recording_compiled() {
        return;
    }
    let slices_before_kill = landau_obs::job_spans_snapshot(h.id.0).count_of("serve_slice");
    assert!(slices_before_kill >= 1, "the killed job ran a slice");

    let h2 = server.resume(h.id).expect("resumable");
    assert_eq!(block_on(h2.wait()), JobStatus::Completed);

    // All spans — pre-kill and post-resume, across executor workers and
    // pool threads — sit in the one bucket keyed by the stable job id.
    let jobs = landau_obs::traced_jobs();
    assert_eq!(jobs, vec![h.id.0], "exactly one traced job");
    let snap = landau_obs::job_spans_snapshot(h.id.0);
    let slices = snap.count_of("serve_slice");
    assert!(
        slices > slices_before_kill,
        "post-resume slices joined the same tree ({slices} vs {slices_before_kill})"
    );

    // The exported Chrome trace is a single rooted tree: one `job N`
    // root whose interval contains every other event.
    let trace = landau_obs::job_chrome_trace(h.id.0, &snap);
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("trace has events");
    assert!(events.len() > 1, "trace is non-trivial");
    let root = &events[0];
    assert_eq!(
        root.get("name").and_then(|n| n.as_str()),
        Some(format!("job {}", h.id.0).as_str())
    );
    let root_ts = root.get("ts").and_then(|v| v.as_f64()).expect("root ts");
    let root_end = root_ts + root.get("dur").and_then(|v| v.as_f64()).expect("root dur");
    for ev in &events[1..] {
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("event ts");
        let dur = ev.get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(
            ts >= root_ts && ts + dur <= root_end,
            "event escapes the job root interval"
        );
    }
    landau_obs::reset_spans();
}

#[test]
fn scrape_under_load_is_valid_openmetrics_with_all_families() {
    let _l = lock();
    let (server, _reg) = small_server(AlertMode::Record);
    let h = server
        .submit("acme", JobSpec::new("scrape-job", tiny_cfg(2)))
        .expect("admitted");
    // Scrape while the job is in flight: the exposition must already be
    // well-formed and carry the alert and journal families.
    let live = server.metrics_scrape();
    landau_obs::openmetrics::validate(&live).expect("mid-flight scrape validates");
    assert_eq!(block_on(h.wait()), JobStatus::Completed);
    let done = server.metrics_scrape();
    landau_obs::openmetrics::validate(&done).expect("post-completion scrape validates");
    for family in [
        "serve_",
        "alert_evaluations_total",
        "obs_journal_published_total",
        "obs_journal_dropped_total",
    ] {
        assert!(done.contains(family), "scrape missing {family}");
    }
    assert!(done.ends_with("# EOF\n"), "exposition is EOF-terminated");
}

#[test]
fn journal_records_the_job_lifecycle_and_watchdog_stays_quiet() {
    let _l = lock();
    let journal = Journal::global();
    journal.drain();
    let (server, _reg) = small_server(AlertMode::Record);
    let h = server
        .submit("acme", JobSpec::new("lifecycle-job", tiny_cfg(2)))
        .expect("admitted");
    assert_eq!(block_on(h.wait()), JobStatus::Completed);
    let events = journal.drain();
    let kinds: Vec<EventKind> = events
        .iter()
        .filter(|e| e.job == h.id.0)
        .map(|e| e.kind)
        .collect();
    for want in [
        EventKind::JobSubmitted,
        EventKind::SliceStart,
        EventKind::SliceEnd,
        EventKind::JobCompleted,
    ] {
        assert!(kinds.contains(&want), "journal missing {want:?}");
    }
    // A healthy tiny run breaches nothing, so Record mode reports no
    // firings and the Fail-mode contract would not have tripped either.
    let firings = server.check_slos().expect("record mode never errors");
    assert!(firings.is_empty(), "unexpected SLO firings: {firings:?}");
}

#[test]
fn a_finished_job_is_let_go_with_its_last_handle() {
    let _l = lock();
    landau_obs::set_recording(true);
    landau_obs::reset_spans();
    let (server, _reg) = small_server(AlertMode::Record);
    let submit = |name: String| {
        server
            .submit("acme", JobSpec::new(name, tiny_cfg(1)))
            .expect("admitted")
    };

    // One completed job's handle is held through the whole flood.
    let kept = submit("kept".into());
    assert_eq!(block_on(kept.wait()), JobStatus::Completed);
    let kept_series = kept.series_json();

    // 300 jobs through an 8-deep client window, each handle dropped once
    // its job is done. What the server and `landau-obs` keep per job must
    // follow the window (plus the two workers' jobs between their terminal
    // transition and task exit, plus `kept`), not the jobs ever served.
    const WINDOW: usize = 8;
    let bound = WINDOW + 2 + 1;
    let mut window = std::collections::VecDeque::new();
    for i in 0..300 {
        if window.len() == WINDOW {
            let h: landau_serve::JobHandle = window.pop_front().expect("non-empty");
            assert_eq!(block_on(h.wait()), JobStatus::Completed);
        }
        window.push_back(submit(format!("flood-{i}")));
        let (retained, traced) = (server.jobs_retained(), landau_obs::traced_jobs().len());
        assert!(retained <= bound, "{retained} entries after {i} jobs");
        assert!(traced <= bound, "{traced} span trees after {i} jobs");
    }
    for h in window {
        assert_eq!(block_on(h.wait()), JobStatus::Completed);
    }
    server.drain();
    assert_eq!(server.jobs_retained(), 0, "completed jobs leave the table");
    assert!(
        server.handle(kept.id).is_none(),
        "lookup outlived the entry"
    );

    // The held handle still reads everything the job produced.
    assert_eq!(kept.status(), JobStatus::Completed);
    assert_eq!(kept.series_json(), kept_series);
    assert!(kept_series.contains("landau-obs-timeseries/1"));
    assert!(kept.latency_ms().1.is_some());
    if landau_obs::recording_compiled() {
        assert_eq!(landau_obs::traced_jobs(), vec![kept.id.0]);
        let own = landau_obs::job_spans_snapshot(kept.id.0).count_of("serve_slice");
        assert!(own >= 1, "the held job's span tree is gone");
        // Retired trees were merged, not lost: the union still has every
        // slice of every job.
        let all = landau_obs::spans_snapshot().count_of("serve_slice");
        assert_eq!(all, 301 * own, "retired span trees left the union");
        drop(kept);
        assert!(landau_obs::traced_jobs().is_empty());
        assert_eq!(landau_obs::spans_snapshot().count_of("serve_slice"), all);
    }
    landau_obs::reset_spans();
}
