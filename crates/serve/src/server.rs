//! The quench job server: submission, streaming, cancel/checkpoint/resume.
//!
//! One [`QuenchServer`] owns a [`crate::rt::Runtime`] (the work-stealing
//! executor), a [`FairScheduler`] (per-tenant slice fairness) and the job
//! table. A submitted job becomes an async task that loops:
//!
//! ```text
//! build driver → [acquire slice permit → run_budgeted(slice) → publish]* → finish
//! ```
//!
//! The driver slice is the only blocking section and runs while holding a
//! [`crate::scheduler::SlicePermit`]; its inner data parallelism goes
//! through the persistent `landau-par` pool. Everything the API exposes —
//! status, record streams, `wait()` — is lock-then-release state reads
//! plus [`Notify`] wake-ups; no lock is ever held across an `.await`
//! (lint E009 enforces this crate-wide).

use crate::job::{JobId, JobSpec, JobState, JobStatus, RejectReason, Rejected};
use crate::rt::Runtime;
use crate::scheduler::FairScheduler;
use crate::sync::Notify;
use landau_core::ckpt::{CheckpointPolicy, MemStorage, Storage};
use landau_obs::timeseries::{Record, SeriesSink};
use landau_obs::{
    AlertMode, Event, EventKind, Firing, Journal, MetricRegistry, SloViolation, SloWatchdog,
    TraceCtx,
};
use landau_quench::{QuenchDriver, RunOutcome};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Executor worker threads (slices run here; inner sweeps go through
    /// the `landau-par` pool).
    pub workers: usize,
    /// Concurrent slice permits. Defaults to `workers`.
    pub max_active_slices: usize,
    /// Per-tenant bound on queued+running jobs (admission control).
    pub max_in_flight_per_tenant: usize,
    /// Server-wide bound on queued+running jobs.
    pub max_in_flight_total: usize,
    /// Floor for the `retry_after_ms` backoff hint on rejection.
    pub min_retry_after_ms: u64,
    /// Checkpoint generations kept per job.
    pub keep_checkpoints: usize,
    /// SLO watchdog mode: [`AlertMode::Record`] publishes `alert.*` and
    /// keeps serving; [`AlertMode::Fail`] makes
    /// [`QuenchServer::check_slos`] report breaches as errors.
    pub alert_mode: AlertMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4);
        ServeConfig {
            workers,
            max_active_slices: workers,
            max_in_flight_per_tenant: 64,
            max_in_flight_total: 256,
            min_retry_after_ms: 25,
            keep_checkpoints: 2,
            alert_mode: AlertMode::Record,
        }
    }
}

/// One job's shared record: everything the API reads and the job task
/// writes.
pub(crate) struct JobEntry {
    id: JobId,
    tenant: Arc<str>,
    spec: JobSpec,
    /// Budgeted slices granted so far (the trace context's slice index;
    /// monotonic across resumes).
    slices: AtomicU64,
    /// Step-level physics timeseries the driver publishes into; record
    /// streams read it through a cursor.
    series: Arc<SeriesSink>,
    /// Checkpoint medium prototype; each driver (re)build clones a fresh
    /// handle to the same medium via [`Storage::clone_box`].
    storage: Mutex<Box<dyn Storage>>,
    cancel: AtomicBool,
    ckpt_requested: AtomicBool,
    notify: Notify,
    state: Mutex<JobState>,
}

impl Drop for JobEntry {
    /// The last reader is gone (the job table lets a completed job go, so
    /// that is its last handle, stream or task): fold the job's span tree
    /// into the unattributed forest instead of keeping one bucket per job
    /// id for the life of the process.
    fn drop(&mut self) {
        landau_obs::retire_job_spans(self.id.0);
    }
}

struct ServerInner {
    cfg: ServeConfig,
    rt: Runtime,
    sched: FairScheduler,
    /// Jobs that can still run: queued, running, or stopped short
    /// (cancelled, failed) and therefore resumable. A completed job leaves
    /// the table and lives on in its handles.
    jobs: Mutex<BTreeMap<JobId, Arc<JobEntry>>>,
    next_id: AtomicU64,
    metrics: Arc<MetricRegistry>,
    /// Structured event sink (the process-global journal, so driver-side
    /// recovery/checkpoint events interleave with job lifecycle here).
    journal: Arc<Journal>,
    /// Burn-rate SLO rules evaluated on every scrape.
    watchdog: SloWatchdog,
    /// EMA of slice wall time in ms (drives the retry-after hint).
    slice_ms_ema: Mutex<f64>,
}

/// The async multi-tenant quench service.
#[derive(Clone)]
pub struct QuenchServer {
    inner: Arc<ServerInner>,
}

impl QuenchServer {
    /// Start a server publishing `serve.*` metrics into the process-global
    /// registry.
    pub fn new(cfg: ServeConfig) -> QuenchServer {
        QuenchServer::with_registry(cfg, MetricRegistry::global_arc())
    }

    /// Start a server with an injected metrics sink (tests, loadtest).
    pub fn with_registry(cfg: ServeConfig, metrics: Arc<MetricRegistry>) -> QuenchServer {
        // Pre-start the compute pool so the first slice doesn't pay the
        // worker spawn latency inside a measured request.
        landau_par::ensure_pool_started();
        let rt = Runtime::new(cfg.workers);
        let sched = FairScheduler::new(cfg.max_active_slices.max(1));
        let journal = Journal::global_arc();
        let watchdog = SloWatchdog::new(
            cfg.alert_mode,
            SloWatchdog::serve_rules(),
            metrics.clone(),
            journal.clone(),
        );
        QuenchServer {
            inner: Arc::new(ServerInner {
                cfg,
                rt,
                sched,
                jobs: Mutex::new(BTreeMap::new()),
                next_id: AtomicU64::new(1),
                metrics,
                journal,
                watchdog,
                slice_ms_ema: Mutex::new(0.0),
            }),
        }
    }

    /// Declare a tenant's fairness quota (relative slice weight under
    /// contention; unset tenants default to 1).
    pub fn set_tenant_quota(&self, tenant: &str, quota: u64) {
        self.inner.sched.set_quota(tenant, quota);
    }

    /// Jobs currently queued or running, per tenant and total.
    fn in_flight(&self, tenant: &str) -> (usize, usize) {
        let jobs = lock(&self.inner.jobs);
        let mut mine = 0;
        let mut total = 0;
        for e in jobs.values() {
            if lock(&e.state).status.is_terminal() {
                continue;
            }
            total += 1;
            if &*e.tenant == tenant {
                mine += 1;
            }
        }
        (mine, total)
    }

    /// Backoff hint: roughly "queue depth ahead of you × recent slice
    /// time ÷ parallelism", floored at the configured minimum.
    fn retry_after_ms(&self, total_in_flight: usize) -> u64 {
        let ema = *lock(&self.inner.slice_ms_ema);
        let lanes = self.inner.cfg.max_active_slices.max(1) as f64;
        let est = ema * total_in_flight as f64 / lanes;
        (est.ceil() as u64).clamp(self.inner.cfg.min_retry_after_ms, 10_000)
    }

    /// Submit a scenario for `tenant`. Cheap and non-blocking: admission
    /// control plus a task spawn. A full queue is rejected immediately
    /// with a retry-after hint — backpressure is the contract, not
    /// unbounded buffering.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let (mine, total) = self.in_flight(tenant);
        let reason = if total >= self.inner.cfg.max_in_flight_total {
            Some(RejectReason::ServerQueueFull)
        } else if mine >= self.inner.cfg.max_in_flight_per_tenant {
            Some(RejectReason::TenantQueueFull)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.inner.metrics.add("serve.rejected_jobs", 1);
            return Err(Rejected {
                reason,
                retry_after_ms: self.retry_after_ms(total),
            });
        }
        let id = JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = Arc::new(JobEntry {
            id,
            tenant: Arc::from(tenant),
            spec,
            slices: AtomicU64::new(0),
            series: Arc::new(SeriesSink::new()),
            storage: Mutex::new(Box::new(MemStorage::new())),
            cancel: AtomicBool::new(false),
            ckpt_requested: AtomicBool::new(false),
            notify: Notify::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                completed_steps: 0,
                submitted_at: Instant::now(),
                first_record_at: None,
                finished_at: None,
            }),
        });
        lock(&self.inner.jobs).insert(id, entry.clone());
        self.inner.metrics.add("serve.submitted", 1);
        self.inner
            .metrics
            .gauge_max("serve.jobs_in_flight", (total + 1) as f64);
        self.inner
            .journal
            .publish(Event::job_submitted(id.0, &entry.tenant));
        self.spawn_job_task(entry.clone(), false);
        Ok(self.handle_of(entry))
    }

    /// Resume a cancelled (or failed) job from its newest checkpoint
    /// generation. The job keeps its id, series and storage medium; the
    /// restored driver replays from the last durable slice boundary, so
    /// the streamed timeseries is byte-identical to an uninterrupted run.
    pub fn resume(&self, id: JobId) -> Result<JobHandle, Rejected> {
        let entry = lock(&self.inner.jobs).get(&id).cloned();
        let Some(entry) = entry else {
            return Err(Rejected {
                reason: RejectReason::ServerQueueFull,
                retry_after_ms: self.inner.cfg.min_retry_after_ms,
            });
        };
        {
            let mut st = lock(&entry.state);
            if !st.status.is_terminal() || st.status == JobStatus::Completed {
                return Err(Rejected {
                    reason: RejectReason::TenantQueueFull,
                    retry_after_ms: self.inner.cfg.min_retry_after_ms,
                });
            }
            st.status = JobStatus::Queued;
            st.finished_at = None;
        }
        entry.cancel.store(false, Ordering::Release);
        self.inner.metrics.add("serve.resumed", 1);
        self.inner
            .journal
            .publish(Event::job_resumed(id.0, &entry.tenant));
        self.spawn_job_task(entry.clone(), true);
        Ok(self.handle_of(entry))
    }

    /// Handle to a job still in the table (see [`Self::jobs_retained`]);
    /// `None` for an unknown id and once a completed job has left it.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let entry = lock(&self.inner.jobs).get(&id).cloned()?;
        Some(self.handle_of(entry))
    }

    fn handle_of(&self, entry: Arc<JobEntry>) -> JobHandle {
        JobHandle {
            _server: self.clone(),
            id: entry.id,
            entry,
        }
    }

    /// Entries in the job table: jobs in flight plus the cancelled and
    /// failed ones kept for [`Self::resume`]. Completed jobs are not in it.
    pub fn jobs_retained(&self) -> usize {
        lock(&self.inner.jobs).len()
    }

    /// A fresh handle onto the checkpoint medium of a job still in the
    /// table (tests and external tooling can open their own
    /// `CheckpointStore` over it).
    pub fn job_storage(&self, id: JobId) -> Option<Box<dyn Storage>> {
        let entry = lock(&self.inner.jobs).get(&id).cloned()?;
        let medium = lock(&entry.storage);
        medium.clone_box()
    }

    /// The scheduler's grant sequence (tenant, job) — deterministic for a
    /// deterministic submission sequence; the fairness tests assert on it.
    pub fn grant_log(&self) -> Vec<(String, JobId)> {
        self.inner.sched.grant_log()
    }

    /// Cross-worker steals the executor performed so far.
    pub fn steal_count(&self) -> usize {
        self.inner.rt.steal_count()
    }

    /// Block until every submitted job has reached a terminal state.
    pub fn drain(&self) {
        self.inner.rt.wait_idle();
        self.inner
            .metrics
            .gauge_max("serve.rt_steals", self.inner.rt.steal_count() as f64);
    }

    /// The journal this server publishes lifecycle events into.
    pub fn journal(&self) -> Arc<Journal> {
        self.inner.journal.clone()
    }

    /// Render the server's metrics — plus journal publish/drop counters
    /// — as OpenMetrics text, in one snapshot-consistent pass: the SLO
    /// watchdog evaluates first, then a second snapshot is rendered so
    /// the `alert.*` families reflect this very scrape. Scrape cost is
    /// itself recorded in `serve.scrape_ms`.
    pub fn metrics_scrape(&self) -> String {
        let t0 = Instant::now();
        let mut snap = self.inner.metrics.snapshot();
        self.insert_journal_counters(&mut snap);
        self.inner.watchdog.evaluate(&snap);
        let mut snap = self.inner.metrics.snapshot();
        self.insert_journal_counters(&mut snap);
        let text = landau_obs::openmetrics::render(&snap);
        observe_ms(&self.inner.metrics, "serve.scrape_ms", t0);
        text
    }

    fn insert_journal_counters(&self, snap: &mut landau_obs::MetricSnapshot) {
        snap.counters.insert(
            "obs.journal.published".to_string(),
            self.inner.journal.published(),
        );
        snap.counters.insert(
            "obs.journal.dropped".to_string(),
            self.inner.journal.dropped(),
        );
    }

    /// Evaluate the SLO rules right now. In [`AlertMode::Fail`] breaches
    /// come back as an error; in [`AlertMode::Record`] they are returned
    /// for inspection (and published as `alert.*` either way).
    pub fn check_slos(&self) -> Result<Vec<Firing>, SloViolation> {
        let mut snap = self.inner.metrics.snapshot();
        self.insert_journal_counters(&mut snap);
        self.inner.watchdog.enforce(&snap)
    }

    /// The job loop: build the driver, then alternate permit acquisition
    /// and budgeted slices until done, failed or cancelled.
    fn spawn_job_task(&self, entry: Arc<JobEntry>, resuming: bool) {
        let inner = self.inner.clone();
        let sched = self.inner.sched.clone();
        let ctx = TraceCtx::new(entry.id.0, entry.tenant.clone());
        self.inner.rt.spawn_traced(ctx, async move {
            let mut driver = match build_driver(&inner, &entry, resuming) {
                Ok(d) => d,
                Err(msg) => {
                    finish(&inner, &entry, JobStatus::Failed(msg));
                    return;
                }
            };
            loop {
                if entry.cancel.load(Ordering::Acquire) {
                    let _ = driver.checkpoint_now();
                    finish(&inner, &entry, JobStatus::Cancelled);
                    return;
                }
                let queued_at = Instant::now();
                let permit = sched.acquire(&entry.tenant, entry.id).await;
                observe_ms(&inner.metrics, "serve.queue_wait_ms", queued_at);
                if entry.cancel.load(Ordering::Acquire) {
                    // Cancelled while queued: cut the checkpoint at the
                    // current slice boundary without burning the permit on
                    // another slice.
                    drop(permit);
                    let _ = driver.checkpoint_now();
                    finish(&inner, &entry, JobStatus::Cancelled);
                    return;
                }
                let outcome = run_slice(&inner, &entry, &mut driver);
                drop(permit);
                match outcome {
                    Ok(RunOutcome::Paused) => continue,
                    Ok(RunOutcome::Completed) => {
                        finish(&inner, &entry, JobStatus::Completed);
                        return;
                    }
                    Err(msg) => {
                        let _ = driver.checkpoint_now();
                        finish(&inner, &entry, JobStatus::Failed(msg));
                        return;
                    }
                }
            }
        });
    }
}

/// Build (or rebuild, for resume) the driver wired into the job's shared
/// series sink, the server registry and the job's checkpoint medium.
fn build_driver(
    inner: &Arc<ServerInner>,
    entry: &Arc<JobEntry>,
    resuming: bool,
) -> Result<QuenchDriver, String> {
    let _sp = landau_obs::span(landau_obs::names::SERVE_BUILD);
    let mut driver = QuenchDriver::new(entry.spec.cfg.clone());
    driver.metrics = inner.metrics.clone();
    driver.series = entry.series.clone();
    if let Some(wd) = driver.cfg.monitor {
        // Re-route the monitor at the swapped sinks.
        driver.enable_monitoring(wd);
    }
    let medium = lock(&entry.storage)
        .clone_box()
        .ok_or_else(|| "job storage medium is not shareable".to_string())?;
    driver.enable_checkpointing(
        medium,
        inner.cfg.keep_checkpoints,
        CheckpointPolicy::never(),
    );
    if resuming {
        match driver.resume_from_checkpoint() {
            // No generation on disk (cancelled before the first slice):
            // a fresh run from step 0 is the correct continuation.
            Ok(_) => {}
            Err(e) => return Err(format!("resume failed: {e:?}")),
        }
    }
    Ok(driver)
}

/// One budgeted slice plus its bookkeeping (records, checkpoint requests,
/// latency metrics, stream wake-ups).
fn run_slice(
    inner: &Arc<ServerInner>,
    entry: &Arc<JobEntry>,
    driver: &mut QuenchDriver,
) -> Result<RunOutcome, String> {
    let slice = entry.slices.fetch_add(1, Ordering::Relaxed);
    // Refine the task-level context with this slice's index: spans
    // recorded below (including on pool workers) and journal events from
    // the driver's recovery/checkpoint paths attribute to (job, slice).
    let _ctx = landau_obs::push_trace_ctx(Some(
        TraceCtx::new(entry.id.0, entry.tenant.clone()).at_slice(slice),
    ));
    inner
        .journal
        .publish(Event::slice_start(entry.id.0, &entry.tenant, slice));
    let t0 = Instant::now();
    let outcome = {
        let _sp = landau_obs::span(landau_obs::names::SERVE_SLICE);
        driver.run_budgeted(Some(entry.spec.slice_steps.max(1)))
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    inner.journal.publish(Event::slice_end(
        entry.id.0,
        &entry.tenant,
        slice,
        driver.completed_steps(),
        ms,
    ));
    {
        let mut ema = lock(&inner.slice_ms_ema);
        *ema = if *ema == 0.0 {
            ms
        } else {
            0.875 * *ema + 0.125 * ms
        };
    }
    inner.metrics.add("serve.slices", 1);
    inner.metrics.observe("serve.slice_ms", ms.ceil() as u64);
    if entry.ckpt_requested.swap(false, Ordering::AcqRel) {
        let _ = driver.checkpoint_now();
        inner.metrics.add("serve.checkpoints_requested", 1);
    }
    {
        let mut st = lock(&entry.state);
        st.status = JobStatus::Running;
        st.completed_steps = driver.completed_steps();
        if st.first_record_at.is_none() && !entry.series.snapshot().is_empty() {
            let now = Instant::now();
            st.first_record_at = Some(now);
            inner.metrics.observe(
                "serve.submit_to_first_record_ms",
                ((now - st.submitted_at).as_secs_f64() * 1e3).ceil() as u64,
            );
        }
    }
    entry.notify.notify_waiters();
    outcome.map_err(|e| e.to_string())
}

/// Terminal transition: status, wall-clock bookkeeping, counters, wake.
fn finish(inner: &Arc<ServerInner>, entry: &Arc<JobEntry>, status: JobStatus) {
    let (counter, kind) = match &status {
        JobStatus::Completed => ("serve.completed", Some(EventKind::JobCompleted)),
        JobStatus::Cancelled => ("serve.cancelled", Some(EventKind::JobCancelled)),
        JobStatus::Failed(_) => ("serve.failed", Some(EventKind::JobFailed)),
        _ => ("serve.unexpected_finish", None),
    };
    if let Some(kind) = kind {
        let steps = lock(&entry.state).completed_steps;
        inner
            .journal
            .publish(Event::job_terminal(kind, entry.id.0, &entry.tenant, steps));
    }
    let completed = status == JobStatus::Completed;
    {
        let mut st = lock(&entry.state);
        let now = Instant::now();
        if completed {
            inner.metrics.observe(
                "serve.job_e2e_ms",
                ((now - st.submitted_at).as_secs_f64() * 1e3).ceil() as u64,
            );
        }
        st.status = status;
        st.finished_at = Some(now);
    }
    if completed {
        // Nothing can run it again (`resume` refuses a completed job), so
        // from here on only its handles keep it.
        lock(&inner.jobs).remove(&entry.id);
    }
    inner.metrics.add(counter, 1);
    entry.notify.notify_waiters();
}

fn observe_ms(metrics: &MetricRegistry, name: &str, since: Instant) {
    metrics.observe(name, (since.elapsed().as_secs_f64() * 1e3).ceil() as u64);
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("status", &self.status())
            .finish()
    }
}

/// Client-side handle to one job. It shares the job's record with the
/// server, so status, latencies, series and span tree of a completed job
/// stay readable for as long as a handle (or stream) to it is held, and
/// are freed with the last one.
#[derive(Clone)]
pub struct JobHandle {
    /// Keeps the executor running while anyone waits on the job.
    _server: QuenchServer,
    entry: Arc<JobEntry>,
    /// The job's id.
    pub id: JobId,
}

impl JobHandle {
    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        lock(&self.entry.state).status.clone()
    }

    /// Driver steps completed so far (across resumes).
    pub fn completed_steps(&self) -> u64 {
        lock(&self.entry.state).completed_steps
    }

    /// Client-visible latencies in milliseconds:
    /// `(submit_to_first_record, submit_to_terminal)`. Each is `None`
    /// until the corresponding event has happened. The loadtest computes
    /// its p50/p99 from these per-job samples.
    pub fn latency_ms(&self) -> (Option<f64>, Option<f64>) {
        let st = lock(&self.entry.state);
        let ms = |i: Instant| (i - st.submitted_at).as_secs_f64() * 1e3;
        (st.first_record_at.map(ms), st.finished_at.map(ms))
    }

    /// Request cancellation. Takes effect at the next slice boundary,
    /// where the job task cuts a checkpoint before parking — so a
    /// cancelled job is always resumable from exactly where it stopped.
    pub fn cancel(&self) {
        self.entry.cancel.store(true, Ordering::Release);
        self.entry.notify.notify_waiters();
    }

    /// Request a durable checkpoint at the next slice boundary (without
    /// stopping the job).
    pub fn request_checkpoint(&self) {
        self.entry.ckpt_requested.store(true, Ordering::Release);
    }

    /// The job's timeseries so far, as `landau-obs-timeseries/1` JSON.
    pub fn series_json(&self) -> String {
        self.entry.series.snapshot().to_json_text()
    }

    /// An incremental stream over the job's `landau-obs-timeseries/1`
    /// records, starting at record 0.
    pub fn stream(&self) -> RecordStream {
        RecordStream {
            entry: self.entry.clone(),
            cursor: 0,
        }
    }

    /// Wait until the job reaches a terminal state and return it.
    pub async fn wait(&self) -> JobStatus {
        let entry = &self.entry;
        loop {
            let notified = entry.notify.notified();
            let status = lock(&entry.state).status.clone();
            if status.is_terminal() {
                return status;
            }
            notified.await;
        }
    }
}

/// Async iterator over a job's records, in step order, as they are
/// produced. Yields `None` once the job is terminal and every record has
/// been delivered.
pub struct RecordStream {
    entry: Arc<JobEntry>,
    cursor: usize,
}

impl RecordStream {
    /// Records delivered so far.
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    fn take_next(&mut self) -> Option<Record> {
        let snap = self.entry.series.snapshot();
        if self.cursor < snap.len() {
            let rec = snap.records()[self.cursor].clone();
            self.cursor += 1;
            return Some(rec);
        }
        None
    }

    /// The next record, or `None` when the job is finished and fully
    /// drained.
    pub async fn next(&mut self) -> Option<Record> {
        loop {
            let notified = self.entry.notify.notified();
            if let Some(rec) = self.take_next() {
                return Some(rec);
            }
            if lock(&self.entry.state).status.is_terminal() {
                // Records published between the snapshot above and the
                // terminal transition must still be delivered.
                return self.take_next();
            }
            notified.await;
        }
    }
}
