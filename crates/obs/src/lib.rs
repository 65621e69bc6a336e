//! Unified observability layer for the Landau workspace.
//!
//! Three pieces, designed to be cheap enough to leave on for every run:
//!
//! - **Spans** ([`span()`], [`span!`]): hierarchical wall-clock timing. A
//!   span guard opened inside another span becomes its child; each thread
//!   records into a private arena (no locks on the hot path) and merges
//!   into the global accumulator only when its outermost span closes.
//!   Children are keyed and reported by name, so the merged tree is
//!   deterministic regardless of how the worker pool scheduled the work.
//! - **Metrics** ([`MetricRegistry`]): typed counters (monotonic `u64`
//!   sums), gauges (`f64`, merged by max), and log₂-bucketed histograms.
//!   Snapshots merge associatively, so per-thread or per-device
//!   registries can be folded in any order.
//! - **Profiles** ([`Profile`]): one capture = span tree + metric
//!   snapshot, exportable as stable-schema JSON (`profile.json`) or a
//!   human-readable table, with a direct mapping onto the paper's
//!   Table VII component breakdown ([`Profile::table7_components`]).
//! - **Timeseries** ([`TimeSeries`], [`SeriesSink`]): step-level physics
//!   records (step index, sim time, Δt, named channels) with a stable
//!   JSON/CSV schema; pure data, available in every build configuration.
//! - **Trace export** ([`chrome_trace`], [`folded_stacks`]): the merged
//!   span forest rendered as a Chrome-Trace/Perfetto-loadable timeline
//!   (deterministic synthetic timestamps) or folded flamegraph stacks.
//! - **Journal** ([`Journal`], [`Event`]): a bounded lock-free ring of
//!   structured events (job lifecycle, recovery, degradation,
//!   checkpoints, alerts) under the stable `landau-obs-events/1` schema;
//!   full rings drop-and-count instead of blocking.
//! - **Trace context** ([`TraceCtx`], [`push_trace_ctx`]): job/tenant/
//!   slice attribution that follows work across executor and pool
//!   threads, so [`job_spans_snapshot`] yields one rooted per-job tree.
//! - **Live export** ([`openmetrics`], [`SloWatchdog`]): OpenMetrics
//!   text rendering of one consistent snapshot, plus burn-rate SLO rules
//!   that publish `alert.*` metrics and journal events.
//!
//! Recording is feature-gated (`record`, on by default) and runtime-
//! switchable ([`set_recording`]). With the feature off every call site
//! compiles to a unit value; with it on but recording disabled a span
//! costs one relaxed atomic load. Instrumentation never touches solver
//! arithmetic: fault-free runs are bitwise identical with recording on,
//! off, or compiled out.

pub mod alert;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod profile;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use alert::{AlertMode, Firing, SloRule, SloSignal, SloViolation, SloWatchdog};
pub use journal::{
    events_to_json, merge_drained, parse_events, Event, EventKind, Journal, EVENTS_SCHEMA,
};
pub use metrics::{Counter, HistogramSnapshot, MetricRegistry, MetricSnapshot};
pub use profile::{reset_global, Profile, Table7Components, PROFILE_SCHEMA};
pub use span::{
    job_spans_snapshot, push_trace_ctx, recording, reset_spans, retire_job_spans, set_recording,
    span, spans_snapshot, trace_ctx, traced_jobs, SpanGuard, SpanNode, SpanSnapshot, TraceCtx,
    TraceCtxGuard,
};
pub use timeseries::{Record, SeriesSink, TimeSeries, TIMESERIES_SCHEMA};
pub use trace::{chrome_trace, chrome_trace_deterministic, folded_stacks, job_chrome_trace};

/// Well-known span names used across the workspace, so call sites and
/// consumers (table renderers, tests) agree on spelling.
pub mod names {
    /// One guarded solver step (`TimeIntegrator::try_step`): the Table VII
    /// "Total" component.
    pub const STEP: &str = "step";
    /// One Newton iteration inside a step.
    pub const NEWTON_ITER: &str = "newton_iter";
    /// Nonlinear residual evaluation.
    pub const RESIDUAL: &str = "residual";
    /// Jacobian factorization (build + LU): the Table VII "factor" component.
    pub const FACTOR: &str = "factor";
    /// Back/forward substitution: the Table VII "solve" component.
    pub const SOLVE: &str = "solve";
    /// Full Landau operator construction: the Table VII "Landau" component.
    pub const JACOBIAN_BUILD: &str = "jacobian_build";
    /// Device-kernel portion of operator construction (inner integral +
    /// element matrices): the Table VII "(Kernel)" component.
    pub const KERNEL: &str = "kernel";
    /// Matrix assembly (scatter) portion of operator construction.
    pub const ASSEMBLY: &str = "assembly";
    /// Shifted-mass operator construction.
    pub const MASS_BUILD: &str = "mass_build";
    /// Inner Landau integral (any backend, cached or uncached).
    pub const INNER_INTEGRAL: &str = "inner_integral";
    /// Element-matrix formation from integrated coefficients.
    pub const ELEMENT_MATRICES: &str = "element_matrices";
    /// Mass element-matrix formation.
    pub const MASS_ELEMENTS: &str = "mass_elements";
    /// Element-to-global scatter (any assembly path).
    pub const SCATTER: &str = "scatter";
    /// Block-band LU factorization sweep.
    pub const LU_FACTOR: &str = "lu_factor";
    /// Block-band triangular solve sweep.
    pub const TRI_SOLVE: &str = "tri_solve";
    /// One adaptive-recovery advance (substeps + retries included).
    pub const ADAPTIVE_ADVANCE: &str = "adaptive_advance";
    /// One batched multi-vertex advance (calling thread).
    pub const BATCH_ADVANCE: &str = "batched_advance";
    /// Quench-driver equilibration phase.
    pub const EQUILIBRATION: &str = "equilibration";
    /// Quench-driver thermal-quench phase.
    pub const QUENCH: &str = "quench";
    /// One parallel sweep dispatched through `landau-par`.
    pub const PAR_SWEEP: &str = "par_sweep";
    /// One durable checkpoint frame written (encode + storage write).
    pub const CKPT_WRITE: &str = "ckpt_write";
    /// One checkpoint load/validate walk over stored generations.
    pub const CKPT_LOAD: &str = "ckpt_load";
    /// One scheduler-granted budgeted driver slice in the job server.
    pub const SERVE_SLICE: &str = "serve_slice";
    /// One driver (re)build for a submitted or resumed server job.
    pub const SERVE_BUILD: &str = "serve_build";
}

/// True when span recording is compiled in (`record` feature).
pub const fn recording_compiled() -> bool {
    cfg!(feature = "record")
}

/// Open a named timing span for the current scope:
/// `span!("jacobian_build");` records until the end of the enclosing
/// block. Expands to a hygienic guard binding, so multiple `span!`
/// invocations may share one scope (they nest in order).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _span_guard = $crate::span($name);
    };
}
