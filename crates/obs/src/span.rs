//! Hierarchical timing spans with per-thread recording.
//!
//! Opening a [`span`] inside another span makes it a child; each thread
//! accumulates its own arena of `(name, count, total_ns)` nodes and only
//! touches the global accumulator when its *outermost* span closes — one
//! mutex acquisition per root span, none per nested span. The merged
//! tree keys children by name and keeps them name-sorted, so the
//! reported shape is deterministic no matter how the persistent worker
//! pool interleaved the threads.
//!
//! Recording is compiled out entirely without the `record` feature and
//! can be toggled at runtime with [`set_recording`]; a span opened while
//! recording is off costs one relaxed atomic load and records nothing.
//!
//! # Trace context
//!
//! A thread may carry a [`TraceCtx`] (installed with [`push_trace_ctx`],
//! restored on guard drop). When a thread's outermost span closes, its
//! arena is folded into the bucket keyed by the context's job id — or
//! the unattributed bucket when no context is installed. This is how
//! spans recorded on different executor workers, different `landau-par`
//! pool threads, and different sides of a kill/resume all stitch into
//! one per-job tree ([`job_spans_snapshot`]) instead of a forest of
//! orphan fragments. [`spans_snapshot`] still merges every bucket, so
//! whole-process consumers (profiles, Table VII) see the union.

use std::sync::Arc;

/// Job-scoped trace context: identifies which job (and which budgeted
/// slice of it) the current thread is doing work for. Cloned freely —
/// two `u64`s and an `Arc` bump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Server-assigned job id (stable across kill/resume).
    pub job: u64,
    /// Owning tenant.
    pub tenant: Arc<str>,
    /// Zero-based budgeted-slice index within the job.
    pub slice: u64,
}

impl TraceCtx {
    /// Context for `job` owned by `tenant`, starting at slice 0.
    pub fn new(job: u64, tenant: Arc<str>) -> TraceCtx {
        TraceCtx {
            job,
            tenant,
            slice: 0,
        }
    }

    /// The same context pointed at slice `slice`.
    pub fn at_slice(&self, slice: u64) -> TraceCtx {
        TraceCtx {
            slice,
            ..self.clone()
        }
    }
}

/// One aggregated node in a merged span tree. `children` is sorted by
/// name, which makes snapshots comparable with `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanNode {
    /// Span name (as passed to [`span`]).
    pub name: String,
    /// Number of times a span with this name closed at this tree position.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closings.
    pub total_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total recorded time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Look up a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.children[i])
    }

    fn merge_from(&mut self, other: &SpanNode) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for c in &other.children {
            merge_into(&mut self.children, c);
        }
    }

    fn sum_named(&self, name: &str, count: &mut u64, total_ns: &mut u64) {
        if self.name == name {
            *count += self.count;
            *total_ns += self.total_ns;
        }
        for c in &self.children {
            c.sum_named(name, count, total_ns);
        }
    }

    fn shape_into(&self, prefix: &str, out: &mut Vec<(String, u64)>) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}/{}", self.name)
        };
        out.push((path.clone(), self.count));
        for c in &self.children {
            c.shape_into(&path, out);
        }
    }
}

fn merge_into(dst: &mut Vec<SpanNode>, node: &SpanNode) {
    match dst.binary_search_by(|c| c.name.as_str().cmp(node.name.as_str())) {
        Ok(i) => dst[i].merge_from(node),
        Err(i) => dst.insert(i, node.clone()),
    }
}

/// A point-in-time copy of the merged span forest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanSnapshot {
    /// Root spans (spans opened with no enclosing span), sorted by name.
    pub roots: Vec<SpanNode>,
}

impl SpanSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Fold another snapshot into this one. Associative and commutative,
    /// like the underlying per-thread merges.
    pub fn merge(&mut self, other: &SpanSnapshot) {
        for r in &other.roots {
            merge_into(&mut self.roots, r);
        }
    }

    /// Look up a root span by name.
    pub fn root(&self, name: &str) -> Option<&SpanNode> {
        self.roots
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.roots[i])
    }

    /// Total seconds recorded under `name`, summed over every tree
    /// position where that name appears (any depth, any root).
    pub fn total_seconds_of(&self, name: &str) -> f64 {
        let (mut count, mut ns) = (0u64, 0u64);
        for r in &self.roots {
            r.sum_named(name, &mut count, &mut ns);
        }
        ns as f64 * 1e-9
    }

    /// Total close count for `name`, summed over every tree position.
    pub fn count_of(&self, name: &str) -> u64 {
        let (mut count, mut ns) = (0u64, 0u64);
        for r in &self.roots {
            r.sum_named(name, &mut count, &mut ns);
        }
        count
    }

    /// Flattened `(path, count)` listing in deterministic DFS order —
    /// the timing-free "shape" of the forest, used by determinism tests.
    pub fn shape(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for r in &self.roots {
            r.shape_into("", &mut out);
        }
        out
    }
}

#[cfg(feature = "record")]
mod rec {
    use super::{merge_into, SpanNode, SpanSnapshot, TraceCtx};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// The global accumulator, bucketed by job id. Threads with no
    /// installed [`TraceCtx`] flush into `unattributed`.
    struct Forest {
        unattributed: Vec<SpanNode>,
        jobs: BTreeMap<u64, Vec<SpanNode>>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(true);
    static GLOBAL: Mutex<Forest> = Mutex::new(Forest {
        unattributed: Vec::new(),
        jobs: BTreeMap::new(),
    });

    struct Node {
        name: &'static str,
        count: u64,
        total_ns: u64,
        children: Vec<usize>,
    }

    struct Local {
        /// Arena; `nodes[0]` is a synthetic root that is never reported.
        nodes: Vec<Node>,
        /// Indices of currently open spans, outermost first.
        stack: Vec<usize>,
    }

    impl Local {
        fn fresh() -> Local {
            Local {
                nodes: vec![Node {
                    name: "",
                    count: 0,
                    total_ns: 0,
                    children: Vec::new(),
                }],
                stack: Vec::new(),
            }
        }

        fn to_tree(&self, idx: usize) -> SpanNode {
            let n = &self.nodes[idx];
            let mut children: Vec<SpanNode> = n.children.iter().map(|&c| self.to_tree(c)).collect();
            children.sort_by(|a, b| a.name.cmp(&b.name));
            SpanNode {
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                children,
            }
        }
    }

    thread_local! {
        static LOCAL: RefCell<Local> = RefCell::new(Local::fresh());
        static CTX: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
    }

    fn global_lock() -> std::sync::MutexGuard<'static, Forest> {
        // A panicking test thread may poison the lock; the data (plain
        // counters) is still structurally sound, so keep going.
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The trace context currently installed on this thread, if any.
    pub fn trace_ctx() -> Option<TraceCtx> {
        CTX.with(|c| c.borrow().clone())
    }

    /// RAII guard returned by [`push_trace_ctx`]; restores the previous
    /// context on drop.
    #[must_use = "the context is popped when the guard drops"]
    pub struct TraceCtxGuard {
        prev: Option<TraceCtx>,
        // Not Send: the guard must pop on the thread that pushed.
        _not_send: PhantomData<*const ()>,
    }

    /// Install `ctx` as this thread's trace context until the returned
    /// guard drops (`None` explicitly clears it — used by pool workers
    /// between jobs). Nests: dropping restores whatever was installed
    /// before.
    pub fn push_trace_ctx(ctx: Option<TraceCtx>) -> TraceCtxGuard {
        let prev = CTX.with(|c| c.replace(ctx));
        TraceCtxGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    impl Drop for TraceCtxGuard {
        fn drop(&mut self) {
            let prev = self.prev.take();
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }

    /// Enable or disable span recording at runtime (process-wide).
    pub fn set_recording(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// True when spans are currently being recorded.
    pub fn recording() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Clear the global accumulator (open spans on other threads will
    /// flush post-reset data when their roots close).
    pub fn reset_spans() {
        let mut g = global_lock();
        g.unattributed.clear();
        g.jobs.clear();
    }

    /// Snapshot the merged span forest across every bucket — the
    /// whole-process union (unattributed work plus all jobs). Spans
    /// still open (anywhere) have not been flushed yet; capture between
    /// root spans for full trees.
    pub fn spans_snapshot() -> SpanSnapshot {
        let g = global_lock();
        let mut roots = g.unattributed.clone();
        for bucket in g.jobs.values() {
            for r in bucket {
                merge_into(&mut roots, r);
            }
        }
        SpanSnapshot { roots }
    }

    /// Snapshot only the spans attributed to `job` — work recorded on
    /// any thread while that job's [`TraceCtx`] was installed, across
    /// all of its slices (including post-resume ones).
    pub fn job_spans_snapshot(job: u64) -> SpanSnapshot {
        SpanSnapshot {
            roots: global_lock().jobs.get(&job).cloned().unwrap_or_default(),
        }
    }

    /// Job ids that currently have attributed spans, ascending.
    pub fn traced_jobs() -> Vec<u64> {
        global_lock().jobs.keys().copied().collect()
    }

    /// Fold `job`'s bucket into the unattributed forest and forget the
    /// id: [`spans_snapshot`] is unchanged, [`job_spans_snapshot`] turns
    /// empty. For owners of job ids whose last reader has gone, so a
    /// long-lived process does not keep one tree per job it ever ran.
    pub fn retire_job_spans(job: u64) {
        let mut g = global_lock();
        for r in g.jobs.remove(&job).unwrap_or_default() {
            merge_into(&mut g.unattributed, &r);
        }
    }

    /// RAII guard returned by [`span`]; records on drop.
    #[must_use = "a span records when the guard drops; bind it with `let _sp = span(..)`"]
    pub struct SpanGuard {
        open: Option<(usize, Instant)>,
        // Neither Send nor Sync: the guard must close on the thread that
        // opened it, because the arena is thread-local.
        _not_send: PhantomData<*const ()>,
    }

    /// Open a named span; it closes (and records) when the guard drops.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return SpanGuard {
                open: None,
                _not_send: PhantomData,
            };
        }
        let idx = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let parent = *l.stack.last().unwrap_or(&0);
            let found = l.nodes[parent]
                .children
                .iter()
                .copied()
                .find(|&c| std::ptr::eq(l.nodes[c].name, name) || l.nodes[c].name == name);
            let idx = match found {
                Some(i) => i,
                None => {
                    let i = l.nodes.len();
                    l.nodes.push(Node {
                        name,
                        count: 0,
                        total_ns: 0,
                        children: Vec::new(),
                    });
                    l.nodes[parent].children.push(i);
                    i
                }
            };
            l.stack.push(idx);
            idx
        });
        SpanGuard {
            open: Some((idx, Instant::now())),
            _not_send: PhantomData,
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some((idx, t0)) = self.open.take() else {
                return;
            };
            let ns = t0.elapsed().as_nanos() as u64;
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.nodes[idx].count += 1;
                l.nodes[idx].total_ns += ns;
                l.stack.pop();
                if l.stack.is_empty() {
                    // Outermost span closed: fold this thread's tree into
                    // the bucket named by the installed trace context (or
                    // the unattributed pile) and start a fresh arena.
                    let roots: Vec<SpanNode> =
                        l.nodes[0].children.iter().map(|&c| l.to_tree(c)).collect();
                    *l = Local::fresh();
                    let job = CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.job));
                    let mut g = global_lock();
                    let bucket = match job {
                        Some(j) => g.jobs.entry(j).or_default(),
                        None => &mut g.unattributed,
                    };
                    for r in roots {
                        merge_into(bucket, &r);
                    }
                }
            });
        }
    }
}

#[cfg(not(feature = "record"))]
mod rec {
    use super::{SpanSnapshot, TraceCtx};
    use std::marker::PhantomData;

    /// No-op without the `record` feature.
    pub fn set_recording(_on: bool) {}

    /// Always false without the `record` feature.
    pub fn recording() -> bool {
        false
    }

    /// No-op without the `record` feature.
    pub fn reset_spans() {}

    /// Always empty without the `record` feature.
    pub fn spans_snapshot() -> SpanSnapshot {
        SpanSnapshot::default()
    }

    /// Always empty without the `record` feature.
    pub fn job_spans_snapshot(_job: u64) -> SpanSnapshot {
        SpanSnapshot::default()
    }

    /// Always empty without the `record` feature.
    pub fn traced_jobs() -> Vec<u64> {
        Vec::new()
    }

    /// No-op without the `record` feature.
    pub fn retire_job_spans(_job: u64) {}

    /// Always `None` without the `record` feature.
    pub fn trace_ctx() -> Option<TraceCtx> {
        None
    }

    /// Unit guard compiled when recording is off.
    #[must_use = "the context is popped when the guard drops"]
    pub struct TraceCtxGuard {
        _not_send: PhantomData<*const ()>,
    }

    /// Compiles to nothing without the `record` feature.
    pub fn push_trace_ctx(_ctx: Option<TraceCtx>) -> TraceCtxGuard {
        TraceCtxGuard {
            _not_send: PhantomData,
        }
    }

    /// Unit guard compiled when recording is off.
    #[must_use = "a span records when the guard drops; bind it with `let _sp = span(..)`"]
    pub struct SpanGuard {
        _not_send: PhantomData<*const ()>,
    }

    /// Compiles to nothing without the `record` feature.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard {
            _not_send: PhantomData,
        }
    }
}

pub use rec::{
    job_spans_snapshot, push_trace_ctx, recording, reset_spans, retire_job_spans, set_recording,
    span, spans_snapshot, trace_ctx, traced_jobs, SpanGuard, TraceCtxGuard,
};

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state with the integration suite,
    // so unit tests here stick to the pure tree types.

    fn node(name: &str, count: u64, ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            count,
            total_ns: ns,
            children,
        }
    }

    #[test]
    fn merge_is_associative_on_trees() {
        let a = SpanSnapshot {
            roots: vec![node("s", 1, 10, vec![node("k", 2, 4, vec![])])],
        };
        let b = SpanSnapshot {
            roots: vec![node("s", 1, 5, vec![node("f", 1, 1, vec![])])],
        };
        let c = SpanSnapshot {
            roots: vec![node("t", 3, 7, vec![])],
        };
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let s = ab_c.root("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 15);
        assert_eq!(s.children.len(), 2);
        assert_eq!(s.children[0].name, "f");
    }

    #[test]
    fn sum_named_spans_all_depths() {
        let snap = SpanSnapshot {
            roots: vec![
                node("a", 1, 1000, vec![node("x", 2, 300, vec![])]),
                node("x", 1, 700, vec![]),
            ],
        };
        assert_eq!(snap.count_of("x"), 3);
        assert!((snap.total_seconds_of("x") - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn shape_lists_paths_in_dfs_order() {
        let snap = SpanSnapshot {
            roots: vec![node(
                "s",
                1,
                0,
                vec![node("a", 2, 0, vec![]), node("b", 1, 0, vec![])],
            )],
        };
        let shape = snap.shape();
        assert_eq!(
            shape,
            vec![
                ("s".to_string(), 1),
                ("s/a".to_string(), 2),
                ("s/b".to_string(), 1)
            ]
        );
    }
}
