//! A minimal work-stealing async runtime on `std` alone.
//!
//! The workspace is hermetic (no external crates), so the service layer
//! carries its own executor instead of tokio. It is deliberately small:
//!
//! - **Tasks** are `Pin<Box<dyn Future<Output = ()> + Send>>` wrapped in
//!   an [`Arc`]; waking re-enqueues the task through [`std::task::Wake`],
//!   with a `queued` flag so concurrent wakes collapse into one enqueue.
//! - **Workers** each own a local deque. A task woken *from* a worker
//!   lands at the front of that worker's deque (run-next, cache-warm);
//!   wakes from foreign threads go to the shared injector. An idle worker
//!   drains its own deque, then the injector, then **steals from the back
//!   of sibling deques** — the classic work-stealing shape, which is what
//!   keeps one tenant's long slice from pinning every queued control
//!   future behind it.
//! - **`block_on`** drives a future on the calling thread with a
//!   condvar-parked waker, so tests and binaries need no worker just to
//!   wait.
//!
//! Run slices executed inside tasks may block their worker for the slice
//! duration; the inner data parallelism still goes through the persistent
//! `landau-par` pool. The executor only multiplexes *jobs*, the pool
//! multiplexes *elements* — see `DESIGN.md` §16.

use landau_obs::TraceCtx;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Lock helper that survives a poisoned mutex (a panicking task must not
/// wedge the whole executor).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One spawned task: the future plus its re-enqueue bookkeeping.
struct Task {
    future: Mutex<Option<BoxFuture>>,
    /// Collapses concurrent wakes: only the transition false→true enqueues.
    queued: AtomicBool,
    exec: Arc<ExecState>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.exec.clone().enqueue(self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.exec.clone().enqueue(self.clone());
    }
}

/// Shared executor state: injector + per-worker deques + sleep/wake.
struct ExecState {
    injector: Mutex<VecDeque<Arc<Task>>>,
    locals: Vec<Mutex<VecDeque<Arc<Task>>>>,
    /// Pairs with `injector` for sleeping workers.
    idle: Condvar,
    shutdown: AtomicBool,
    /// Tasks spawned and not yet finished (drain barrier).
    live: AtomicUsize,
    /// Steal events observed (exported as `serve.rt.steals`).
    steals: AtomicUsize,
}

thread_local! {
    /// Worker index when the current thread is an executor worker.
    static WORKER_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

impl ExecState {
    fn enqueue(self: Arc<Self>, task: Arc<Task>) {
        if task.queued.swap(true, Ordering::AcqRel) {
            return; // already queued; the pending poll will see the wake
        }
        let local = WORKER_ID.with(|w| w.get());
        match local {
            // Wakes from inside a worker go run-next on that worker.
            Some(id) if id < self.locals.len() => lock(&self.locals[id]).push_front(task),
            _ => lock(&self.injector).push_back(task),
        }
        self.idle.notify_one();
    }

    /// Next task for worker `id`: local front, injector front, then steal
    /// from the back of sibling deques (lowest index first, so the victim
    /// order is deterministic).
    fn next_task(&self, id: usize) -> Option<Arc<Task>> {
        if let Some(t) = lock(&self.locals[id]).pop_front() {
            return Some(t);
        }
        if let Some(t) = lock(&self.injector).pop_front() {
            return Some(t);
        }
        for (victim, deque) in self.locals.iter().enumerate() {
            if victim == id {
                continue;
            }
            if let Some(t) = lock(deque).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }
}

fn worker_loop(exec: Arc<ExecState>, id: usize) {
    WORKER_ID.with(|w| w.set(Some(id)));
    loop {
        let task = match exec.next_task(id) {
            Some(t) => t,
            None => {
                if exec.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Sleep on the injector; the timeout bounds how stale a
                // sibling-deque steal opportunity can go unnoticed.
                let guard = lock(&exec.injector);
                let _ = exec.idle.wait_timeout(guard, Duration::from_micros(500));
                continue;
            }
        };
        // Clear `queued` *before* polling: a wake that lands mid-poll must
        // re-enqueue, or the task would sleep through its own readiness.
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        let mut slot = lock(&task.future);
        if let Some(fut) = slot.as_mut() {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    *slot = None;
                    exec.live.fetch_sub(1, Ordering::AcqRel);
                    exec.idle.notify_all();
                }
                Poll::Pending => {}
            }
        }
    }
}

/// The work-stealing executor: `workers` OS threads driving spawned tasks.
pub struct Runtime {
    exec: Arc<ExecState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Start a runtime with `workers >= 1` worker threads.
    pub fn new(workers: usize) -> Runtime {
        let workers = workers.max(1);
        let exec = Arc::new(ExecState {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|i| {
                let exec = exec.clone();
                std::thread::Builder::new()
                    .name(format!("landau-serve-{i}"))
                    .spawn(move || worker_loop(exec, i))
                    .expect("spawn landau-serve worker")
            })
            .collect();
        Runtime { exec, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Cross-worker steal events so far (how often the balancing path ran).
    pub fn steal_count(&self) -> usize {
        self.exec.steals.load(Ordering::Relaxed)
    }

    /// Spawn a future onto the executor, returning a handle that resolves
    /// to its output.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let state = Arc::new(Mutex::new(JoinState::<T> {
            result: None,
            waker: None,
        }));
        let st = state.clone();
        let wrapped = async move {
            let out = fut.await;
            let waker = {
                let mut s = lock(&st);
                s.result = Some(out);
                s.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        };
        self.exec.live.fetch_add(1, Ordering::AcqRel);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(false),
            exec: self.exec.clone(),
        });
        self.exec.clone().enqueue(task);
        JoinHandle { state }
    }

    /// Spawn a future that carries a job's [`TraceCtx`]: the context is
    /// installed around **every poll**, so it follows the task across
    /// worker threads and steals, and any spans (or journal events) the
    /// poll records attribute to the job no matter which worker ran it.
    pub fn spawn_traced<T, F>(&self, ctx: TraceCtx, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.spawn(Traced {
            ctx,
            inner: Box::pin(fut),
        })
    }

    /// Block the calling thread until every spawned task has finished.
    /// (The service uses this to drain in-flight jobs at shutdown.)
    pub fn wait_idle(&self) {
        while self.exec.live.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.exec.shutdown.store(true, Ordering::Release);
        self.exec.idle.notify_all();
        // The last owner can be dropped on one of the workers: a job task
        // holding the last server handle finishes there. That worker leaves
        // its loop by itself once the task returns; joining it from itself
        // fails with EDEADLK, which `join` raises as a panic.
        let me = std::thread::current().id();
        for t in self.threads.drain(..) {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

/// Future wrapper that installs a [`TraceCtx`] for the duration of each
/// poll (see [`Runtime::spawn_traced`]). Boxing the inner future keeps
/// the wrapper `Unpin` without unsafe pin projection.
struct Traced<F> {
    ctx: TraceCtx,
    inner: Pin<Box<F>>,
}

impl<F: Future> Future for Traced<F> {
    type Output = F::Output;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let _ctx = landau_obs::push_trace_ctx(Some(this.ctx.clone()));
        this.inner.as_mut().poll(cx)
    }
}

/// Result slot shared between a spawned task and its [`JoinHandle`].
struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Awaitable handle to a spawned task's output.
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// True once the task has produced its output.
    pub fn is_finished(&self) -> bool {
        lock(&self.state).result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = lock(&self.state);
        if let Some(out) = s.result.take() {
            return Poll::Ready(out);
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Condvar-parked waker for [`block_on`].
struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        *lock(&self.woken) = true;
        self.cv.notify_one();
    }
}

/// Drive `fut` to completion on the calling thread.
pub fn block_on<T, F: Future<Output = T>>(fut: F) -> T {
    let parker = Arc::new(Parker {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        let mut woken = lock(&parker.woken);
        while !*woken {
            woken = parker
                .cv
                .wait_timeout(woken, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *woken = false;
    }
}

/// Cooperative yield: reschedules the current task once, letting siblings
/// (and stealers) run. Used between job slices.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawn_and_join_many() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..256u64)
            .map(|i| {
                let c = counter.clone();
                rt.spawn(async move {
                    yield_now().await;
                    c.fetch_add(i, Ordering::Relaxed);
                    i * 2
                })
            })
            .collect();
        let mut total = 0;
        for h in handles {
            total += block_on(h);
        }
        assert_eq!(total, (0..256u64).map(|i| i * 2).sum());
        assert_eq!(counter.load(Ordering::Relaxed), (0..256u64).sum());
    }

    #[test]
    fn block_on_plain_future() {
        assert_eq!(block_on(async { 7 + 35 }), 42);
    }

    #[test]
    fn traced_tasks_carry_their_context_across_polls() {
        let rt = Runtime::new(2);
        let handles: Vec<_> = (0..16u64)
            .map(|job| {
                let ctx = TraceCtx::new(job, Arc::from("acme"));
                rt.spawn_traced(ctx, async move {
                    let before = landau_obs::trace_ctx().map(|c| c.job);
                    // Re-polls may land on a different worker; the
                    // context must follow the task, not the thread.
                    yield_now().await;
                    yield_now().await;
                    let after = landau_obs::trace_ctx().map(|c| c.job);
                    (before, after)
                })
            })
            .collect();
        for (job, h) in (0..16u64).zip(handles) {
            assert_eq!(block_on(h), (Some(job), Some(job)));
        }
    }

    #[test]
    fn blocked_worker_does_not_wedge_the_runtime() {
        // One task holds a worker hostage; the other workers must still
        // drain the queue (by stealing or injector pulls).
        let rt = Runtime::new(3);
        let gate = Arc::new(AtomicBool::new(false));
        let g = gate.clone();
        let blocker = rt.spawn(async move {
            while !g.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let others: Vec<_> = (0..64).map(|i| rt.spawn(async move { i })).collect();
        let sum: usize = others.into_iter().map(block_on).sum();
        assert_eq!(sum, (0..64).sum());
        gate.store(true, Ordering::Release);
        block_on(blocker);
    }

    #[test]
    fn last_owner_dropped_on_a_worker_does_not_join_itself() {
        // A task holds the last owner of the runtime, as a job task holds
        // the last `QuenchServer` once every client handle is gone, so
        // `Runtime::drop` runs on one of its own workers. It must stop the
        // others without joining the thread it runs on.
        let rt = Arc::new(Runtime::new(2));
        let owner = Arc::clone(&rt);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        rt.spawn(async move {
            go_rx.recv().expect("test thread alive");
            drop(owner);
            let _ = done_tx.send(());
        });
        drop(rt);
        go_tx.send(()).expect("task alive");
        assert!(
            done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "dropping the last runtime owner on a worker panicked or hung"
        );
    }

    #[test]
    fn wait_idle_sees_all_tasks_finish() {
        let rt = Runtime::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let d = done.clone();
            rt.spawn(async move {
                yield_now().await;
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }
}
