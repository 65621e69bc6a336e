//! Implicit time integration with the paper's quasi-Newton iteration.
//!
//! One step of the θ-method solves
//! `M (f^{n+1} − f^n) = Δt [ θ R(f^{n+1}) + (1−θ) R(f^n) ]` with
//! `R(f) = L(f) f + M s` (collisions + E-advection + source). The
//! quasi-Newton Jacobian freezes `D` and `K` at the current iterate
//! (`J = M − Δt θ L(f_k)`, fully recomputed each iteration, §III) and each
//! species' block solves independently with the banded LU after RCM
//! reordering (§III-G) — the paper's linearly converging, robust iteration.
//! The ordering and its band map belong to the mesh: the integrator reads
//! them from its operator's [`crate::geometry::Geometry`].

use crate::invariants::{ConservationMonitor, StepContext, Watchdog};
use crate::moments::Moments;
use crate::operator::{Jacobian, LandauOperator};
use crate::tensor_cache::TensorTable;
use landau_sparse::band::BlockBandSolver;
use landau_sparse::vecops;
use landau_vgpu::fault::{FaultKind, SITE_LU_FACTOR};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// θ-method selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThetaMethod {
    /// Backward Euler (θ = 1): the robust default.
    BackwardEuler,
    /// Crank–Nicolson (θ = ½): second order, used for accuracy studies.
    CrankNicolson,
    /// Arbitrary θ ∈ (0, 1].
    Theta(f64),
}

/// Error from [`ThetaMethod::theta_checked`]: θ outside `(0, 1]` (or not
/// finite). Carried so configuration code can report the offending value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidTheta(pub f64);

impl fmt::Display for InvalidTheta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "theta = {} outside the stable range (0, 1]", self.0)
    }
}

impl std::error::Error for InvalidTheta {}

impl ThetaMethod {
    /// Validating constructor for an arbitrary θ: invalid values surface
    /// here, at configuration time, instead of panicking mid-step.
    pub fn theta_checked(t: f64) -> Result<Self, InvalidTheta> {
        if t > 0.0 && t <= 1.0 {
            Ok(ThetaMethod::Theta(t))
        } else {
            Err(InvalidTheta(t))
        }
    }

    pub(crate) fn theta(self) -> f64 {
        match self {
            ThetaMethod::BackwardEuler => 1.0,
            ThetaMethod::CrankNicolson => 0.5,
            ThetaMethod::Theta(t) => t,
        }
    }
}

/// Where a non-finite value was first detected during a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonFiniteSite {
    /// The caller-supplied state `f^n` (before any iteration).
    State,
    /// The Newton residual `R(f_k)` (a NaN anywhere in the assembled
    /// operator or state lands here through the norm).
    Residual,
    /// The Newton update `J⁻¹ R` after the triangular solves.
    Solution,
}

/// Why an implicit step failed. Every failure of
/// [`TimeIntegrator::try_step`] is one of these, and the failing step
/// leaves `state` bitwise equal to the entry state `f^n` (the
/// transactional guarantee the recovery layer builds on).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolveError {
    /// The banded LU hit a zero pivot: `block` is the species block,
    /// `row` the pivot row within it.
    SingularJacobian {
        /// Species block index.
        block: usize,
        /// Pivot row within the block.
        row: usize,
    },
    /// The residual grew past `divergence_ratio · r0`, or the Newton
    /// budget was exhausted without any net contraction.
    NewtonDiverged {
        /// Iterations performed before the failure was declared.
        iters: usize,
        /// First residual norm.
        r0: f64,
        /// Residual norm at failure.
        r_final: f64,
    },
    /// A NaN/Inf was detected at `site`.
    NonFinite {
        /// Where the non-finite value was first seen.
        site: NonFiniteSite,
    },
    /// The residual stopped contracting (plateau) or the budget ran out
    /// while still above tolerance despite net progress.
    NewtonStalled {
        /// Iterations performed before the failure was declared.
        iters: usize,
        /// Residual norm at failure.
        r_final: f64,
    },
    /// A [`crate::invariants::ConservationMonitor`] in hard-fail mode
    /// found a conserved quantity (or the entropy inequality) drifting
    /// past its watchdog tolerance. The step is rolled back like any
    /// other failure.
    InvariantViolated {
        /// Which invariant drifted.
        which: crate::invariants::Invariant,
        /// The measured relative drift (or entropy-production deficit).
        drift: f64,
        /// Monitored step index at which it drifted.
        step: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::SingularJacobian { block, row } => {
                write!(
                    f,
                    "singular Jacobian (species block {block}, pivot row {row})"
                )
            }
            SolveError::NewtonDiverged { iters, r0, r_final } => {
                write!(
                    f,
                    "Newton diverged after {iters} iters (r0 {r0:.3e} -> {r_final:.3e})"
                )
            }
            SolveError::NonFinite { site } => write!(f, "non-finite value in {site:?}"),
            SolveError::NewtonStalled { iters, r_final } => {
                write!(
                    f,
                    "Newton stalled after {iters} iters (residual {r_final:.3e})"
                )
            }
            SolveError::InvariantViolated { which, drift, step } => {
                write!(
                    f,
                    "{which} invariant violated at monitored step {step} (relative drift {drift:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Residual-reduction factor below which an iteration counts as "no
/// progress" for stall detection (a converging quasi-Newton iteration
/// contracts far faster than this every iteration).
const STALL_REDUCTION: f64 = 0.999;

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Per-step statistics: Newton counts and the component times that Table
/// VII reports (`Landau` assembly, of which `Kernel`, `factor`, `solve`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Newton iterations performed.
    pub newton_iters: usize,
    /// Seconds in Landau matrix construction (kernel + assembly + meta).
    pub t_landau: f64,
    /// Seconds in banded LU factorization.
    pub t_factor: f64,
    /// Seconds in triangular solves.
    pub t_solve: f64,
    /// Total step seconds.
    pub t_total: f64,
    /// Final residual norm.
    pub residual: f64,
    /// True if the Newton iteration met its tolerance.
    pub converged: bool,
}

impl StepStats {
    /// Publish this step's counts into the shared registry under `prefix`
    /// (e.g. `"step"`): Newton iterations and component times as
    /// nanosecond counters, worst residual as a max-gauge. This is the
    /// unified-metrics adapter — the struct stays the cheap per-call
    /// return value, the registry carries the run-level aggregate.
    pub fn publish(&self, reg: &landau_obs::MetricRegistry, prefix: &str) {
        let ns = |s: f64| (s * 1e9) as u64;
        reg.add(&format!("{prefix}.newton_iters"), self.newton_iters as u64);
        reg.add(&format!("{prefix}.t_landau_ns"), ns(self.t_landau));
        reg.add(&format!("{prefix}.t_factor_ns"), ns(self.t_factor));
        reg.add(&format!("{prefix}.t_solve_ns"), ns(self.t_solve));
        reg.add(&format!("{prefix}.t_total_ns"), ns(self.t_total));
        reg.gauge_max(&format!("{prefix}.residual"), self.residual);
    }

    /// Accumulate another step's stats (for run totals). Counts and times
    /// add; `residual` keeps the *worst* (max) residual seen across the
    /// merged steps rather than whichever happened to merge last.
    pub fn merge(&mut self, o: &StepStats) {
        self.newton_iters += o.newton_iters;
        self.t_landau += o.t_landau;
        self.t_factor += o.t_factor;
        self.t_solve += o.t_solve;
        self.t_total += o.t_total;
        self.residual = self.residual.max(o.residual);
        self.converged &= o.converged;
    }
}

/// The implicit integrator for one [`LandauOperator`].
pub struct TimeIntegrator {
    /// The operator being advanced.
    pub op: LandauOperator,
    /// Time-step method.
    pub method: ThetaMethod,
    /// Relative Newton tolerance (on the residual norm).
    pub rtol: f64,
    /// Absolute Newton tolerance.
    pub atol: f64,
    /// Newton iteration cap.
    pub max_newton: usize,
    /// Residual growth factor over `r0` at which the iteration is declared
    /// divergent ([`SolveError::NewtonDiverged`]) without waiting for the
    /// full Newton budget.
    pub divergence_ratio: f64,
    /// Consecutive no-progress iterations (reduction worse than ×0.999)
    /// before the iteration is declared stalled
    /// ([`SolveError::NewtonStalled`]).
    pub stall_window: usize,
    /// Moment functionals (shared with drivers/diagnostics).
    pub moments: Moments,
    /// Optional conservation/entropy monitor, consulted after every
    /// successful step (see [`crate::invariants::ConservationMonitor`]).
    pub monitor: Option<ConservationMonitor>,
    /// The block solver, refilled in place every Newton iteration. Made on
    /// the first step.
    solver: Option<BlockBandSolver>,
    scratch: NewtonScratch,
}

/// Work vectors of [`TimeIntegrator::residual`], owned by the integrator
/// so that an evaluation allocates nothing.
#[derive(Default)]
struct ResidualScratch {
    /// `L(f) f`, species-major.
    lf: Vec<f64>,
    /// `f − f^n` of one species.
    df: Vec<f64>,
    /// A mass-matrix product of one species.
    mv: Vec<f64>,
}

/// Per-iteration work vectors of the solo Newton loop.
#[derive(Default)]
struct NewtonScratch {
    residual: ResidualScratch,
    /// Right-hand side, then solution, in solver ordering.
    delta: Vec<f64>,
    /// The Newton update `J⁻¹ R` in dof ordering.
    d: Vec<f64>,
}

/// Permute a species-major vector into solver ordering.
fn permute_into(perm: &[usize], x: &[f64], out: &mut [f64]) {
    let n = perm.len();
    for (xs, os) in x.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        for (o, &p) in os.iter_mut().zip(perm) {
            *o = xs[p];
        }
    }
}

/// Inverse of [`permute_into`].
fn unpermute_into(perm: &[usize], x: &[f64], out: &mut [f64]) {
    let n = perm.len();
    for (xs, os) in x.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        for (&v, &p) in xs.iter().zip(perm) {
            os[p] = v;
        }
    }
}

impl TimeIntegrator {
    /// Build an integrator for `op`, solving in its geometry's ordering.
    pub fn new(op: LandauOperator, method: ThetaMethod) -> Self {
        let moments = Moments::new(&op.space, &op.species);
        TimeIntegrator {
            op,
            method,
            rtol: 1e-8,
            atol: 1e-12,
            max_newton: 50,
            divergence_ratio: 1e4,
            stall_window: 8,
            moments,
            monitor: None,
            solver: None,
            scratch: NewtonScratch::default(),
        }
    }

    /// Dofs per species.
    pub fn n(&self) -> usize {
        self.op.n()
    }

    /// Stream the geometry's tensor table ([`LandauOperator::enable_tensor_cache`]):
    /// every subsequent [`Self::step`] then folds cached tiles through all of
    /// its Newton iterations instead of re-evaluating the Landau tensors.
    pub fn enable_tensor_cache(&mut self, budget_bytes: usize) -> Arc<TensorTable> {
        self.op.enable_tensor_cache(budget_bytes)
    }

    /// Install a [`ConservationMonitor`] with watchdog `wd`, publishing
    /// into the process-global registry. For a private registry or a
    /// timeseries sink, build the monitor directly and assign
    /// `self.monitor`.
    pub fn enable_monitoring(&mut self, wd: Watchdog) -> &mut ConservationMonitor {
        let mon = ConservationMonitor::new(&self.op, wd);
        self.monitor.insert(mon)
    }

    /// Residual `R = M(f − f^n) − Δt[θ(Lf + Ms) + (1−θ)rhs_old]`, where
    /// `rhs_old` is the explicit part (precomputed). Takes the Jacobian
    /// by reference and its work vectors from the caller's scratch.
    #[allow(clippy::too_many_arguments)]
    fn residual(
        &self,
        jac: &Jacobian,
        f: &[f64],
        fn_old: &[f64],
        source: Option<&[f64]>,
        rhs_old: Option<&[f64]>,
        dt: f64,
        theta: f64,
        out: &mut [f64],
        scratch: &mut ResidualScratch,
    ) {
        let n = self.op.n();
        let ResidualScratch { lf, df, mv } = scratch;
        lf.resize(f.len(), 0.0);
        df.resize(n, 0.0);
        mv.resize(n, 0.0);
        jac.apply(f, lf);
        for a in 0..jac.factors.len() {
            let fs = &f[a * n..(a + 1) * n];
            let fo = &fn_old[a * n..(a + 1) * n];
            for (d, (x, y)) in df.iter_mut().zip(fs.iter().zip(fo)) {
                *d = x - y;
            }
            self.op.mass.matvec_into(df, mv);
            let o = &mut out[a * n..(a + 1) * n];
            for i in 0..n {
                o[i] = mv[i] - dt * theta * lf[a * n + i];
            }
            if let Some(s) = source {
                self.op.mass.matvec_into(&s[a * n..(a + 1) * n], mv);
                for i in 0..n {
                    o[i] -= dt * theta * mv[i];
                }
            }
            if let Some(r) = rhs_old {
                for i in 0..n {
                    o[i] -= dt * (1.0 - theta) * r[a * n + i];
                }
            }
        }
    }

    /// Advance one implicit step of size `dt` at electric field `e_field`,
    /// with an optional source rate (species-major dof vector, `∂f/∂t`
    /// units). `state` is updated in place.
    ///
    /// Thin compatibility wrapper over [`Self::try_step`]: the returned
    /// [`StepStats`] carries `converged: false` on failure, and — unlike
    /// the pre-resilience integrator — `state` is restored to `f^n` rather
    /// than left at a diverged Newton iterate.
    pub fn step(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> StepStats {
        self.step_guarded(state, dt, e_field, source, 0).0
    }

    /// Transactional implicit step: like [`Self::step`] but failures are
    /// typed. Guards the entry state, the Newton residual and the solved
    /// update for NaN/Inf, detects residual divergence and stagnation, and
    /// maps LU zero pivots to [`SolveError::SingularJacobian`]. On *any*
    /// `Err`, `state` is bitwise equal to the entry state `f^n`.
    pub fn try_step(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> Result<StepStats, SolveError> {
        let (stats, failure) = self.step_guarded(state, dt, e_field, source, 0);
        match failure {
            None => Ok(stats),
            Some(e) => Err(e),
        }
    }

    /// [`Self::try_step`] with backtracking line-search damping: each
    /// Newton update `f ← f − λ J⁻¹R` halves `λ` up to `backtracks` times
    /// until the damped candidate's residual actually decreases. This is
    /// the recovery layer's cheap first retry — `backtracks == 0` is the
    /// plain (bitwise-reference) iteration.
    pub fn try_step_damped(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        backtracks: usize,
    ) -> Result<StepStats, SolveError> {
        let (stats, failure) = self.step_guarded(state, dt, e_field, source, backtracks);
        match failure {
            None => Ok(stats),
            Some(e) => Err(e),
        }
    }

    /// The guarded Newton loop behind [`Self::step`] / [`Self::try_step`]:
    /// one [`NewtonLane`] driven through the persistent
    /// [`BlockBandSolver`]. Always fills `StepStats`; on failure restores
    /// `state` to `f^n` and returns the error alongside. With
    /// `backtracks == 0` the arithmetic on the success path is identical to
    /// the historical `step`.
    fn step_guarded(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        backtracks: usize,
    ) -> (StepStats, Option<SolveError>) {
        let _sp = landau_obs::span(landau_obs::names::STEP);
        let n_total = self.op.n_total();
        assert_eq!(state.len(), n_total);
        let mut lane = NewtonLane::begin(self, state, dt, e_field, source);
        // Taken for the step so `&self` helpers can fill it; restored
        // before the lane finishes.
        let mut scratch = std::mem::take(&mut self.scratch);
        let NewtonScratch {
            residual: res_scratch,
            delta,
            d,
        } = &mut scratch;
        delta.resize(n_total, 0.0);
        d.resize(n_total, 0.0);
        while lane.enter(self.max_newton) {
            let _sp_iter = landau_obs::span(landau_obs::names::NEWTON_ITER);
            // Assemble L(f_k) — recomputed every iteration (quasi-Newton).
            let t0 = Instant::now();
            let jac = self.op.jacobian(state, e_field);
            lane.stats.t_landau += t0.elapsed().as_secs_f64();

            let rnorm = lane.residual_norm(self, &jac, state, source, res_scratch);
            if !lane.judge(self, rnorm) {
                break;
            }

            // J = M − Δt θ L(f_k), written over the previous iteration's
            // factors; factor per species block in parallel.
            let sp_factor = landau_obs::span(landau_obs::names::FACTOR);
            let t1 = Instant::now();
            let (mass, map) = (&self.op.mass, self.op.band_map());
            let solver = self
                .solver
                .get_or_insert_with(|| BlockBandSolver::from_map(map, jac.factors.len()));
            let neg_gamma = -(dt * lane.theta);
            solver.refill(map, |a, o| mass.vals[o] + neg_gamma * jac.entry(a, o));
            // Seeded fault injection (resilience tests): poison one species
            // block when an armed plan is due. Disarmed: one atomic load.
            if let Some(f) = self.op.device.poll_fault(SITE_LU_FACTOR, solver.n_blocks()) {
                if matches!(f.kind, FaultKind::SingularBlock) {
                    solver.poison_block(f.index);
                }
            }
            let factored = solver.factor();
            lane.stats.t_factor += t1.elapsed().as_secs_f64();
            drop(sp_factor);
            if let Err((block, row)) = factored {
                lane.fail(SolveError::SingularJacobian { block, row });
                break;
            }

            let sp_solve = landau_obs::span(landau_obs::names::SOLVE);
            let t2 = Instant::now();
            permute_into(self.op.perm(), &lane.r, delta);
            solver.solve_into(delta);
            lane.stats.t_solve += t2.elapsed().as_secs_f64();
            drop(sp_solve);

            // f ← f − λ J⁻¹ R.
            unpermute_into(self.op.perm(), delta, d);
            if !all_finite(d) {
                lane.fail(SolveError::NonFinite {
                    site: NonFiniteSite::Solution,
                });
                break;
            }
            let mut lambda = 1.0;
            if backtracks > 0 {
                // Backtracking line search (recovery retries only): halve λ
                // until the damped candidate's residual decreases. λ = 1
                // reproduces the plain update, so an iteration that already
                // contracts is unchanged.
                let mut cand = vec![0.0; n_total];
                let mut rt = vec![0.0; n_total];
                for bt in 0..=backtracks {
                    for (c, (s, dd)) in cand.iter_mut().zip(state.iter().zip(d.iter())) {
                        *c = s - lambda * dd;
                    }
                    if all_finite(&cand) {
                        let t0 = Instant::now();
                        let trial = self.op.jacobian(&cand, e_field);
                        lane.stats.t_landau += t0.elapsed().as_secs_f64();
                        self.residual(
                            &trial,
                            &cand,
                            &lane.fn_old,
                            source,
                            lane.rhs_old.as_deref(),
                            dt,
                            lane.theta,
                            &mut rt,
                            res_scratch,
                        );
                        let rc = vecops::norm2(&rt);
                        if rc.is_finite() && rc < rnorm {
                            break;
                        }
                    }
                    if bt < backtracks {
                        lambda *= 0.5;
                    }
                }
            }
            vecops::axpy(-lambda, d, state);
            lane.stats.newton_iters += 1;
        }
        self.scratch = scratch;
        lane.finish(self, state, e_field, source)
    }

    /// Run `nsteps` fixed steps, calling `each` after every step with
    /// `(step index, time, state, stats)`.
    pub fn run(
        &mut self,
        state: &mut [f64],
        dt: f64,
        nsteps: usize,
        e_field: f64,
        mut each: impl FnMut(usize, f64, &[f64], &StepStats),
    ) -> StepStats {
        let mut total = StepStats {
            converged: true,
            ..Default::default()
        };
        for k in 0..nsteps {
            let s = self.step(state, dt, e_field, None);
            total.merge(&s);
            each(k, (k + 1) as f64 * dt, state, &s);
        }
        total.publish(landau_obs::MetricRegistry::global(), "step");
        total
    }
}

/// One lane of the guarded quasi-Newton iteration: what the iteration
/// *decides* — the restore point, the convergence/divergence/stall ladder,
/// the Newton budget, the monitor check and the rollback — apart from the
/// linear algebra that advances it. [`TimeIntegrator::step`] drives one
/// lane through its [`BlockBandSolver`].
///
/// Protocol: [`Self::begin`], then per iteration [`Self::enter`] →
/// assemble → [`Self::residual_norm`] → [`Self::judge`] → factor/solve
/// (with [`Self::fail`] for a zero pivot or a non-finite update) → update,
/// and [`Self::finish`] once the lane is no longer [`Self::live`].
struct NewtonLane {
    /// Entry state `f^n`, the transactional restore point (empty when the
    /// entry state was non-finite: there is nothing sane to restore).
    fn_old: Vec<f64>,
    /// Explicit θ-method part `L(f^n) f^n + M s` (only for θ < 1).
    rhs_old: Option<Vec<f64>>,
    /// Residual buffer `R(f_k)`.
    r: Vec<f64>,
    dt: f64,
    theta: f64,
    r0: Option<f64>,
    prev_rnorm: f64,
    stall: usize,
    /// Loop entries consumed (the Newton budget).
    entries: usize,
    stats: StepStats,
    failure: Option<SolveError>,
    t_start: Instant,
}

impl NewtonLane {
    /// Open a step of `dt` from `state`: guard the entry state, snapshot
    /// `f^n`, and evaluate the explicit part when θ < 1.
    fn begin(
        ti: &mut TimeIntegrator,
        state: &[f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> Self {
        let theta = ti.method.theta();
        let mut lane = NewtonLane {
            fn_old: Vec::new(),
            rhs_old: None,
            r: vec![0.0; state.len()],
            dt,
            theta,
            r0: None,
            prev_rnorm: f64::INFINITY,
            stall: 0,
            entries: 0,
            stats: StepStats::default(),
            failure: None,
            t_start: Instant::now(),
        };
        if !all_finite(state) {
            lane.fail(SolveError::NonFinite {
                site: NonFiniteSite::State,
            });
            return lane;
        }
        lane.fn_old = state.to_vec();
        if theta < 1.0 {
            let t0 = Instant::now();
            let mut r = ti.op.collision_rhs(&lane.fn_old, e_field);
            lane.stats.t_landau += t0.elapsed().as_secs_f64();
            if let Some(s) = source {
                let n = ti.op.n();
                for a in 0..ti.op.species.len() {
                    let ms = ti.op.mass.matvec(&s[a * n..(a + 1) * n]);
                    for i in 0..n {
                        r[a * n + i] += ms[i];
                    }
                }
            }
            lane.rhs_old = Some(r);
        }
        lane
    }

    /// Still iterating: neither converged nor failed.
    fn live(&self) -> bool {
        self.failure.is_none() && !self.stats.converged
    }

    /// Claim the next Newton iteration. False once the lane is retired —
    /// including by this call, when the budget of `max_newton` entries is
    /// spent: the lane then fails as diverged if the residual never got
    /// under its starting norm, as stalled otherwise.
    fn enter(&mut self, max_newton: usize) -> bool {
        if !self.live() {
            return false;
        }
        if self.entries >= max_newton {
            let iters = self.stats.newton_iters;
            let r_final = self.stats.residual;
            let r0 = self.r0.unwrap_or(r_final);
            self.fail(if r_final >= r0 {
                SolveError::NewtonDiverged { iters, r0, r_final }
            } else {
                SolveError::NewtonStalled { iters, r_final }
            });
            return false;
        }
        self.entries += 1;
        true
    }

    /// Evaluate `R(f_k)` into [`Self::r`] and return its norm.
    fn residual_norm(
        &mut self,
        ti: &TimeIntegrator,
        jac: &Jacobian,
        state: &[f64],
        source: Option<&[f64]>,
        scratch: &mut ResidualScratch,
    ) -> f64 {
        let _sp = landau_obs::span(landau_obs::names::RESIDUAL);
        ti.residual(
            jac,
            state,
            &self.fn_old,
            source,
            self.rhs_old.as_deref(),
            self.dt,
            self.theta,
            &mut self.r,
            scratch,
        );
        vecops::norm2(&self.r)
    }

    /// The guard ladder on this iteration's residual norm, in order:
    /// non-finite, converged, diverged past `divergence_ratio · r0`,
    /// stalled for `stall_window` iterations. True if the iteration goes on
    /// to factor and solve; false retires the lane.
    fn judge(&mut self, ti: &TimeIntegrator, rnorm: f64) -> bool {
        self.stats.residual = rnorm;
        if !rnorm.is_finite() {
            self.fail(SolveError::NonFinite {
                site: NonFiniteSite::Residual,
            });
            return false;
        }
        let iters = self.stats.newton_iters;
        let r0 = *self.r0.get_or_insert(rnorm);
        if rnorm <= ti.atol + ti.rtol * r0 {
            self.stats.converged = true;
            return false;
        }
        if rnorm > ti.divergence_ratio * r0 {
            self.fail(SolveError::NewtonDiverged {
                iters,
                r0,
                r_final: rnorm,
            });
            return false;
        }
        if rnorm >= STALL_REDUCTION * self.prev_rnorm {
            self.stall += 1;
            if self.stall >= ti.stall_window {
                self.fail(SolveError::NewtonStalled {
                    iters,
                    r_final: rnorm,
                });
                return false;
            }
        } else {
            self.stall = 0;
        }
        self.prev_rnorm = rnorm;
        true
    }

    /// Retire the lane with `e`.
    fn fail(&mut self, e: SolveError) {
        self.failure = Some(e);
    }

    /// Close the step: a converged lane passes the invariant watchdog, a
    /// failed one is rolled back so that `state == f^n` bitwise.
    fn finish(
        mut self,
        ti: &mut TimeIntegrator,
        state: &mut [f64],
        e_field: f64,
        source: Option<&[f64]>,
    ) -> (StepStats, Option<SolveError>) {
        if self.failure.is_none() && self.stats.converged {
            // Read-only over (f^n, f^{n+1}, R), so a Record-mode monitor
            // leaves the state bitwise untouched; a Fail-mode violation
            // takes the rollback below like any other failure.
            if let Some(mut mon) = ti.monitor.take() {
                let checked = mon.after_step(
                    &ti.op,
                    &ti.moments,
                    &StepContext {
                        f_old: &self.fn_old,
                        f_new: state,
                        dt: self.dt,
                        theta: self.theta,
                        e_field,
                        source,
                        residual: &self.r,
                    },
                );
                ti.monitor = Some(mon);
                self.failure = checked.err();
            }
        }
        if self.failure.is_some() && !self.fn_old.is_empty() {
            state.copy_from_slice(&self.fn_old);
        }
        self.stats.t_total = self.t_start.elapsed().as_secs_f64();
        (self.stats, self.failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Backend;
    use crate::species::{Species, SpeciesList};
    use landau_fem::FemSpace;
    use landau_mesh::presets::{MeshSpec, RefineShell};

    fn integrator(t_ion: f64) -> TimeIntegrator {
        let sl = SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: t_ion,
            },
        ]);
        let spec = MeshSpec {
            domain_radius: 4.0,
            base_level: 1,
            shells: vec![RefineShell {
                radius: 2.0,
                max_cell_size: 0.5,
            }],
            tail_box: None,
        };
        let op = LandauOperator::new(FemSpace::new(spec.build(), 3), sl, Backend::Cpu);
        TimeIntegrator::new(op, ThetaMethod::BackwardEuler)
    }

    #[test]
    fn equilibrium_is_stationary() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        let before = state.clone();
        let s = ti.step(&mut state, 0.1, 0.0, None);
        assert!(s.converged, "residual {}", s.residual);
        // Equal-temperature Maxwellians barely move.
        let mut dmax = 0.0f64;
        let smax = before.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in state.iter().zip(&before) {
            dmax = dmax.max((a - b).abs());
        }
        assert!(dmax < 2e-3 * smax, "moved {dmax} (scale {smax})");
    }

    #[test]
    fn conservation_through_steps() {
        let mut ti = integrator(0.5); // unequal temperatures → relaxation
        let mut state = ti.op.initial_state();
        let m = &ti.moments;
        let n0: Vec<f64> = (0..2).map(|s| m.density(&state, s)).collect();
        let p0 = m.total_z_momentum(&state);
        let e0 = m.total_energy(&state);
        for _ in 0..5 {
            let s = ti.step(&mut state, 0.2, 0.0, None);
            assert!(s.converged);
        }
        let m = &ti.moments;
        for (s, n) in n0.iter().enumerate() {
            let dn = (m.density(&state, s) - n).abs();
            assert!(dn < 1e-9, "species {s} density drift {dn}");
        }
        let dp = (m.total_z_momentum(&state) - p0).abs();
        let de = (m.total_energy(&state) - e0).abs() / e0.abs();
        assert!(dp < 1e-8, "momentum drift {dp}");
        assert!(de < 1e-7, "energy drift {de}");
    }

    #[test]
    fn temperatures_equilibrate() {
        let mut ti = integrator(0.5);
        let mut state = ti.op.initial_state();
        let te0 = ti.moments.temperature(&state, 0);
        let tion0 = ti.moments.temperature(&state, 1);
        assert!(te0 > tion0);
        // A few collision times of relaxation.
        for _ in 0..10 {
            ti.step(&mut state, 0.5, 0.0, None);
        }
        let te1 = ti.moments.temperature(&state, 0);
        let tion1 = ti.moments.temperature(&state, 1);
        assert!(te1 < te0, "electrons must cool: {te0} → {te1}");
        assert!(tion1 > tion0, "ions must heat: {tion0} → {tion1}");
    }

    #[test]
    fn e_field_drives_current() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        assert!(ti.moments.current_jz(&state).abs() < 1e-8);
        for _ in 0..4 {
            let s = ti.step(&mut state, 0.25, 0.05, None);
            assert!(s.converged);
        }
        let j = ti.moments.current_jz(&state);
        assert!(j > 1e-4, "E>0 must drive positive current, J = {j}");
    }

    #[test]
    fn source_injects_mass() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        let n = ti.op.n();
        // Cold electron+ion source, rate 0.5/unit time.
        let cold = Species {
            name: "cold".into(),
            mass: 1.0,
            charge: -1.0,
            density: 0.5,
            temperature: 0.2,
        };
        let mut src = vec![0.0; state.len()];
        let v = ti.op.space.interpolate(|r, z| cold.maxwellian(r, z, 0.0));
        src[..n].copy_from_slice(&v);
        let n_before = ti.moments.density(&state, 0);
        let s = ti.step(&mut state, 0.2, 0.0, Some(&src));
        assert!(s.converged);
        let n_after = ti.moments.density(&state, 0);
        assert!(
            (n_after - n_before - 0.2 * 0.5).abs() < 1e-3,
            "Δn = {}",
            n_after - n_before
        );
    }

    #[test]
    fn crank_nicolson_matches_be_direction() {
        let mut be = integrator(0.5);
        let mut cn = integrator(0.5);
        cn.method = ThetaMethod::CrankNicolson;
        let mut s1 = be.op.initial_state();
        let mut s2 = s1.clone();
        be.step(&mut s1, 0.1, 0.0, None);
        cn.step(&mut s2, 0.1, 0.0, None);
        // Both cool the electrons.
        assert!(be.moments.temperature(&s1, 0) < 1.0);
        assert!(cn.moments.temperature(&s2, 0) < 1.0);
        // And agree to first order.
        let d: f64 = s1
            .iter()
            .zip(&s2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = s1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(d < 0.05 * scale, "methods diverged: {d} vs {scale}");
    }

    /// Drive one lane through a script of residual norms, the way both
    /// steppers drive it, with every iteration nudging the state so that a
    /// rollback is visible. Returns the lane's verdict and whether `state`
    /// ended bitwise at `f^n`.
    fn run_lane(ti: &mut TimeIntegrator, norms: &[f64]) -> (StepStats, Option<SolveError>, bool) {
        let mut state = ti.op.initial_state();
        let f_n = state.clone();
        let mut lane = NewtonLane::begin(ti, &state, 0.1, 0.0, None);
        let mut script = norms.iter();
        while lane.enter(ti.max_newton) {
            let &rnorm = script.next().expect("script shorter than the budget");
            if !lane.judge(ti, rnorm) {
                break;
            }
            state[0] *= 1.5;
            lane.stats.newton_iters += 1;
        }
        let (stats, failure) = lane.finish(ti, &mut state, 0.0, None);
        let restored = state
            .iter()
            .zip(&f_n)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        (stats, failure, restored)
    }

    #[test]
    fn newton_lane_ladder() {
        use SolveError::*;
        let mut ti = integrator(1.0);
        ti.stall_window = 3;
        let nan = NonFinite {
            site: NonFiniteSite::Residual,
        };
        let diverged = |iters, r_final| NewtonDiverged {
            iters,
            r0: 1.0,
            r_final,
        };
        let stalled = |iters, r_final| NewtonStalled { iters, r_final };
        // (what, Newton budget, residual norms, expected failure)
        let table: &[(&str, usize, &[f64], Option<SolveError>)] = &[
            ("converged at iteration 0", 12, &[1e-13], None),
            ("converged by rtol", 12, &[1.0, 1e-3, 1e-9], None),
            ("non-finite residual", 12, &[1.0, f64::NAN], Some(nan)),
            ("infinite residual", 12, &[f64::INFINITY], Some(nan)),
            // `divergence_ratio · r0` itself is tolerated; past it is not.
            (
                "diverged past the ratio",
                12,
                &[1.0, 1e4, 1.0001e4],
                Some(diverged(2, 1.0001e4)),
            ),
            // The first norm has nothing to stall against; the third
            // no-progress norm in a row fills the window of 3.
            (
                "stalled exactly at the window",
                12,
                &[1.0, 1.0, 0.9995, 0.9999],
                Some(stalled(3, 0.9999)),
            ),
            (
                "a contraction resets the stall count",
                12,
                &[1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1e-13],
                None,
            ),
            (
                "budget spent above r0: diverged",
                2,
                &[1.0, 2.0],
                Some(diverged(2, 2.0)),
            ),
            (
                "budget spent at r0: diverged",
                2,
                &[1.0, 1.0],
                Some(diverged(2, 1.0)),
            ),
            (
                "budget spent under r0: stalled",
                2,
                &[1.0, 0.5],
                Some(stalled(2, 0.5)),
            ),
        ];
        for &(what, budget, norms, ref expect) in table {
            ti.max_newton = budget;
            let (stats, failure, restored) = run_lane(&mut ti, norms);
            assert_eq!(&failure, expect, "{what}");
            assert_eq!(stats.converged, expect.is_none(), "{what}");
            // A failed lane is back at f^n bitwise; a converged one keeps
            // its iterate (identical to f^n only if it never moved).
            let moved = stats.newton_iters > 0;
            assert_eq!(restored, expect.is_some() || !moved, "{what}");
        }
    }

    #[test]
    fn newton_lane_without_a_finite_entry_state_has_nothing_to_restore() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        state[3] = f64::NAN;
        let entry: Vec<u64> = state.iter().map(|x| x.to_bits()).collect();
        let mut lane = NewtonLane::begin(&mut ti, &state, 0.1, 0.0, None);
        assert!(!lane.live());
        assert!(!lane.enter(ti.max_newton), "a failed lane claims nothing");
        assert!(lane.fn_old.is_empty(), "no restore point was taken");
        let (stats, failure) = lane.finish(&mut ti, &mut state, 0.0, None);
        assert_eq!(
            failure,
            Some(SolveError::NonFinite {
                site: NonFiniteSite::State
            })
        );
        assert!(!stats.converged);
        let after: Vec<u64> = state.iter().map(|x| x.to_bits()).collect();
        assert_eq!(after, entry, "the caller's state is left as it came");
    }

    #[test]
    fn newton_lane_monitor_violation_rolls_back_bitwise() {
        let mut ti = integrator(1.0);
        ti.enable_monitoring(Watchdog::failing());
        let mut state = ti.op.initial_state();
        let f_n = state.clone();
        let mut lane = NewtonLane::begin(&mut ti, &state, 0.1, 0.0, None);
        assert!(lane.enter(ti.max_newton));
        // A "converged" iterate that lost a third of its electrons.
        let n = ti.op.n();
        for x in &mut state[..n] {
            *x *= 2.0 / 3.0;
        }
        assert!(!lane.judge(&ti, 1e-13));
        let (stats, failure) = lane.finish(&mut ti, &mut state, 0.0, None);
        assert!(stats.converged, "the Newton iteration itself converged");
        assert!(
            matches!(
                failure,
                Some(SolveError::InvariantViolated {
                    which: crate::invariants::Invariant::Mass,
                    ..
                })
            ),
            "{failure:?}"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&state), bits(&f_n));
        assert!(ti.monitor.is_some(), "the monitor is handed back");
    }

    #[test]
    fn rcm_bandwidth_is_modest() {
        let ti = integrator(1.0);
        // Band solver practicality: bandwidth far below n.
        assert!(
            ti.op.bandwidth() * 3 < ti.n(),
            "bandwidth {} vs n {}",
            ti.op.bandwidth(),
            ti.n()
        );
    }
}
