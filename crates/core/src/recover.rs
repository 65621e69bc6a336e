//! Adaptive-step recovery around the transactional integrator.
//!
//! [`TimeIntegrator::try_step`] gives a hard guarantee: a failed step
//! returns a typed [`SolveError`] with `state` bitwise restored to `f^n`.
//! [`AdaptiveStepper`] builds the recovery *policy* on top of that
//! transaction, in escalating order of cost:
//!
//! 1. **Damped retry** — re-attempt the same `Δt` with backtracking
//!    line-search damping on the Newton update (extra residual
//!    evaluations only; no new factorization structure);
//! 2. **Δt halving** — shrink the substep and cover the requested
//!    interval in pieces, bounded by a retry budget and a floor on the
//!    step fraction;
//! 3. **Δt re-growth** — after a streak of easy converges, double the
//!    substep back toward the nominal `Δt` so a transient stiff phase
//!    (the quench's exponential temperature drop) does not permanently
//!    tax the rest of the run.
//!
//! The fast path is exact: with `dt_scale == 1` and a first-attempt
//! converge, [`AdaptiveStepper::advance`] performs a single plain
//! `try_step` — the arithmetic (and hence every bit of the result) is
//! identical to calling the integrator directly.

use crate::solver::{SolveError, StepStats, TimeIntegrator};

/// Tunables for the recovery policy. `Default` is the profile used by the
/// quench driver and the batched advance.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Total failed attempts tolerated within one [`AdaptiveStepper::advance`]
    /// call before giving up.
    pub max_retries: usize,
    /// Line-search depth (halvings of λ) for the damped retry.
    pub backtracks: usize,
    /// Floor on `dt_scale`: substeps never shrink below
    /// `min_dt_fraction · Δt`.
    pub min_dt_fraction: f64,
    /// Consecutive easy converges (≤ [`Self::easy_iters`] Newton
    /// iterations) before `dt_scale` doubles back toward 1.
    pub growth_streak: usize,
    /// Newton-iteration count at or under which a converge counts as
    /// "easy" for re-growth purposes.
    pub easy_iters: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 12,
            backtracks: 4,
            min_dt_fraction: 1.0 / 1024.0,
            growth_streak: 3,
            easy_iters: 5,
        }
    }
}

/// Terminal failure of one [`AdaptiveStepper::advance`] call: the budget
/// (or the `Δt` floor) ran out. `state` is restored to the entry-time
/// checkpoint, so the caller's last good state survives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryFailure {
    /// The last solver error seen before giving up.
    pub error: SolveError,
    /// Failed attempts consumed (including the final one).
    pub attempts: usize,
    /// Smallest substep fraction that was tried.
    pub dt_fraction: f64,
}

impl std::fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step unrecoverable after {} attempts (dt fraction {:.3e}): {}",
            self.attempts, self.dt_fraction, self.error
        )
    }
}

impl std::error::Error for RecoveryFailure {}

/// Per-`advance` recovery accounting, folded into run-level telemetry by
/// the quench driver and [`crate::batch::BatchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Failed attempts that were subsequently recovered from.
    pub retried: usize,
    /// Substeps taken to cover the interval (1 = no subdivision).
    pub substeps: usize,
    /// Smallest substep fraction used for a *successful* substep.
    pub dt_fraction_min: f64,
}

impl RecoveryStats {
    /// Publish this call's recovery accounting into the shared registry
    /// under `prefix` (e.g. `"recovery"`): retried/substep counters plus a
    /// min-tracking gauge (stored negated so `gauge_max` keeps the
    /// smallest fraction — read back as `-gauge`).
    pub fn publish(&self, reg: &landau_obs::MetricRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.retried"), self.retried as u64);
        reg.add(&format!("{prefix}.substeps"), self.substeps as u64);
        reg.gauge_max(
            &format!("{prefix}.neg_dt_fraction_min"),
            -self.dt_fraction_min,
        );
        // Journal only the exceptional case: an advance that actually
        // burned retries (the common zero-retry step stays silent, so
        // the ring holds incidents rather than heartbeat noise).
        if self.retried > 0 {
            landau_obs::Journal::global().publish(landau_obs::Event::recovery(
                "step_retry",
                self.retried as u64,
            ));
        }
    }
}

/// Serializable snapshot of the [`AdaptiveStepper`] policy state (the
/// fields a durable checkpoint must carry to keep a resumed trajectory
/// bitwise identical).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepperCkpt {
    /// Current substep fraction.
    pub dt_scale: f64,
    /// Easy-converge streak toward Δt re-growth.
    pub easy_streak: u64,
    /// Last-good-state checkpoint (empty if no step has landed yet).
    pub checkpoint: Vec<f64>,
}

/// The recovery wrapper: owns a [`TimeIntegrator`] and advances it with
/// damped-retry / Δt-halving / Δt-regrowth policy. Scale state persists
/// across calls, so a stiff phase detected at step `n` still benefits
/// step `n+1`.
pub struct AdaptiveStepper {
    /// The wrapped integrator (public: drivers tune tolerances through it).
    pub ti: TimeIntegrator,
    /// Recovery policy knobs.
    pub cfg: RecoveryConfig,
    /// Current substep fraction of the nominal `Δt` (1 = full steps).
    /// Persisted across `advance` calls; shrinks on failure, regrows on
    /// easy-converge streaks.
    pub dt_scale: f64,
    easy_streak: usize,
    checkpoint: Vec<f64>,
}

impl AdaptiveStepper {
    /// Wrap an integrator with the default recovery policy.
    pub fn new(ti: TimeIntegrator) -> Self {
        Self::with_config(ti, RecoveryConfig::default())
    }

    /// Wrap an integrator with an explicit policy.
    pub fn with_config(ti: TimeIntegrator, cfg: RecoveryConfig) -> Self {
        AdaptiveStepper {
            ti,
            cfg,
            dt_scale: 1.0,
            easy_streak: 0,
            checkpoint: Vec::new(),
        }
    }

    /// The last-good-state checkpoint from the most recent `advance`
    /// (entry state if that call failed; useful for post-mortems).
    pub fn checkpoint(&self) -> &[f64] {
        &self.checkpoint
    }

    /// Snapshot the adaptive-policy state that must survive a restart:
    /// the current `dt_scale`, the easy-converge streak feeding re-growth,
    /// and the last-good-state checkpoint.
    pub fn export_ckpt(&self) -> StepperCkpt {
        StepperCkpt {
            dt_scale: self.dt_scale,
            easy_streak: self.easy_streak as u64,
            checkpoint: self.checkpoint.clone(),
        }
    }

    /// Restore a snapshot from [`AdaptiveStepper::export_ckpt`], so a
    /// resumed run subdivides and re-grows `Δt` exactly as the killed run
    /// would have.
    pub fn restore_ckpt(&mut self, c: &StepperCkpt) {
        self.dt_scale = c.dt_scale;
        self.easy_streak = c.easy_streak as usize;
        self.checkpoint.clear();
        self.checkpoint.extend_from_slice(&c.checkpoint);
    }

    /// Advance `state` by exactly `dt` of physical time, subdividing and
    /// retrying per the policy. On `Ok` the merged [`StepStats`] covers
    /// every successful substep; on `Err` the state is bitwise restored
    /// to its entry value.
    pub fn advance(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> Result<(StepStats, RecoveryStats), RecoveryFailure> {
        // Span only — no arithmetic touches the state, so the fast path's
        // bitwise guarantee below is unaffected by instrumentation.
        let _sp = landau_obs::span(landau_obs::names::ADAPTIVE_ADVANCE);
        // Fast path: full-scale single step, first attempt converges.
        // This is the common case and must stay bitwise identical to a
        // bare `try_step` — no extra arithmetic touches the state.
        if self.dt_scale >= 1.0 {
            match self.ti.try_step(state, dt, e_field, source) {
                Ok(stats) => {
                    self.note_success(stats.newton_iters);
                    self.checkpoint.clear();
                    self.checkpoint.extend_from_slice(state);
                    return Ok((
                        stats,
                        RecoveryStats {
                            retried: 0,
                            substeps: 1,
                            dt_fraction_min: 1.0,
                        },
                    ));
                }
                Err(e) => return self.advance_recovering(state, dt, e_field, source, e, 1),
            }
        }
        // Scale already reduced by an earlier call: go straight to the
        // subdivided path with no failed attempt charged.
        self.advance_subdivided(state, dt, e_field, source, 0)
    }

    /// Entry after a failed full-scale attempt: try the damped retry at
    /// full `Δt` first, then fall through to subdivision.
    fn advance_recovering(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        first_err: SolveError,
        attempts_so_far: usize,
    ) -> Result<(StepStats, RecoveryStats), RecoveryFailure> {
        self.easy_streak = 0;
        let mut attempts = attempts_so_far;
        if attempts > self.cfg.max_retries {
            return Err(self.give_up(state, first_err, attempts, self.dt_scale));
        }
        if self.cfg.backtracks > 0 {
            match self
                .ti
                .try_step_damped(state, dt, e_field, source, self.cfg.backtracks)
            {
                Ok(stats) => {
                    self.checkpoint.clear();
                    self.checkpoint.extend_from_slice(state);
                    return Ok((
                        stats,
                        RecoveryStats {
                            retried: attempts,
                            substeps: 1,
                            dt_fraction_min: 1.0,
                        },
                    ));
                }
                Err(_) => attempts += 1,
            }
        }
        self.dt_scale = (self.dt_scale * 0.5).max(self.cfg.min_dt_fraction);
        self.advance_subdivided(state, dt, e_field, source, attempts)
    }

    /// Cover `dt` in substeps of `dt_scale · dt`, halving further on
    /// failure (with a damped retry at each new scale) until the budget
    /// or the floor runs out.
    fn advance_subdivided(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        mut attempts: usize,
    ) -> Result<(StepStats, RecoveryStats), RecoveryFailure> {
        let entry = state.to_vec();
        let mut total = StepStats {
            converged: true,
            ..Default::default()
        };
        let mut rec = RecoveryStats {
            retried: attempts,
            substeps: 0,
            dt_fraction_min: f64::INFINITY,
        };
        // The interval is covered in fractions of `dt`, not in seconds:
        // `dt_scale` only ever halves and doubles from 1, so `covered` sums
        // exactly, where a sum of `dt·dt_scale` products would round and
        // leave a sliver of a few ulps for one more full Newton solve. The
        // last substep takes whatever is left (a scale that overshoots is
        // clipped; a non-dyadic floor's rounding remainder is absorbed).
        let mut covered = 0.0_f64;
        while covered < 1.0 {
            let left = 1.0 - covered;
            let last = left - self.dt_scale <= 4.0 * f64::EPSILON;
            let frac = if last { left } else { self.dt_scale };
            let h = dt * frac;
            let attempt = if attempts > 0 && self.cfg.backtracks > 0 {
                // Once in recovery, keep damping armed: it only alters
                // iterations that fail to contract at λ = 1.
                self.ti
                    .try_step_damped(state, h, e_field, source, self.cfg.backtracks)
            } else {
                self.ti.try_step(state, h, e_field, source)
            };
            match attempt {
                Ok(stats) => {
                    total.merge(&stats);
                    rec.substeps += 1;
                    rec.dt_fraction_min = rec.dt_fraction_min.min(frac);
                    covered = if last { 1.0 } else { covered + frac };
                    self.note_success(stats.newton_iters);
                }
                Err(e) => {
                    attempts += 1;
                    rec.retried = attempts;
                    self.easy_streak = 0;
                    let at_floor = self.dt_scale <= self.cfg.min_dt_fraction;
                    if attempts > self.cfg.max_retries || at_floor {
                        state.copy_from_slice(&entry);
                        return Err(self.give_up(state, e, attempts, self.dt_scale));
                    }
                    self.dt_scale = (self.dt_scale * 0.5).max(self.cfg.min_dt_fraction);
                }
            }
        }
        // `retried` counts only attempts that ultimately got recovered.
        rec.retried = attempts;
        if !rec.dt_fraction_min.is_finite() {
            rec.dt_fraction_min = 1.0;
        }
        self.checkpoint.clear();
        self.checkpoint.extend_from_slice(state);
        Ok((total, rec))
    }

    fn note_success(&mut self, iters: usize) {
        if self.dt_scale >= 1.0 {
            return;
        }
        if iters <= self.cfg.easy_iters {
            self.easy_streak += 1;
            if self.easy_streak >= self.cfg.growth_streak {
                self.dt_scale = (self.dt_scale * 2.0).min(1.0);
                self.easy_streak = 0;
            }
        } else {
            self.easy_streak = 0;
        }
    }

    fn give_up(
        &mut self,
        state: &[f64],
        error: SolveError,
        attempts: usize,
        dt_fraction: f64,
    ) -> RecoveryFailure {
        // Preserve the last good state for the caller's post-mortem; the
        // in-place `state` has already been rolled back by the caller (or
        // by `try_step`'s transaction for the single-step path).
        if self.checkpoint.is_empty() {
            self.checkpoint.extend_from_slice(state);
        }
        RecoveryFailure {
            error,
            attempts,
            dt_fraction,
        }
    }
}
