//! Batched collision advance.
//!
//! In an operator-split kinetic application every configuration-space
//! vertex advances its own velocity-space collision problem independently
//! (§V: "an application would run thousands or more of these vertex solves
//! in a collision advance step on each GPU"). The paper's harness gets the
//! resulting task parallelism from MPI ranks; its conclusion names the
//! *batching* of multiple spatial vertices as the planned improvement.
//!
//! [`BatchedAdvance::advance`] is one pool sweep over the fleet: every
//! vertex is a lane that runs its own [`AdaptiveStepper`] through the
//! requested macro steps, and the lanes are split over the `landau-par`
//! workers. The sweeps inside a lane (kernel, assembly) are nested, so
//! they run inline on the lane's thread over the same parts they would
//! use alone, and each vertex's result is bitwise what its stepper
//! produces alone; `landau_testkit::oracle::host_loop_advance` is that
//! per-vertex loop, kept as the reference the tests compare against. The
//! batch is built *on* one [`Geometry`]: every vertex's operator holds the
//! same `Arc`, so mesh, ordering, band map and tensor table are shared by
//! construction, and per vertex only the fields, counters and solver state
//! are allocated.

use crate::ckpt::{
    decode_fault_cursor, decode_stepper_ckpt, encode_fault_cursor, encode_stepper_ckpt, ByteReader,
    ByteWriter, CheckpointPolicy, CkptError, CkptHook, Storage,
};
use crate::geometry::Geometry;
use crate::invariants::{ConservationMonitor, Watchdog};
use crate::operator::{Backend, LandauOperator};
use crate::recover::AdaptiveStepper;
use crate::solver::{ThetaMethod, TimeIntegrator};
use crate::species::SpeciesList;
use crate::tensor_cache::{TensorTable, DEFAULT_BUDGET_BYTES};
use landau_fem::FemSpace;
use landau_obs::MetricRegistry;
use landau_par::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Version tag of the batched-advance checkpoint payload.
const BATCH_CKPT_VERSION: u32 = 1;

/// Where one vertex lane stands on the failure ladder. A terminal
/// failure (the stepper's retry budget spent) takes the rollback rung
/// once per lane: the lane returns to its stepper's last good state and
/// retries with `Δt` pinned at the policy floor. A second terminal
/// failure retires the lane at its last good state.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    /// The rollback rung has been used.
    rolled_back: bool,
    /// Retired: later advances skip the lane and report it failed.
    failed: bool,
}

/// A batch of independent vertex problems on one [`Geometry`]: one mesh,
/// one ordering and one tensor table streamed by every vertex's Jacobian
/// builds.
pub struct BatchedAdvance {
    steppers: Vec<AdaptiveStepper>,
    /// One state per vertex.
    pub states: Vec<Vec<f64>>,
    /// Shared metrics sink every [`Self::advance`] publishes into.
    /// Defaults to the process-global registry; swap with
    /// [`Self::set_metric_registry`] for isolated accounting.
    metrics: Arc<MetricRegistry>,
    /// Failure-ladder position per vertex.
    lanes: Vec<Lane>,
    /// Stats merged across every advance (and across resumes).
    cumulative: BatchStats,
    /// Macro steps completed over the batch's lifetime (checkpoint clock).
    macro_steps: u64,
    ckpt: CkptHook,
}

/// Per-vertex outcome of a batched advance: the recovery layer isolates
/// failures, so one pathological vertex reports here instead of taking
/// down the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VertexStats {
    /// Newton iterations this vertex performed (successful steps only).
    pub newton_iters: usize,
    /// Failed step attempts that went through recovery (damped retry or
    /// Δt halving), including the attempts of a terminally failed step.
    pub retried: usize,
    /// Smallest substep attempted, as a fraction of the nominal `Δt`
    /// (1.0 when no subdivision was needed). Failed steps contribute the
    /// smallest fraction they reached before giving up.
    pub dt_fraction_min: f64,
    /// True if the vertex exhausted its recovery budget and was left at
    /// its last good state.
    pub failed: bool,
}

impl VertexStats {
    fn fresh() -> Self {
        VertexStats {
            newton_iters: 0,
            retried: 0,
            dt_fraction_min: 1.0,
            failed: false,
        }
    }
}

/// Throughput measurement of a batched advance.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Total Newton iterations across the batch, including work a later
    /// failure threw away.
    pub newton_iters: usize,
    /// Newton iterations of vertices that finished the advance healthy —
    /// the numerator of [`Self::newton_per_sec`]. Retired/failed lanes'
    /// idle or discarded work does not inflate throughput.
    pub productive_newton_iters: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Productive Newton iterations per second (the paper's figure of
    /// merit). Zero (not NaN) for zero-iteration runs.
    pub newton_per_sec: f64,
    /// Vertices that exhausted their recovery budget.
    pub failed: usize,
    /// Recovered/failed step attempts summed over vertices.
    pub retried: usize,
    /// Smallest substep fraction attempted across the batch.
    pub dt_fraction_min: f64,
    /// Lockstep-launch counters of the fused orchestrator this engine
    /// replaced. A pool sweep issues no batched launches and runs no
    /// lockstep rounds, so the four raw counters and
    /// [`Self::retired_per_newton`] read 0 for every advance; they stay
    /// for readers of older stats and checkpoints, whose cumulative
    /// counters still merge and resume.
    pub launches: u64,
    /// Lockstep counter, 0 (see [`Self::launches`]).
    pub active_lane_sum: u64,
    /// Lockstep counter, 0 (see [`Self::launches`]).
    pub lockstep_retired: u64,
    /// Lockstep counter, 0 (see [`Self::launches`]).
    pub newton_rounds: u64,
    /// `lockstep_retired / newton_rounds`, 0 when no round ran (see
    /// [`Self::launches`]).
    pub retired_per_newton: f64,
    /// Per-vertex breakdown (same order as [`BatchedAdvance::states`]).
    pub per_vertex: Vec<VertexStats>,
}

impl BatchStats {
    fn build(per_vertex: Vec<VertexStats>, seconds: f64) -> Self {
        let mut stats = BatchStats {
            newton_iters: per_vertex.iter().map(|v| v.newton_iters).sum(),
            productive_newton_iters: per_vertex
                .iter()
                .filter(|v| !v.failed)
                .map(|v| v.newton_iters)
                .sum(),
            seconds,
            retried: per_vertex.iter().map(|v| v.retried).sum(),
            dt_fraction_min: per_vertex
                .iter()
                .map(|v| v.dt_fraction_min)
                .fold(1.0, f64::min),
            per_vertex,
            ..Default::default()
        };
        stats.derive();
        stats
    }

    /// Recompute what follows from the raw counters and the per-vertex
    /// breakdown: the failed count and the two ratios. `0/0` must read as
    /// idle, not NaN — zero-iteration runs and empty resumed segments feed
    /// throughput tables downstream.
    fn derive(&mut self) {
        self.failed = self.per_vertex.iter().filter(|v| v.failed).count();
        self.newton_per_sec = if self.productive_newton_iters == 0 || self.seconds <= 0.0 {
            0.0
        } else {
            self.productive_newton_iters as f64 / self.seconds
        };
        self.retired_per_newton = if self.newton_rounds == 0 {
            0.0
        } else {
            self.lockstep_retired as f64 / self.newton_rounds as f64
        };
    }

    /// An empty accumulator for [`BatchStats::merge`] — the identity
    /// element (`dt_fraction_min` starts at 1, not the `Default` zero).
    pub(crate) fn accumulator() -> Self {
        BatchStats {
            dt_fraction_min: 1.0,
            ..Default::default()
        }
    }

    /// Fold another segment's stats into this accumulator: counters add,
    /// minima track, per-vertex breakdowns merge elementwise, and the
    /// derived ratios (`newton_per_sec`, `retired_per_newton`) are
    /// recomputed from the merged raw counters.
    pub fn merge(&mut self, other: &BatchStats) {
        self.newton_iters += other.newton_iters;
        self.productive_newton_iters += other.productive_newton_iters;
        self.seconds += other.seconds;
        self.retried += other.retried;
        self.dt_fraction_min = self.dt_fraction_min.min(other.dt_fraction_min);
        self.launches += other.launches;
        self.active_lane_sum += other.active_lane_sum;
        self.lockstep_retired += other.lockstep_retired;
        self.newton_rounds += other.newton_rounds;
        if self.per_vertex.len() < other.per_vertex.len() {
            self.per_vertex
                .resize_with(other.per_vertex.len(), VertexStats::fresh);
        }
        for (a, b) in self.per_vertex.iter_mut().zip(&other.per_vertex) {
            a.newton_iters += b.newton_iters;
            a.retried += b.retried;
            a.dt_fraction_min = a.dt_fraction_min.min(b.dt_fraction_min);
            a.failed |= b.failed;
        }
        self.derive();
    }

    /// Publish this advance's aggregate into `reg` under `batch.*`:
    /// counters for iteration/advance/failure totals, a max-gauge for
    /// throughput, and a histogram of per-vertex Newton work (the load
    /// balance signal across the fleet).
    pub fn publish(&self, reg: &MetricRegistry) {
        reg.add("batch.newton_iters", self.newton_iters as u64);
        reg.add("batch.advances", 1);
        reg.add("batch.failed", self.failed as u64);
        reg.add("batch.retried", self.retried as u64);
        reg.gauge_max("batch.newton_per_sec", self.newton_per_sec);
        for v in &self.per_vertex {
            reg.observe("batch.vertex_newton_iters", v.newton_iters as u64);
        }
    }
}

impl BatchedAdvance {
    /// Build `n_vertices` independent problems on a fresh geometry of
    /// `space`. Each vertex gets a slightly different initial electron
    /// density, like neighbouring spatial points of a profile.
    pub fn new(
        space: &FemSpace,
        species: &SpeciesList,
        backend: Backend,
        n_vertices: usize,
    ) -> Self {
        Self::on(Geometry::new(space.clone()), species, backend, n_vertices)
    }

    /// Build the batch on an existing geometry. The first vertex's operator
    /// builds the geometry's tensor table (unless an earlier batch on it
    /// already has); every other vertex streams that one — the cross-vertex
    /// reuse the paper's conclusion argues for.
    pub fn on(
        geom: Arc<Geometry>,
        species: &SpeciesList,
        backend: Backend,
        n_vertices: usize,
    ) -> Self {
        assert!(n_vertices > 0);
        let steppers: Vec<AdaptiveStepper> = (0..n_vertices)
            .map(|_| {
                let mut op = LandauOperator::on(Arc::clone(&geom), species.clone(), backend);
                op.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
                let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
                ti.rtol = 1e-6;
                AdaptiveStepper::new(ti)
            })
            .collect();
        let states: Vec<Vec<f64>> = steppers
            .iter()
            .enumerate()
            .map(|(v, st)| {
                let mut s = st.ti.op.initial_state();
                // A mild spatial profile: vary the electron density ±10%.
                let scale = 1.0 + 0.1 * ((v as f64 / n_vertices.max(1) as f64) - 0.5);
                for x in s[..st.ti.op.n()].iter_mut() {
                    *x *= scale;
                }
                s
            })
            .collect();
        BatchedAdvance {
            lanes: vec![Lane::default(); n_vertices],
            cumulative: BatchStats::accumulator(),
            macro_steps: 0,
            ckpt: CkptHook::default(),
            steppers,
            states,
            metrics: MetricRegistry::global_arc(),
        }
    }

    /// Redirect this batch's metric publishing to `registry`. Monitors
    /// already installed by [`Self::enable_monitoring`] keep publishing
    /// into the registry they were built with.
    pub fn set_metric_registry(&mut self, registry: Arc<MetricRegistry>) {
        self.metrics = registry;
    }

    /// Install a [`ConservationMonitor`] with watchdog `wd` on every
    /// vertex's integrator, publishing `invariant.*` into this batch's
    /// metric registry (max-merged across the fleet — one bad vertex
    /// shows up in `invariant.mass.drift_max` no matter which one it
    /// was). In [`crate::invariants::WatchdogMode::Fail`] a violating
    /// vertex fails transactionally and is reported per vertex like any
    /// other recovery-budget exhaustion.
    pub fn enable_monitoring(&mut self, wd: Watchdog) {
        for st in &mut self.steppers {
            let mon =
                ConservationMonitor::new(&st.ti.op, wd).with_registry(Arc::clone(&self.metrics));
            st.ti.monitor = Some(mon);
        }
    }

    /// Number of vertex problems.
    pub fn len(&self) -> usize {
        self.steppers.len()
    }

    /// The one shared finite-element space.
    pub fn space(&self) -> &Arc<FemSpace> {
        &self.steppers[0].ti.op.space
    }

    /// The one shared tile source (always `Some`).
    pub fn tensor_table(&self) -> Option<&Arc<TensorTable>> {
        Some(self.steppers[0].ti.op.tensor_table())
    }

    /// The recovery wrapper for one vertex (tests and diagnostics).
    pub fn stepper(&self, v: usize) -> &AdaptiveStepper {
        &self.steppers[v]
    }

    /// Mutable access to one vertex's recovery wrapper (to tune policy or
    /// tolerances per vertex).
    pub fn stepper_mut(&mut self, v: usize) -> &mut AdaptiveStepper {
        &mut self.steppers[v]
    }

    /// True if the batch is empty (never for constructed batches).
    pub fn is_empty(&self) -> bool {
        self.steppers.is_empty()
    }

    /// Advance every vertex by `steps` implicit steps of `dt` and measure
    /// aggregate throughput: one pool sweep in which every vertex runs its
    /// own stepper through all `steps`. Each vertex sits behind its own
    /// recovery wrapper; a terminal failure rolls the vertex back to its
    /// last good state once, with `Δt` pinned at the policy floor, and a
    /// vertex that fails again is retired at its last good state and
    /// reported in [`BatchStats::failed`] instead of panicking the fleet.
    pub fn advance(&mut self, dt: f64, steps: usize, e_field: f64) -> BatchStats {
        let sp = landau_obs::span(landau_obs::names::BATCH_ADVANCE);
        let t0 = Instant::now();
        let metrics = &*self.metrics;
        let per_vertex: Vec<VertexStats> = self
            .steppers
            .par_iter_mut()
            .zip(self.states.par_iter_mut())
            .zip(self.lanes.par_iter_mut())
            .enumerate()
            .map(|(v, ((st, state), lane))| {
                lane.advance(v, st, state, (dt, steps, e_field), metrics)
            })
            .collect();
        let stats = BatchStats::build(per_vertex, t0.elapsed().as_secs_f64());
        drop(sp);
        stats.publish(&self.metrics);
        self.cumulative.merge(&stats);
        self.macro_steps += steps as u64;
        self.maybe_checkpoint();
        stats
    }

    /// Aggregate stats merged over every advance since construction (and,
    /// after [`Self::resume_from_checkpoint`], over the pre-kill segment
    /// too — counters continue instead of restarting).
    pub fn cumulative_stats(&self) -> &BatchStats {
        &self.cumulative
    }

    /// Macro steps completed over the batch's lifetime (continues across
    /// checkpoint/resume).
    pub fn macro_steps(&self) -> u64 {
        self.macro_steps
    }

    /// Install a durable checkpoint store and policy on this batch. A
    /// checkpoint is cut after any [`Self::advance`] that makes the policy
    /// due (macro-step count or wall clock); `keep` generations are
    /// retained (clamped to ≥ 2). Write failures are counted by the store
    /// (`ckpt.write_failures`) and never abort the run.
    pub fn enable_checkpointing(
        &mut self,
        storage: Box<dyn Storage>,
        keep: usize,
        policy: CheckpointPolicy,
    ) {
        self.ckpt
            .enable(storage, keep, policy, Arc::clone(&self.metrics));
    }

    /// Cut a checkpoint generation immediately (independent of the policy).
    pub fn checkpoint_now(&mut self) -> Result<u64, CkptError> {
        let payload = self.encode_ckpt();
        self.ckpt.save(&payload)
    }

    /// Restore the newest good checkpoint generation, if any. Returns
    /// `Ok(false)` when no checkpoint exists (fresh start). The batch must
    /// be constructed with the same geometry and vertex count as the run
    /// that wrote the checkpoint; afterwards, re-advancing the remaining
    /// macro steps reproduces the uninterrupted trajectory bitwise
    /// (states, stepper policy state, ladder positions and the fault schedule
    /// all resume from the checkpointed cursor).
    pub fn resume_from_checkpoint(&mut self) -> Result<bool, CkptError> {
        let mut hook = std::mem::take(&mut self.ckpt);
        let resumed = hook.resume(|payload| {
            self.restore_ckpt(payload)?;
            Ok(self.macro_steps)
        });
        self.ckpt = hook;
        resumed
    }

    /// Cut a checkpoint if the policy says one is due. Failures are
    /// best-effort: counted by the store, the run continues on previous
    /// generations.
    fn maybe_checkpoint(&mut self) {
        if self.ckpt.due(self.macro_steps, false) {
            let _ = self.checkpoint_now();
        }
    }

    /// Serialize the full batch state: per-vertex states, adaptive-stepper
    /// policy snapshots, failure-ladder positions, per-device fault
    /// cursors, and the cumulative stats raw counters.
    fn encode_ckpt(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(BATCH_CKPT_VERSION);
        w.put_u64(self.steppers.len() as u64);
        w.put_u64(self.macro_steps);
        for (v, st) in self.steppers.iter().enumerate() {
            w.put_f64_slice(&self.states[v]);
            encode_stepper_ckpt(&mut w, &st.export_ckpt());
            // Lane tag (0 live, 2 failed) and a demotion streak that is
            // always 0: the layout of the two-engine builds, whose tag 1
            // marked a lane stepping alone, as every lane now does.
            let lane = self.lanes[v];
            w.put_u8(if lane.failed { 2 } else { 0 });
            w.put_u64(0);
            w.put_u8(u8::from(lane.rolled_back));
            encode_fault_cursor(&mut w, &st.ti.op.device.export_fault_cursor());
        }
        let c = &self.cumulative;
        w.put_u64(c.newton_iters as u64);
        w.put_u64(c.productive_newton_iters as u64);
        w.put_f64(c.seconds);
        w.put_u64(c.retried as u64);
        w.put_f64(c.dt_fraction_min);
        w.put_u64(c.launches);
        w.put_u64(c.active_lane_sum);
        w.put_u64(c.lockstep_retired);
        w.put_u64(c.newton_rounds);
        w.put_u64(c.per_vertex.len() as u64);
        for vs in &c.per_vertex {
            w.put_u64(vs.newton_iters as u64);
            w.put_u64(vs.retried as u64);
            w.put_f64(vs.dt_fraction_min);
            w.put_u8(u8::from(vs.failed));
        }
        w.into_bytes()
    }

    /// Inverse of [`Self::encode_ckpt`]: validate everything against this
    /// batch's geometry, then commit. Nothing is mutated on error.
    fn restore_ckpt(&mut self, payload: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(payload);
        let version = r.get_u32()?;
        if version != BATCH_CKPT_VERSION {
            return Err(CkptError::Incompatible {
                reason: format!(
                    "batch checkpoint version {version}, this build reads {BATCH_CKPT_VERSION}"
                ),
            });
        }
        let n = r.get_u64()? as usize;
        if n != self.steppers.len() {
            return Err(CkptError::Incompatible {
                reason: format!(
                    "checkpoint has {n} vertices, this batch has {}",
                    self.steppers.len()
                ),
            });
        }
        let macro_steps = r.get_u64()?;
        let mut states = Vec::with_capacity(n);
        let mut stepper_ckpts = Vec::with_capacity(n);
        let mut lanes = Vec::with_capacity(n);
        let mut cursors = Vec::with_capacity(n);
        for v in 0..n {
            let state = r.get_f64_vec()?;
            if state.len() != self.states[v].len() {
                return Err(CkptError::Incompatible {
                    reason: format!(
                        "vertex {v}: checkpoint has {} dofs, this batch has {}",
                        state.len(),
                        self.states[v].len()
                    ),
                });
            }
            states.push(state);
            stepper_ckpts.push(decode_stepper_ckpt(&mut r)?);
            let failed = match r.get_u8()? {
                0 | 1 => false,
                2 => true,
                t => {
                    return Err(CkptError::Corrupt {
                        reason: format!("unknown lane mode tag {t}"),
                    })
                }
            };
            let _streak = r.get_u64()?;
            lanes.push(Lane {
                rolled_back: r.get_u8()? != 0,
                failed,
            });
            cursors.push(decode_fault_cursor(&mut r)?);
        }
        // Cumulative raw counters, in the order `encode_ckpt` wrote them
        // (struct-literal operands evaluate left to right).
        let mut cumulative = BatchStats {
            newton_iters: r.get_u64()? as usize,
            productive_newton_iters: r.get_u64()? as usize,
            seconds: r.get_f64()?,
            retried: r.get_u64()? as usize,
            dt_fraction_min: r.get_f64()?,
            launches: r.get_u64()?,
            active_lane_sum: r.get_u64()?,
            lockstep_retired: r.get_u64()?,
            newton_rounds: r.get_u64()?,
            ..Default::default()
        };
        let n_pv = r.get_u64()? as usize;
        if n_pv > n {
            return Err(CkptError::Corrupt {
                reason: format!("cumulative per-vertex count {n_pv} exceeds batch size {n}"),
            });
        }
        for _ in 0..n_pv {
            cumulative.per_vertex.push(VertexStats {
                newton_iters: r.get_u64()? as usize,
                retried: r.get_u64()? as usize,
                dt_fraction_min: r.get_f64()?,
                failed: r.get_u8()? != 0,
            });
        }
        r.finish()?;
        cumulative.derive();
        // All validated: commit.
        self.macro_steps = macro_steps;
        for v in 0..n {
            self.states[v].copy_from_slice(&states[v]);
            self.steppers[v].restore_ckpt(&stepper_ckpts[v]);
            self.steppers[v]
                .ti
                .op
                .device
                .restore_fault_cursor(&cursors[v]);
        }
        self.lanes = lanes;
        self.cumulative = cumulative;
        Ok(())
    }

    /// Electron temperature of each vertex (diagnostic).
    pub fn electron_temperatures(&self) -> Vec<f64> {
        self.steppers
            .iter()
            .zip(&self.states)
            .map(|(st, s)| st.ti.moments.electron_temperature(s))
            .collect()
    }
}

impl Lane {
    /// Run vertex `v` through `steps` macro steps of its own stepper,
    /// climbing the ladder on terminal failures.
    fn advance(
        &mut self,
        v: usize,
        st: &mut AdaptiveStepper,
        state: &mut [f64],
        (dt, steps, e_field): (f64, usize, f64),
        metrics: &MetricRegistry,
    ) -> VertexStats {
        let mut vs = VertexStats::fresh();
        for _ in 0..steps {
            if self.failed {
                break;
            }
            let mut res = st.advance(state, dt, e_field, None);
            while let Err(f) = res {
                vs.retried += f.attempts;
                vs.dt_fraction_min = vs.dt_fraction_min.min(f.dt_fraction);
                let journal = landau_obs::Journal::global();
                if self.rolled_back {
                    self.failed = true;
                    metrics.add("degrade.failed_lanes", 1);
                    journal.publish(landau_obs::Event::degrade("failed", v as u64));
                    break;
                }
                self.rolled_back = true;
                metrics.add("degrade.rollbacks", 1);
                journal.publish(landau_obs::Event::degrade("rollback", v as u64));
                if st.checkpoint().len() == state.len() {
                    state.copy_from_slice(st.checkpoint());
                }
                st.dt_scale = st.cfg.min_dt_fraction;
                res = st.advance(state, dt, e_field, None);
            }
            if let Ok((stats, rec)) = res {
                vs.newton_iters += stats.newton_iters;
                vs.retried += rec.retried;
                vs.dt_fraction_min = vs.dt_fraction_min.min(rec.dt_fraction_min);
            }
        }
        vs.failed = self.failed;
        vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::Species;
    use landau_mesh::presets::{MeshSpec, RefineShell};
    use landau_vgpu::fault::{FaultKind, FaultPlan, SITE_LU_FACTOR};

    fn tiny_space() -> FemSpace {
        let spec = MeshSpec {
            domain_radius: 4.0,
            base_level: 1,
            shells: vec![RefineShell {
                radius: 1.5,
                max_cell_size: 1.0,
            }],
            tail_box: None,
        };
        FemSpace::new(spec.build(), 2)
    }

    fn plasma() -> SpeciesList {
        SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: 0.7,
            },
        ])
    }

    #[test]
    fn batch_advances_all_vertices() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        assert_eq!(b.len(), 3);
        let te0 = b.electron_temperatures();
        let stats = b.advance(0.5, 2, 0.0);
        assert!(stats.newton_iters >= 3 * 2, "{stats:?}");
        assert!(stats.newton_per_sec > 0.0);
        let te1 = b.electron_temperatures();
        // Every vertex relaxed (electrons cool toward the colder ions).
        for (a, b) in te0.iter().zip(&te1) {
            assert!(b < a, "{a} -> {b}");
        }
    }

    #[test]
    fn pool_sweep_instrumentation_does_not_perturb_states() {
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        plain.advance(0.4, 1, 0.0);
        // Recording off: the lanes skip span bookkeeping but must produce
        // bit-identical states (instrumentation never touches solver
        // arithmetic).
        let was = landau_obs::recording();
        landau_obs::set_recording(false);
        let mut quiet = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        quiet.advance(0.4, 1, 0.0);
        landau_obs::set_recording(was);
        for (v, (a, b)) in plain.states.iter().zip(&quiet.states).enumerate() {
            assert_eq!(a, b, "vertex {v} state changed under instrumentation");
        }
    }

    #[test]
    fn vertices_are_independent() {
        let space = tiny_space();
        let mut batch = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        let solo_state = batch.states[0].clone();
        batch.advance(0.4, 1, 0.0);
        // Vertex 0 evolved exactly as it would alone (the solo integrator
        // streams the same kind of geometry cache the batch shares).
        let mut op = LandauOperator::new(tiny_space(), plasma(), Backend::Cpu);
        op.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
        let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
        ti.rtol = 1e-6;
        let mut s = solo_state;
        ti.step(&mut s, 0.4, 0.0, None);
        let d: f64 = s
            .iter()
            .zip(&batch.states[0])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(d < 1e-12 * scale, "batch diverged from solo: {d}");
    }

    #[test]
    fn every_vertex_sits_on_one_geometry() {
        let mut batch = BatchedAdvance::new(&tiny_space(), &plasma(), Backend::Cpu, 64);
        batch.advance(0.4, 1, 0.0);
        let op0 = &batch.steppers[0].ti.op;
        assert!(Arc::ptr_eq(batch.space(), &op0.space));
        for st in &batch.steppers {
            // Not merely equal: the very same matrix, band map and table.
            let op = &st.ti.op;
            assert!(std::ptr::eq(&op0.mass, &op.mass));
            assert!(std::ptr::eq(op0.band_map(), op.band_map()));
            assert!(Arc::ptr_eq(op0.tensor_table(), op.tensor_table()));
        }
        assert_eq!(
            op0.tensor_table().mode(),
            crate::tensor_cache::CacheMode::Cached
        );
    }

    #[test]
    fn zero_iteration_run_reports_zero_throughput() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 1);
        let stats = b.advance(0.5, 0, 0.0);
        assert_eq!(stats.newton_iters, 0);
        assert_eq!(stats.newton_per_sec, 0.0, "0/0 must read as idle");
        assert!(!stats.newton_per_sec.is_nan());
        assert!(!stats.retired_per_newton.is_nan());
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn monitored_batch_publishes_fleet_wide_drift() {
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        plain.advance(0.4, 2, 0.0);

        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        let reg = Arc::new(MetricRegistry::new());
        b.set_metric_registry(Arc::clone(&reg));
        b.enable_monitoring(Watchdog::recording());
        let stats = b.advance(0.4, 2, 0.0);
        assert_eq!(stats.failed, 0, "{stats:?}");
        // Record-mode monitoring leaves every vertex bitwise identical.
        for (v, (a, c)) in plain.states.iter().zip(&b.states).enumerate() {
            assert_eq!(a, c, "vertex {v} state changed under monitoring");
        }
        let snap = reg.snapshot();
        // 3 vertices × 2 steps, max-merged drift at roundoff.
        assert_eq!(snap.counter("invariant.steps"), 6);
        assert_eq!(snap.counter("invariant.violations"), 0);
        assert!(snap.gauge("invariant.mass.drift_max").unwrap() <= 1e-10);
        assert!(snap.gauge("invariant.energy.drift_max").unwrap() <= 1e-10);
    }

    #[test]
    fn poisoned_vertex_fails_alone() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        // Corrupt vertex 1's state before the advance: its solve must fail
        // (NonFinite at the state guard) without touching the other
        // vertices' progress.
        b.states[1][0] = f64::NAN;
        let stats = b.advance(0.5, 2, 0.0);
        assert_eq!(stats.failed, 1, "{stats:?}");
        assert!(stats.per_vertex[1].failed);
        assert!(!stats.per_vertex[0].failed);
        assert!(!stats.per_vertex[2].failed);
        // Healthy vertices still advanced and cooled.
        assert!(stats.per_vertex[0].newton_iters > 0);
        assert!(stats.per_vertex[2].newton_iters > 0);
        let te = b.electron_temperatures();
        assert!(te[0].is_finite() && te[2].is_finite());
    }

    #[test]
    fn ladder_exhausts_to_failed_with_telemetry() {
        let space = tiny_space();
        // The LU-factor site fires on every attempt: the stepper's own
        // recovery (damped retry, Δt halving) and the post-rollback
        // dt-floor retry all hit the same singular block, so the lane
        // walks the whole ladder (recovery → rollback → failed) within
        // the first macro step and is then skipped.
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        let reg = Arc::new(MetricRegistry::new());
        b.set_metric_registry(Arc::clone(&reg));
        b.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(7).with_repeated(
                SITE_LU_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
        let entry = b.states[1].clone();
        let stats = b.advance(0.4, 3, 0.0);
        assert_eq!(stats.failed, 1, "{stats:?}");
        assert!(stats.per_vertex[1].failed);
        assert_eq!(stats.per_vertex[1].newton_iters, 0);
        // Two terminal failures, each charged: the stepper's budget, then
        // the floor attempt after the rollback.
        assert!(stats.per_vertex[1].retried >= 2, "{stats:?}");
        assert_eq!(
            stats.per_vertex[1].dt_fraction_min,
            b.stepper(1).cfg.min_dt_fraction
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("degrade.rollbacks"), 1);
        assert_eq!(snap.counter("degrade.failed_lanes"), 1);
        // Retired at its last good state: the entry state, bit for bit.
        for (i, (x, y)) in entry.iter().zip(&b.states[1]).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "dof {i}");
        }
        // A failed lane is retired exactly once; later macro steps skip
        // it instead of re-walking the ladder.
        let stats2 = b.advance(0.4, 2, 0.0);
        assert_eq!(stats2.failed, 1, "{stats2:?}");
        assert_eq!(stats2.per_vertex[1].retried, 0, "{stats2:?}");
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counter("degrade.rollbacks"), 1);
        assert_eq!(snap2.counter("degrade.failed_lanes"), 1);
        // The healthy lanes keep their full throughput.
        assert!(stats2.per_vertex[0].newton_iters > 0);
        assert!(stats2.per_vertex[2].newton_iters > 0);
    }

    #[test]
    fn batch_checkpoint_resume_is_bitwise() {
        use crate::ckpt::{CheckpointPolicy, MemStorage};
        let space = tiny_space();

        // Uninterrupted reference: 4 macro steps.
        let mut whole = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        for _ in 0..4 {
            whole.advance(0.4, 1, 0.0);
        }

        // Killed run: checkpoint every 2 macro steps, die after 3.
        let medium = MemStorage::new();
        let mut killed = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        killed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        for _ in 0..3 {
            killed.advance(0.4, 1, 0.0);
        }
        let killed_iters = killed.cumulative_stats().newton_iters;
        drop(killed);

        // Resume in a fresh process image sharing the durable medium.
        let mut res = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        res.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        assert!(res.resume_from_checkpoint().unwrap(), "no checkpoint found");
        assert_eq!(res.macro_steps(), 2, "checkpoint generation landed at 2");
        assert!(
            res.cumulative_stats().newton_iters < killed_iters,
            "resume rewinds to the checkpointed counters"
        );
        for _ in 0..2 {
            res.advance(0.4, 1, 0.0);
        }

        assert_eq!(res.macro_steps(), whole.macro_steps());
        for (v, (a, c)) in whole.states.iter().zip(&res.states).enumerate() {
            for (i, (x, y)) in a.iter().zip(c).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "vertex {v} dof {i}: {x:e} vs {y:e}"
                );
            }
        }
        // Counters continue across the kill instead of restarting.
        assert_eq!(
            res.cumulative_stats().newton_iters,
            whole.cumulative_stats().newton_iters
        );
        assert_eq!(
            res.cumulative_stats().productive_newton_iters,
            whole.cumulative_stats().productive_newton_iters
        );
        // An empty resumed segment must not poison the merged ratios.
        let s0 = res.advance(0.4, 0, 0.0);
        assert_eq!(s0.newton_per_sec, 0.0);
        assert!(!res.cumulative_stats().newton_per_sec.is_nan());
        assert!(!res.cumulative_stats().retired_per_newton.is_nan());
        assert!(res.cumulative_stats().newton_per_sec > 0.0);
    }
}
