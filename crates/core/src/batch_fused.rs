//! The fused batched Newton orchestrator.
//!
//! The sequel paper (Adams, Wang, Knepley — batched linear solvers for the
//! Landau operator) replaces the per-vertex solve pipeline with *one* grid
//! launch per stage: every spatial vertex's Jacobian assembly runs in one
//! batched kernel over (lane, element) blocks, every banded factorization
//! runs in lockstep over a lane-minor SoA, and the triangular solves
//! stride vertices in the innermost dimension. This module is that
//! orchestrator for [`crate::batch::BatchedAdvance`]:
//!
//! * [`FusedWorkspace`] holds the reusable per-batch storage: the
//!   [`BatchedBandStorage`] (one band lane per live (vertex, species)
//!   pair, compacted to the low lanes each round), the batch's one
//!   [`Geometry`] (ordering, CSR-entry → band-slot map, pattern), one
//!   [`Jacobian`] per vertex on that pattern, and the SoA right-hand-side.
//! * [`fused_macro_step`] advances every vertex by one macro step of `dt`
//!   with a per-vertex active mask: converged and failed vertices retire
//!   from subsequent fused launches without desynchronizing the rest.
//!
//! **Bitwise contract.** Per vertex, the lockstep iteration is the solo
//! integrator's guarded step with the linear algebra swapped: every vertex
//! is a [`NewtonLane`] — the one the solo step drives — so the control
//! decisions are the same code, the batched kernels are per-lane bitwise
//! equal to the per-vertex cached kernels (tested in `kernels`), the slot
//! map — the very one the solo path refills its solver through — writes
//! the same `M − γL` values, and the batched LU factor/solve is per-lane
//! bitwise equal to `BlockBandSolver` (tested in `landau-sparse`). A lane
//! that fails its lockstep attempt routes into the *identical*
//! [`AdaptiveStepper`] recovery policy (damped retry → Δt halving) that a
//! vertex stepping alone takes, so the whole batch state is bitwise equal
//! to the per-vertex reference (`landau_testkit::oracle::host_loop_advance`).

use crate::geometry::Geometry;
use crate::kernels;
use crate::operator::{Backend, Jacobian};
use crate::recover::{AdaptiveStepper, RecoveryFailure, RecoveryStats};
use crate::solver::{
    all_finite, NewtonLane, NonFiniteSite, ResidualScratch, SolveError, StepStats,
};
use landau_sparse::vecops;
use landau_sparse::BatchedBandStorage;
use landau_vgpu::fault::{
    FaultKind, SITE_BATCHED_FACTOR, SITE_BATCHED_JACOBIAN, SITE_BATCHED_SOLVE,
    SITE_LANDAU_JACOBIAN, SITE_LU_FACTOR,
};
use landau_vgpu::kokkos::PlainFactory;
use std::sync::Arc;
use std::time::Instant;

/// Launch accounting for the fused path, folded into
/// [`crate::batch::BatchStats`] and published as `batch.launches` /
/// `batch.active_lanes` / `batch.retired_per_newton`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FusedCounters {
    /// Fused grid launches issued (kernel, factor and solve stages each
    /// count once per lockstep Newton iteration that ran them).
    pub launches: u64,
    /// Sum over fused kernel launches of the live-lane count — the
    /// occupancy numerator for the batched geometry.
    pub active_lane_sum: u64,
    /// Lockstep Newton iterations performed, summed over lanes.
    pub newton_lane_iters: u64,
    /// Lanes that retired (converged or failed) during lockstep.
    pub retired: u64,
    /// Lockstep Newton iterations (fused rounds, not lane-summed).
    pub newton_rounds: u64,
}

/// Reusable storage for the fused batched pipeline. Built once per batch
/// (all vertices sit on one geometry and share a species list) and reused
/// across every Newton iteration of every macro step, so the inner loop
/// allocates nothing.
pub(crate) struct FusedWorkspace {
    /// Dofs per species block.
    n: usize,
    /// Species count.
    ns: usize,
    /// Band lanes (`n_vertices · ns`), fixed for the life of the batch.
    n_lanes: usize,
    /// The geometry every vertex sits on: its ordering and its pattern
    /// entry → band slot map serve every lane.
    pub(crate) geom: Arc<Geometry>,
    /// The lane-minor SoA band storage.
    band: BatchedBandStorage,
    /// SoA right-hand-side / solution: `x_soa[i * n_lanes + m]`.
    x_soa: Vec<f64>,
    /// One Jacobian per vertex on the shared pattern. The scatter zeroes
    /// entries first, so reuse is bitwise-safe.
    jacs: Vec<Jacobian>,
    /// Work vectors of the per-lane residual evaluations.
    residual_scratch: ResidualScratch,
    /// One lane's Newton update `J⁻¹ R` in dof ordering.
    d: Vec<f64>,
}

impl FusedWorkspace {
    /// Build the workspace for a batch of `steppers` (one per vertex), all
    /// on one geometry — how the batch constructor builds them.
    pub(crate) fn new(steppers: &[AdaptiveStepper]) -> Self {
        let geom = Arc::clone(steppers[0].ti.op.geometry());
        assert!(
            steppers
                .iter()
                .all(|st| Arc::ptr_eq(st.ti.op.geometry(), &geom)),
            "batch vertices must sit on one geometry"
        );
        let n = geom.space.n_dofs;
        let ns = steppers[0].ti.op.species.len();
        let n_lanes = steppers.len() * ns;
        let band = BatchedBandStorage::from_map(geom.band_map(), n_lanes);
        let jacs = steppers.iter().map(|st| st.ti.op.new_jacobian()).collect();
        FusedWorkspace {
            n,
            ns,
            n_lanes,
            geom,
            band,
            x_soa: vec![0.0; n * n_lanes],
            jacs,
            residual_scratch: ResidualScratch::default(),
            d: vec![0.0; n * ns],
        }
    }

    /// Approximate heap footprint (diagnostics).
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.band.approx_heap_bytes()
            + self.x_soa.len() * 8
            + self.jacs.len() * 2 * self.jacs[0].pair[0].vals.len() * 8
    }
}

/// Outcome of one macro step for one vertex (`None` for vertices the
/// caller skipped).
pub(crate) type LaneOutcome = Option<Result<(StepStats, RecoveryStats), RecoveryFailure>>;

/// Advance every non-skipped vertex by one macro step of `dt`, executing
/// the Newton pipeline as fused batched launches with a per-vertex active
/// mask. Per vertex, the result (state bits, stats, recovery routing) is
/// identical to `AdaptiveStepper::advance` on that vertex alone.
pub(crate) fn fused_macro_step(
    steppers: &mut [AdaptiveStepper],
    states: &mut [Vec<f64>],
    skip: &[bool],
    ws: &mut FusedWorkspace,
    dt: f64,
    e_field: f64,
    counters: &mut FusedCounters,
) -> Vec<LaneOutcome> {
    let n_vertices = steppers.len();
    let mut outcomes: Vec<LaneOutcome> = (0..n_vertices).map(|_| None).collect();

    // Lanes whose recovery scale is already reduced take the subdivided
    // path directly — their substep sizes differ, so they cannot ride the
    // lockstep launches this macro step. This is exactly the dispatch of
    // `AdaptiveStepper::advance` for `dt_scale < 1`.
    let mut lockstep: Vec<usize> = Vec::new();
    for v in 0..n_vertices {
        if skip[v] {
            continue;
        }
        if steppers[v].dt_scale < 1.0 {
            outcomes[v] = Some(steppers[v].advance(&mut states[v], dt, e_field, None));
        } else {
            lockstep.push(v);
        }
    }
    if lockstep.is_empty() {
        return outcomes;
    }

    // Shared launch configuration: the batch constructor gives every vertex
    // the same backend and species on one geometry, hence one blocking and
    // one tensor table.
    let op0 = &steppers[lockstep[0]].ti.op;
    let backend = op0.backend;
    let dim_x = op0.dim_x;
    let species = op0.species.clone();
    let table = Arc::clone(op0.tensor_table());

    let sp_step = landau_obs::span(landau_obs::names::STEP);

    // One Newton lane per lockstep vertex (`lanes[k]` is vertex
    // `lockstep[k]`; batch advances pass no source).
    let mut lanes: Vec<NewtonLane> = lockstep
        .iter()
        .map(|&v| NewtonLane::begin(&mut steppers[v].ti, &states[v], dt, e_field, None))
        .collect();

    // The lockstep Newton loop: one fused launch per stage per round.
    loop {
        // Claim this round's iteration on every lane still going; a lane
        // whose Newton budget is spent retires here.
        let mut live: Vec<usize> = Vec::new();
        for (k, lane) in lanes.iter_mut().enumerate() {
            if !lane.live() {
                continue;
            }
            if lane.enter(steppers[lockstep[k]].ti.max_newton) {
                live.push(k);
            } else {
                counters.retired += 1;
            }
        }
        if live.is_empty() {
            break;
        }
        let _sp_iter = landau_obs::span(landau_obs::names::NEWTON_ITER);
        counters.newton_rounds += 1;
        counters.newton_lane_iters += live.len() as u64;

        // Stage 1 — fused Jacobian build: pack every live lane, run ONE
        // batched inner-integral launch over all (lane, element) blocks,
        // then the per-lane transform/assemble tails.
        let sp_jb = landau_obs::span(landau_obs::names::JACOBIAN_BUILD);
        let t_kernel = Instant::now();
        for &k in &live {
            let v = lockstep[k];
            steppers[v].ti.op.ipdata.pack(&ws.geom.space, &states[v]);
        }
        let active: Vec<bool> = lanes.iter().map(NewtonLane::live).collect();
        let (mut coeffs, tallies) = {
            let ips: Vec<&crate::ipdata::IpData> = lockstep
                .iter()
                .map(|&v| &steppers[v].ti.op.ipdata)
                .collect();
            let sp_bk = landau_obs::span(landau_obs::names::BATCH_KERNEL);
            let sp_k = landau_obs::span(landau_obs::names::KERNEL);
            let out = match backend {
                Backend::Cpu => {
                    kernels::inner_integral_batched_cpu_cached(&ips, &active, &species, &table)
                }
                Backend::CudaModel => kernels::inner_integral_batched_cuda_cached(
                    &ips, &active, &species, dim_x, &table,
                ),
                Backend::KokkosModel => kernels::inner_integral_batched_kokkos_cached(
                    &ips,
                    &active,
                    &species,
                    dim_x,
                    &table,
                    &PlainFactory,
                ),
            };
            drop(sp_k);
            drop(sp_bk);
            out
        };
        counters.launches += 1;
        counters.active_lane_sum += live.len() as u64;
        let t_kernel_share = t_kernel.elapsed().as_secs_f64() / live.len() as f64;
        for &k in &live {
            let v = lockstep[k];
            let t0 = Instant::now();
            let op = &steppers[v].ti.op;
            // Seeded fault injection: same per-device poll cadence as the
            // per-vertex `assemble` (one poll per lane per iteration).
            if let Some(f) = op
                .device
                .poll_fault(SITE_LANDAU_JACOBIAN, coeffs[k].lanes())
            {
                coeffs[k].apply_fault(&f);
            }
            // The fused-launch-specific site: exists only on this path, so
            // plans can target the batched Jacobian stage without also
            // firing on the solo stepper. Disarmed polls are one relaxed
            // load.
            if let Some(f) = op
                .device
                .poll_fault(SITE_BATCHED_JACOBIAN, coeffs[k].lanes())
            {
                coeffs[k].apply_fault(&f);
            }
            op.assemble_tail(&coeffs[k], tallies[k], &mut ws.jacs[v], e_field);
            lanes[k].stats.t_landau += t_kernel_share + t0.elapsed().as_secs_f64();
        }
        drop(sp_jb);

        // Stage 2 — per-lane residuals, each judged by its lane's ladder.
        let entered = live.len();
        live.retain(|&k| {
            let (v, lane) = (lockstep[k], &mut lanes[k]);
            let ti = &steppers[v].ti;
            let rnorm =
                lane.residual_norm(ti, &ws.jacs[v], &states[v], None, &mut ws.residual_scratch);
            lane.judge(ti, rnorm)
        });
        counters.retired += (entered - live.len()) as u64;
        if live.is_empty() {
            continue;
        }

        // Stage 3 — fused banded LU: refill the SoA band (`M − Δtθ L`)
        // for live lanes and factor every lane in one masked lockstep
        // sweep. A zero pivot retires only its own vertex.
        //
        // Live lanes are *compacted* into the low band lanes each round:
        // retirement scatters dead vertices across the batch, so without
        // compaction most lane tiles keep one straggler and the sweep
        // stays near full width. Packing the survivors keeps factor/solve
        // cost (and the refill write traffic) proportional to the live
        // count. Per-lane arithmetic is independent of lane position, so
        // the result bits are unchanged.
        let sp_bf = landau_obs::span(landau_obs::names::BATCH_FACTOR);
        let sp_f = landau_obs::span(landau_obs::names::FACTOR);
        let t_factor = Instant::now();
        ws.band.reset_lanes(live.len() * ws.ns);
        let mut cpos = vec![usize::MAX; lanes.len()];
        let mut mask = vec![false; ws.n_lanes];
        for (ci, &k) in live.iter().enumerate() {
            let v = lockstep[k];
            let dst = ci * ws.ns;
            cpos[k] = dst;
            // `M − Δtθ L_α` per species, the values the solo refill writes
            // through the same map, into lanes zeroed above: the factor
            // writes fill-in into slots the pattern leaves untouched.
            let (mass, jac) = (&steppers[v].ti.op.mass, &ws.jacs[v]);
            let neg_gamma = -(dt * lanes[k].theta);
            for a in 0..ws.ns {
                ws.band.fill_lane(dst + a, ws.geom.band_map(), |o| {
                    mass.vals[o] + neg_gamma * jac.entry(a, o)
                });
            }
            // Same per-device fault cadence as the solo step's
            // `poll_fault(SITE_LU_FACTOR, n_blocks)` after the refill, then
            // the fused-only factor site: a singular block injected there
            // hits the lockstep sweep without touching the solo stepper.
            for site in [SITE_LU_FACTOR, SITE_BATCHED_FACTOR] {
                if let Some(f) = steppers[v].ti.op.device.poll_fault(site, ws.ns) {
                    if matches!(f.kind, FaultKind::SingularBlock) {
                        ws.band.poison(dst + f.index % ws.ns);
                    }
                }
            }
            mask[dst..dst + ws.ns].fill(true);
        }
        let failed = ws.band.factor(&mask);
        counters.launches += 1;
        let t_factor_share = t_factor.elapsed().as_secs_f64() / live.len() as f64;
        let factored = live.len();
        live.retain(|&k| {
            let lane = &mut lanes[k];
            lane.stats.t_factor += t_factor_share;
            // First failing species block in block order — the same error
            // `BlockBandSolver::factor` reports.
            let singular = (0..ws.ns).find_map(|a| failed[cpos[k] + a].map(|row| (a, row)));
            if let Some((block, row)) = singular {
                lane.fail(SolveError::SingularJacobian { block, row });
                mask[cpos[k]..cpos[k] + ws.ns].fill(false);
            }
            singular.is_none()
        });
        counters.retired += (factored - live.len()) as u64;
        drop(sp_f);
        drop(sp_bf);
        if live.is_empty() {
            continue;
        }

        // Stage 4 — fused triangular solves over the lane-minor SoA, then
        // the per-lane Newton update `f ← f − J⁻¹R` (λ = 1, the plain
        // lockstep attempt; damping lives in the recovery routing).
        let sp_bs = landau_obs::span(landau_obs::names::BATCH_SOLVE);
        let sp_s = landau_obs::span(landau_obs::names::SOLVE);
        let t_solve = Instant::now();
        let perm = ws.geom.perm();
        for &k in &live {
            let lane = &lanes[k];
            for a in 0..ws.ns {
                let m = cpos[k] + a;
                for (i, &p) in perm.iter().enumerate() {
                    ws.x_soa[i * ws.n_lanes + m] = lane.r[a * ws.n + p];
                }
            }
        }
        ws.band.solve_into(&mut ws.x_soa, &mask);
        counters.launches += 1;
        let t_solve_share = t_solve.elapsed().as_secs_f64() / live.len() as f64;
        drop(sp_s);
        drop(sp_bs);
        for &k in &live {
            let (v, lane) = (lockstep[k], &mut lanes[k]);
            lane.stats.t_solve += t_solve_share;
            let d = &mut ws.d;
            for a in 0..ws.ns {
                let m = cpos[k] + a;
                for (i, &p) in perm.iter().enumerate() {
                    d[a * ws.n + p] = ws.x_soa[i * ws.n_lanes + m];
                }
            }
            // Fused-only solve site: corrupt the Newton update before the
            // finiteness guard, so an injected NaN is attributed as a
            // NonFinite solution and routed through recovery like any
            // hardware-corrupted triangular solve would be.
            if let Some(f) = steppers[v]
                .ti
                .op
                .device
                .poll_fault(SITE_BATCHED_SOLVE, d.len())
            {
                f.apply(d);
            }
            if !all_finite(d) {
                lane.fail(SolveError::NonFinite {
                    site: NonFiniteSite::Solution,
                });
                counters.retired += 1;
                continue;
            }
            vecops::axpy(-1.0, d, &mut states[v]);
            lane.stats.newton_iters += 1;
        }
    }
    drop(sp_step);

    // Per-lane epilogue: the lane closes its step (monitor check,
    // transactional restore), then the `AdaptiveStepper` success/recovery
    // routing of its fast path.
    for (v, lane) in lockstep.into_iter().zip(lanes) {
        let st = &mut steppers[v];
        let state = &mut states[v];
        let (stats, failure) = lane.finish(&mut st.ti, state, e_field, None);
        outcomes[v] = Some(match failure {
            None => {
                st.note_success(stats.newton_iters);
                st.commit_checkpoint(state);
                Ok((
                    stats,
                    RecoveryStats {
                        retried: 0,
                        substeps: 1,
                        dt_fraction_min: 1.0,
                    },
                ))
            }
            Some(e) => st.advance_recovering(state, dt, e_field, None, e, 1),
        });
    }
    outcomes
}
