//! The conservative finite-element Landau collision operator.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust:
//!
//! * [`species`] — multi-species plasma description in the nondimensional
//!   units of the paper's Appendix A;
//! * [`tensor`] — the Landau tensor `U` (eq. 3) and its azimuthally
//!   integrated cylindrical forms `U^D`, `U^K` in closed form via complete
//!   elliptic integrals;
//! * [`ipdata`] — the packed structure-of-arrays integration-point data
//!   (`r`, `z`, `w`, `f`, `df`) that the kernels stream;
//! * [`geometry`] — everything the mesh alone determines (space, mass and
//!   advection matrices, pattern, solver ordering and band map, integration
//!   points, tensor tables), built once and shared through one `Arc`;
//! * [`kernels`] — Algorithm 1 in three styles: plain CPU loops, the CUDA
//!   programming model (strided inner loop + warp-shuffle reduction), and
//!   the Kokkos model (league/team/vector with generic `parallel_reduce`),
//!   plus the mass-matrix kernel and both assembly paths (`MatSetValues`
//!   and COO/atomics);
//! * [`tensor_cache`] — the geometry-invariant tiled `TensorTable` cache
//!   that amortizes the elliptic-integral tensor evaluations across Newton
//!   iterations, time steps and batch vertices;
//! * [`operator`] — the multi-species Landau operator on a geometry:
//!   Jacobian assembly, electric-field advection, block-diagonal structure;
//! * [`moments`] — density, z-momentum, energy, current and temperature
//!   functionals (the conserved quantities of the discretization);
//! * [`solver`] — implicit time integration (backward Euler / θ-method)
//!   with the paper's quasi-Newton iteration and banded-LU direct solves,
//!   transactional (`try_step`) with a typed failure taxonomy; its
//!   `NewtonLane` is the one copy of the iteration's guard ladder;
//! * [`recover`] — the adaptive recovery policy over the transactional
//!   step: damped retries, Δt halving with a bounded budget, and Δt
//!   re-growth after the stiff phase passes;
//! * [`batch`] — batched multi-vertex collision advance (the conclusion's
//!   proposed batching over spatial points) as one pool sweep over the
//!   vertices' own steppers;
//! * [`ckpt`] — durable checkpoint/restart: checksummed frames, the
//!   generational store and the policy hook the drivers hold;
//! * [`invariants`] — the conservation/entropy monitor and its watchdog;
//! * [`registry`] — the kernel registry the static verifier proves.

pub mod batch;
pub mod ckpt;
pub mod geometry;
pub mod invariants;
pub mod ipdata;
pub mod kernels;
pub mod moments;
pub mod operator;
pub mod recover;
pub mod registry;
pub mod solver;
pub mod species;
pub mod tensor;
pub mod tensor_cache;

pub use landau_vgpu::fault::{FaultKind, FaultPlan, FaultSpec, InjectedFault};

/// Injection-site names understood by this crate's kernels and solver
/// (re-exported so downstream crates can arm plans without a direct
/// `landau-vgpu` dependency).
pub mod fault_sites {
    pub use landau_vgpu::fault::{SITE_LANDAU_JACOBIAN, SITE_LU_FACTOR};
}
pub use batch::{BatchStats, BatchedAdvance, VertexStats};
pub use ckpt::{
    CheckpointPolicy, CheckpointStore, CkptError, DirStorage, FaultyStorage, MemStorage, Storage,
    StorageFault, StorageFaultKind,
};
pub use geometry::Geometry;
pub use invariants::{
    ConservationMonitor, Invariant, InvariantReport, StepContext, Watchdog, WatchdogMode,
};
pub use landau_vgpu::fault::FaultCursor;
pub use operator::{Backend, LandauOperator};
pub use recover::{AdaptiveStepper, RecoveryConfig, RecoveryFailure, RecoveryStats, StepperCkpt};
pub use registry::{KernelDims, KernelEntry, KernelRegistry, PolicyFamily, VerifyInput};
pub use solver::{NonFiniteSite, SolveError, StepStats, ThetaMethod, TimeIntegrator};
pub use species::{Species, SpeciesList};
pub use tensor_cache::TensorTable;
