//! Sparse linear algebra for the Landau solver.
//!
//! Reproduces the pieces of PETSc the paper's solver depends on:
//!
//! * [`csr`] — compressed sparse row storage with a `MatSetValues`-style
//!   addressed insertion API. Mirrors the paper's assembly model: the first
//!   assembly happens "on the CPU" and fixes the nonzero pattern; subsequent
//!   assemblies only write values (optionally with atomic adds, the released
//!   GPU-assembly approach in PETSc).
//! * [`coo`] — coordinate-format build path (the newer PETSc GPU COO
//!   interface that needs no CPU pre-assembly).
//! * [`rcm`] — reverse Cuthill–McKee ordering, which block-diagonalizes the
//!   multi-species Jacobian and minimizes bandwidth.
//! * [`band`] — banded LU factorization (outer-product form, Golub & Van
//!   Loan Alg. 4.3.1) with per-species-block parallel factorization; the
//!   paper's custom direct solver.
//! * [`batched`] — the sequel paper's batched banded LU: many equally-sized
//!   bands in a lane-minor SoA layout, factored and solved in lockstep
//!   with a per-lane active mask, bitwise-equal to [`band`] per lane. No
//!   batch path uses it (a batch steps every vertex through its own
//!   [`band`] solver); the repository benchmark times it.
//! * [`vecops`] — the handful of BLAS-1 operations the time integrator uses.
//! * [`atomic`] — an `AtomicF64` add used by the device-style assembly.

pub mod atomic;
pub mod band;
pub mod batched;
pub mod coo;
pub mod csr;
pub mod rcm;
pub mod vecops;

pub use band::BandMatrix;
pub use batched::BatchedBandStorage;
pub use coo::CooMatrix;
pub use csr::{Csr, InsertMode};
pub use rcm::{bandwidth, rcm_order};
