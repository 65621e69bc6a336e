//! Hardware models for the performance experiments.
//!
//! The paper's throughput tables were measured on Summit (POWER9 + V100),
//! Spock (EPYC + MI100) and Fugaku (A64FX) nodes. Those machines are the
//! one thing this reproduction cannot run; per DESIGN.md §2 they are
//! replaced by calibrated analytic + discrete-event models driven by the
//! *real* operation counts measured from the Rust kernels:
//!
//! * [`roofline`] — arithmetic-intensity/roofline analysis of the counted
//!   kernels (Table IV);
//! * [`machine`] — node configurations with device specs, SMT efficiency
//!   and MPS quality (§V-A–§V-C);
//! * [`profile`] — the per-Newton-iteration operation profile extracted
//!   from a real solver run;
//! * [`des`] — a discrete-event, processor-sharing simulation of many MPI
//!   ranks dispatching kernels to shared GPUs and host cores, producing
//!   Newton-iterations-per-second throughput (Tables II, III, V, VI, VII,
//!   VIII).
//!
//! The mechanisms in the model are exactly the ones the paper names:
//! roofline-limited kernel times, kernel-launch overhead, MPS stream
//! merging vs time-sliced contexts, hardware-thread (SMT) gains, the
//! MI100's software f64 atomics, and Kokkos' portability overhead.

pub mod des;
pub mod machine;
pub mod obs_bridge;
pub mod profile;
pub mod roofline;

pub use des::{simulate_node, NodeThroughput};
pub use machine::{MachineConfig, MpsQuality};
pub use obs_bridge::{kernel_stats_from_metrics, roofline_from_metrics};
pub use profile::IterationProfile;
pub use roofline::{roofline_report, RooflineReport};
