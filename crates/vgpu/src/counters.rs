//! Performance counters: per-block tallies merged into per-kernel totals.
//!
//! The counters play the role of Nsight Compute in the paper's §V-A1
//! hardware-utilization study: arithmetic intensity and roofline fractions
//! for Table IV are computed from exactly these quantities.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cheap per-block (per-task) operation tally. Kernels accumulate into a
/// local `Tally` and merge once per block, so counting adds negligible
/// overhead to the hot loops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Double-precision floating-point operations.
    pub flops: u64,
    /// Bytes read from "global memory" (DRAM-visible traffic).
    pub dram_read: u64,
    /// Bytes written to global memory.
    pub dram_write: u64,
    /// Bytes staged through shared memory.
    pub shared_bytes: u64,
    /// f64 atomic adds issued (assembly contention resolution).
    pub atomics: u64,
    /// Warp-shuffle operations issued by tree reductions.
    pub shuffles: u64,
    /// FLOPs spent building geometry-cache tiles (tensor-table construction
    /// or on-the-fly tile recomputes under a memory budget).
    pub cache_build_flops: u64,
    /// Bytes streamed from a prebuilt tensor table (also counted in
    /// `dram_read`, so arithmetic-intensity numbers stay honest).
    pub cache_read: u64,
    /// Tensor-evaluation FLOPs avoided by streaming cached tiles instead of
    /// re-evaluating `landau_tensor_2d` per pair.
    pub cache_flops_saved: u64,
}

impl Tally {
    /// Zero tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    pub fn merge(&mut self, o: &Tally) {
        self.flops += o.flops;
        self.dram_read += o.dram_read;
        self.dram_write += o.dram_write;
        self.shared_bytes += o.shared_bytes;
        self.atomics += o.atomics;
        self.shuffles += o.shuffles;
        self.cache_build_flops += o.cache_build_flops;
        self.cache_read += o.cache_read;
        self.cache_flops_saved += o.cache_flops_saved;
    }
}

impl core::ops::Add for Tally {
    type Output = Tally;
    fn add(mut self, rhs: Tally) -> Tally {
        self.merge(&rhs);
        self
    }
}

/// Thread-safe accumulated totals for one named kernel.
#[derive(Debug, Default)]
pub struct Counters {
    flops: AtomicU64,
    dram_read: AtomicU64,
    dram_write: AtomicU64,
    shared_bytes: AtomicU64,
    atomics: AtomicU64,
    shuffles: AtomicU64,
    cache_build_flops: AtomicU64,
    cache_read: AtomicU64,
    cache_flops_saved: AtomicU64,
    launches: AtomicU64,
    blocks: AtomicU64,
}

impl Counters {
    /// Merge one launch worth of tallies (`blocks` = grid size).
    pub fn record_launch(&self, t: &Tally, blocks: u64) {
        self.flops.fetch_add(t.flops, Ordering::Relaxed);
        self.dram_read.fetch_add(t.dram_read, Ordering::Relaxed);
        self.dram_write.fetch_add(t.dram_write, Ordering::Relaxed);
        self.shared_bytes
            .fetch_add(t.shared_bytes, Ordering::Relaxed);
        self.atomics.fetch_add(t.atomics, Ordering::Relaxed);
        self.shuffles.fetch_add(t.shuffles, Ordering::Relaxed);
        self.cache_build_flops
            .fetch_add(t.cache_build_flops, Ordering::Relaxed);
        self.cache_read.fetch_add(t.cache_read, Ordering::Relaxed);
        self.cache_flops_saved
            .fetch_add(t.cache_flops_saved, Ordering::Relaxed);
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Snapshot totals.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            flops: self.flops.load(Ordering::Relaxed),
            dram_read: self.dram_read.load(Ordering::Relaxed),
            dram_write: self.dram_write.load(Ordering::Relaxed),
            shared_bytes: self.shared_bytes.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
            shuffles: self.shuffles.load(Ordering::Relaxed),
            cache_build_flops: self.cache_build_flops.load(Ordering::Relaxed),
            cache_read: self.cache_read.load(Ordering::Relaxed),
            cache_flops_saved: self.cache_flops_saved.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
        }
    }

    /// Reset all totals to zero.
    pub fn reset(&self) {
        self.flops.store(0, Ordering::Relaxed);
        self.dram_read.store(0, Ordering::Relaxed);
        self.dram_write.store(0, Ordering::Relaxed);
        self.shared_bytes.store(0, Ordering::Relaxed);
        self.atomics.store(0, Ordering::Relaxed);
        self.shuffles.store(0, Ordering::Relaxed);
        self.cache_build_flops.store(0, Ordering::Relaxed);
        self.cache_read.store(0, Ordering::Relaxed);
        self.cache_flops_saved.store(0, Ordering::Relaxed);
        self.launches.store(0, Ordering::Relaxed);
        self.blocks.store(0, Ordering::Relaxed);
    }
}

/// Immutable snapshot of one kernel's totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// FP64 operations.
    pub flops: u64,
    /// Global-memory bytes read.
    pub dram_read: u64,
    /// Global-memory bytes written.
    pub dram_write: u64,
    /// Shared-memory bytes staged.
    pub shared_bytes: u64,
    /// f64 atomics issued.
    pub atomics: u64,
    /// Warp shuffles issued.
    pub shuffles: u64,
    /// Geometry-cache build FLOPs (table construction + tile recomputes).
    pub cache_build_flops: u64,
    /// Bytes streamed from the prebuilt tensor table.
    pub cache_read: u64,
    /// Tensor-evaluation FLOPs avoided by the geometry cache.
    pub cache_flops_saved: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Total blocks executed.
    pub blocks: u64,
}

impl KernelStats {
    /// Arithmetic intensity: FLOPs per DRAM byte (read + write).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.dram_read + self.dram_write;
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / bytes as f64
    }
}

/// A registry of named kernel counters (lives on [`crate::spec::Device`]).
#[derive(Debug, Default)]
pub struct KernelRegistry {
    inner: Mutex<HashMap<String, Arc<Counters>>>,
}

impl KernelRegistry {
    /// Get (or create) the counters for a kernel name.
    pub fn kernel(&self, name: &str) -> Arc<Counters> {
        let mut g = self.inner.lock().unwrap();
        g.entry(name.to_string()).or_default().clone()
    }

    /// Reset every kernel's counters.
    pub fn reset_all(&self) {
        let g = self.inner.lock().unwrap();
        for c in g.values() {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_merge_and_add() {
        let a = Tally {
            flops: 10,
            dram_read: 5,
            ..Default::default()
        };
        let b = Tally {
            flops: 1,
            shuffles: 2,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.flops, 11);
        assert_eq!(c.dram_read, 5);
        assert_eq!(c.shuffles, 2);
    }

    #[test]
    fn counters_aggregate_launches() {
        let c = Counters::default();
        let t = Tally {
            flops: 100,
            dram_read: 50,
            dram_write: 10,
            ..Default::default()
        };
        c.record_launch(&t, 8);
        c.record_launch(&t, 8);
        let s = c.stats();
        assert_eq!(s.flops, 200);
        assert_eq!(s.launches, 2);
        assert_eq!(s.blocks, 16);
        assert!((s.arithmetic_intensity() - 200.0 / 120.0).abs() < 1e-12);
        c.reset();
        assert_eq!(c.stats(), KernelStats::default());
    }

    #[test]
    fn registry_is_stable_across_lookups() {
        let r = KernelRegistry::default();
        let a = r.kernel("jacobian");
        let b = r.kernel("jacobian");
        a.record_launch(
            &Tally {
                flops: 7,
                ..Default::default()
            },
            1,
        );
        assert_eq!(b.stats().flops, 7);
    }

    #[test]
    fn cache_accounting_flows_through() {
        let a = Tally {
            cache_build_flops: 100,
            cache_read: 56,
            ..Default::default()
        };
        let b = Tally {
            cache_flops_saved: 145,
            cache_read: 56,
            ..Default::default()
        };
        let m = a + b;
        assert_eq!(m.cache_build_flops, 100);
        assert_eq!(m.cache_read, 112);
        assert_eq!(m.cache_flops_saved, 145);
        let c = Counters::default();
        c.record_launch(&m, 4);
        let s = c.stats();
        assert_eq!(s.cache_build_flops, 100);
        assert_eq!(s.cache_read, 112);
        assert_eq!(s.cache_flops_saved, 145);
        c.reset();
        assert_eq!(c.stats(), KernelStats::default());
    }

    #[test]
    fn ai_of_zero_bytes_is_infinite() {
        let s = KernelStats {
            flops: 5,
            ..Default::default()
        };
        assert!(s.arithmetic_intensity().is_infinite());
    }
}
