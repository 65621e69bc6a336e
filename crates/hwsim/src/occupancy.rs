//! Occupancy accounting for fused batched launches.
//!
//! The fused batched pipeline (landau-core's `BatchedAdvance::advance`) turns N
//! per-vertex kernel launches into one grid launch whose blocks are
//! (lane, element) pairs. On a real device that changes two things the
//! throughput model must account for:
//!
//! * **Launch overhead amortization** — one host→device dispatch instead
//!   of one per vertex ([`FusedGeometry::launch_overhead_s`]).
//! * **Wave quantization** — the grid executes in waves of
//!   `SMs × blocks_per_SM` resident blocks; a single vertex's ~100-block
//!   grid leaves most of a large GPU idle, while the fused grid fills
//!   whole waves and pays the partial-tail wave once per *batch* instead
//!   of once per *vertex* ([`occupancy_report`]).
//!
//! The inputs map directly onto the batch telemetry landau-core publishes:
//! `batch.launches` and `batch.active_lanes` give the mean live-lane count
//! per fused launch, which is the `lanes` here.

use crate::machine::MachineConfig;
use landau_vgpu::DeviceSpec;

/// Grid geometry of one fused batched launch: `lanes` active (vertex,
/// species) lanes, each contributing `blocks_per_lane` blocks (elements
/// for the Jacobian kernel, 1 for a factor/solve sweep).
#[derive(Clone, Copy, Debug)]
pub struct FusedGeometry {
    /// Live lanes in this launch (retired lanes contribute no blocks).
    pub lanes: usize,
    /// Blocks each lane contributes.
    pub blocks_per_lane: usize,
}

impl FusedGeometry {
    /// Total blocks in the fused grid.
    pub fn blocks(&self) -> usize {
        self.lanes * self.blocks_per_lane
    }

    /// Host→device dispatch cost of executing this work fused (one
    /// launch) vs per-lane (one launch per lane).
    pub fn launch_overhead_s(&self, dev: &DeviceSpec) -> (f64, f64) {
        let per = dev.launch_overhead_us * 1e-6;
        (per, per * self.lanes as f64)
    }
}

/// Wave-quantization report for one grid on one device.
#[derive(Clone, Copy, Debug)]
pub struct OccupancyReport {
    /// Blocks in the grid.
    pub blocks: usize,
    /// Blocks resident per wave (`SMs × blocks_per_sm`).
    pub wave_capacity: usize,
    /// Full or partial waves needed to drain the grid.
    pub waves: usize,
    /// Mean fraction of resident slots doing work over all waves
    /// (`blocks / (waves × capacity)`); 1.0 for exact multiples.
    pub utilization: f64,
}

/// Quantize a grid of `blocks` into waves on `dev` with `blocks_per_sm`
/// co-resident blocks per SM.
pub fn occupancy_report(dev: &DeviceSpec, blocks_per_sm: usize, blocks: usize) -> OccupancyReport {
    assert!(blocks_per_sm > 0);
    let capacity = dev.sms as usize * blocks_per_sm;
    let waves = blocks.div_ceil(capacity);
    OccupancyReport {
        blocks,
        wave_capacity: capacity,
        waves,
        utilization: if waves == 0 {
            0.0
        } else {
            blocks as f64 / (waves * capacity) as f64
        },
    }
}

/// Side-by-side wave accounting of the fused grid vs the host loop's
/// per-lane grids (each lane launched alone pays its own partial wave
/// and its own dispatch).
#[derive(Clone, Copy, Debug)]
pub struct FusedVsHost {
    /// The one fused grid.
    pub fused: OccupancyReport,
    /// Waves summed over per-lane launches.
    pub host_waves: usize,
    /// Mean utilization of the per-lane launches.
    pub host_utilization: f64,
    /// Dispatch seconds: fused pays one launch, host pays `lanes`.
    pub fused_dispatch_s: f64,
    pub host_dispatch_s: f64,
}

/// Compare executing `geom` as one fused grid vs one launch per lane on
/// a machine's GPU.
pub fn fused_vs_host(
    machine: &MachineConfig,
    blocks_per_sm: usize,
    geom: FusedGeometry,
) -> FusedVsHost {
    let dev = &machine.gpu;
    let fused = occupancy_report(dev, blocks_per_sm, geom.blocks());
    let per_lane = occupancy_report(dev, blocks_per_sm, geom.blocks_per_lane);
    let host_waves = per_lane.waves * geom.lanes;
    let (fused_dispatch_s, host_dispatch_s) = geom.launch_overhead_s(dev);
    FusedVsHost {
        fused,
        host_waves,
        host_utilization: per_lane.utilization,
        fused_dispatch_s,
        host_dispatch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landau_vgpu::DeviceSpec;

    #[test]
    fn exact_multiples_fill_every_wave() {
        let dev = DeviceSpec::v100(); // 80 SMs
        let r = occupancy_report(&dev, 2, 160 * 3);
        assert_eq!(r.wave_capacity, 160);
        assert_eq!(r.waves, 3);
        assert!((r.utilization - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tail_wave_lowers_utilization_once() {
        let dev = DeviceSpec::v100();
        let r = occupancy_report(&dev, 2, 160 + 1);
        assert_eq!(r.waves, 2);
        assert!(r.utilization < 0.51);
        // Empty grid: no waves, zero utilization, no NaN.
        let z = occupancy_report(&dev, 2, 0);
        assert_eq!(z.waves, 0);
        assert_eq!(z.utilization, 0.0);
    }

    #[test]
    fn fused_grid_beats_per_lane_launches() {
        // 256 vertices × 2 species on a ~100-element mesh: each lane alone
        // underfills a V100 wave badly; fused, the same work fills waves
        // and pays one dispatch.
        let m = MachineConfig::summit_cuda();
        let geom = FusedGeometry {
            lanes: 512,
            blocks_per_lane: 100,
        };
        let cmp = fused_vs_host(&m, 2, geom);
        assert!(cmp.fused.waves < cmp.host_waves);
        assert!(cmp.fused.utilization > cmp.host_utilization);
        assert!(cmp.fused.utilization > 0.99);
        assert!(cmp.host_dispatch_s > 100.0 * cmp.fused_dispatch_s);
    }

    #[test]
    fn retired_lanes_shrink_the_grid() {
        let m = MachineConfig::summit_cuda();
        let full = fused_vs_host(
            &m,
            2,
            FusedGeometry {
                lanes: 512,
                blocks_per_lane: 100,
            },
        );
        let late = fused_vs_host(
            &m,
            2,
            FusedGeometry {
                lanes: 32,
                blocks_per_lane: 100,
            },
        );
        // Fewer live lanes → fewer waves; the active mask retires work
        // instead of padding the grid with idle blocks.
        assert!(late.fused.waves < full.fused.waves);
        assert_eq!(late.fused.blocks, 3200);
    }
}
