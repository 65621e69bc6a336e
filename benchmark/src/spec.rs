//! The frozen names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root must list exactly these (a unit
//! test compares both directions), and `-- list` prints them.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Workload name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "perf80_solo",
        "paper sec. V problem: ten wide species blocks solo, cached kernel; sparse::band factor ~70% of a Newton iteration, kernel ~27%",
    ),
    (
        "quench_solo",
        "one thermal quench through QuenchDriver, service bypassed: closed-form kernel, E feedback, monitor, disk checkpoints; 2 narrow species",
    ),
    (
        "batch256_fused",
        "256 vertices x 2 species in lockstep: sparse::batched, per-round compaction and the batched kernel; the solo band path does none",
    ),
    (
        "serve_flood",
        "closed loop, 16 small quenches in flight from 4 tenants through QuenchServer: the only one running serve::{rt,scheduler,server} and the journal",
    ),
];

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Each bound is the larger of the issue's starting value and about three
/// times the widest spread two `aa 10` series showed on the shared
/// two-core reference box (README, "How the bounds were set").
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_solution_s", "s", Lower, 0.10),
    e2e("newton_per_sec", "1/s", Higher, 0.10),
    e2e("jobs_per_sec", "1/s", Higher, 0.10),
    e2e("e2e_ms_p50", "ms", Lower, 0.10),
    e2e("e2e_ms_p95", "ms", Lower, 0.15),
    e2e("first_record_ms_p50", "ms", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// The per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not reach reports 0.
pub const PER_LAYER: [MetricDef; 97] = [
    // set-up
    layer("mesh.build_ms", "ms", Lower),
    layer("mesh.cells", "count", Lower),
    layer("fem.space_build_ms", "ms", Lower),
    layer("fem.dofs", "count", Lower),
    layer("core.tensor_cache.build_ms", "ms", Lower),
    layer("core.tensor_cache.table_mb", "MB", Lower),
    layer("sparse.rcm.order_ms", "ms", Lower),
    layer("sparse.rcm.bandwidth", "count", Lower),
    layer("core.batch.build_ms", "ms", Lower),
    layer("quench.driver_build_ms", "ms", Lower),
    layer("serve.server_start_ms", "ms", Lower),
    // kernel + assembly replay
    layer("core.ipdata.pack_ms", "ms", Lower),
    layer("core.operator.assemble_ms.cpu_cached", "ms", Lower),
    layer("core.operator.assemble_ms.cpu_recompute", "ms", Lower),
    layer("core.operator.assemble_ms.cuda_model_cached", "ms", Lower),
    layer(
        "core.operator.assemble_ms.cuda_model_recompute",
        "ms",
        Lower,
    ),
    layer("core.operator.assemble_ms.kokkos_model_cached", "ms", Lower),
    layer(
        "core.operator.assemble_ms.kokkos_model_recompute",
        "ms",
        Lower,
    ),
    layer("vgpu.kokkos_over_cuda", "ratio", Lower),
    layer("core.operator.assemble_gflops.cpu_cached", "GF/s", Higher),
    layer(
        "core.operator.assemble_gflops.cpu_recompute",
        "GF/s",
        Higher,
    ),
    layer("core.operator.assemble_ai.cpu_cached", "flop/B", Higher),
    layer("core.operator.assemble_ai.cpu_recompute", "flop/B", Higher),
    layer(
        "core.operator.assemble_roofline_frac.cpu_cached",
        "ratio",
        Higher,
    ),
    layer(
        "core.operator.assemble_roofline_frac.cpu_recompute",
        "ratio",
        Higher,
    ),
    layer("core.operator.mass_assemble_ms", "ms", Lower),
    // host roofline
    layer("host.fma_gflops", "GF/s", Higher),
    layer("host.triad_gbs", "GB/s", Higher),
    layer("host.llc_mb", "MB", Higher),
    layer("par.threads", "count", Higher),
    // solo solver
    layer("core.solver.steps", "count", Lower),
    layer("core.solver.newton_iters", "count", Lower),
    layer("core.solver.newton_per_step", "ratio", Lower),
    layer("core.solver.step_ms_p50", "ms", Lower),
    layer("core.solver.step_ms_p90", "ms", Lower),
    layer("core.solver.landau_frac", "ratio", Lower),
    layer("core.solver.factor_frac", "ratio", Lower),
    layer("core.solver.solve_frac", "ratio", Lower),
    layer("core.solver.other_frac", "ratio", Lower),
    layer("core.solver.unattributed_frac", "ratio", Lower),
    layer("sparse.band.load_ms", "ms", Lower),
    layer("sparse.band.factor_ms", "ms", Lower),
    layer("sparse.band.solve_ms", "ms", Lower),
    layer("sparse.band.factor_gflops", "GF/s", Higher),
    // batched solver
    layer("core.batch.round_ms_p50", "ms", Lower),
    layer("core.batch.launches", "count", Lower),
    layer("core.batch.lanes_per_launch", "ratio", Higher),
    layer("core.batch.newton_rounds", "count", Lower),
    layer("core.batch.retired_per_newton", "ratio", Higher),
    layer("core.batch.retried", "count", Lower),
    layer("core.batch.failed_lanes", "count", Lower),
    layer("core.batch.newton_per_sec.lanes1", "1/s", Higher),
    layer("sparse.batched.factor_us_per_lane.lanes1", "us", Lower),
    layer("sparse.batched.factor_us_per_lane.lanes64", "us", Lower),
    layer("sparse.batched.factor_us_per_lane.lanes256", "us", Lower),
    layer("sparse.batched.solve_us_per_lane.lanes1", "us", Lower),
    layer("sparse.batched.solve_us_per_lane.lanes64", "us", Lower),
    layer("sparse.batched.solve_us_per_lane.lanes256", "us", Lower),
    layer("sparse.batched.heap_mb", "MB", Lower),
    // quench driver, checkpoints, telemetry
    layer("quench.steps", "count", Lower),
    layer("quench.equil_steps", "count", Lower),
    layer("quench.newton_iters", "count", Lower),
    layer("quench.step_ms_p50", "ms", Lower),
    layer("quench.step_ms_p90", "ms", Lower),
    layer("quench.equil_s", "s", Lower),
    layer("quench.quench_s", "s", Lower),
    layer("quench.recovery_retries", "count", Lower),
    layer("core.ckpt.saves", "count", Lower),
    layer("core.ckpt.frame_kb", "kB", Lower),
    layer("core.ckpt.save_ms_p50.dir", "ms", Lower),
    layer("core.ckpt.save_ms_p50.mem", "ms", Lower),
    layer("core.ckpt.load_ms.dir", "ms", Lower),
    layer("core.ckpt.mb_per_sec.dir", "MB/s", Higher),
    layer("core.invariants.drift_max", "ratio", Lower),
    layer("obs.timeseries.records", "count", Lower),
    layer("obs.timeseries.kb", "kB", Lower),
    layer("obs.timeseries.export_ms", "ms", Lower),
    // service
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.queue_wait_ms_mean", "ms", Lower),
    layer("serve.slice_ms_mean", "ms", Lower),
    layer("serve.slices", "count", Lower),
    layer("serve.worker_busy_frac", "ratio", Higher),
    layer("serve.in_flight_mean", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.rt_steals", "count", Lower),
    layer("serve.fairness_spread", "ratio", Lower),
    layer("serve.scrape_ms_p50", "ms", Lower),
    layer("serve.scrape_kb", "kB", Lower),
    layer("serve.hist_p50_over_exact_p50", "ratio", Lower),
    layer("obs.journal.published", "count", Lower),
    layer("obs.journal.dropped", "count", Lower),
    layer("obs.journal.drain_ms", "ms", Lower),
    // the benchmark itself
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.generator_poll_ms_max", "ms", Lower),
    layer("bench.failed_frac", "ratio", Lower),
    layer("bench.latency_samples", "count", Higher),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(n, _)| *n).collect()
}

/// The text `-- list` prints: one `kind name [unit better]` line per item.
pub fn list_text() -> String {
    let mut out = String::new();
    for (name, _) in WORKLOADS {
        out.push_str(&format!("workload {name}\n"));
    }
    for m in END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}
