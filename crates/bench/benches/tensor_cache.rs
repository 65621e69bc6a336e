//! Cached vs uncached Landau assembly throughput on the §V performance
//! problem (Table II's 80-element Q3 mesh, 10 species).
//!
//! Three stages:
//!   1. *Verification* — cached and uncached `IpCoeffs` must agree to
//!      ≤1e-14 relative under all three backends (CPU, CUDA model,
//!      Kokkos model) before any timing is trusted.
//!   2. *Throughput* — Newton iterations per second of a real implicit
//!      solve, with and without the geometry cache, each arm the best of
//!      five runs interleaved with the other's. The table replaces the
//!      ~113-flop closed-form tensor evaluation with a 40-byte stream per
//!      pair: 4× on the kernel (`BENCH_kernels.json`: 16 ms → 3.7 ms),
//!      2.0–2.1× on the whole iteration, most of which is the band LU.
//!      The cache must win by at least 1.4× (it was 9.6× while every
//!      uncached pair ran 19 AGM passes instead of 4).
//!   3. *Memory* — table footprint and the heap of the one `FemSpace` a
//!      geometry holds.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench tensor_cache -- --quick`.
//! Results land in `BENCH_tensor_cache.json` at the workspace root.

use landau_bench::{perf_operator, write_bench_json};
use landau_core::ipdata::IpData;
use landau_core::kernels::{
    inner_integral_cpu, inner_integral_cpu_cached, inner_integral_cuda_model,
    inner_integral_cuda_model_cached, inner_integral_kokkos_cached, inner_integral_kokkos_model,
};
use landau_core::operator::Backend;
use landau_core::solver::{ThetaMethod, TimeIntegrator};
use landau_core::tensor_cache::DEFAULT_BUDGET_BYTES;
use landau_core::TensorTable;
use landau_vgpu::kokkos::PlainFactory;
use std::time::Instant;

/// An implicit integrator on the §V operator, streaming the tensor table
/// or evaluating the closed form.
fn integrator(cached: bool) -> TimeIntegrator {
    let op = perf_operator(80, Backend::Cpu);
    let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
    ti.rtol = 1e-6;
    if cached {
        ti.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
    }
    ti
}

/// Run `steps` implicit steps from the initial state and return (newton
/// iterations, seconds).
fn solve(ti: &mut TimeIntegrator, steps: usize, dt: f64) -> (usize, f64) {
    let mut state = ti.op.initial_state();
    let t0 = Instant::now();
    let mut iters = 0usize;
    for _ in 0..steps {
        iters += ti.step(&mut state, dt, 0.0, None).newton_iters;
    }
    (iters, t0.elapsed().as_secs_f64())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 2 } else { 8 };
    let mut json: Vec<(String, f64)> = Vec::new();

    // --- Stage 1: correctness gate on the Table-II mesh ------------------
    let op = perf_operator(80, Backend::Cpu);
    let state = op.initial_state();
    let mut ip = IpData::new(&op.space, &op.species);
    ip.pack(&op.space, &state);
    let n = ip.n;
    let table = TensorTable::build(&ip.points, usize::MAX);
    println!(
        "table: N = {n} integration points, {:.1} MiB ({:?})",
        table.table_bytes() as f64 / (1 << 20) as f64,
        table.mode()
    );
    let (r_cpu, _) = inner_integral_cpu(&ip, &op.species);
    let (r_cuda, _) = inner_integral_cuda_model(&ip, &op.species, 16);
    let (r_kk, _) = inner_integral_kokkos_model(&ip, &op.species, 8);
    let (c_cpu, _) = inner_integral_cpu_cached(&ip, &op.species, &table);
    let (c_cuda, _) = inner_integral_cuda_model_cached(&ip, &op.species, 16, &table);
    let (c_kk, _) = inner_integral_kokkos_cached(&ip, &op.species, 8, &table, &PlainFactory);
    for (name, diff) in [
        ("cpu", r_cpu.max_rel_diff(&c_cpu)),
        ("cuda_model", r_cuda.max_rel_diff(&c_cuda)),
        ("kokkos_model", r_kk.max_rel_diff(&c_kk)),
    ] {
        println!("verify {name:<14} cached vs uncached rel diff {diff:.3e}");
        assert!(
            diff <= 1e-14,
            "{name}: cached diverged from uncached: {diff:e}"
        );
        json.push((format!("verify_rel_diff_{name}"), diff));
    }
    json.push(("table_bytes".into(), table.table_bytes() as f64));

    // --- Stage 2: Newton-iterations/sec, uncached vs cached --------------
    // Each arm's best of five runs, the arms interleaved: a slow spell of
    // the host lands on both rather than on whichever arm it hit.
    let dt = 0.05;
    let (mut uncached, mut cached) = (integrator(false), integrator(true));
    let (mut nps_u, mut nps_c) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        let (it_u, s_u) = solve(&mut uncached, steps, dt);
        let (it_c, s_c) = solve(&mut cached, steps, dt);
        nps_u = nps_u.max(it_u as f64 / s_u);
        nps_c = nps_c.max(it_c as f64 / s_c);
    }
    let speedup = nps_c / nps_u;
    println!("uncached: {nps_u:.2} Newton it/s (best of 5)");
    println!("cached:   {nps_c:.2} Newton it/s (best of 5)");
    println!("speedup:  {speedup:.2}x (gate: >= 1.4x)");
    json.push(("newton_per_sec_uncached".into(), nps_u));
    json.push(("newton_per_sec_cached".into(), nps_c));
    json.push(("speedup".into(), speedup));

    // --- Stage 3: memory accounting ---------------------------------------
    let heap = op.space.approx_heap_bytes();
    println!(
        "shared FemSpace: {:.2} MiB heap",
        heap as f64 / (1 << 20) as f64
    );
    json.push(("space_heap_bytes".into(), heap as f64));

    let path = write_bench_json("BENCH_tensor_cache.json", &json);
    println!("wrote {}", path.display());

    assert!(
        speedup >= 1.4,
        "geometry cache speedup {speedup:.2}x below the 1.4x acceptance gate"
    );
}
