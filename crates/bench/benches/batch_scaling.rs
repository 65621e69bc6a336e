//! Batched Newton throughput vs batch size (the sequel paper's
//! batched-solver scaling figures), for the batch's one engine: a pool
//! sweep in which every vertex runs its own stepper.
//!
//! Stages:
//!   1. *Verification* — the pool sweep and the per-vertex host loop
//!      (`landau_testkit::oracle::host_loop_advance`) of the same batch
//!      must agree **bitwise** on every vertex state before any timing is
//!      trusted (`batch_bitwise_identical`, gated exactly).
//!   2. *Scaling* — productive Newton iterations per second of the pool
//!      sweep at 1/16/64/256/1024 vertices, gated against the committed
//!      baseline (`newton_per_sec_pool_*` may not fall under 0.6× of it),
//!      plus the reference host loop at 256 and 1024. The host loop is the
//!      bitwise oracle, not a competitor: `speedup_256`/`speedup_1024` are
//!      reported for the record only. Both sides run on one pool thread,
//!      so the ratio compares the sweep's bookkeeping with the plain loop
//!      rather than thread counts.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench batch_scaling -- --quick`.
//! Results land in `BENCH_batch_scaling.json` at the workspace root.
//! Quick and full runs emit identical metric names (the gate fails on
//! schema drift); full mode only takes more steps.

use landau_bench::write_bench_json;
use landau_core::batch::{BatchStats, BatchedAdvance};
use landau_core::operator::Backend;
use landau_core::{Species, SpeciesList};
use landau_fem::FemSpace;
use landau_mesh::presets::{MeshSpec, RefineShell};
use landau_testkit::oracle::host_loop_advance;

const COUNTS: [usize; 5] = [1, 16, 64, 256, 1024];
const DT: f64 = 0.4;

/// A small adapted mesh: large enough that every vertex runs a real
/// multi-iteration implicit solve, small enough that the 1024-vertex
/// point finishes in CI.
fn bench_space() -> FemSpace {
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

/// Advance a fresh batch with `advance` (the pool sweep, or the host-loop
/// oracle) and return (productive newton it/s, the stats).
fn run(
    space: &FemSpace,
    n_vertices: usize,
    advance: impl FnOnce(&mut BatchedAdvance) -> BatchStats,
) -> (f64, BatchStats) {
    let mut b = BatchedAdvance::new(space, &plasma(), Backend::Cpu, n_vertices);
    let stats = advance(&mut b);
    assert_eq!(stats.failed, 0, "healthy batch must not fail: {stats:?}");
    (stats.newton_per_sec, stats)
}

fn main() {
    // Before the first parallel sweep reads it (once, for the process).
    std::env::set_var("LANDAU_PAR_THREADS", "1");
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 2 } else { 6 };
    let mut json: Vec<(String, f64)> = Vec::new();
    let space = bench_space();

    // --- Stage 1: bitwise gate -------------------------------------------
    let mut host = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 8);
    let hs = host_loop_advance(&mut host, DT, steps, 0.0);
    let mut pool = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 8);
    let fs = pool.advance(DT, steps, 0.0);
    let identical = host.states.iter().zip(&pool.states).all(|(a, b)| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    });
    println!(
        "verify: pool sweep vs host loop on 8 vertices x {steps} steps: {} \
         ({} vs {} Newton iters)",
        if identical {
            "bitwise identical"
        } else {
            "MISMATCH"
        },
        fs.newton_iters,
        hs.newton_iters,
    );
    assert!(identical, "pool sweep diverged from the host loop");
    assert_eq!(fs.newton_iters, hs.newton_iters);
    json.push(("batch_bitwise_identical".into(), 1.0));

    // --- Stage 2: throughput scaling -------------------------------------
    println!(
        "\n{:>9} {:>14} {:>10}",
        "vertices", "newton it/s", "seconds"
    );
    let mut pool_at = std::collections::BTreeMap::new();
    for &nv in &COUNTS {
        let (nps, st) = run(&space, nv, |b| b.advance(DT, steps, 0.0));
        println!("{nv:>9} {nps:>14.1} {:>10.2} (pool sweep)", st.seconds);
        json.push((format!("newton_per_sec_pool_{nv}"), nps));
        pool_at.insert(nv, nps);
    }
    for &nv in &[256usize, 1024] {
        let (nps, st) = run(&space, nv, |b| host_loop_advance(b, DT, steps, 0.0));
        println!("{nv:>9} {nps:>14.1} {:>10.2} (host loop)", st.seconds);
        json.push((format!("newton_per_sec_host_{nv}"), nps));
        let speedup = pool_at[&nv] / nps;
        println!("          speedup at {nv}: {speedup:.2}x (not gated)");
        json.push((format!("speedup_{nv}"), speedup));
    }
    // The 256-vertex rate over the single-vertex one; report the scaling
    // ratio so regressions in large-batch throughput show up even if
    // absolute rates drift.
    json.push((
        "pool_scaling_256_over_1".into(),
        pool_at[&256] / pool_at[&1],
    ));

    let path = write_bench_json("BENCH_batch_scaling.json", &json);
    println!("wrote {}", path.display());
}
