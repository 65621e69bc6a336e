//! Layer replay: time calls into each layer's public functions, from
//! outside, on inputs captured from a workload.
//!
//! Every timing is the median of [`REPS`] calls after [`WARM`] unmeasured
//! ones. Bytes moved are *computed* from the kernel's own tally, not
//! measured; the roofline the kernel is placed against is measured here,
//! in the same run, on this host.

use crate::run::Ctx;
use crate::util::{llc_bytes, median, timed};
use crate::workloads::perf80;
use landau_core::ckpt::{CheckpointStore, DirStorage, MemStorage, Storage};
use landau_core::operator::{Backend, LandauOperator};
use landau_core::solver::{ThetaMethod, TimeIntegrator};
use landau_core::tensor_cache::DEFAULT_BUDGET_BYTES;
use landau_fem::FemSpace;
use landau_sparse::band::{BandMatrix, BlockBandSolver};
use landau_sparse::batched::BatchedBandStorage;
use landau_sparse::csr::Csr;
use landau_sparse::rcm::{bandwidth, rcm_order};
use std::hint::black_box;
use std::path::Path;

pub const WARM: usize = 2;
pub const REPS: usize = 9;

/// LLC size assumed where sysfs does not report one.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

/// The measured host roofline.
pub struct Host {
    pub fma_gflops: f64,
    pub triad_gbs: f64,
}

/// The median wall seconds of [`REPS`] calls after [`WARM`] unmeasured
/// ones, each recorded as a span called `name` (the metric the timing
/// feeds, or the function called). `prepare` builds each call's input
/// outside the timed interval.
fn replay_traced<I, T>(
    ctx: &mut Ctx,
    name: &str,
    mut prepare: impl FnMut() -> I,
    mut call: impl FnMut(I) -> T,
) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for k in 0..WARM + REPS {
        let input = prepare();
        let (out, s) = timed(|| ctx.tr.call(name, k as u64, || call(input)));
        black_box(out);
        if k >= WARM {
            samples.push(s);
        }
    }
    median(&samples)
}

/// Peak multiply-add rate and triad bandwidth of this host at the pool's
/// thread count, as this build's code generation reaches them.
pub fn host_roofline(ctx: &mut Ctx) -> Host {
    let threads = landau_par::current_num_threads();
    ctx.tr.enter("replay.host_roofline", 0);

    // Sixteen independent multiply-add chains per thread: enough to fill
    // the pipelines, few enough to stay in registers.
    const CHAINS: usize = 16;
    const ITERS: u64 = 40_000_000;
    let (_, fma_s) = timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let (b, c) = (black_box(1.000_000_001f64), black_box(1e-9f64));
                    let mut acc = [1.0f64; CHAINS];
                    for _ in 0..ITERS {
                        for a in &mut acc {
                            *a = *a * b + c;
                        }
                    }
                    black_box(acc);
                });
            }
        });
    });
    let fma_gflops = (threads as u64 * ITERS * CHAINS as u64 * 2) as f64 / fma_s / 1e9;

    let llc = llc_bytes().unwrap_or(FALLBACK_LLC_BYTES);
    let n = (4 * llc as usize).div_ceil(8);
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let chunk = n.div_ceil(threads);
    let mut best_s = f64::INFINITY;
    // The first pass faults the pages in and is not counted.
    for pass in 0..4 {
        let (_, s) = timed(|| {
            std::thread::scope(|scope| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    scope.spawn(move || {
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = *y + 3.0 * *z;
                        }
                    });
                }
            });
        });
        if pass > 0 {
            best_s = best_s.min(s);
        }
    }
    black_box(&a);
    let triad_gbs = (3 * 8 * n) as f64 / best_s / 1e9;
    ctx.tr.exit();

    println!(
        "host roofline: LLC {:.1} MB (sysfs: {}), triad arrays 3 x {:.1} MB, {threads} threads",
        llc as f64 / (1 << 20) as f64,
        llc_bytes().is_some(),
        (8 * n) as f64 / (1 << 20) as f64,
    );
    ctx.set("host.fma_gflops", fma_gflops);
    ctx.set("host.triad_gbs", triad_gbs);
    ctx.set("host.llc_mb", llc as f64 / (1 << 20) as f64);
    ctx.set("par.threads", threads as f64);
    Host {
        fma_gflops,
        triad_gbs,
    }
}

const ASSEMBLE_MS: [(Backend, [&str; 2]); 3] = [
    (
        Backend::Cpu,
        [
            "core.operator.assemble_ms.cpu_recompute",
            "core.operator.assemble_ms.cpu_cached",
        ],
    ),
    (
        Backend::CudaModel,
        [
            "core.operator.assemble_ms.cuda_model_recompute",
            "core.operator.assemble_ms.cuda_model_cached",
        ],
    ),
    (
        Backend::KokkosModel,
        [
            "core.operator.assemble_ms.kokkos_model_recompute",
            "core.operator.assemble_ms.kokkos_model_cached",
        ],
    ),
];
const CPU_ROOFLINE: [[&str; 3]; 2] = [
    [
        "core.operator.assemble_gflops.cpu_recompute",
        "core.operator.assemble_ai.cpu_recompute",
        "core.operator.assemble_roofline_frac.cpu_recompute",
    ],
    [
        "core.operator.assemble_gflops.cpu_cached",
        "core.operator.assemble_ai.cpu_cached",
        "core.operator.assemble_roofline_frac.cpu_cached",
    ],
];

/// `IpData::pack` and `LandauOperator::assemble` on the §V problem at
/// `state`, for each backend with the tensor cache off and on. Returns
/// the seconds of one cached CPU assemble (what `perf80_solo` runs).
pub fn kernel_and_assembly(ctx: &mut Ctx, state: &[f64], host: &Host) -> f64 {
    ctx.tr.enter("replay.kernel_and_assembly", 0);
    let mut cpu_cached_s = 0.0;
    let mut recompute_s = [0.0; 3];
    for (b, (backend, names)) in ASSEMBLE_MS.into_iter().enumerate() {
        let space = FemSpace::new(perf80::mesh_spec().build(), 3);
        let op = perf80::operator(space, backend);
        let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
        for (cached, name) in names.into_iter().enumerate() {
            if cached == 1 {
                ti.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
            }
            let before = ti.op.device.kernel_stats("landau_jacobian");
            let secs = replay_traced(ctx, name, || (), |()| ti.op.assemble(state, 0.0));
            let after = ti.op.device.kernel_stats("landau_jacobian");
            ctx.set(name, secs * 1e3);
            if cached == 0 {
                recompute_s[b] = secs;
            }
            if backend == Backend::Cpu {
                let calls = (after.launches - before.launches) as f64;
                let flops = (after.flops - before.flops) as f64 / calls;
                let bytes = ((after.dram_read + after.dram_write)
                    - (before.dram_read + before.dram_write)) as f64
                    / calls;
                let gflops = flops / secs / 1e9;
                let ai = flops / bytes;
                let [n_gflops, n_ai, n_frac] = CPU_ROOFLINE[cached];
                ctx.set(n_gflops, gflops);
                ctx.set(n_ai, ai);
                ctx.set(n_frac, gflops / host.fma_gflops.min(host.triad_gbs * ai));
                if cached == 1 {
                    cpu_cached_s = secs;
                }
            }
        }
        if backend == Backend::Cpu {
            let space = ti.op.space.clone();
            let pack_s = replay_traced(
                ctx,
                "core.ipdata.pack",
                || (),
                |()| ti.op.ipdata.pack(&space, state),
            );
            ctx.set("core.ipdata.pack_ms", pack_s * 1e3);
            let mass_s = replay_traced(
                ctx,
                "core.operator.assemble_shifted_mass",
                || (),
                |()| ti.op.assemble_shifted_mass(1.0),
            );
            ctx.set("core.operator.mass_assemble_ms", mass_s * 1e3);
        }
    }
    ctx.tr.exit();
    // The paper's ~1.15x is between the closed-form kernels.
    ctx.set("vgpu.kokkos_over_cuda", recompute_s[2] / recompute_s[1]);
    cpu_cached_s
}

/// The ordering the integrator solves in: RCM, or a z-major sweep of the
/// node positions where that gives the narrower band. Returns the
/// permutation, its half-bandwidth and the seconds `rcm_order` took.
fn solver_order(ctx: &mut Ctx, op: &LandauOperator) -> (Vec<usize>, usize, f64) {
    let rcm_s = replay_traced(ctx, "sparse.rcm.order", || (), |()| rcm_order(&op.mass));
    let rcm = rcm_order(&op.mass);
    let mut sweep: Vec<usize> = (0..op.n()).collect();
    sweep.sort_by(|&a, &b| {
        let ((ra, za), (rb, zb)) = (op.space.dof_positions[a], op.space.dof_positions[b]);
        za.total_cmp(&zb).then(ra.total_cmp(&rb))
    });
    let bw_rcm = bandwidth(&op.mass.permute_symmetric(&rcm));
    let bw_sweep = bandwidth(&op.mass.permute_symmetric(&sweep));
    if bw_sweep < bw_rcm {
        (sweep, bw_sweep, rcm_s)
    } else {
        (rcm, bw_rcm, rcm_s)
    }
}

/// The per-species Newton matrices `M − Δt·L_s(state)`, permuted.
fn newton_blocks(op: &mut LandauOperator, state: &[f64], dt: f64, perm: &[usize]) -> Vec<Csr> {
    let assembled = op.assemble(state, 0.0);
    assembled
        .mats
        .iter()
        .map(|l| {
            let mut j = op.mass.clone();
            j.axpy_same_pattern(-dt, l);
            j.permute_symmetric(perm)
        })
        .collect()
}

/// `BlockBandSolver` load / factor / solve on the §V problem's ten
/// `M − Δt·L` blocks at `state`. Returns the seconds of one load + factor
/// + solve, the linear-solve part of one Newton iteration.
pub fn solo_band(ctx: &mut Ctx, state: &[f64]) -> f64 {
    ctx.tr.enter("replay.solo_band", 0);
    let space = FemSpace::new(perf80::mesh_spec().build(), 3);
    let mut op = perf80::operator(space, Backend::Cpu);
    let (perm, bw, rcm_s) = solver_order(ctx, &op);
    ctx.set("sparse.rcm.order_ms", rcm_s * 1e3);
    ctx.set("sparse.rcm.bandwidth", bw as f64);

    // One block-diagonal CSR over all species, as the integrator builds.
    let blocks = newton_blocks(&mut op, state, perf80::DT, &perm);
    let (n, ns) = (op.n(), blocks.len());
    let cols: Vec<Vec<usize>> = blocks
        .iter()
        .enumerate()
        .flat_map(|(s, b)| {
            (0..n).map(move |i| {
                b.col_idx[b.row_ptr[i]..b.row_ptr[i + 1]]
                    .iter()
                    .map(|&c| s * n + c)
                    .collect()
            })
        })
        .collect();
    let mut big = Csr::from_pattern(ns * n, ns * n, &cols);
    for (s, b) in blocks.iter().enumerate() {
        for i in 0..n {
            for k in b.row_ptr[i]..b.row_ptr[i + 1] {
                big.add_value(s * n + i, s * n + b.col_idx[k], b.vals[k]);
            }
        }
    }
    let sizes = vec![n; ns];

    let load_s = replay_traced(
        ctx,
        "sparse.band.from_block_csr",
        || (),
        |()| BlockBandSolver::from_block_csr(&big, &sizes),
    );
    let loaded = BlockBandSolver::from_block_csr(&big, &sizes);
    let factor_s = replay_traced(
        ctx,
        "sparse.band.factor",
        || loaded.clone(),
        |mut s| {
            s.factor().expect("M - dt L is nonsingular");
            s
        },
    );
    let mut factored = loaded.clone();
    factored.factor().expect("M - dt L is nonsingular");
    let rhs: Vec<f64> = (0..ns * n).map(|i| 1.0 + (i % 7) as f64).collect();
    let solve_s = replay_traced(
        ctx,
        "sparse.band.solve_into",
        || rhs.clone(),
        |mut x| {
            factored.solve_into(&mut x);
            x
        },
    );
    ctx.tr.exit();
    ctx.set("sparse.band.load_ms", load_s * 1e3);
    ctx.set("sparse.band.factor_ms", factor_s * 1e3);
    ctx.set("sparse.band.solve_ms", solve_s * 1e3);
    ctx.set(
        "sparse.band.factor_gflops",
        loaded.factor_flops() as f64 / factor_s / 1e9,
    );
    load_s + factor_s + solve_s
}

const BATCHED_US: [(usize, [&str; 2]); 3] = [
    (
        1,
        [
            "sparse.batched.factor_us_per_lane.lanes1",
            "sparse.batched.solve_us_per_lane.lanes1",
        ],
    ),
    (
        64,
        [
            "sparse.batched.factor_us_per_lane.lanes64",
            "sparse.batched.solve_us_per_lane.lanes64",
        ],
    ),
    (
        256,
        [
            "sparse.batched.factor_us_per_lane.lanes256",
            "sparse.batched.solve_us_per_lane.lanes256",
        ],
    ),
];

/// `BatchedBandStorage` factor / solve on the batch problem's
/// `M − Δt·L` blocks at 1, 64 and 256 lanes.
pub fn batched_band(ctx: &mut Ctx, op: &mut LandauOperator, state: &[f64], dt: f64) {
    ctx.tr.enter("replay.batched_band", 0);
    let (perm, bw, rcm_s) = solver_order(ctx, op);
    ctx.set("sparse.rcm.order_ms", rcm_s * 1e3);
    ctx.set("sparse.rcm.bandwidth", bw as f64);
    let bands: Vec<BandMatrix> = newton_blocks(op, state, dt, &perm)
        .iter()
        .map(BandMatrix::from_csr)
        .collect();
    let n = op.n();
    for (lanes, [factor_name, solve_name]) in BATCHED_US {
        let mats: Vec<BandMatrix> = (0..lanes).map(|m| bands[m % bands.len()].clone()).collect();
        let active = vec![true; lanes];
        let factor_s = replay_traced(
            ctx,
            factor_name,
            || BatchedBandStorage::from_band_matrices(&mats),
            |mut s| {
                let failed = s.factor(&active);
                assert!(
                    failed.iter().all(Option::is_none),
                    "M - dt L is nonsingular"
                );
                s
            },
        );
        let mut factored = BatchedBandStorage::from_band_matrices(&mats);
        factored.factor(&active);
        let rhs: Vec<f64> = (0..n * lanes).map(|i| 1.0 + (i % 7) as f64).collect();
        let solve_s = replay_traced(
            ctx,
            solve_name,
            || rhs.clone(),
            |mut x| {
                factored.solve_into(&mut x, &active);
                x
            },
        );
        ctx.set(factor_name, factor_s * 1e6 / lanes as f64);
        ctx.set(solve_name, solve_s * 1e6 / lanes as f64);
        if lanes == 256 {
            ctx.set(
                "sparse.batched.heap_mb",
                factored.approx_heap_bytes() as f64 / (1 << 20) as f64,
            );
        }
    }
    ctx.tr.exit();
}

/// `CheckpointStore::save` / `load_latest` of the driver's own frame over
/// a directory and over memory.
pub fn checkpoints(ctx: &mut Ctx, payload: &[u8], dir: &Path) {
    ctx.tr.enter("replay.checkpoints", 0);
    let save = |ctx: &mut Ctx, metric: &'static str, storage: Box<dyn Storage>| {
        let mut store = CheckpointStore::new(storage, 2);
        let save_s = replay_traced(ctx, metric, || (), |()| store.save(payload).expect("save"));
        ctx.set(metric, save_s * 1e3);
        (store, save_s)
    };
    save(
        ctx,
        "core.ckpt.save_ms_p50.mem",
        Box::new(MemStorage::new()),
    );
    let on_disk = DirStorage::new(dir).expect("checkpoint replay directory");
    let (mut store, save_s) = save(ctx, "core.ckpt.save_ms_p50.dir", Box::new(on_disk));
    let load_s = replay_traced(
        ctx,
        "core.ckpt.load_ms.dir",
        || (),
        |()| store.load_latest().expect("load").expect("a generation"),
    );
    ctx.tr.exit();
    ctx.set("core.ckpt.load_ms.dir", load_s * 1e3);
    ctx.set(
        "core.ckpt.mb_per_sec.dir",
        payload.len() as f64 / (1 << 20) as f64 / save_s,
    );
    ctx.set("core.ckpt.frame_kb", payload.len() as f64 / 1024.0);
}
