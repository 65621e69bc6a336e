//! Micro-benchmarks of the Landau kernels and the §III-F assembly-path
//! ablation, and the gates on the CPU inner integral, both on the §V
//! problem (ten species, N = 1280). Cached: the five-stream, stage-once
//! kernel must return the bits of the seven-stream, stage-per-tile kernel
//! it replaced (`cached_cpu_bitwise`, exact) and beat it by a ratio
//! (`cached_cpu_speedup_vs_reference`, min-of-N over min-of-N in one
//! process, floor 2.5×). Closed form: the same fold over tiles evaluated
//! in lockstep (`Backend::Cpu` without a cache) must stay within 1e-13 of
//! the scalar per-pair `inner_integral_cpu` (`closed_form_cpu_rel_diff`)
//! and beat it (`closed_form_cpu_speedup_vs_reference`, floor 2×). The
//! Jacobian tail (element matrices plus atomic scatter) builds the pair
//! `A_K`, `A_D` once instead of one matrix per species: its materialised
//! matrices must stay within 1e-14 of the per-species tail of
//! `landau_testkit::oracle` (`jacobian_tail_rel_diff`) and beat it
//! (`jacobian_tail_speedup_vs_reference`, interleaved min-of-N, floor 3×).
//! Ratios, not seconds, so the committed baseline means something on
//! another machine.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench kernels [-- --quick]`. The gate's
//! numbers land in `BENCH_kernels.json` at the workspace root; `--quick`
//! only skips the ungated timings, which are printed.

use landau_bench::{min_seconds, min_seconds_pair, perf_operator, write_bench_json};
use landau_core::ipdata::IpData;
use landau_core::kernels::{
    assemble_atomic, assemble_setvalues, inner_integral_cpu, inner_integral_cpu_cached,
    inner_integral_cuda_model, inner_integral_cuda_model_cached, inner_integral_kokkos_cached,
    inner_integral_kokkos_model, landau_element_matrices, mass_element_matrices,
};
use landau_core::operator::{Backend, LandauOperator};
use landau_core::species::{Species, SpeciesList};
use landau_core::tensor::landau_tensor_2d;
use landau_core::TensorTable;
use landau_fem::assemble::csr_pattern;
use landau_fem::FemSpace;
use landau_mesh::presets::{MeshSpec, RefineShell};
use landau_testkit::oracle::{coeff_bits, species_tail, SevenStreamTable};
use landau_vgpu::kokkos::PlainFactory;
use landau_vgpu::Tally;
use std::hint::black_box;
use std::time::Instant;

/// Time `body` for `iters` iterations and print the mean time per iteration.
fn bench<R>(name: &str, iters: usize, mut body: impl FnMut() -> R) {
    // One warm-up pass keeps lazily-initialised state out of the timing.
    black_box(body());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    if per_iter >= 1e-3 {
        println!("{name:<40} {:>10.3} ms/iter", per_iter * 1e3);
    } else {
        println!("{name:<40} {:>10.3} µs/iter", per_iter * 1e6);
    }
}

/// The cached comparison on the packed §V problem; returns its
/// `BENCH_kernels.json` entries.
fn cached_cpu_gate(ip: &IpData, sl: &SpeciesList) -> Vec<(String, f64)> {
    let table = TensorTable::build(&ip.points, usize::MAX);
    let reference = SevenStreamTable::build(ip, true);

    let (new, _) = inner_integral_cpu_cached(ip, sl, &table);
    let old = reference.inner_integral(ip, sl);
    let bitwise = coeff_bits(&new) == coeff_bits(&old);

    let t_new = min_seconds(15, || (), |()| inner_integral_cpu_cached(ip, sl, &table));
    let t_ref = min_seconds(9, || (), |()| reference.inner_integral(ip, sl));
    let speedup = t_ref / t_new;
    println!(
        "cached_cpu gate: N = {}, {} species; reference {:.3} ms, stage-once five-stream \
         {:.3} ms, {speedup:.2}x (floor 2.5x), bits {}",
        ip.n,
        ip.ns,
        t_ref * 1e3,
        t_new * 1e3,
        if bitwise { "identical" } else { "DIFFER" }
    );
    vec![
        ("cached_cpu_bitwise".into(), f64::from(u8::from(bitwise))),
        ("cached_cpu_speedup_vs_reference".into(), speedup),
        ("cached_cpu_ms".into(), t_new * 1e3),
        ("cached_cpu_reference_ms".into(), t_ref * 1e3),
    ]
}

/// The closed-form comparison on the same problem; returns its
/// `BENCH_kernels.json` entries.
fn closed_form_cpu_gate(ip: &IpData, sl: &SpeciesList) -> Vec<(String, f64)> {
    let table = TensorTable::build(&ip.points, 0);

    let (new, _) = inner_integral_cpu_cached(ip, sl, &table);
    let (reference, _) = inner_integral_cpu(ip, sl);
    let rel_diff = new.max_rel_diff(&reference);

    let t_new = min_seconds(9, || (), |()| inner_integral_cpu_cached(ip, sl, &table));
    let t_ref = min_seconds(5, || (), |()| inner_integral_cpu(ip, sl));
    let speedup = t_ref / t_new;
    println!(
        "closed_form_cpu gate: scalar per-pair reference {:.3} ms, lane-block fold {:.3} ms, \
         {speedup:.2}x (floor 2x), rel diff {rel_diff:.2e}",
        t_ref * 1e3,
        t_new * 1e3,
    );
    vec![
        ("closed_form_cpu_rel_diff".into(), rel_diff),
        ("closed_form_cpu_speedup_vs_reference".into(), speedup),
        ("closed_form_cpu_ms".into(), t_new * 1e3),
        ("closed_form_cpu_reference_ms".into(), t_ref * 1e3),
    ]
}

/// The Jacobian tail of the §V operator (atomic scatter, `E = 0`): the
/// pair against the per-species tail it replaced, on the same
/// coefficients; returns its `BENCH_kernels.json` entries.
fn jacobian_tail_gate(op: &mut LandauOperator) -> Vec<(String, f64)> {
    let state = op.initial_state();
    let geom = op.geometry().clone();
    op.ipdata.pack(&geom.space, &state);
    let (coeffs, _) = inner_integral_cpu_cached(&op.ipdata, &op.species, op.tensor_table());
    let op = &*op;
    let mut jac = op.new_jacobian();
    op.assemble_tail(&coeffs, Tally::new(), &mut jac, 0.0);
    let pair = jac.materialise();
    let mut mats = pair.clone();
    species_tail(op, &coeffs, 0.0, &mut mats);
    let rel_diff = pair
        .iter()
        .zip(&mats)
        .map(|(p, r)| {
            let scale = r.vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let diff = p.vals.iter().zip(&r.vals);
            diff.fold(0.0f64, |m, (x, y)| m.max((x - y).abs())) / scale
        })
        .fold(0.0, f64::max);

    let (t_new, t_ref) = min_seconds_pair(
        15,
        || op.assemble_tail(&coeffs, Tally::new(), &mut jac, 0.0),
        || species_tail(op, &coeffs, 0.0, &mut mats),
    );
    let speedup = t_ref / t_new;
    println!(
        "jacobian_tail gate: {} species; per-species reference {:.3} ms, pair {:.3} ms, \
         {speedup:.2}x (floor 3x), rel diff {rel_diff:.2e}",
        op.species.len(),
        t_ref * 1e3,
        t_new * 1e3,
    );
    vec![
        ("jacobian_tail_rel_diff".into(), rel_diff),
        ("jacobian_tail_speedup_vs_reference".into(), speedup),
        ("jacobian_tail_ms".into(), t_new * 1e3),
        ("jacobian_tail_reference_ms".into(), t_ref * 1e3),
    ]
}

fn setup() -> (FemSpace, SpeciesList, IpData) {
    let spec = MeshSpec {
        domain_radius: 4.0,
        base_level: 1,
        shells: vec![RefineShell {
            radius: 2.0,
            max_cell_size: 1.0,
        }],
        tail_box: None,
    };
    let space = FemSpace::new(spec.build(), 3);
    let sl = SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 1.0,
            temperature: 0.7,
        },
    ]);
    let mut ip = IpData::new(&space, &sl);
    let nd = space.n_dofs;
    let mut state = vec![0.0; 2 * nd];
    for (s, sp) in sl.list.iter().enumerate() {
        state[s * nd..(s + 1) * nd]
            .copy_from_slice(&space.interpolate(|r, z| sp.maxwellian(r, z, 0.0)));
    }
    ip.pack(&space, &state);
    (space, sl, ip)
}

fn main() {
    let mut op = perf_operator(80, Backend::Cpu);
    let mut ip = IpData::new(&op.space, &op.species);
    ip.pack(&op.space, &op.initial_state());
    let mut json = cached_cpu_gate(&ip, &op.species);
    json.extend(closed_form_cpu_gate(&ip, &op.species));
    json.extend(jacobian_tail_gate(&mut op));
    let path = write_bench_json("BENCH_kernels.json", &json);
    println!("wrote {}", path.display());
    let value = |name: &str| json.iter().find(|(n, _)| n == name).expect("emitted").1;
    assert!(
        value("cached_cpu_bitwise") == 1.0,
        "cached CPU kernel left other bits than the seven-stream reference"
    );
    assert!(
        value("cached_cpu_speedup_vs_reference") >= 2.5,
        "cached CPU kernel under 2.5x the seven-stream reference"
    );
    assert!(
        value("closed_form_cpu_rel_diff") < 1e-13,
        "closed-form CPU kernel left the scalar per-pair reference"
    );
    assert!(
        value("closed_form_cpu_speedup_vs_reference") >= 2.0,
        "closed-form CPU kernel under 2x the scalar per-pair reference"
    );
    assert!(
        value("jacobian_tail_rel_diff") < 1e-14,
        "the pair Jacobian tail left the per-species reference"
    );
    assert!(
        value("jacobian_tail_speedup_vs_reference") >= 3.0,
        "the pair Jacobian tail under 3x the per-species reference"
    );
    if std::env::args().any(|a| a == "--quick") {
        return;
    }

    bench("landau_tensor_2d", 100_000, || {
        landau_tensor_2d(
            black_box(0.53),
            black_box(-0.21),
            black_box(1.17),
            black_box(0.84),
        )
    });

    let (space, sl, ip) = setup();
    bench("inner_integral/cpu", 10, || inner_integral_cpu(&ip, &sl));
    bench("inner_integral/cuda_model", 10, || {
        inner_integral_cuda_model(&ip, &sl, 16)
    });
    bench("inner_integral/kokkos_model", 10, || {
        inner_integral_kokkos_model(&ip, &sl, 16)
    });

    let table = TensorTable::build(&ip.points, usize::MAX);
    bench("inner_integral/cpu_cached", 10, || {
        inner_integral_cpu_cached(&ip, &sl, &table)
    });
    bench("inner_integral/cuda_model_cached", 10, || {
        inner_integral_cuda_model_cached(&ip, &sl, 16, &table)
    });
    bench("inner_integral/kokkos_model_cached", 10, || {
        inner_integral_kokkos_cached(&ip, &sl, 16, &table, &PlainFactory)
    });
    let recompute = TensorTable::build(&ip.points, 0);
    bench("inner_integral/cpu_recompute", 10, || {
        inner_integral_cpu_cached(&ip, &sl, &recompute)
    });

    let (coeffs, _) = inner_integral_cpu(&ip, &sl);
    let ce = landau_element_matrices(&space, &ip, &coeffs);
    let pat = csr_pattern(&space);
    bench("assembly/transform_element_matrices", 20, || {
        landau_element_matrices(&space, &ip, &coeffs)
    });
    {
        let mut mats = vec![pat.clone(), pat.clone()];
        bench("assembly/setvalues", 20, || {
            assemble_setvalues(&space, 2, &ce, &mut mats)
        });
    }
    {
        let mut mats = vec![pat.clone(), pat.clone()];
        bench("assembly/atomic", 20, || {
            assemble_atomic(&space, 2, &ce, &mut mats)
        });
    }
    bench("assembly/mass_kernel", 20, || {
        mass_element_matrices(&space, 2, &ip, 1.0)
    });
}
