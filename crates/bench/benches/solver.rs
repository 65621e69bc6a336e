//! Benchmarks of the direct solver (§III-G ablation: banded LU vs dense
//! LU; RCM vs natural ordering) and the gate on the band LU itself: on a
//! block shaped like the §V problem's (n ≈ 750, half-bandwidth ≈ 120,
//! ragged RCM profile) the envelope sweep must leave the bits of the
//! scalar full-band reference (`band_factor_bitwise`, exact) and beat it
//! by a ratio (`band_factor_speedup_vs_reference`, min-of-N over
//! min-of-N on the same matrix, floor 4×) — a ratio, not seconds, so the
//! committed baseline means something on another machine.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench solver [-- --quick]`. Results land
//! in `BENCH_solver.json` at the workspace root; `--quick` only skips the
//! ungated ablation timings.

use landau_bench::{min_seconds, write_bench_json};
use landau_math::dense::{DenseLu, DenseMatrix};
use landau_sparse::band::BandMatrix;
use landau_sparse::csr::Csr;
use landau_sparse::rcm::{bandwidth, rcm_order};
use landau_testkit::oracle::RefBand;
use std::hint::black_box;
use std::time::Instant;

/// Time `body` for `iters` iterations and print mean time per iteration.
fn bench<R>(name: &str, iters: usize, mut body: impl FnMut() -> R) {
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

/// A 2D 5-point-grid-like SPD system of dimension n = k².
fn grid_system(k: usize) -> Csr {
    let n = k * k;
    let mut cols = vec![Vec::new(); n];
    let idx = |x: usize, y: usize| y * k + x;
    for y in 0..k {
        for x in 0..k {
            let u = idx(x, y);
            cols[u].push(u);
            if x > 0 {
                cols[u].push(idx(x - 1, y));
            }
            if x + 1 < k {
                cols[u].push(idx(x + 1, y));
            }
            if y > 0 {
                cols[u].push(idx(x, y - 1));
            }
            if y + 1 < k {
                cols[u].push(idx(x, y + 1));
            }
        }
    }
    let mut a = Csr::from_pattern(n, n, &cols);
    for i in 0..n {
        for kk in a.row_ptr[i]..a.row_ptr[i + 1] {
            a.vals[kk] = if a.col_idx[kk] == i { 4.5 } else { -1.0 };
        }
    }
    a
}

/// Q3-like coupling on a `kx × ky` node grid: every node within
/// Chebyshev distance 3. 22 × 34 gives the §V problem's n = 748, and under
/// RCM a half-bandwidth near its 123 with a similarly ragged profile.
fn wide_stencil_system(kx: usize, ky: usize) -> Csr {
    let cols: Vec<Vec<usize>> = (0..kx * ky)
        .map(|u| {
            let near = |c: usize, k: usize| c.saturating_sub(3)..=(c + 3).min(k - 1);
            near(u / kx, ky)
                .flat_map(|y| near(u % kx, kx).map(move |x| y * kx + x))
                .collect()
        })
        .collect();
    let mut a = Csr::from_pattern(kx * ky, kx * ky, &cols);
    for i in 0..a.n_rows {
        for kk in a.row_ptr[i]..a.row_ptr[i + 1] {
            let j = a.col_idx[kk];
            a.vals[kk] = if j == i {
                90.0
            } else {
                -1.0 + 0.01 * ((i * 7 + j * 13) % 17) as f64
            };
        }
    }
    a
}

/// The gated comparison; returns the `BENCH_solver.json` entries.
fn band_factor_gate() -> Vec<(String, f64)> {
    let a = wide_stencil_system(22, 34);
    let pa = a.permute_symmetric(&rcm_order(&a));
    let loaded = BandMatrix::from_csr(&pa);
    let (n, bw) = (loaded.n, loaded.lbw);
    let reference = RefBand::from_fn(n, bw, bw, |i, j| loaded.get(i, j));
    let fill = loaded.envelope().area() as f64 / (n * (2 * bw + 1)) as f64;
    println!(
        "band_factor gate: n = {n}, half-bandwidth {bw}, {:.0} % of the band inside the envelope",
        100.0 * fill
    );

    let mut factored = loaded.clone();
    factored.factor().expect("diagonally dominant");
    let mut ref_factored = reference.clone();
    ref_factored.factor().expect("diagonally dominant");
    let bitwise = (0..n).all(|i| {
        (i.saturating_sub(bw)..=(i + bw).min(n - 1))
            .all(|j| factored.get(i, j).to_bits() == ref_factored.get(i, j).to_bits())
    });

    let t_new = min_seconds(9, || loaded.clone(), |mut m| m.factor().map(|()| m));
    let t_ref = min_seconds(5, || reference.clone(), |mut m| m.factor().map(|()| m));
    let speedup = t_ref / t_new;
    println!(
        "band_factor gate: reference {:.3} ms, envelope sweep {:.3} ms, {speedup:.1}x \
         (floor 4x), bits {}",
        t_ref * 1e3,
        t_new * 1e3,
        if bitwise { "identical" } else { "DIFFER" }
    );
    vec![
        ("band_factor_bitwise".into(), f64::from(u8::from(bitwise))),
        ("band_factor_speedup_vs_reference".into(), speedup),
        ("band_factor_ms".into(), t_new * 1e3),
        ("band_factor_reference_ms".into(), t_ref * 1e3),
        ("band_envelope_fill".into(), fill),
    ]
}

fn main() {
    let json = band_factor_gate();
    let path = write_bench_json("BENCH_solver.json", &json);
    println!("wrote {}", path.display());
    let value = |name: &str| json.iter().find(|(n, _)| n == name).expect("emitted").1;
    assert!(
        value("band_factor_bitwise") == 1.0,
        "envelope LU left other bits than the scalar reference"
    );
    assert!(
        value("band_factor_speedup_vs_reference") >= 4.0,
        "envelope LU under 4x the scalar reference"
    );
    if std::env::args().any(|a| a == "--quick") {
        return;
    }

    let k = 18; // n = 324, the Landau-block size class
    let a = grid_system(k);
    let n = a.n_rows;
    let perm = rcm_order(&a);
    let pa = a.permute_symmetric(&perm);
    let bw = bandwidth(&pa);
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    bench(&format!("direct_solver/band_lu_rcm_bw{bw}"), 20, || {
        let mut m = BandMatrix::from_csr(&pa);
        m.factor().unwrap();
        let mut x = b.clone();
        m.solve_into(&mut x);
        x
    });

    let bw_nat = bandwidth(&a);
    bench(
        &format!("direct_solver/band_lu_natural_bw{bw_nat}"),
        20,
        || {
            let mut m = BandMatrix::from_csr(&a);
            m.factor().unwrap();
            let mut x = b.clone();
            m.solve_into(&mut x);
            x
        },
    );

    let d = {
        let mut d = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for kk in a.row_ptr[i]..a.row_ptr[i + 1] {
                d[(i, a.col_idx[kk])] = a.vals[kk];
            }
        }
        d
    };
    bench("direct_solver/dense_lu", 20, || {
        let lu = DenseLu::factor(&d).unwrap();
        lu.solve(&b)
    });
}
