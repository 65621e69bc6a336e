//! Property-based tests: band LU vs dense and, bit for bit, vs the scalar
//! full-band reference; COO vs set-values, RCM validity, and
//! atomic-scatter exactness under contention.

use landau_math::dense::{dense_solve, DenseMatrix};
use landau_sparse::atomic::AtomicF64;
use landau_sparse::band::{BandMap, BandMatrix, BlockBandSolver, Envelope};
use landau_sparse::batched::BatchedBandStorage;
use landau_sparse::coo::CooMatrix;
use landau_sparse::csr::{Csr, InsertMode};
use landau_sparse::rcm::{bandwidth, rcm_order};
use landau_testkit::oracle::RefBand;
use landau_testkit::{cases, prop_assert, Rng};

/// Band LU agrees with dense LU on random diagonally dominant banded
/// systems of any bandwidth.
#[test]
fn band_lu_matches_dense() {
    cases(48, |rng, case| {
        let n = rng.usize_in(1, 40);
        let bw = rng.usize_in(0, 8).min(n.saturating_sub(1));
        let mut m = BandMatrix::zeros(n, bw, bw);
        for i in 0..n {
            for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                m.set(i, j, rng.f64_in(-1.0, 1.0));
            }
            let d = m.get(i, i);
            m.set(i, i, d + 4.0 * (bw as f64 + 1.0));
        }
        let mut dense = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                dense[(i, j)] = m.get(i, j);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let xd = dense_solve(&dense, &b).unwrap();
        let xb = m.factor_solve(&b).unwrap();
        for i in 0..n {
            prop_assert!(
                case,
                (xd[i] - xb[i]).abs() < 1e-8,
                "n={} bw={} i={}: {} vs {}",
                n,
                bw,
                i,
                xd[i],
                xb[i]
            );
        }
    });
}

/// COO assembly equals MatSetValues assembly for random triplet streams.
#[test]
fn coo_equals_setvalues() {
    cases(48, |rng, case| {
        let n = rng.usize_in(1, 20);
        let ntrips = rng.usize_in(0, 60);
        let trips: Vec<(usize, usize, f64)> = (0..ntrips)
            .map(|_| {
                (
                    rng.usize_in(0, n),
                    rng.usize_in(0, n),
                    rng.f64_in(-5.0, 5.0),
                )
            })
            .collect();
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in &trips {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        // Build pattern then add.
        let mut cols = vec![Vec::new(); n];
        for &(i, j, _) in &trips {
            cols[i].push(j);
        }
        let mut b = Csr::from_pattern(n, n, &cols);
        for &(i, j, v) in &trips {
            b.set_values(&[i], &[j], &[v], InsertMode::Add);
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert!(case, (a.get(i, j) - b.get(i, j)).abs() < 1e-12);
            }
        }
    });
}

/// RCM returns a valid permutation and the permuted matrix keeps the same
/// nonzero count.
#[test]
fn rcm_is_valid_permutation() {
    cases(48, |rng, case| {
        let n = rng.usize_in(2, 40);
        // Path graph + random extra edges.
        let mut cols = vec![Vec::new(); n];
        for i in 0..n {
            cols[i].push(i);
            if i + 1 < n {
                cols[i].push(i + 1);
                cols[i + 1].push(i);
            }
        }
        for _ in 0..rng.usize_in(0, 20) {
            let a = rng.usize_in(0, n);
            let b = rng.usize_in(0, n);
            cols[a].push(b);
            cols[b].push(a);
        }
        let a = Csr::from_pattern(n, n, &cols);
        let p = rcm_order(&a);
        let mut seen = vec![false; n];
        for &i in &p {
            prop_assert!(case, !seen[i], "duplicate index in permutation");
            seen[i] = true;
        }
        // Permuted matrix has the same action.
        let pa = a.permute_symmetric(&p);
        prop_assert!(case, pa.nnz() == a.nnz());
        let _ = bandwidth(&pa);
    });
}

/// matvec distributes over vector addition (CSR algebra sanity).
#[test]
fn matvec_linearity() {
    cases(48, |rng, case| {
        let n = rng.usize_in(1, 15);
        let cols: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|j| (i + j) % 3 != 1).collect())
            .collect();
        let mut a = Csr::from_pattern(n, n, &cols);
        for v in a.vals.iter_mut() {
            *v = rng.f64_in(-1.0, 1.0);
        }
        let x = rng.vec_f64(n, -1.0, 1.0);
        let y = rng.vec_f64(n, -1.0, 1.0);
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = a.matvec(&xy);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..n {
            prop_assert!(case, (lhs[i] - ax[i] - ay[i]).abs() < 1e-11);
        }
    });
}

/// `AtomicF64::fetch_add` under contention never loses an update, for
/// non-power-of-two thread counts (3, 5, 7 — the shapes that stress a CAS
/// loop's retry path differently than the power-of-two fast paths).
#[test]
fn fetch_add_contention_is_exact() {
    for &n_threads in &[3usize, 5, 7] {
        let mut slots = vec![0.0f64; 11];
        let adds_per_thread = 400;
        {
            let view = AtomicF64::cast_slice_mut(&mut slots);
            std::thread::scope(|s| {
                for t in 0..n_threads {
                    let view = &view;
                    s.spawn(move || {
                        // Each thread walks the slots starting at a
                        // different offset so contention is continuous.
                        for k in 0..adds_per_thread {
                            let slot = (t + k) % view.len();
                            view[slot].fetch_add(1.0);
                        }
                    });
                }
            });
        }
        let total: f64 = slots.iter().sum();
        assert_eq!(
            total,
            (n_threads * adds_per_thread) as f64,
            "lost updates with {n_threads} threads: {slots:?}"
        );
    }
}

/// A random square CSR whose rows have ragged extents inside half-bandwidth
/// `bw` and holes between them; the diagonal is always stored.
fn ragged_csr(rng: &mut Rng, n: usize, bw: usize) -> Csr {
    let cols: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let lo = i - rng.usize_in(0, bw.min(i) + 1);
            let hi = i + rng.usize_in(0, bw.min(n - 1 - i) + 1);
            let mut c: Vec<usize> = (lo..=hi).filter(|&j| j == i || rng.bool()).collect();
            c.extend([lo, hi]);
            c
        })
        .collect();
    let mut a = Csr::from_pattern(n, n, &cols);
    for v in a.vals.iter_mut() {
        *v = rng.f64_in(-1.0, 1.0);
    }
    a
}

/// What a case does to the random matrix before factoring it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Twist {
    /// Diagonally dominant with positive pivots: the envelope sweep runs
    /// to the end.
    Dominant,
    /// Pivots of either sign and size: the sweep widens to the band.
    Indefinite,
    /// Dominant, with a row whose diagonal and lower part are explicit
    /// zeros: the factorization stops there.
    ZeroPivot,
    /// Dominant, with an infinite or NaN entry below the diagonal, or a
    /// pivot just above the `tiny` cut: multipliers overflow.
    NonFinite,
}

fn twisted(rng: &mut Rng, a: &mut Csr, twist: Twist, bw: usize) {
    let n = a.n_rows;
    if twist != Twist::Indefinite {
        for i in 0..n {
            a.add_value(i, i, 3.0 * (bw as f64 + 1.0));
        }
    }
    // Explicit zeros of both signs inside the envelope, in every mode.
    for v in a.vals.iter_mut() {
        match rng.usize_in(0, 12) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    let row = rng.usize_in(0, n);
    match twist {
        Twist::ZeroPivot => {
            for k in a.row_ptr[row]..a.row_ptr[row + 1] {
                if a.col_idx[k] <= row {
                    a.vals[k] = if rng.bool() { 0.0 } else { -0.0 };
                }
            }
        }
        Twist::NonFinite => {
            let k = rng.usize_in(a.row_ptr[row], a.row_ptr[row + 1]);
            if a.col_idx[k] == row {
                a.vals[k] = 1e-299;
            } else {
                a.vals[k] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.usize_in(0, 3)];
            }
        }
        Twist::Dominant | Twist::Indefinite => {}
    }
}

/// The reference copy of a not yet factored band matrix.
fn reference_of(m: &BandMatrix) -> RefBand {
    RefBand::from_fn(m.n, m.lbw, m.ubw, |i, j| m.get(i, j))
}

/// Every in-band entry of the two storages carries the same bits.
fn assert_storage_bits(case: usize, what: &str, m: &BandMatrix, r: &RefBand) {
    for i in 0..m.n {
        for j in i.saturating_sub(m.lbw)..=(i + m.ubw).min(m.n - 1) {
            prop_assert!(
                case,
                m.get(i, j).to_bits() == r.get(i, j).to_bits(),
                "{}: entry ({},{}) is {:e}, the reference has {:e}",
                what,
                i,
                j,
                m.get(i, j),
                r.get(i, j)
            );
        }
    }
}

/// Factor `m` and its reference copy, compare result and storage, then —
/// when both factored — the solutions of one random right-hand side.
fn check_against_reference(rng: &mut Rng, case: usize, what: &str, mut m: BandMatrix) {
    let mut r = reference_of(&m);
    let (got, want) = (m.factor(), r.factor());
    prop_assert!(case, got == want, "{}: {:?} vs {:?}", what, got, want);
    assert_storage_bits(case, what, &m, &r);
    if got.is_err() {
        return;
    }
    let mut x = rng.vec_f64(m.n, -2.0, 2.0);
    let mut xr = x.clone();
    m.solve_into(&mut x);
    r.solve_into(&mut xr);
    if xr.iter().all(|v| v.is_finite()) {
        for i in 0..m.n {
            prop_assert!(
                case,
                x[i].to_bits() == xr[i].to_bits(),
                "{}: x[{}] = {:e} vs {:e}",
                what,
                i,
                x[i],
                xr[i]
            );
        }
    } else {
        // Outside the solve's contract only this much is promised.
        prop_assert!(case, x.iter().any(|v| !v.is_finite()), "{}", what);
    }
}

/// `BandMatrix::factor`/`solve_into` leave the bits the scalar full-band
/// loop leaves, on ragged profiles and on every kind of bad input.
#[test]
fn band_lu_is_bitwise_the_scalar_reference() {
    let twists = [
        Twist::Dominant,
        Twist::Indefinite,
        Twist::ZeroPivot,
        Twist::NonFinite,
    ];
    let mut ragged = 0usize;
    cases(160, |rng, case| {
        let twist = twists[case % 4];
        // Degenerate shapes come round regularly: n = 1, and bw = 0.
        let n = if case % 10 == 4 {
            1
        } else {
            rng.usize_in(1, 36)
        };
        let bw = if case % 10 == 5 {
            0
        } else {
            rng.usize_in(0, 9)
        };
        let bw = bw.min(n - 1);
        let mut a = ragged_csr(rng, n, bw);
        twisted(rng, &mut a, twist, bw);
        let m = BandMatrix::from_csr(&a);
        prop_assert!(case, m.lbw <= bw && m.ubw == m.lbw);
        ragged += usize::from(m.envelope().area() < Envelope::full(n, m.lbw, m.ubw).area());
        check_against_reference(rng, case, &format!("{twist:?} n={n} bw={bw}"), m.clone());

        // A `set` outside the envelope after `from_csr` must be seen.
        let outside: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i.saturating_sub(m.lbw)..=(i + m.ubw).min(n - 1)).map(move |j| (i, j)))
            .filter(|&(i, j)| !m.envelope().contains(i, j))
            .collect();
        if !outside.is_empty() {
            let (i, j) = outside[rng.usize_in(0, outside.len())];
            let mut widened = m.clone();
            widened.set(i, j, rng.f64_in(-1.0, 1.0));
            check_against_reference(rng, case, &format!("set({i},{j}) {twist:?}"), widened);
        }
    });
    assert!(ragged > 40, "only {ragged} cases had a ragged envelope");
}

/// `from_block_csr` factors each diagonal block to the reference's bits,
/// and reports the first failing block.
#[test]
fn block_solver_is_bitwise_the_scalar_reference() {
    cases(32, |rng, case| {
        let sizes: Vec<usize> = (0..rng.usize_in(1, 4))
            .map(|_| rng.usize_in(1, 20))
            .collect();
        let total: usize = sizes.iter().sum();
        let mut cols = vec![Vec::new(); total];
        let mut vals = Vec::new();
        let mut blocks = Vec::new();
        let mut off = 0;
        for (b, &n) in sizes.iter().enumerate() {
            let bw = rng.usize_in(0, 6).min(n - 1);
            let mut a = ragged_csr(rng, n, bw);
            let twist = if case % 4 == 3 && b == sizes.len() - 1 {
                Twist::ZeroPivot
            } else {
                Twist::Dominant
            };
            twisted(rng, &mut a, twist, bw);
            for i in 0..n {
                cols[off + i] = a.col_idx[a.row_ptr[i]..a.row_ptr[i + 1]]
                    .iter()
                    .map(|&j| off + j)
                    .collect();
            }
            vals.extend_from_slice(&a.vals);
            blocks.push(a);
            off += n;
        }
        let mut big = Csr::from_pattern(total, total, &cols);
        big.vals.copy_from_slice(&vals);
        let mut solver = BlockBandSolver::from_block_csr(&big, &sizes);
        let mut refs: Vec<RefBand> = blocks
            .iter()
            .map(|a| reference_of(&BandMatrix::from_csr(a)))
            .collect();
        let want = refs
            .iter_mut()
            .enumerate()
            .find_map(|(b, r)| r.factor().err().map(|row| (b, row)));
        let got = solver.factor().err();
        prop_assert!(case, got == want, "{:?} vs {:?}", got, want);
        if got.is_none() {
            let mut x = rng.vec_f64(total, -2.0, 2.0);
            let mut xr = x.clone();
            solver.solve_into(&mut x);
            let mut off = 0;
            for r in &refs {
                r.solve_into(&mut xr[off..off + r.n]);
                off += r.n;
            }
            for i in 0..total {
                prop_assert!(case, x[i].to_bits() == xr[i].to_bits(), "x[{}]", i);
            }
        }
    });
}

/// Refilling a used solver through a `BandMap` gives what the
/// `clone → axpy → permute_symmetric → from_csr` chain builds from scratch:
/// same bits, no fill-in left over from the previous factorization, for a
/// shift that changes between refills.
#[test]
fn refill_in_place_equals_rebuild() {
    cases(32, |rng, case| {
        let n = rng.usize_in(2, 30);
        let bw = rng.usize_in(1, 7).min(n - 1);
        let mut mass = ragged_csr(rng, n, bw);
        twisted(rng, &mut mass, Twist::Dominant, bw);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.usize_in(0, i + 1));
        }
        let map = BandMap::new(&mass, &perm);
        let n_blocks = rng.usize_in(1, 4);
        let mut solver = BlockBandSolver::from_map(&map, n_blocks);
        for round in 0..3 {
            let gamma = rng.f64_in(0.01, 0.5);
            let lmats: Vec<Csr> = (0..n_blocks)
                .map(|_| {
                    let mut l = mass.clone();
                    for v in l.vals.iter_mut() {
                        *v = rng.f64_in(-1.0, 1.0);
                    }
                    l
                })
                .collect();
            solver.refill(&map, |b, o| mass.vals[o] + -gamma * lmats[b].vals[o]);
            if round == 1 {
                solver.poison_block(0);
            }
            let mut x = rng.vec_f64(n * n_blocks, -2.0, 2.0);
            let mut xr = x.clone();
            let got = solver.factor().err();
            let mut want = None;
            for (b, l) in lmats.iter().enumerate() {
                let mut j = mass.clone();
                j.axpy_same_pattern(-gamma, l);
                let rebuilt = BandMatrix::from_csr(&j.permute_symmetric(&perm));
                prop_assert!(case, rebuilt.lbw == map.bandwidth());
                prop_assert!(case, rebuilt.envelope() == map.envelope());
                let mut r = reference_of(&rebuilt);
                if round == 1 && b == 0 {
                    for c in 0..=r.ubw.min(n - 1) {
                        r.set(0, c, 0.0);
                    }
                }
                match r.factor() {
                    Ok(()) => r.solve_into(&mut xr[b * n..(b + 1) * n]),
                    Err(row) => want = want.or(Some((b, row))),
                }
            }
            prop_assert!(
                case,
                got == want,
                "round {}: {:?} vs {:?}",
                round,
                got,
                want
            );
            if got.is_none() {
                solver.solve_into(&mut x);
                for i in 0..x.len() {
                    prop_assert!(
                        case,
                        x[i].to_bits() == xr[i].to_bits(),
                        "round {} x[{}]",
                        round,
                        i
                    );
                }
            }
        }
    });
}

/// The batched LU shares one envelope among its lanes and still leaves,
/// per lane, the scalar reference's bits — with lanes that fail, lanes
/// whose pivots change sign (the batch widens to the band) and inactive
/// lanes in the same tile.
#[test]
fn batched_envelope_lu_is_bitwise_per_lane() {
    let twists = [Twist::Dominant, Twist::Indefinite, Twist::ZeroPivot];
    cases(48, |rng, case| {
        let n = rng.usize_in(1, 30);
        let bw = rng.usize_in(0, 7).min(n - 1);
        let pattern = ragged_csr(rng, n, bw);
        let lanes = rng.usize_in(1, 6);
        let mats: Vec<BandMatrix> = (0..lanes)
            .map(|m| {
                let mut a = pattern.clone();
                for v in a.vals.iter_mut() {
                    *v = rng.f64_in(-1.0, 1.0);
                }
                // Every third case keeps all its lanes inside the envelope.
                let twist = if case % 3 == 0 {
                    Twist::Dominant
                } else {
                    twists[m % 3]
                };
                twisted(rng, &mut a, twist, bw);
                BandMatrix::from_csr(&a)
            })
            .collect();
        let active: Vec<bool> = (0..lanes)
            .map(|m| m == 0 || rng.usize_in(0, 4) > 0)
            .collect();
        let mut soa = BatchedBandStorage::from_band_matrices(&mats);
        let failed = soa.factor(&active);
        let mut x = vec![0.0; n * lanes];
        let rhs: Vec<Vec<f64>> = (0..lanes).map(|_| rng.vec_f64(n, -2.0, 2.0)).collect();
        for (m, b) in rhs.iter().enumerate() {
            for i in 0..n {
                x[i * lanes + m] = b[i];
            }
        }
        let solvable: Vec<bool> = (0..lanes)
            .map(|m| active[m] && failed[m].is_none())
            .collect();
        soa.solve_into(&mut x, &solvable);
        for (m, mat) in mats.iter().enumerate() {
            let mut r = reference_of(mat);
            if !active[m] {
                prop_assert!(case, failed[m].is_none());
                assert_storage_bits(case, "inactive lane", &soa.unpack_lane(m), &r);
                continue;
            }
            let want = r.factor().err();
            prop_assert!(
                case,
                failed[m] == want,
                "lane {}: {:?} vs {:?}",
                m,
                failed[m],
                want
            );
            assert_storage_bits(case, &format!("lane {m}"), &soa.unpack_lane(m), &r);
            if want.is_none() {
                let mut xr = rhs[m].clone();
                r.solve_into(&mut xr);
                if xr.iter().all(|v| v.is_finite()) {
                    for i in 0..n {
                        prop_assert!(
                            case,
                            x[i * lanes + m].to_bits() == xr[i].to_bits(),
                            "lane {} x[{}]",
                            m,
                            i
                        );
                    }
                }
            }
        }
    });
}
