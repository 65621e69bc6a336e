//! Complete elliptic integrals of the first and second kind.
//!
//! The azimuthal integration of the 3D Landau tensor in cylindrical
//! coordinates produces closed forms in `K(k)` and `E(k)` (see
//! `landau_core::tensor`). We evaluate both simultaneously with the
//! arithmetic–geometric mean (AGM) iteration, which converges quadratically
//! and is accurate to full double precision for `k² ∈ [0, 1)`.
//!
//! Conventions: modulus form,
//! `K(k) = ∫_0^{π/2} dθ / sqrt(1 - k² sin²θ)`,
//! `E(k) = ∫_0^{π/2} dθ sqrt(1 - k² sin²θ)`.
//!
//! **Stop rule** (DESIGN.md §4). With `c_n = (a_{n-1} − b_{n-1})/2` the next
//! difference is `c_{n+1} ≈ c_n²/(4 a_n)`, so once `|c_n| ≤ 1e-8·a_n` another
//! pass adds under a quarter ulp: 3–5 passes for the Landau tensor's moduli,
//! 8 at `m = 1 − 10⁻¹³`. [`ellip_ke`] is the scalar reference;
//! [`ellip_ke_lanes`] runs the same passes in lockstep over up to [`LANES`]
//! moduli, every lane's bits equal to the scalar's.

use core::f64::consts::FRAC_PI_2;

/// Result of a joint `K`/`E` evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KE {
    /// Complete elliptic integral of the first kind `K(k)`.
    pub k: f64,
    /// Complete elliptic integral of the second kind `E(k)`.
    pub e: f64,
}

/// `|c_n|/a_n` at which the AGM has converged (the next `c` ≤ 2.5e-17·a).
const AGM_TOL: f64 = 1e-8;

/// Pass cap of the AGM loops; the largest `f64` below one takes 10.
const AGM_MAX_PASSES: usize = 16;

/// Lanes [`ellip_ke_lanes`] runs in lockstep: a Q3 element's 16 points.
pub const LANES: usize = 16;

/// The AGM of `a_0 = 1`, `b_0 = sqrt(1 − m)` for `0 ≤ m < 1`: the limit,
/// the sum `Σ_{n≥0} 2^{n-1} c_n²`, and the passes it took.
fn agm(m: f64) -> (f64, f64, usize) {
    let mut a = 1.0f64;
    let mut b = (1.0 - m).sqrt();
    // Seeded with the n = 0 term c_0² = a² − b² = m.
    let mut csum = 0.5 * m;
    let mut pow2 = 0.5f64;
    for pass in 1..=AGM_MAX_PASSES {
        let c = 0.5 * (a - b);
        let an = 0.5 * (a + b);
        pow2 *= 2.0;
        csum += pow2 * c * c;
        if c.abs() <= AGM_TOL * an {
            // Converged: `b` is not needed again, so no square root here.
            return (an, csum, pass);
        }
        b = (a * b).sqrt();
        a = an;
    }
    debug_assert!(false, "AGM cap reached at m = {m}");
    (a, csum, AGM_MAX_PASSES)
}

/// Evaluate `K(k)` and `E(k)` for the squared modulus `m = k²`.
///
/// Uses the AGM: with `a_0 = 1`, `b_0 = k' = sqrt(1-m)`,
/// `K = π / (2 agm(a_0, b_0))` and
/// `E = K (1 - Σ_{n≥0} 2^{n-1} c_n²)` where `c_n = (a_{n-1} - b_{n-1})/2`
/// (with `c_0² = m` contributing the `n = 0` term).
///
/// # Panics
/// Panics if `m` is outside `[0, 1)` by more than a small tolerance; the
/// integrals diverge logarithmically as `m → 1`, which in the Landau tensor
/// corresponds to the (excluded) self-interaction singularity.
pub fn ellip_ke(m: f64) -> KE {
    assert!(
        (-1e-14..1.0).contains(&m),
        "elliptic modulus m = k^2 = {m} out of [0,1)"
    );
    let (a, csum, _) = agm(m.max(0.0));
    let big_k = FRAC_PI_2 / a;
    let big_e = big_k * (1.0 - csum);
    KE { k: big_k, e: big_e }
}

/// [`ellip_ke`] of up to [`LANES`] moduli in lockstep: `k[l]`, `e[l]` get
/// the bits of `ellip_ke(m[l])`; a converged lane keeps its `a` and `E` sum
/// by select while the slowest finishes. Panics as [`ellip_ke`] does (one
/// check for the block) and on a block wider than [`LANES`].
pub fn ellip_ke_lanes(m: &[f64], k: &mut [f64], e: &mut [f64]) {
    let n = m.len();
    assert!(n <= LANES && k.len() == n && e.len() == n);
    assert!(
        // Not `all`: no early exit, so the check is straight-line too.
        m.iter().fold(true, |ok, x| ok & (-1e-14..1.0).contains(x)),
        "elliptic modulus m = k^2 out of [0,1) in {m:?}"
    );
    let mut a = [1.0f64; LANES];
    let mut b = [1.0f64; LANES];
    let mut csum = [0.0f64; LANES];
    // All-ones while a lane still iterates; lanes past `n` never do.
    let mut live = [0u64; LANES];
    for l in 0..n {
        let ml = m[l].max(0.0);
        b[l] = (1.0 - ml).sqrt();
        csum[l] = 0.5 * ml;
        live[l] = !0;
    }
    let select = |mask: u64, on: f64, off: f64| {
        f64::from_bits((on.to_bits() & mask) | (off.to_bits() & !mask))
    };
    let mut pow2 = 0.5f64;
    for pass in 1.. {
        pow2 *= 2.0;
        let mut any_live = 0u64;
        for l in 0..n {
            let c = 0.5 * (a[l] - b[l]);
            let an = 0.5 * (a[l] + b[l]);
            let bn = (a[l] * b[l]).sqrt();
            let cs = csum[l] + pow2 * c * c;
            a[l] = select(live[l], an, a[l]);
            b[l] = select(live[l], bn, b[l]);
            csum[l] = select(live[l], cs, csum[l]);
            live[l] &= u64::from(c.abs() > AGM_TOL * an).wrapping_neg();
            any_live |= live[l];
        }
        if any_live == 0 || pass == AGM_MAX_PASSES {
            debug_assert!(any_live == 0, "AGM cap reached in {m:?}");
            break;
        }
    }
    for l in 0..n {
        k[l] = FRAC_PI_2 / a[l];
        e[l] = k[l] * (1.0 - csum[l]);
    }
}

/// `K(k)` alone (same accuracy as [`ellip_ke`]).
pub fn ellip_k(m: f64) -> f64 {
    ellip_ke(m).k
}

/// `E(k)` alone (same accuracy as [`ellip_ke`]).
pub fn ellip_e(m: f64) -> f64 {
    ellip_ke(m).e
}

#[cfg(test)]
mod tests {
    use super::*;
    use landau_testkit::Rng;

    /// Reference evaluation by adaptive composite Simpson on the defining
    /// integral — slow but independent of the AGM.
    fn ke_by_quadrature(m: f64) -> KE {
        let n = 20_000usize;
        let h = FRAC_PI_2 / n as f64;
        let mut sk = 0.0;
        let mut se = 0.0;
        for i in 0..=n {
            let t = i as f64 * h;
            let w = if i == 0 || i == n {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            let s = (1.0 - m * t.sin().powi(2)).sqrt();
            sk += w / s;
            se += w * s;
        }
        KE {
            k: sk * h / 3.0,
            e: se * h / 3.0,
        }
    }

    /// Sweep length of the randomized tests (miri runs a short one).
    const SWEEP: usize = if cfg!(miri) { 500 } else { 100_000 };

    #[test]
    #[allow(clippy::excessive_precision)] // references as published, 19 digits
    fn known_values() {
        // (m, K, E) to 19 digits (mpmath at 30), m read as its f64 value.
        let table = [
            (1e-8, 1.570796330721887458, 1.570796322867905795),
            (0.1, 1.612441348720219401, 1.5307576368977632),
            (0.5, 1.854074677301371918, 1.350643881047675503),
            (0.9, 2.578092113348173293, 1.104774732704073308),
            (0.99, 3.695637362989874239, 1.015993545025223948),
            (0.999999, 8.294051463601062202, 1.000003897026172166),
            (0.9999999999, 12.89921978501741577, 1.000000000619961041),
        ];
        for (m, k, e) in table {
            let r = ellip_ke(m);
            assert!((r.k - k).abs() <= 1e-15 * k, "m={m}: K={:e} vs {k:e}", r.k);
            assert!((r.e - e).abs() <= 1e-14 * e, "m={m}: E={:e} vs {e:e}", r.e);
        }
    }

    #[test]
    fn limits() {
        let r = ellip_ke(0.0);
        assert_eq!(r.k, FRAC_PI_2);
        assert_eq!(r.e, FRAC_PI_2);
        // E(1) = 1; K diverges, check monotone growth instead.
        let near = ellip_ke(1.0 - 1e-12);
        assert!((near.e - 1.0).abs() < 1e-5);
        assert!(near.k > 10.0);
    }

    #[test]
    fn matches_quadrature_across_range() {
        for i in 0..40 {
            let m = i as f64 / 40.0 * 0.999;
            let agm = ellip_ke(m);
            let qr = ke_by_quadrature(m);
            assert!(
                (agm.k - qr.k).abs() < 1e-9 && (agm.e - qr.e).abs() < 1e-9,
                "m={m}: AGM ({},{}) vs quad ({},{})",
                agm.k,
                agm.e,
                qr.k,
                qr.e
            );
        }
    }

    #[test]
    fn legendre_relation() {
        // E(k)K(k') + E(k')K(k) - K(k)K(k') = π/2 for all k.
        let mut rng = Rng::new(7);
        for _ in 0..SWEEP {
            let m = rng.f64_in(0.02, 0.98);
            let a = ellip_ke(m);
            let b = ellip_ke(1.0 - m);
            let lhs = a.e * b.k + b.e * a.k - a.k * b.k;
            assert!((lhs - FRAC_PI_2).abs() < 1e-14, "m={m} lhs={lhs}");
        }
    }

    #[test]
    fn agm_converges_in_a_handful_of_passes() {
        let mut rng = Rng::new(7);
        let sweep = (0..SWEEP).map(|_| rng.f64_in(0.02, 0.98));
        let near_one = (1..=13).map(|k| 1.0 - 10f64.powi(-k));
        for m in sweep.chain(near_one) {
            let (_, _, passes) = agm(m);
            assert!(passes <= 8, "m={m}: {passes} passes");
        }
    }

    #[test]
    fn lanes_leave_the_scalar_bits() {
        // Moduli spread so that lanes retire on different passes, on every
        // block width up to LANES; 0 and a rounding-negative m included.
        let mut rng = Rng::new(11);
        for n in 0..=LANES {
            let mut m: Vec<f64> = (0..n)
                .map(|l| match l % 4 {
                    0 => rng.f64_in(0.0, 1e-3),
                    1 => rng.f64_in(0.02, 0.98),
                    2 => 1.0 - 10f64.powi(-(rng.usize_in(2, 13) as i32)),
                    _ => rng.f64_in(0.9, 0.999),
                })
                .collect();
            if n > 2 {
                m[1] = 0.0;
                m[2] = -1e-15;
            }
            let passes: Vec<usize> = m.iter().map(|&x| agm(x.max(0.0)).2).collect();
            if n > 4 {
                assert!(passes.iter().min() < passes.iter().max(), "{passes:?}");
            }
            let (mut k, mut e) = (vec![0.0; n], vec![0.0; n]);
            ellip_ke_lanes(&m, &mut k, &mut e);
            for l in 0..n {
                let r = ellip_ke(m[l]);
                assert_eq!(
                    (k[l].to_bits(), e[l].to_bits()),
                    (r.k.to_bits(), r.e.to_bits())
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn lanes_reject_a_block_holding_m_ge_one() {
        let (mut k, mut e) = ([0.0; 3], [0.0; 3]);
        ellip_ke_lanes(&[0.5, 1.0, 0.25], &mut k, &mut e);
    }

    #[test]
    #[should_panic]
    fn rejects_m_ge_one() {
        let _ = ellip_ke(1.0);
    }
}
