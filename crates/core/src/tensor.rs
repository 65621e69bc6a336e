//! The Landau tensor and its cylindrical reductions.
//!
//! `U(v, v̄) = (|u|² I − u uᵀ)/|u|³` with `u = v − v̄` (eq. 3). In the
//! axisymmetric `(r, z)` formulation the field point's azimuth is
//! integrated out analytically, producing the 2×2 tensors `U^D` (contracts
//! the *test-point* gradient of `f_α` on both sides) and `U^K` (whose
//! columns contract the field-point cylindrical gradient `(∂ρ̄, ∂z̄) f̄_β`).
//! Both reduce to combinations of the complete elliptic integrals `K(k)`
//! and `E(k)` — this is the `LandauTensor2D` of Algorithm 1 and by far the
//! hottest function of the solver. Two forms over one arithmetic: the
//! scalar [`landau_tensor_2d`] (one pair; Algorithm 1 and the reference) and
//! the lane block [`landau_tensor_2d_tile`] (one field-element tile in
//! lockstep, each lane the scalar's bits).
//!
//! Derivation (see DESIGN.md §4): with `a² = Δz² + (ρ+ρ̄)²`,
//! `b² = Δz² + (ρ−ρ̄)²`, `k² = 4ρρ̄/a²`, `c² = ρ² + ρ̄² + Δz²` and the
//! azimuthal moments
//! `A1 = ∮ dφ/u = 4K/a`, `A3 = ∮ dφ/u³ = 4E/(a b²)`, `Am1 = ∮ u dφ = 4aE`,
//! every `cosᵐφ` moment follows from `cosφ = (c² − u²)/(2ρρ̄)`.

use landau_math::elliptic::{ellip_ke, ellip_ke_lanes, LANES};

/// f64 operations one [`landau_tensor_2d`] evaluation executes, counted
/// from the code: 12 for geometry and modulus, 3 to seed the AGM, `11p − 2`
/// for its `p` passes, 3 for `K` and `E`, 51 for the closed forms —
/// `67 + 11p` at the measured mean of `p = 4.16` passes over the §V mesh's
/// pairs. Used by the performance counters so the hot loop carries no
/// per-operation counting overhead.
pub const TENSOR2D_FLOPS: u64 = 113;

/// The 3D Landau tensor (eq. 3). Returns the symmetric 3×3 matrix as
/// row-major `[ [f64;3] ;3]`. The caller must not pass `v == v̄` (the
/// integrable singularity is excluded from quadrature by the `mask`).
pub fn landau_tensor_3d(v: [f64; 3], vb: [f64; 3]) -> [[f64; 3]; 3] {
    let u = [v[0] - vb[0], v[1] - vb[1], v[2] - vb[2]];
    let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let un = u2.sqrt();
    let u3 = un * u2;
    let mut t = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let kron = if i == j { u2 } else { 0.0 };
            t[i][j] = (kron - u[i] * u[j]) / u3;
        }
    }
    t
}

/// Result of the cylindrical tensor evaluation: the symmetric diffusion
/// tensor `U^D` and the friction tensor `U^K` (columns contract `∂ρ̄`, `∂z̄`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tensor2D {
    /// `U^D` entries: `[rr, rz, zz]` (symmetric).
    pub d: [f64; 3],
    /// `U^K` entries row-major: `[ [k_r·∂ρ̄, k_r·∂z̄], [k_z·∂ρ̄, k_z·∂z̄] ]`.
    pub k: [[f64; 2]; 2],
}

/// The squared elliptic modulus `k² = 4ρρ̄/a²` of a point pair.
#[inline(always)]
fn modulus(r: f64, z: f64, rb: f64, zb: f64) -> f64 {
    let dz = z - zb;
    let sum = r + rb;
    4.0 * r * rb / (dz * dz + sum * sum)
}

/// The closed forms in `K(k)`, `E(k)` (`kk`, `ee`, at [`modulus`]): the one
/// place the tensor arithmetic is written, inlined by both forms.
#[inline(always)]
fn closed_form(r: f64, z: f64, rb: f64, zb: f64, kk: f64, ee: f64) -> Tensor2D {
    let dz = z - zb;
    let dz2 = dz * dz;
    let sum = r + rb;
    let dif = r - rb;
    let a2 = dz2 + sum * sum;
    let b2 = dz2 + dif * dif;
    let a = a2.sqrt();
    let c2 = r * r + rb * rb + dz2;
    let rrb = r * rb;
    // Azimuthal base moments.
    let a1 = 4.0 * kk / a;
    let a3 = 4.0 * ee / (a * b2);
    let am1 = 4.0 * a * ee;
    // cos moments: cosφ = (c² − u²)/(2 r r̄).
    let inv2 = 1.0 / (2.0 * rrb);
    let c1 = (c2 * a1 - am1) * inv2;
    let c3 = (c2 * a3 - a1) * inv2;
    let cc3 = (c2 * c2 * a3 - 2.0 * c2 * a1 + am1) * inv2 * inv2;
    // U^D (symmetric): rr, rz, zz.
    let d_rr = a1 - r * r * a3 + 2.0 * rrb * c3 - rb * rb * cc3;
    let d_rz = -dz * (r * a3 - rb * c3);
    let d_zz = a1 - dz2 * a3;
    // U^K rows (r, z) × columns (∂ρ̄, ∂z̄).
    let k_rr = c1 + rrb * (a3 + cc3) - (r * r + rb * rb) * c3;
    let k_rz = d_rz;
    let k_zr = -dz * (r * c3 - rb * a3);
    let k_zz = d_zz;
    Tensor2D {
        d: [d_rr, d_rz, d_zz],
        k: [[k_rr, k_rz], [k_zr, k_zz]],
    }
}

/// Closed-form azimuthally integrated Landau tensors at test point
/// `(r, z)` and field point `(rb, zb)`, both with `r > 0` (Gauss points are
/// interior so this always holds).
///
/// The self-interaction point must be excluded by the caller (Algorithm 1's
/// `gi == j` mask): as `(r,z) → (rb,zb)` the integrals diverge.
#[inline]
pub fn landau_tensor_2d(r: f64, z: f64, rb: f64, zb: f64) -> Tensor2D {
    debug_assert!(r > 0.0 && rb > 0.0, "axis points are not quadrature points");
    let ke = ellip_ke(modulus(r, z, rb, zb));
    closed_form(r, z, rb, zb, ke.k, ke.e)
}

/// The lane-block form: test point `(r, z)` against one field-element tile
/// `(rb[l], zb[l])`, writing the five streams `k00 | k10 | d0 | d1 | d2`
/// (`nq = rb.len()` each), every entry the bits of `w[l]` times
/// [`landau_tensor_2d`]'s. The lane loops are straight-line (they
/// autovectorize); `skip` is the self pair's lane, stored as `+0.0`.
pub fn landau_tensor_2d_tile(
    r: f64,
    z: f64,
    rb: &[f64],
    zb: &[f64],
    w: &[f64],
    skip: Option<usize>,
    out: &mut [f64],
) {
    debug_assert!(r > 0.0, "axis points are not quadrature points");
    let nq = rb.len();
    assert!(zb.len() == nq && w.len() == nq && out.len() == 5 * nq);
    let (k00, rest) = out.split_at_mut(nq);
    let (k10, rest) = rest.split_at_mut(nq);
    let (d0, rest) = rest.split_at_mut(nq);
    let (d1, d2) = rest.split_at_mut(nq);
    for off in (0..nq).step_by(LANES) {
        let n = LANES.min(nq - off);
        let at = off..off + n;
        let (rb, zb, w) = (&rb[at.clone()], &zb[at.clone()], &w[at.clone()]);
        let (mut m, mut kk, mut ee) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        for l in 0..n {
            m[l] = modulus(r, z, rb[l], zb[l]);
        }
        if let Some(s) = skip.filter(|s| at.contains(s)) {
            // The self pair has k² = 1, b² = 0; its lane is overwritten below.
            m[s - off] = 0.0;
        }
        ellip_ke_lanes(&m[..n], &mut kk[..n], &mut ee[..n]);
        let (k00, k10) = (&mut k00[at.clone()], &mut k10[at.clone()]);
        let (d0, d1, d2) = (&mut d0[at.clone()], &mut d1[at.clone()], &mut d2[at]);
        for l in 0..n {
            let t = closed_form(r, z, rb[l], zb[l], kk[l], ee[l]);
            k00[l] = w[l] * t.k[0][0];
            k10[l] = w[l] * t.k[1][0];
            d0[l] = w[l] * t.d[0];
            d1[l] = w[l] * t.d[1];
            d2[l] = w[l] * t.d[2];
        }
    }
    if let Some(s) = skip {
        for c in 0..5 {
            out[c * nq + s] = 0.0;
        }
    }
}

/// Reference implementation: direct numerical integration of the 3D tensor
/// over the field azimuth with an `n`-panel midpoint rule (spectrally
/// accurate for these periodic integrands). Used to validate
/// [`landau_tensor_2d`]; far too slow for the solver.
pub fn landau_tensor_2d_numeric(r: f64, z: f64, rb: f64, zb: f64, n: usize) -> Tensor2D {
    let mut out = Tensor2D::default();
    let h = 2.0 * core::f64::consts::PI / n as f64;
    let v = [r, 0.0, z];
    for i in 0..n {
        let phi = (i as f64 + 0.5) * h;
        let (s, c) = phi.sin_cos();
        let vb = [rb * c, rb * s, zb];
        let u = landau_tensor_3d(v, vb);
        // Test-point directions: x̂ (= r̂ at azimuth 0) and ẑ.
        // U^D: plain (x,z) restriction.
        out.d[0] += u[0][0] * h;
        out.d[1] += u[0][2] * h;
        out.d[2] += u[2][2] * h;
        // U^K columns: field gradient expansion
        // ∂ρ̄ → (cosφ, sinφ, 0), ∂z̄ → (0, 0, 1).
        out.k[0][0] += (u[0][0] * c + u[0][1] * s) * h;
        out.k[0][1] += u[0][2] * h;
        out.k[1][0] += (u[2][0] * c + u[2][1] * s) * h;
        out.k[1][1] += u[2][2] * h;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_3d_annihilates_relative_velocity() {
        // U(v, v̄)·(v − v̄) = 0 — the null-space property behind conservation.
        let cases = [
            ([0.3, 0.1, -0.2], [1.0, 0.0, 0.4]),
            ([2.0, -1.0, 0.5], [0.1, 0.1, 0.1]),
            ([0.5, 0.5, 0.5], [-0.5, 0.25, 1.5]),
        ];
        for (v, vb) in cases {
            let u = landau_tensor_3d(v, vb);
            let d = [v[0] - vb[0], v[1] - vb[1], v[2] - vb[2]];
            for row in u {
                let s: f64 = row.iter().zip(&d).map(|(a, b)| a * b).sum();
                assert!(s.abs() < 1e-12, "{s}");
            }
        }
    }

    #[test]
    fn tensor_3d_symmetric_and_psd() {
        let u = landau_tensor_3d([0.7, -0.3, 0.2], [0.1, 0.4, -0.6]);
        for (i, row) in u.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!((v - u[j][i]).abs() < 1e-14);
            }
        }
        // PSD: x U x ≥ 0 for a few probes.
        for probe in [[1.0, 0.0, 0.0], [0.3, -0.5, 0.8], [1.0, 1.0, 1.0]] {
            let mut q = 0.0;
            for i in 0..3 {
                for j in 0..3 {
                    q += probe[i] * u[i][j] * probe[j];
                }
            }
            assert!(q >= -1e-14);
        }
    }

    #[test]
    fn closed_form_matches_numeric_integration() {
        let cases = [
            (0.5, 0.0, 1.0, 0.5),
            (0.1, -0.7, 0.9, 0.3),
            (1.5, 2.0, 0.2, -1.0),
            (0.05, 0.01, 0.04, -0.02),
            (3.0, -2.5, 2.9, -2.4),
            (0.7, 0.0, 0.7, 1.4), // same r, different z
            (0.4, 0.3, 1.2, 0.3), // same z, different r
        ];
        for (r, z, rb, zb) in cases {
            let cf = landau_tensor_2d(r, z, rb, zb);
            let nm = landau_tensor_2d_numeric(r, z, rb, zb, 4000);
            let scale = cf.d.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for i in 0..3 {
                assert!(
                    (cf.d[i] - nm.d[i]).abs() < 1e-8 * scale,
                    "D[{i}] at ({r},{z},{rb},{zb}): {} vs {}",
                    cf.d[i],
                    nm.d[i]
                );
            }
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        (cf.k[i][j] - nm.k[i][j]).abs() < 1e-8 * scale,
                        "K[{i}][{j}] at ({r},{z},{rb},{zb}): {} vs {}",
                        cf.k[i][j],
                        nm.k[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn tile_lanes_leave_the_scalar_bits() {
        // Field points from touching the test point to far away, so the
        // lanes of one tile retire from the AGM on different passes; full,
        // partial and wider-than-LANES tiles; with and without the self
        // pair, whose lane is +0.0 and leaves its neighbours alone.
        let mut rng = landau_testkit::Rng::new(5);
        for nq in [4usize, 9, 16, 25] {
            for case in 0..40 {
                let (r, z) = (rng.f64_in(1e-3, 4.0), rng.f64_in(-4.0, 4.0));
                let rb: Vec<f64> = (0..nq)
                    .map(|l| match l % 3 {
                        0 => r * (1.0 + rng.f64_in(1e-6, 1e-2)),
                        1 => rng.f64_in(1e-3, 4.0),
                        _ => r * rng.f64_in(1e-4, 1e-1),
                    })
                    .collect();
                let mut zb = rng.vec_f64(nq, -4.0, 4.0);
                zb[0] = z;
                let w = rng.vec_f64(nq, 0.1, 2.0);
                let skip = (case % 2 == 1).then(|| rng.usize_in(0, nq - 1));
                let (mut rb_in, mut zb_in) = (rb.clone(), zb.clone());
                if let Some(s) = skip {
                    (rb_in[s], zb_in[s]) = (r, z);
                }
                let mut out = vec![f64::NAN; 5 * nq];
                landau_tensor_2d_tile(r, z, &rb_in, &zb_in, &w, skip, &mut out);
                for l in 0..nq {
                    let want = if skip == Some(l) {
                        [0.0; 5]
                    } else {
                        let t = landau_tensor_2d(r, z, rb[l], zb[l]);
                        [t.k[0][0], t.k[1][0], t.d[0], t.d[1], t.d[2]].map(|v| w[l] * v)
                    };
                    for (c, v) in want.iter().enumerate() {
                        assert_eq!(
                            out[c * nq + l].to_bits(),
                            v.to_bits(),
                            "nq {nq}, case {case}, lane {l}, stream {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn momentum_pairing_identity() {
        // z-momentum conservation needs row z of U^K(v, v̄) to equal row z of
        // U^D(v̄, v) — the discrete pairing the weak form relies on.
        let cases = [
            (0.5, 0.0, 1.0, 0.5),
            (0.3, -0.4, 0.8, 0.1),
            (2.0, 1.0, 0.5, -0.5),
        ];
        for (r, z, rb, zb) in cases {
            let k = landau_tensor_2d(r, z, rb, zb);
            let d_sw = landau_tensor_2d(rb, zb, r, z);
            assert!((k.k[1][0] - d_sw.d[1]).abs() < 1e-11, "({r},{z},{rb},{zb})");
            assert!((k.k[1][1] - d_sw.d[2]).abs() < 1e-11);
        }
    }

    #[test]
    fn energy_pairing_identity() {
        // Energy conservation needs v·U^K(v,v̄) = v̄·U^D(v̄,v) (both contract
        // the field gradient); verified numerically via the reduction of
        // U·(v−v̄) = 0.
        for (r, z, rb, zb) in [(0.5, 0.2, 1.1, -0.3), (0.9, -1.0, 0.4, 0.8)] {
            let t = landau_tensor_2d(r, z, rb, zb);
            let sw = landau_tensor_2d(rb, zb, r, z);
            for col in 0..2 {
                let lhs = r * t.k[0][col] + z * t.k[1][col];
                let rhs_vec = match col {
                    0 => rb * sw.d[0] + zb * sw.d[1], // contract ∂ρ̄ column
                    _ => rb * sw.d[1] + zb * sw.d[2],
                };
                assert!(
                    (lhs - rhs_vec).abs() < 1e-10,
                    "col {col} at ({r},{z},{rb},{zb}): {lhs} vs {rhs_vec}"
                );
            }
        }
    }

    #[test]
    fn diffusion_tensor_is_psd() {
        for (r, z, rb, zb) in [(0.5, 0.0, 1.0, 0.5), (0.2, -0.2, 0.25, -0.1)] {
            let t = landau_tensor_2d(r, z, rb, zb);
            // 2x2 PSD: diag ≥ 0, det ≥ 0.
            assert!(t.d[0] >= 0.0 && t.d[2] >= 0.0);
            assert!(t.d[0] * t.d[2] - t.d[1] * t.d[1] >= -1e-10);
        }
    }

    #[test]
    fn decays_with_separation() {
        let near = landau_tensor_2d(0.5, 0.0, 0.6, 0.1);
        let far = landau_tensor_2d(0.5, 0.0, 0.6, 4.0);
        assert!(near.d[0] > far.d[0] * 5.0);
    }
}
