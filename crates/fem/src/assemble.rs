//! Assembly helpers: sparsity pattern, element-matrix scatter with
//! constraint expansion, weighted mass matrices and moment functionals.

use crate::space::{Element, FemSpace};
use landau_sparse::csr::{Csr, InsertMode};

/// Build the CSR sparsity pattern of a single-field operator on the space
/// (the "first assembly on the CPU" that fixes the structure).
pub fn csr_pattern(space: &FemSpace) -> Csr {
    let n = space.n_dofs;
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    for el in &space.elements {
        for &i in &el.dofs {
            cols[i].extend_from_slice(&el.dofs);
        }
    }
    Csr::from_pattern(n, n, &cols)
}

/// Scatter a dense `nb × nb` element matrix into the global CSR, expanding
/// hanging-node constraints on both rows and columns
/// (`C[dof_r, dof_c] += w_r w_c Ce[b, b']`).
pub fn scatter_element_matrix(el: &Element, ce: &[f64], a: &mut Csr, mode: InsertMode) {
    let nb = el.nodes.len();
    debug_assert_eq!(ce.len(), nb * nb);
    debug_assert_eq!(mode, InsertMode::Add, "element scatter always accumulates");
    for (bi, ni) in el.nodes.iter().enumerate() {
        for (bj, nj) in el.nodes.iter().enumerate() {
            let v = ce[bi * nb + bj];
            if v == 0.0 {
                continue;
            }
            for &(di, wi) in &ni.terms {
                for &(dj, wj) in &nj.terms {
                    a.add_value(di, dj, wi * wj * v);
                }
            }
        }
    }
}

/// Where every element-matrix entry lands in a matrix on [`csr_pattern`]:
/// the value slot of each expanded `(dof_r, dof_c)` target, in the order
/// [`scatter_element_matrix`] visits them. Resolving the slots once
/// replaces a CSR row search per target per assembly; a scatter through the
/// map walks the same loops and adds the same `w_r * w_c * v` in the same
/// order. Built lazily, once per space ([`FemSpace::scatter_map`]).
#[derive(Clone, Debug)]
pub struct ScatterMap {
    /// Element `e`'s targets are `slots[start[e]..start[e + 1]]`.
    start: Vec<usize>,
    slots: Vec<u32>,
    /// Stored entries of the pattern the slots index.
    nnz: usize,
}

impl ScatterMap {
    pub(crate) fn new(space: &FemSpace, pattern: &Csr) -> Self {
        assert!(
            pattern.nnz() <= u32::MAX as usize,
            "slots are stored as u32"
        );
        let mut map = ScatterMap {
            start: vec![0],
            slots: Vec::new(),
            nnz: pattern.nnz(),
        };
        for el in &space.elements {
            for ni in &el.nodes {
                for nj in &el.nodes {
                    for &(di, _) in &ni.terms {
                        for &(dj, _) in &nj.terms {
                            let k = pattern.find(di, dj).expect("entry in pattern");
                            map.slots.push(k as u32);
                        }
                    }
                }
            }
            map.start.push(map.slots.len());
        }
        map.slots.shrink_to_fit();
        map
    }

    /// Call `add(slot, w_r * w_c * v)` for every target of every nonzero
    /// entry `v` of `ce`, the dense matrix of element `e` (`el`).
    #[inline]
    pub fn scatter(&self, e: usize, el: &Element, ce: &[f64], mut add: impl FnMut(usize, f64)) {
        let nb = el.nodes.len();
        debug_assert_eq!(ce.len(), nb * nb);
        let slots = &self.slots[self.start[e]..self.start[e + 1]];
        let mut t = 0;
        for (bi, ni) in el.nodes.iter().enumerate() {
            for (bj, nj) in el.nodes.iter().enumerate() {
                let v = ce[bi * nb + bj];
                if v == 0.0 {
                    t += ni.terms.len() * nj.terms.len();
                    continue;
                }
                for &(_, wi) in &ni.terms {
                    for &(_, wj) in &nj.terms {
                        add(slots[t] as usize, wi * wj * v);
                        t += 1;
                    }
                }
            }
        }
    }

    /// Targets of one scatter of every element: the adds it issues when no
    /// element-matrix entry is zero.
    pub fn targets(&self) -> usize {
        self.slots.len()
    }

    /// Stored entries of the pattern the slots index into.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap bytes held by the map.
    pub fn heap_bytes(&self) -> usize {
        8 * self.start.capacity() + 4 * self.slots.capacity()
    }
}

/// Scatter a dense element vector (load vector / functional contribution).
pub fn scatter_element_vector(el: &Element, fe: &[f64], out: &mut [f64]) {
    debug_assert_eq!(fe.len(), el.nodes.len());
    for (bi, ni) in el.nodes.iter().enumerate() {
        let v = fe[bi];
        if v == 0.0 {
            continue;
        }
        for &(di, wi) in &ni.terms {
            out[di] += wi * v;
        }
    }
}

/// Assemble the cylindrically weighted mass matrix
/// `M[i,j] = ∫ r ψ_i ψ_j dr dz` (no 2π factor — callers fold constants).
pub fn assemble_mass_matrix(space: &FemSpace) -> Csr {
    let mut m = csr_pattern(space);
    let nb = space.tab.nb;
    let mut ce = vec![0.0; nb * nb];
    for el in &space.elements {
        ce.fill(0.0);
        for q in 0..space.tab.nq {
            let (xi, eta) = space.tab.quad.points[q];
            let (r, _z) = el.map_point(xi, eta);
            let w = space.tab.quad.weights[q] * el.det_j() * r;
            let bq = &space.tab.b[q * nb..(q + 1) * nb];
            for bi in 0..nb {
                let wi = w * bq[bi];
                if wi == 0.0 {
                    continue;
                }
                for bj in 0..nb {
                    ce[bi * nb + bj] += wi * bq[bj];
                }
            }
        }
        scatter_element_matrix(el, &ce, &mut m, InsertMode::Add);
    }
    m
}

/// Assemble the z-advection template `T[i,j] = ∫ r ψ_i ∂ψ_j/∂z dr dz`
/// (scaled per species by `-(e/m)E_z` when added to the operator).
pub fn assemble_dz_matrix(space: &FemSpace) -> Csr {
    let mut m = csr_pattern(space);
    let nb = space.tab.nb;
    let mut ce = vec![0.0; nb * nb];
    for el in &space.elements {
        ce.fill(0.0);
        let gs = el.grad_scale();
        for q in 0..space.tab.nq {
            let (xi, eta) = space.tab.quad.points[q];
            let (r, _z) = el.map_point(xi, eta);
            let w = space.tab.quad.weights[q] * el.det_j() * r;
            let bq = &space.tab.b[q * nb..(q + 1) * nb];
            let dq = &space.tab.deta[q * nb..(q + 1) * nb];
            for bi in 0..nb {
                let wi = w * bq[bi];
                if wi == 0.0 {
                    continue;
                }
                for bj in 0..nb {
                    ce[bi * nb + bj] += wi * gs * dq[bj];
                }
            }
        }
        scatter_element_matrix(el, &ce, &mut m, InsertMode::Add);
    }
    m
}

/// Moment functional: the vector `m` with
/// `mᵀ f = ∫ r g(r, z) f_h(r, z) dr dz` for any FE coefficient vector `f`
/// (again without the 2π).
pub fn weighted_functional(space: &FemSpace, g: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    let mut out = vec![0.0; space.n_dofs];
    let nb = space.tab.nb;
    let mut fe = vec![0.0; nb];
    for el in &space.elements {
        fe.fill(0.0);
        for q in 0..space.tab.nq {
            let (xi, eta) = space.tab.quad.points[q];
            let (r, z) = el.map_point(xi, eta);
            let w = space.tab.quad.weights[q] * el.det_j() * r * g(r, z);
            let bq = &space.tab.b[q * nb..(q + 1) * nb];
            for bi in 0..nb {
                fe[bi] += w * bq[bi];
            }
        }
        scatter_element_vector(el, &fe, &mut out);
    }
    out
}

/// Nonlinear pointwise functional: `∫ r g(r, z, f_h(r, z)) dr dz` by
/// quadrature, where `f_h` is the FE field with coefficients `coeffs`
/// (constraints expanded through the node terms; no 2π). Unlike
/// [`weighted_functional`] the integrand may depend nonlinearly on the
/// field value — this is what the discrete entropy `∫ f ln f` uses.
pub fn pointwise_integral(
    space: &FemSpace,
    coeffs: &[f64],
    g: impl Fn(f64, f64, f64) -> f64,
) -> f64 {
    debug_assert_eq!(coeffs.len(), space.n_dofs);
    let nb = space.tab.nb;
    let mut local = vec![0.0; nb];
    let mut total = 0.0;
    for el in &space.elements {
        for (bi, ni) in el.nodes.iter().enumerate() {
            let mut v = 0.0;
            for &(d, w) in &ni.terms {
                v += w * coeffs[d];
            }
            local[bi] = v;
        }
        for q in 0..space.tab.nq {
            let (xi, eta) = space.tab.quad.points[q];
            let (r, z) = el.map_point(xi, eta);
            let bq = &space.tab.b[q * nb..(q + 1) * nb];
            let mut fq = 0.0;
            for bi in 0..nb {
                fq += bq[bi] * local[bi];
            }
            total += space.tab.quad.weights[q] * el.det_j() * r * g(r, z, fq);
        }
    }
    total
}

/// Two-field variant of [`pointwise_integral`]:
/// `∫ r g(r, z, a_h, b_h) dr dz` with both FE fields evaluated at the
/// same quadrature points. Used for entropy-flux accounting,
/// `∫ r (1 + ln f) s`, where `f` and `s` are different fields on one
/// space.
pub fn pointwise_integral2(
    space: &FemSpace,
    a: &[f64],
    b: &[f64],
    g: impl Fn(f64, f64, f64, f64) -> f64,
) -> f64 {
    debug_assert_eq!(a.len(), space.n_dofs);
    debug_assert_eq!(b.len(), space.n_dofs);
    let nb = space.tab.nb;
    let mut local_a = vec![0.0; nb];
    let mut local_b = vec![0.0; nb];
    let mut total = 0.0;
    for el in &space.elements {
        for (bi, ni) in el.nodes.iter().enumerate() {
            let (mut va, mut vb) = (0.0, 0.0);
            for &(d, w) in &ni.terms {
                va += w * a[d];
                vb += w * b[d];
            }
            local_a[bi] = va;
            local_b[bi] = vb;
        }
        for q in 0..space.tab.nq {
            let (xi, eta) = space.tab.quad.points[q];
            let (r, z) = el.map_point(xi, eta);
            let bq = &space.tab.b[q * nb..(q + 1) * nb];
            let (mut aq, mut bq_val) = (0.0, 0.0);
            for bi in 0..nb {
                aq += bq[bi] * local_a[bi];
                bq_val += bq[bi] * local_b[bi];
            }
            total += space.tab.quad.weights[q] * el.det_j() * r * g(r, z, aq, bq_val);
        }
    }
    total
}

/// L2-projection (with the r weight) of an analytic function onto the space:
/// solves `M c = b` with `b_i = ∫ r ψ_i g`.
pub fn l2_project(space: &FemSpace, g: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    use landau_sparse::band::BandMatrix;
    use landau_sparse::rcm::rcm_order;
    let m = assemble_mass_matrix(space);
    let b = weighted_functional(space, g);
    let perm = rcm_order(&m);
    let pm = m.permute_symmetric(&perm);
    let pb: Vec<f64> = perm.iter().map(|&o| b[o]).collect();
    let px = BandMatrix::from_csr(&pm)
        .factor_solve(&pb)
        .expect("mass matrix is SPD");
    let mut x = vec![0.0; b.len()];
    for (new, &old) in perm.iter().enumerate() {
        x[old] = px[new];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FemSpace;
    use landau_mesh::presets::uniform_mesh;
    use landau_mesh::Forest;

    fn hanging_space(p: usize) -> FemSpace {
        let mut f = Forest::new(1, 1, 2.0, -1.0);
        f.refine_uniform(1);
        f.refine_once(|f, k| {
            let (r0, z0, _h) = f.cell_geometry(k);
            r0 == 0.0 && z0 == -1.0
        });
        f.balance();
        FemSpace::new(f, p)
    }

    #[test]
    fn mass_total_is_domain_r_integral() {
        // Σ_ij M_ij = ∫ r dr dz = R²/2 · (z extent) for domain [0,2]x[-1,1].
        for p in 1..=3 {
            let s = hanging_space(p);
            let m = assemble_mass_matrix(&s);
            let total: f64 = m.vals.iter().sum();
            assert!((total - 4.0).abs() < 1e-10, "p={p}: {total}");
        }
    }

    #[test]
    fn functional_matches_mass_row_sums() {
        // weighted_functional with g = 1 equals M · 1.
        let s = hanging_space(2);
        let m = assemble_mass_matrix(&s);
        let ones = vec![1.0; s.n_dofs];
        let m1 = m.matvec(&ones);
        let f = weighted_functional(&s, |_, _| 1.0);
        for i in 0..s.n_dofs {
            assert!((m1[i] - f[i]).abs() < 1e-11, "i={i}");
        }
    }

    #[test]
    fn moments_of_interpolated_polynomials_are_exact() {
        // ∫ r · z · (r z) over [0,2]x[-1,1] = ∫ r² dr ∫ z² dz = (8/3)(2/3).
        let s = FemSpace::new(uniform_mesh(2.0, 2), 3);
        let coeffs = s.interpolate(|r, z| r * z);
        let f = weighted_functional(&s, |_, z| z);
        let got: f64 = f.iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        // Our uniform_mesh(2.0, 2) is [0,2]x[-2,2]: recompute:
        // ∫_0^2 r² dr ∫_{-2}^2 z² dz = (8/3)(16/3).
        assert!((got - 128.0 / 9.0).abs() < 1e-10, "{got}");
    }

    #[test]
    fn pointwise_integral_matches_weighted_functional_for_linear_g() {
        // With g(r, z, f) = z·f the nonlinear quadrature must agree with
        // the linear moment functional, hanging nodes included.
        let s = hanging_space(2);
        let coeffs = s.interpolate(|r, z| 1.0 + 0.3 * r - 0.2 * z + 0.1 * r * z);
        let f = weighted_functional(&s, |_, z| z);
        let want: f64 = f.iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        let got = pointwise_integral(&s, &coeffs, |_, z, fv| z * fv);
        assert!((got - want).abs() < 1e-11, "{got} vs {want}");
    }

    #[test]
    fn pointwise_integral_evaluates_nonlinear_integrands() {
        // ∫ r f² with f = z on [0,2]x[-2,2]: ∫_0^2 r dr ∫_{-2}^2 z² dz
        // = 2 · 16/3.
        let s = FemSpace::new(uniform_mesh(2.0, 2), 3);
        let coeffs = s.interpolate(|_r, z| z);
        let got = pointwise_integral(&s, &coeffs, |_, _, fv| fv * fv);
        assert!((got - 32.0 / 3.0).abs() < 1e-10, "{got}");
    }

    #[test]
    fn pointwise_integral2_couples_two_fields() {
        // With b ≡ 1 the two-field quadrature reduces to the one-field
        // one; with a = z, b = r it evaluates ∫ r (z²·r) analytically:
        // ∫_0^2 r² dr ∫_{-2}^2 z² dz = (8/3)(16/3), hanging nodes too.
        let s = hanging_space(2);
        let a = s.interpolate(|r, z| 0.5 + 0.2 * r * z);
        let ones = s.interpolate(|_, _| 1.0);
        let got = pointwise_integral2(&s, &a, &ones, |_, _, av, bv| av * av * bv);
        let want = pointwise_integral(&s, &a, |_, _, fv| fv * fv);
        assert!((got - want).abs() < 1e-11, "{got} vs {want}");

        let s = FemSpace::new(uniform_mesh(2.0, 2), 3);
        let za = s.interpolate(|_r, z| z);
        let rb = s.interpolate(|r, _z| r);
        let got = pointwise_integral2(&s, &za, &rb, |_, _, av, bv| av * av * bv);
        let want = (8.0 / 3.0) * (16.0 / 3.0);
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn l2_projection_reproduces_polynomials() {
        let s = hanging_space(2);
        let x = l2_project(&s, |r, z| 1.0 + r * r - z);
        for k in 0..15 {
            let r = 0.05 + 1.9 * k as f64 / 15.0;
            let z = -0.95 + 1.9 * ((k * 7 % 15) as f64) / 15.0;
            let got = s.eval(&x, r, z).unwrap();
            let want = 1.0 + r * r - z;
            assert!((got - want).abs() < 1e-8, "({r},{z}): {got} vs {want}");
        }
    }

    #[test]
    fn l2_projection_of_gaussian_converges() {
        // Projection error decreases under refinement.
        let g = |r: f64, z: f64| (-(r * r + z * z)).exp();
        let mut errs = Vec::new();
        for lev in [1usize, 2, 3] {
            let s = FemSpace::new(uniform_mesh(2.0, lev), 2);
            let x = l2_project(&s, g);
            let mut emax = 0.0f64;
            for k in 0..20 {
                let r = 1.9 * (k as f64 + 0.5) / 20.0;
                let z = -1.9 + 3.8 * (((k * 3) % 20) as f64 + 0.5) / 20.0;
                emax = emax.max((s.eval(&x, r, z).unwrap() - g(r, z)).abs());
            }
            errs.push(emax);
        }
        assert!(
            errs[1] < errs[0] * 0.5 && errs[2] < errs[1] * 0.5,
            "{errs:?}"
        );
    }

    #[test]
    fn dz_matrix_differentiates() {
        // ∫ r ψ_i ∂z(f) with f = z²: (Dz f)ᵀ·1-functional ≈ ∫ r · 2z.
        let s = FemSpace::new(uniform_mesh(2.0, 2), 3);
        let dz = assemble_dz_matrix(&s);
        let f = s.interpolate(|_r, z| z * z);
        let df = dz.matvec(&f);
        // Test against ψ = r (in space for p≥1): ∫ r · r · 2z over
        // [0,2]x[-2,2] = 0 by z-antisymmetry.
        let rvec = s.interpolate(|r, _z| r);
        let got: f64 = rvec.iter().zip(&df).map(|(a, b)| a * b).sum();
        assert!(got.abs() < 1e-10, "{got}");
        // And against ψ = z: ∫ r z 2z = 2 ∫r ∫z² = 2·2·(16/3).
        let zvec = s.interpolate(|_r, z| z);
        let got2: f64 = zvec.iter().zip(&df).map(|(a, b)| a * b).sum();
        assert!((got2 - 64.0 / 3.0).abs() < 1e-9, "{got2}");
    }

    #[test]
    fn scatter_map_adds_what_the_row_search_adds_bitwise() {
        // Hanging nodes give multi-term expansions; zero entries are skipped
        // on both sides.
        let s = hanging_space(3);
        let nb2 = s.tab.nb * s.tab.nb;
        let mut by_search = csr_pattern(&s);
        let mut by_map = csr_pattern(&s);
        for (e, el) in s.elements.iter().enumerate() {
            let ce: Vec<f64> = (0..nb2)
                .map(|k| match (k + e) % 5 {
                    0 => 0.0,
                    r => (0.1 + (k * 7 + e * 13) as f64).sin() / r as f64,
                })
                .collect();
            scatter_element_matrix(el, &ce, &mut by_search, InsertMode::Add);
            let map = s.scatter_map(&by_map);
            map.scatter(e, el, &ce, |k, v| by_map.vals[k] += v);
        }
        let bits = |m: &Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_map), bits(&by_search));
        assert!(by_map.vals.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn scatter_is_linear_in_element_matrix() {
        let s = hanging_space(2);
        let mut a1 = csr_pattern(&s);
        let mut a2 = csr_pattern(&s);
        let nb = s.tab.nb;
        let ce: Vec<f64> = (0..nb * nb).map(|k| (k as f64 * 0.7).sin()).collect();
        let ce2: Vec<f64> = ce.iter().map(|v| 2.0 * v).collect();
        scatter_element_matrix(&s.elements[0], &ce, &mut a1, InsertMode::Add);
        scatter_element_matrix(&s.elements[0], &ce, &mut a1, InsertMode::Add);
        scatter_element_matrix(&s.elements[0], &ce2, &mut a2, InsertMode::Add);
        for (v1, v2) in a1.vals.iter().zip(&a2.vals) {
            assert!((v1 - v2).abs() < 1e-13);
        }
    }
}
