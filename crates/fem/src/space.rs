//! The finite-element space: global node numbering, hanging-node
//! constraints, element closures, point evaluation.

use crate::assemble::ScatterMap;
use crate::tabulation::Tabulation;
use landau_mesh::forest::{FaceNbr, Forest, FACE_BOTTOM, FACE_LEFT, FACE_RIGHT, FACE_TOP};
use landau_mesh::CellKey;
use landau_sparse::csr::Csr;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Exact node coordinate: integers in `p`-scaled finest-grid units.
type NodeCoord = (i64, i64);

/// Expansion of one element-local node into global degrees of freedom.
///
/// Unconstrained nodes carry a single `(dof, 1.0)` term; hanging nodes carry
/// the interpolation weights to the nodes of the coarse face they hang on
/// (4 terms for Q3), possibly flattened through transitive constraints.
#[derive(Clone, Debug, Default)]
pub struct NodeExpansion {
    /// `(global dof, weight)` pairs, deduplicated.
    pub terms: Vec<(usize, f64)>,
}

/// Per-element data: geometry plus the dof expansion of each local node.
#[derive(Clone, Debug)]
pub struct Element {
    /// Source mesh cell.
    pub cell: CellKey,
    /// Physical lower-left corner (r, z).
    pub r0: f64,
    /// z of the lower edge.
    pub z0: f64,
    /// Edge length (cells are square).
    pub h: f64,
    /// Expansion of each of the `(p+1)²` local nodes (x-fastest ordering).
    pub nodes: Vec<NodeExpansion>,
    /// Sorted unique dofs this element touches.
    pub dofs: Vec<usize>,
}

impl Element {
    /// Jacobian determinant of the affine reference map (`h²/4`).
    #[inline]
    pub fn det_j(&self) -> f64 {
        0.25 * self.h * self.h
    }

    /// Reference-to-physical gradient scale (`2/h`, both directions).
    #[inline]
    pub fn grad_scale(&self) -> f64 {
        2.0 / self.h
    }

    /// Physical coordinates of a reference point.
    #[inline]
    pub fn map_point(&self, xi: f64, eta: f64) -> (f64, f64) {
        (
            self.r0 + 0.5 * (xi + 1.0) * self.h,
            self.z0 + 0.5 * (eta + 1.0) * self.h,
        )
    }
}

/// A scalar `Qp` finite-element space over an AMR forest.
#[derive(Clone, Debug)]
pub struct FemSpace {
    /// The underlying (balanced) forest.
    pub forest: Forest,
    /// Basis tabulation at quadrature points.
    pub tab: Tabulation,
    /// Number of unconstrained global dofs.
    pub n_dofs: usize,
    /// Elements in forest cell order.
    pub elements: Vec<Element>,
    /// Physical position of each dof's node.
    pub dof_positions: Vec<(f64, f64)>,
    /// Element entry → CSR slot map, built on first use.
    scatter: OnceLock<ScatterMap>,
}

impl FemSpace {
    /// Build the space of order `p` over a balanced forest.
    ///
    /// # Panics
    /// Panics if the forest violates 2:1 balance.
    pub fn new(forest: Forest, p: usize) -> Self {
        assert!(
            forest.check_balance().is_none(),
            "FemSpace requires a 2:1-balanced forest"
        );
        let tab = Tabulation::new(p);
        let n1 = p + 1;
        let cells = forest.cells().to_vec();

        // 1. Node coordinates of every element (p-scaled integer units).
        let node_coord = |key: CellKey, a: usize, b: usize| -> NodeCoord {
            let (ax, ay) = key.anchor_units();
            let su = key.size_units();
            (ax * p as i64 + a as i64 * su, ay * p as i64 + b as i64 * su)
        };

        // 2. Raw (single-level) constraints from hanging faces.
        let mut raw: HashMap<NodeCoord, Vec<(NodeCoord, f64)>> = HashMap::new();
        for &key in &cells {
            for face in 0..4usize {
                let FaceNbr::Coarser(cid) = forest.face_neighbor(key, face) else {
                    continue;
                };
                let coarse = cells[cid];
                let su_c = coarse.size_units();
                let (cax, cay) = coarse.anchor_units();
                // Coarse face node coordinates and the 1D span of the face.
                let (coarse_nodes, coarse_start, fixed): (Vec<NodeCoord>, i64, i64) = match face {
                    FACE_LEFT | FACE_RIGHT => {
                        // Vertical faces: x fixed, nodes vary in y.
                        let x = match face {
                            FACE_LEFT => (cax + su_c) * p as i64,
                            _ => cax * p as i64,
                        };
                        let nodes = (0..=p)
                            .map(|a| (x, cay * p as i64 + a as i64 * su_c))
                            .collect();
                        (nodes, cay * p as i64, x)
                    }
                    _ => {
                        let y = match face {
                            FACE_BOTTOM => (cay + su_c) * p as i64,
                            _ => cay * p as i64,
                        };
                        let nodes = (0..=p)
                            .map(|a| (cax * p as i64 + a as i64 * su_c, y))
                            .collect();
                        (nodes, cax * p as i64, y)
                    }
                };
                let coarse_len = (p as i64) * su_c;
                // Fine-face nodes of this cell.
                for a in 0..=p {
                    let fine: NodeCoord = match face {
                        FACE_LEFT => node_coord(key, 0, a),
                        FACE_RIGHT => node_coord(key, p, a),
                        FACE_BOTTOM => node_coord(key, a, 0),
                        FACE_TOP => node_coord(key, a, p),
                        _ => unreachable!(),
                    };
                    // Sanity: the fine node lies on the coarse face line.
                    let along = match face {
                        FACE_LEFT | FACE_RIGHT => {
                            debug_assert_eq!(fine.0, fixed);
                            fine.1
                        }
                        _ => {
                            debug_assert_eq!(fine.1, fixed);
                            fine.0
                        }
                    };
                    if coarse_nodes.contains(&fine) {
                        continue; // coincident with a coarse node: real dof
                    }
                    // Interpolation weights: coarse 1D basis at the fine
                    // node's parametric position on the coarse face.
                    let t = -1.0 + 2.0 * (along - coarse_start) as f64 / coarse_len as f64;
                    let w = tab.basis1d.eval(t);
                    let terms: Vec<(NodeCoord, f64)> = coarse_nodes
                        .iter()
                        .copied()
                        .zip(w.iter().copied())
                        .filter(|&(_, wi)| wi.abs() > 1e-14)
                        .collect();
                    raw.insert(fine, terms);
                }
            }
        }

        // 3. Transitive resolution of constraint chains (corner cascades).
        let mut resolved: HashMap<NodeCoord, Vec<(NodeCoord, f64)>> = HashMap::new();
        fn resolve(
            c: NodeCoord,
            raw: &HashMap<NodeCoord, Vec<(NodeCoord, f64)>>,
            resolved: &mut HashMap<NodeCoord, Vec<(NodeCoord, f64)>>,
            depth: usize,
        ) -> Vec<(NodeCoord, f64)> {
            assert!(depth < 64, "constraint chain too deep — unbalanced mesh?");
            if let Some(r) = resolved.get(&c) {
                return r.clone();
            }
            let Some(parents) = raw.get(&c) else {
                return vec![(c, 1.0)];
            };
            let mut acc: HashMap<NodeCoord, f64> = HashMap::new();
            for &(pc, pw) in parents {
                for (gc, gw) in resolve(pc, raw, resolved, depth + 1) {
                    *acc.entry(gc).or_default() += pw * gw;
                }
            }
            let mut out: Vec<(NodeCoord, f64)> =
                acc.into_iter().filter(|&(_, w)| w.abs() > 1e-14).collect();
            out.sort_by_key(|&(c, _)| c);
            resolved.insert(c, out.clone());
            out
        }
        let constrained: Vec<NodeCoord> = raw.keys().copied().collect();
        for c in constrained {
            resolve(c, &raw, &mut resolved, 0);
        }

        // 4. Number the unconstrained nodes.
        let mut all_coords: Vec<NodeCoord> = Vec::new();
        for &key in &cells {
            for b in 0..n1 {
                for a in 0..n1 {
                    all_coords.push(node_coord(key, a, b));
                }
            }
        }
        all_coords.sort();
        all_coords.dedup();
        let mut dof_of: HashMap<NodeCoord, usize> = HashMap::new();
        let mut dof_positions: Vec<(f64, f64)> = Vec::new();
        let unit = forest.root_size / ((1i64 << landau_mesh::MAX_LEVEL) as f64 * p as f64);
        for &c in &all_coords {
            if raw.contains_key(&c) {
                continue; // hanging node
            }
            let id = dof_of.len();
            dof_of.insert(c, id);
            dof_positions.push((c.0 as f64 * unit, forest.z_min + c.1 as f64 * unit));
        }
        let n_dofs = dof_of.len();

        // 5. Element closures.
        let elements: Vec<Element> = cells
            .iter()
            .map(|&key| {
                let (r0, z0, h) = forest.cell_geometry(key);
                let mut nodes = Vec::with_capacity(n1 * n1);
                let mut dofs: Vec<usize> = Vec::new();
                for b in 0..n1 {
                    for a in 0..n1 {
                        let c = node_coord(key, a, b);
                        let terms: Vec<(usize, f64)> = match resolved.get(&c) {
                            Some(parents) => parents
                                .iter()
                                .map(|&(pc, w)| {
                                    (
                                        *dof_of.get(&pc).unwrap_or_else(|| {
                                            panic!("unresolved constraint parent {pc:?}")
                                        }),
                                        w,
                                    )
                                })
                                .collect(),
                            None => vec![(dof_of[&c], 1.0)],
                        };
                        for &(d, _) in &terms {
                            dofs.push(d);
                        }
                        nodes.push(NodeExpansion { terms });
                    }
                }
                dofs.sort_unstable();
                dofs.dedup();
                Element {
                    cell: key,
                    r0,
                    z0,
                    h,
                    nodes,
                    dofs,
                }
            })
            .collect();

        FemSpace {
            forest,
            tab,
            n_dofs,
            elements,
            dof_positions,
            scatter: OnceLock::new(),
        }
    }

    /// The element-matrix scatter map of this space, shared by every
    /// operator on it. `on` is any matrix on [`crate::csr_pattern`] of this
    /// space; the first call resolves the slots against it.
    pub fn scatter_map(&self, on: &Csr) -> &ScatterMap {
        let map = self.scatter.get_or_init(|| ScatterMap::new(self, on));
        assert!(
            on.n_rows == self.n_dofs && on.nnz() == map.nnz(),
            "matrix is not on this space's pattern"
        );
        map
    }

    /// Element order `p`.
    pub fn order(&self) -> usize {
        self.tab.order
    }

    /// Number of elements.
    pub fn n_elements(&self) -> usize {
        self.elements.len()
    }

    /// Total quadrature (integration) points, `N = N_e · N_q`.
    pub fn n_ip(&self) -> usize {
        self.elements.len() * self.tab.nq
    }

    /// Approximate heap footprint of the space (the dominant arrays: element
    /// closures with their constraint expansions, dof positions, tabulation
    /// and forest leaf bookkeeping). Used to quantify what sharing one
    /// space across batch vertices saves versus per-vertex clones.
    pub fn approx_heap_bytes(&self) -> usize {
        use core::mem::size_of;
        let mut b = self.elements.capacity() * size_of::<Element>();
        for el in &self.elements {
            b += el.nodes.capacity() * size_of::<NodeExpansion>();
            for nd in &el.nodes {
                b += nd.terms.capacity() * size_of::<(usize, f64)>();
            }
            b += el.dofs.capacity() * size_of::<usize>();
        }
        b += self.dof_positions.capacity() * size_of::<(f64, f64)>();
        b += (self.tab.b.capacity() + self.tab.dxi.capacity() + self.tab.deta.capacity())
            * size_of::<f64>();
        b += self.tab.quad.points.capacity() * size_of::<(f64, f64)>()
            + self.tab.quad.weights.capacity() * size_of::<f64>();
        // Forest leaf set + sorted list + index, roughly 3 entries per cell.
        b += self.forest.cells().len() * 3 * (size_of::<CellKey>() + size_of::<usize>());
        b += self.scatter.get().map_or(0, ScatterMap::heap_bytes);
        b
    }

    /// Gather the element-local coefficient vector (constrained nodes filled
    /// in by their constraint expansion).
    pub fn element_coeffs(&self, e: usize, global: &[f64], out: &mut [f64]) {
        let el = &self.elements[e];
        debug_assert_eq!(out.len(), el.nodes.len());
        for (j, node) in el.nodes.iter().enumerate() {
            out[j] = node.terms.iter().map(|&(d, w)| w * global[d]).sum();
        }
    }

    /// Nodal interpolation: set every dof to `f(r, z)` at its node.
    pub fn interpolate(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.dof_positions.iter().map(|&(r, z)| f(r, z)).collect()
    }

    /// Evaluate a FE function at a physical point (`None` outside domain).
    pub fn eval(&self, coeffs: &[f64], r: f64, z: f64) -> Option<f64> {
        let key = self.forest.locate(r, z)?;
        let e = self.forest.cell_id(key)?;
        let el = &self.elements[e];
        let xi = 2.0 * (r - el.r0) / el.h - 1.0;
        let eta = 2.0 * (z - el.z0) / el.h - 1.0;
        let basis = self
            .tab
            .eval_basis_at(xi.clamp(-1.0, 1.0), eta.clamp(-1.0, 1.0));
        let mut local = vec![0.0; el.nodes.len()];
        self.element_coeffs(e, coeffs, &mut local);
        Some(basis.iter().zip(&local).map(|(b, c)| b * c).sum())
    }

    /// Evaluate the gradient `(∂r, ∂z)` of a FE function at a point.
    pub fn eval_grad(&self, coeffs: &[f64], r: f64, z: f64) -> Option<(f64, f64)> {
        let key = self.forest.locate(r, z)?;
        let e = self.forest.cell_id(key)?;
        let el = &self.elements[e];
        let xi = 2.0 * (r - el.r0) / el.h - 1.0;
        let eta = 2.0 * (z - el.z0) / el.h - 1.0;
        let grads = self
            .tab
            .eval_grad_at(xi.clamp(-1.0, 1.0), eta.clamp(-1.0, 1.0));
        let mut local = vec![0.0; el.nodes.len()];
        self.element_coeffs(e, coeffs, &mut local);
        let s = el.grad_scale();
        let mut gr = 0.0;
        let mut gz = 0.0;
        for (g, c) in grads.iter().zip(&local) {
            gr += g.0 * c;
            gz += g.1 * c;
        }
        Some((s * gr, s * gz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landau_mesh::presets::uniform_mesh;

    fn hanging_mesh() -> Forest {
        let mut f = Forest::new(1, 1, 2.0, -1.0);
        f.refine_uniform(1);
        // Refine only the lower-left cell → hanging nodes on two faces.
        f.refine_once(|f, k| {
            let (r0, z0, _h) = f.cell_geometry(k);
            r0 == 0.0 && z0 == -1.0
        });
        f.balance();
        f
    }

    #[test]
    fn conforming_dof_counts() {
        // Uniform n×n refinement: (p·nx + 1)(p·ny + 1) dofs.
        for p in 1..=3 {
            let f = uniform_mesh(2.0, 2); // 4 x 8 cells on [0,2]x[-2,2]
            let s = FemSpace::new(f, p);
            let nx = 4 * p + 1;
            let ny = 8 * p + 1;
            assert_eq!(s.n_dofs, nx * ny, "p={p}");
            assert_eq!(s.n_elements(), 32);
            assert_eq!(s.n_ip(), 32 * (p + 1) * (p + 1));
        }
    }

    #[test]
    fn hanging_nodes_are_constrained() {
        let s = FemSpace::new(hanging_mesh(), 3);
        // 3 coarse + 4 fine cells.
        assert_eq!(s.n_elements(), 7);
        // Conforming count would be (with all cells refined): count by hand
        // instead: constrained nodes must exist.
        let total_nodes: usize = {
            let mut coords = std::collections::HashSet::new();
            for el in &s.elements {
                let n1 = s.order() + 1;
                for b in 0..n1 {
                    for a in 0..n1 {
                        let (r, z) = el.map_point(
                            -1.0 + 2.0 * a as f64 / s.order() as f64,
                            -1.0 + 2.0 * b as f64 / s.order() as f64,
                        );
                        coords.insert(((r * 1e9) as i64, (z * 1e9) as i64));
                    }
                }
            }
            coords.len()
        };
        assert!(s.n_dofs < total_nodes, "some nodes must be constrained");
        // Q3 constrained nodes expand to 4 parents (paper §V-A1).
        let mut found4 = false;
        for el in &s.elements {
            for n in &el.nodes {
                assert!(!n.terms.is_empty());
                if n.terms.len() == 4 {
                    found4 = true;
                }
                let ws: f64 = n.terms.iter().map(|t| t.1).sum();
                assert!((ws - 1.0).abs() < 1e-12, "weights sum to 1 (pou)");
            }
        }
        assert!(found4, "expected 4-parent Q3 constraints");
    }

    #[test]
    fn polynomial_reproduction_across_hanging_faces() {
        for p in 1..=3 {
            let s = FemSpace::new(hanging_mesh(), p);
            let f = |r: f64, z: f64| {
                // Complete polynomial of degree ≤ p in each variable.
                match p {
                    1 => 1.0 + 2.0 * r - z + 0.5 * r * z,
                    2 => 1.0 + r + z * z + r * r * z,
                    _ => r * r * r - 2.0 * z * z * z + r * z * z + 1.0,
                }
            };
            let coeffs = s.interpolate(f);
            for i in 0..40 {
                let r = 1.97 * ((i * 7 % 40) as f64 + 0.3) / 40.0;
                let z = -0.97 + 1.94 * ((i * 13 % 40) as f64) / 40.0;
                let got = s.eval(&coeffs, r, z).unwrap();
                assert!(
                    (got - f(r, z)).abs() < 1e-9,
                    "p={p} at ({r},{z}): {} vs {}",
                    got,
                    f(r, z)
                );
            }
        }
    }

    #[test]
    fn continuity_across_hanging_interface() {
        let s = FemSpace::new(hanging_mesh(), 3);
        // Arbitrary (non-polynomial) coefficients: the FE function must still
        // be continuous across the hanging face at x = 1 (z in [-1,0]).
        let coeffs: Vec<f64> = (0..s.n_dofs)
            .map(|i| ((i * 37) % 11) as f64 - 5.0)
            .collect();
        for k in 0..20 {
            let z = -0.99 + 0.97 * k as f64 / 19.0;
            let a = s.eval(&coeffs, 1.0 - 1e-9, z).unwrap();
            let b = s.eval(&coeffs, 1.0 + 1e-9, z).unwrap();
            assert!((a - b).abs() < 1e-6, "jump at z={z}: {a} vs {b}");
        }
        // And across the horizontal hanging face at z = 0 (r in [0,1]).
        for k in 0..20 {
            let r = 0.01 + 0.97 * k as f64 / 19.0;
            let a = s.eval(&coeffs, r, -1e-9).unwrap();
            let b = s.eval(&coeffs, r, 1e-9).unwrap();
            assert!((a - b).abs() < 1e-6, "jump at r={r}: {a} vs {b}");
        }
    }

    #[test]
    fn gradient_evaluation() {
        let s = FemSpace::new(uniform_mesh(2.0, 2), 2);
        let coeffs = s.interpolate(|r, z| r * r + 3.0 * z);
        let (gr, gz) = s.eval_grad(&coeffs, 0.7, -0.3).unwrap();
        assert!((gr - 1.4).abs() < 1e-10);
        assert!((gz - 3.0).abs() < 1e-10);
    }

    #[test]
    fn element_coeffs_respect_constraints() {
        let s = FemSpace::new(hanging_mesh(), 2);
        let coeffs = s.interpolate(|r, z| r + z);
        let mut local = vec![0.0; s.tab.nb];
        for e in 0..s.n_elements() {
            s.element_coeffs(e, &coeffs, &mut local);
            let el = &s.elements[e];
            let n1 = s.order() + 1;
            for b in 0..n1 {
                for a in 0..n1 {
                    let (r, z) = el.map_point(
                        -1.0 + 2.0 * a as f64 / s.order() as f64,
                        -1.0 + 2.0 * b as f64 / s.order() as f64,
                    );
                    assert!((local[b * n1 + a] - (r + z)).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn deep_multiscale_space_builds() {
        // The electron+ion style mesh with several levels of gradation.
        let f = landau_mesh::presets::maxwellian_mesh(5.0, &[0.886, 0.05], 1.0);
        let s = FemSpace::new(f, 3);
        assert!(s.n_dofs > 100);
        // Polynomial reproduction still exact with constraint cascades.
        let coeffs = s.interpolate(|r, z| r * z * z + 2.0 * r * r * r);
        for k in 0..25 {
            let r = 4.9 * (k as f64 + 0.5) / 25.0;
            let z = -4.9 + 9.8 * (((k * 11) % 25) as f64 + 0.5) / 25.0;
            let got = s.eval(&coeffs, r, z).unwrap();
            let want = r * z * z + 2.0 * r * r * r;
            assert!(
                (got - want).abs() < 1e-8 * (1.0 + want.abs()),
                "at ({r},{z}): {got} vs {want}"
            );
        }
    }
}
