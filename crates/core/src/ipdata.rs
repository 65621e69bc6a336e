//! Packed integration-point data (structure of arrays).
//!
//! As in the paper (§III-E), the element and integration-point loops of the
//! inner integral are merged and all data needed there is packed into flat
//! vectors indexed by the *global* integration point `gi = e·N_q + q`:
//! coordinates `r`, `z`, combined weights `w = w_q |J| r` (so the cylindrical
//! measure is folded in), and per species the field values `f` and
//! gradients `df` — transposed into structure-of-arrays for coalesced
//! streaming. The points depend on the mesh alone ([`IpPoints`], one per
//! [`crate::geometry::Geometry`]); the field arrays are per operator.

use crate::species::SpeciesList;
use landau_fem::FemSpace;
use std::ops::Deref;
use std::sync::Arc;

/// The integration points of one mesh, packed once and shared by every
/// [`IpData`] and [`crate::tensor_cache::TensorTable`] on it.
#[derive(Debug)]
pub struct IpPoints {
    /// Total integration points `N = N_e N_q`.
    pub n: usize,
    /// Points per element `N_q`.
    pub nq: usize,
    /// Radial coordinate of each point.
    pub r: Vec<f64>,
    /// Axial coordinate of each point.
    pub z: Vec<f64>,
    /// Combined quadrature weight `w_q |J| r` of each point.
    pub w: Vec<f64>,
}

impl IpPoints {
    /// Pack the points of `space`.
    pub fn new(space: &FemSpace) -> Self {
        let nq = space.tab.nq;
        let n = space.n_ip();
        let (mut r, mut z, mut w) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for (e, el) in space.elements.iter().enumerate() {
            for q in 0..nq {
                let gi = e * nq + q;
                let (xi, eta) = space.tab.quad.points[q];
                (r[gi], z[gi]) = el.map_point(xi, eta);
                w[gi] = space.tab.quad.weights[q] * el.det_j() * r[gi];
            }
        }
        IpPoints { n, nq, r, z, w }
    }
}

/// The packed data streamed by the Landau kernels: the mesh's points
/// (read through `Deref`: `ip.n`, `ip.r[gi]`, …) and one state's fields.
#[derive(Clone, Debug)]
pub struct IpData {
    /// The integration points.
    pub points: Arc<IpPoints>,
    /// Species count `S`.
    pub ns: usize,
    /// Field values, species-major: `f[s * n + gi]`.
    pub f: Vec<f64>,
    /// Radial derivatives, species-major.
    pub dfr: Vec<f64>,
    /// Axial derivatives, species-major.
    pub dfz: Vec<f64>,
}

impl Deref for IpData {
    type Target = IpPoints;

    fn deref(&self) -> &IpPoints {
        &self.points
    }
}

impl IpData {
    /// Allocate for a space/species pair (values filled by [`IpData::pack`]).
    pub fn new(space: &FemSpace, species: &SpeciesList) -> Self {
        Self::on(Arc::new(IpPoints::new(space)), species.len())
    }

    /// Allocate `ns` species' fields over already packed points.
    pub fn on(points: Arc<IpPoints>, ns: usize) -> Self {
        let len = ns * points.n;
        IpData {
            points,
            ns,
            f: vec![0.0; len],
            dfr: vec![0.0; len],
            dfz: vec![0.0; len],
        }
    }

    /// Interpolate all species' fields and gradients to the integration
    /// points. `state` is the species-major global vector
    /// (`state[s*n_dofs .. (s+1)*n_dofs]` is species `s`).
    pub fn pack(&mut self, space: &FemSpace, state: &[f64]) {
        let nd = space.n_dofs;
        assert_eq!(state.len(), self.ns * nd);
        let n = self.n;
        let nq = space.tab.nq;
        let nb = space.tab.nb;
        let mut local = vec![0.0; nb];
        for s in 0..self.ns {
            let coeffs = &state[s * nd..(s + 1) * nd];
            for (e, el) in space.elements.iter().enumerate() {
                // Gather with constraint expansion.
                for (j, node) in el.nodes.iter().enumerate() {
                    local[j] = node.terms.iter().map(|&(d, w)| w * coeffs[d]).sum();
                }
                let gs = el.grad_scale();
                for q in 0..nq {
                    let gi = e * nq + q;
                    let b = &space.tab.b[q * nb..(q + 1) * nb];
                    let dx = &space.tab.dxi[q * nb..(q + 1) * nb];
                    let dy = &space.tab.deta[q * nb..(q + 1) * nb];
                    let mut v = 0.0;
                    let mut gr = 0.0;
                    let mut gz = 0.0;
                    for jb in 0..nb {
                        let c = local[jb];
                        v += b[jb] * c;
                        gr += dx[jb] * c;
                        gz += dy[jb] * c;
                    }
                    self.f[s * n + gi] = v;
                    self.dfr[s * n + gi] = gs * gr;
                    self.dfz[s * n + gi] = gs * gz;
                }
            }
        }
    }

    /// Bytes of one full field read (for the DRAM counters): the kernel
    /// streams `r`, `z`, `w` plus `f`, `dfr`, `dfz` for each species.
    pub fn stream_bytes(&self) -> u64 {
        ((3 + 3 * self.ns) * self.n * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::SpeciesList;
    use landau_mesh::presets::uniform_mesh;

    fn setup() -> (FemSpace, SpeciesList) {
        let space = FemSpace::new(uniform_mesh(4.0, 2), 3);
        (space, SpeciesList::electron_deuterium())
    }

    #[test]
    fn geometry_weights_integrate_r() {
        let (space, sl) = setup();
        let ip = IpData::new(&space, &sl);
        // Σ w = ∫ r dr dz = R²/2 · Δz = 8 · 8 = 64 on [0,4]×[-4,4].
        let total: f64 = ip.w.iter().sum();
        assert!((total - 64.0).abs() < 1e-10, "{total}");
        assert!(ip.r.iter().all(|&r| r > 0.0), "Gauss points are interior");
    }

    #[test]
    fn pack_reproduces_fields_and_gradients() {
        let (space, sl) = setup();
        let mut ip = IpData::new(&space, &sl);
        let nd = space.n_dofs;
        let mut state = vec![0.0; 2 * nd];
        // Species 0: f = r², species 1: f = z³ (both in the Q3 space).
        state[..nd].copy_from_slice(&space.interpolate(|r, _| r * r));
        state[nd..].copy_from_slice(&space.interpolate(|_, z| z * z * z));
        ip.pack(&space, &state);
        for gi in 0..ip.n {
            let (r, z) = (ip.r[gi], ip.z[gi]);
            assert!((ip.f[gi] - r * r).abs() < 1e-10);
            assert!((ip.dfr[gi] - 2.0 * r).abs() < 1e-9);
            assert!(ip.dfz[gi].abs() < 1e-9);
            assert!((ip.f[ip.n + gi] - z * z * z).abs() < 1e-10);
            assert!((ip.dfz[ip.n + gi] - 3.0 * z * z).abs() < 1e-8);
            assert!(ip.dfr[ip.n + gi].abs() < 1e-9);
        }
    }

    #[test]
    fn global_indexing_is_element_major() {
        let (space, sl) = setup();
        let ip = IpData::new(&space, &sl);
        assert_eq!(ip.n, space.n_elements() * 16);
        // The first 16 points all lie in element 0's bounding box.
        let el = &space.elements[0];
        for gi in 0..16 {
            assert!(ip.r[gi] >= el.r0 && ip.r[gi] <= el.r0 + el.h);
            assert!(ip.z[gi] >= el.z0 && ip.z[gi] <= el.z0 + el.h);
        }
    }

    #[test]
    fn stream_bytes_counts_all_arrays() {
        let (space, sl) = setup();
        let ip = IpData::new(&space, &sl);
        assert_eq!(ip.stream_bytes(), (9 * ip.n * 8) as u64);
    }
}
