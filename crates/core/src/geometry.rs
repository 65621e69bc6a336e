//! Everything that depends on the mesh alone, built once and shared.
//!
//! The paper computes its mesh-only data once per mesh (§III-E: the
//! integration points packed into flat arrays up front, the tensor
//! `U(x_i, x_j)` a function of those points only; §III-G: one RCM ordering
//! serving every species block), and the batched sequel runs a whole batch
//! of vertices over one copy of it. [`Geometry`] is that copy: immutable,
//! always behind an `Arc`, and living exactly as long as the operators that
//! hold it — there is no process-wide cache. Two operators sit on the same
//! mesh, ordering, band map and tensor table iff their geometries are
//! `Arc::ptr_eq`.
//!
//! Not here, because they depend on more than the mesh: the species-
//! dependent [`crate::moments::Moments`], an operator's packed fields
//! ([`crate::ipdata::IpData`]) and its [`landau_vgpu::Device`] counters.

use crate::ipdata::IpPoints;
use crate::tensor_cache::TensorTable;
use landau_fem::coloring::{color_batches, color_elements};
use landau_fem::{assemble_dz_matrix, assemble_mass_matrix, csr_pattern, FemSpace};
use landau_sparse::band::BandMap;
use landau_sparse::csr::Csr;
use landau_sparse::rcm::rcm_order;
use landau_vgpu::Device;
use std::sync::{Arc, OnceLock};

/// The mesh-only half of a Landau problem: what (mesh, element order)
/// determines and nothing else.
pub struct Geometry {
    /// The finite-element space (with its lazily built scatter map).
    pub space: Arc<FemSpace>,
    /// The r-weighted mass matrix (single species block, no 2π).
    pub mass: Csr,
    /// The z-advection template `∫ r ψ ∂_z φ`.
    pub dz: Csr,
    /// The CSR sparsity pattern of one species block, values zero.
    pub(crate) pattern: Csr,
    /// `blockDim.x` for the CUDA model / vector length for Kokkos.
    pub dim_x: usize,
    /// The integration points every [`crate::ipdata::IpData`] on this mesh
    /// packs its fields over.
    pub(crate) points: Arc<IpPoints>,
    perm: Vec<usize>,
    band_map: BandMap,
    /// The zero-budget tile source: recomputes tiles from `points` (what
    /// an operator folds over until a cache is enabled).
    pub(crate) recompute: Arc<TensorTable>,
    resident: OnceLock<Arc<TensorTable>>,
    color_batches: OnceLock<Vec<Vec<usize>>>,
}

impl Geometry {
    /// Assemble the mesh-only data of `space` and choose the solver
    /// ordering.
    pub fn new(space: FemSpace) -> Arc<Self> {
        let space = Arc::new(space);
        let mass = assemble_mass_matrix(&space);
        // The paper's solver relies on RCM; on strongly graded quadtree
        // meshes a sweep by node position (z-major, then r) sometimes beats
        // it, so take whichever gives the smaller band (factorization is
        // O(n B²)).
        let rcm = rcm_order(&mass);
        let mut sweep: Vec<usize> = (0..space.n_dofs).collect();
        // `total_cmp` (not `partial_cmp().unwrap()`): a NaN coordinate from a
        // corrupted mesh must not panic the ordering — it sorts last and the
        // solve then fails through the normal non-finite guards.
        sweep.sort_by(|&a, &b| {
            let (ra, za) = space.dof_positions[a];
            let (rb, zb) = space.dof_positions[b];
            za.total_cmp(&zb).then(ra.total_cmp(&rb))
        });
        let map_rcm = BandMap::new(&mass, &rcm);
        let map_sweep = BandMap::new(&mass, &sweep);
        let (perm, band_map) = if map_sweep.bandwidth() < map_rcm.bandwidth() {
            (sweep, map_sweep)
        } else {
            (rcm, map_rcm)
        };
        // The paper: largest power of two with dim_x · N_q ≤ 256.
        let mut dim_x = 1usize;
        while dim_x * 2 * space.tab.nq <= 256 {
            dim_x *= 2;
        }
        let points = Arc::new(IpPoints::new(&space));
        Arc::new(Geometry {
            dz: assemble_dz_matrix(&space),
            pattern: csr_pattern(&space),
            recompute: TensorTable::build(&points, 0),
            resident: OnceLock::new(),
            color_batches: OnceLock::new(),
            space,
            mass,
            dim_x,
            points,
            perm,
            band_map,
        })
    }

    /// The solver ordering: position `k` holds dof `perm()[k]` of each
    /// species block.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Mass-pattern entry → band slot of the reordered block: every
    /// Jacobian `M − γ L_α` on this mesh shares the pattern and the
    /// ordering.
    pub fn band_map(&self) -> &BandMap {
        &self.band_map
    }

    /// Half-bandwidth of the reordered single-species block.
    pub fn bandwidth(&self) -> usize {
        self.band_map.bandwidth()
    }

    /// The tile source for a byte budget: the resident table if a full one
    /// fits — built by the first caller, its build recorded on that
    /// caller's `device` as `tensor_table_build`, and handed to every later
    /// one — otherwise the recomputing source.
    pub fn tensor_table(&self, budget_bytes: usize, device: &Device) -> Arc<TensorTable> {
        let n = self.points.n;
        if TensorTable::required_bytes(n) > budget_bytes {
            return Arc::clone(&self.recompute);
        }
        Arc::clone(self.resident.get_or_init(|| {
            let table = TensorTable::build(&self.points, budget_bytes);
            device.record_launch("tensor_table_build", &table.build_tally(), n as u64);
            table
        }))
    }

    /// Element colour batches for the `Colored` assembly path.
    pub(crate) fn color_batches(&self) -> &[Vec<usize>] {
        self.color_batches.get_or_init(|| {
            let (colors, nc) = color_elements(&self.space);
            color_batches(&colors, nc)
        })
    }
}
