//! The multi-species Landau operator.
//!
//! Wraps one shared velocity grid, the species list, and the kernel
//! back-end into the object the time integrator drives. The assembled
//! operator is the approximate linearization of §III: `D(f, v̄)` and
//! `K(f, v̄)` frozen at the current state and discretized with standard
//! finite elements — so `L(f) f = C(f)` exactly (the Landau operator is
//! quadratic) while `L(f)` serves as the quasi-Newton Jacobian.
//!
//! The multi-species matrix is block diagonal (`I_{S×S} ⊗ A_1` pattern):
//! one CSR block per species, all sharing a pattern.

use crate::ipdata::IpData;
use crate::kernels;
use crate::species::SpeciesList;
use crate::tensor_cache::TensorTable;
use landau_fem::{assemble_dz_matrix, assemble_mass_matrix, csr_pattern, FemSpace};
use landau_sparse::csr::Csr;
use landau_vgpu::kokkos::PlainFactory;
use landau_vgpu::{Device, DeviceSpec, Tally};
use std::sync::Arc;

/// Which kernel implementation assembles the Jacobian.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Plain CPU loops (the ~2,500-line common CPU code of §III-D).
    Cpu,
    /// The CUDA programming model (Algorithm 1) on the virtual GPU.
    CudaModel,
    /// The Kokkos league/team/vector model on the virtual GPU.
    KokkosModel,
}

/// How element matrices reach the global matrix (§III-F lists all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssemblyPath {
    /// `MatSetValues`-style scatter, parallel over species (CPU path).
    SetValues,
    /// Concurrent element scatter with f64 atomics (the released GPU path).
    Atomic,
    /// Graph-coloring: colors serialize, elements within a color are
    /// conflict-free (no atomics).
    Colored,
}

/// The assembled Landau + electric-field operator for one state.
#[derive(Clone, Debug)]
pub struct AssembledOperator {
    /// One matrix per species, identical patterns, block-diagonal global
    /// structure.
    pub mats: Vec<Csr>,
}

impl AssembledOperator {
    /// Apply the block-diagonal operator: `out[α] = L_α f_α`.
    pub fn apply(&self, state: &[f64], out: &mut [f64]) {
        let n = self.mats[0].n_rows;
        for (s, m) in self.mats.iter().enumerate() {
            m.matvec_into(&state[s * n..(s + 1) * n], &mut out[s * n..(s + 1) * n]);
        }
    }
}

/// The Landau operator on one shared grid.
pub struct LandauOperator {
    /// The finite-element space (shared by all species, and — via the `Arc`
    /// — across batch vertices without per-vertex clones).
    pub space: Arc<FemSpace>,
    /// The plasma composition.
    pub species: SpeciesList,
    /// Kernel back-end.
    pub backend: Backend,
    /// Assembly path.
    pub assembly: AssemblyPath,
    /// Virtual device carrying the performance counters.
    pub device: Arc<Device>,
    /// The r-weighted mass matrix (single species block, no 2π).
    pub mass: Csr,
    /// The z-advection template `∫ r ψ ∂_z φ`.
    pub dz: Csr,
    pattern: Csr,
    /// Reusable packed integration-point data.
    pub ipdata: IpData,
    /// `blockDim.x` for the CUDA model / vector length for Kokkos.
    pub dim_x: usize,
    /// Element color batches (built lazily for the `Colored` path).
    color_batches: Option<Vec<Vec<usize>>>,
    /// Geometry-invariant tensor cache; when set, `assemble` streams the
    /// tiled kernels instead of re-evaluating the Landau tensors per pair.
    tensor_table: Option<Arc<TensorTable>>,
    /// The zero-budget (`Recompute`) table [`Backend::Cpu`] folds over while
    /// no cache is set: geometry only, built by the first assembly that
    /// needs it (the lanes of a batch share a resident table and hold none).
    closed_form: Option<Arc<TensorTable>>,
}

impl LandauOperator {
    /// Build the operator over a space with the given species and backend.
    pub fn new(space: FemSpace, species: SpeciesList, backend: Backend) -> Self {
        Self::new_shared(Arc::new(space), species, backend)
    }

    /// Build the operator over an already shared space (no mesh clone) —
    /// the constructor batched advances use so hundreds of vertices hold
    /// one `FemSpace` allocation.
    pub fn new_shared(space: Arc<FemSpace>, species: SpeciesList, backend: Backend) -> Self {
        let device = Arc::new(Device::new(DeviceSpec::v100()));
        let mass = assemble_mass_matrix(&space);
        let dz = assemble_dz_matrix(&space);
        let pattern = csr_pattern(&space);
        let ipdata = IpData::new(&space, &species);
        // The paper: largest power of two with dim_x · N_q ≤ 256.
        let nq = space.tab.nq;
        let mut dim_x = 1usize;
        while dim_x * 2 * nq <= 256 {
            dim_x *= 2;
        }
        LandauOperator {
            space,
            species,
            backend,
            assembly: AssemblyPath::SetValues,
            device,
            mass,
            dz,
            pattern,
            ipdata,
            dim_x,
            color_batches: None,
            tensor_table: None,
            closed_form: None,
        }
    }

    /// Build (and adopt) the geometry cache for this operator's mesh under
    /// the given byte budget, recording the build on the device's
    /// `tensor_table_build` counter. Returns the shared handle so callers
    /// can pass it to sibling operators ([`Self::set_tensor_table`]).
    ///
    /// Not enabled by default: the closed-form path is the reference both
    /// for correctness and for the paper's arithmetic-intensity tables.
    pub fn enable_tensor_cache(&mut self, budget_bytes: usize) -> Arc<TensorTable> {
        let table = TensorTable::build(&self.ipdata, budget_bytes);
        self.device.record_launch(
            "tensor_table_build",
            &table.build_tally(),
            self.ipdata.n as u64,
        );
        self.tensor_table = Some(table.clone());
        table
    }

    /// Adopt a cache built elsewhere (e.g. by a sibling vertex operator on
    /// the same mesh). Panics if the table's geometry does not match.
    pub fn set_tensor_table(&mut self, table: Arc<TensorTable>) {
        assert!(
            table.matches(&self.ipdata),
            "tensor table geometry does not match this operator's mesh"
        );
        self.tensor_table = Some(table);
    }

    /// The adopted geometry cache, if any.
    pub fn tensor_table(&self) -> Option<&Arc<TensorTable>> {
        self.tensor_table.as_ref()
    }

    /// Drop the geometry cache, returning to the closed-form path.
    pub fn clear_tensor_cache(&mut self) {
        self.tensor_table = None;
    }

    /// The shared CSR sparsity pattern (one species block). The fused
    /// batch orchestrator clones this once per lane for its reusable
    /// matrix workspace instead of calling `assemble` (which would
    /// allocate fresh matrices every Newton iteration).
    pub(crate) fn pattern(&self) -> &Csr {
        &self.pattern
    }

    /// Dofs per species.
    pub fn n(&self) -> usize {
        self.space.n_dofs
    }

    /// Total dofs (`S · n`).
    pub fn n_total(&self) -> usize {
        self.species.len() * self.space.n_dofs
    }

    /// Species-major initial state: each species' Maxwellian interpolated
    /// onto the grid.
    pub fn initial_state(&self) -> Vec<f64> {
        let n = self.n();
        let mut state = vec![0.0; self.n_total()];
        for (s, sp) in self.species.list.iter().enumerate() {
            state[s * n..(s + 1) * n]
                .copy_from_slice(&self.space.interpolate(|r, z| sp.maxwellian(r, z, 0.0)));
        }
        state
    }

    /// Assemble `L(f) − (ẽ_α/m̃_α) Ẽ D_z` for the given state and electric
    /// field. Counters for the `landau_jacobian` kernel are recorded on the
    /// device.
    pub fn assemble(&mut self, state: &[f64], e_field: f64) -> AssembledOperator {
        let _sp = landau_obs::span(landau_obs::names::JACOBIAN_BUILD);
        assert_eq!(state.len(), self.n_total());
        self.ipdata.pack(&self.space, state);
        let sp_kernel = landau_obs::span(landau_obs::names::KERNEL);
        let (mut coeffs, tally) = match (&self.tensor_table, self.backend) {
            // One fold body, whether a tile comes from memory or the closed form.
            (table, Backend::Cpu) => kernels::inner_integral_cpu_cached(
                &self.ipdata,
                &self.species,
                table.as_ref().unwrap_or_else(|| {
                    self.closed_form
                        .get_or_insert_with(|| TensorTable::build(&self.ipdata, 0))
                }),
            ),
            (None, Backend::CudaModel) => {
                kernels::inner_integral_cuda_model(&self.ipdata, &self.species, self.dim_x)
            }
            (None, Backend::KokkosModel) => {
                kernels::inner_integral_kokkos_model(&self.ipdata, &self.species, self.dim_x)
            }
            (Some(t), Backend::CudaModel) => kernels::inner_integral_cuda_model_cached(
                &self.ipdata,
                &self.species,
                self.dim_x,
                t,
            ),
            (Some(t), Backend::KokkosModel) => kernels::inner_integral_kokkos_cached(
                &self.ipdata,
                &self.species,
                self.dim_x,
                t,
                &PlainFactory,
            ),
        };
        // Seeded fault injection (resilience tests): corrupt one lane of
        // the kernel output when a plan armed on this device is due. With
        // no plan armed this is a single relaxed atomic load.
        if let Some(f) = self
            .device
            .poll_fault(landau_vgpu::fault::SITE_LANDAU_JACOBIAN, coeffs.lanes())
        {
            coeffs.apply_fault(&f);
        }
        drop(sp_kernel);
        let ns = self.species.len();
        let mut mats = vec![self.pattern.clone(); ns];
        self.assemble_tail(&coeffs, tally, &mut mats, e_field);
        AssembledOperator { mats }
    }

    /// The transform/assemble tail of [`Self::assemble`]: element matrices
    /// from the inner-integral coefficients, scatter into `mats` (which
    /// must be `ns` matrices on this operator's pattern — the scatter
    /// zeroes entries first, so reused matrices are bitwise-safe), launch
    /// accounting, and the electric-field advection term. Split out so the
    /// fused batch orchestrator can run the per-lane tail after *one*
    /// batched inner-integral launch has produced every lane's `coeffs`.
    pub(crate) fn assemble_tail(
        &mut self,
        coeffs: &kernels::IpCoeffs,
        mut tally: Tally,
        mats: &mut [Csr],
        e_field: f64,
    ) {
        let ns = self.species.len();
        assert_eq!(mats.len(), ns);
        let sp_kernel = landau_obs::span(landau_obs::names::KERNEL);
        let (ce, t2) =
            kernels::landau_element_matrices(&self.space, &self.species, &self.ipdata, coeffs);
        drop(sp_kernel);
        tally.merge(&t2);
        let sp_assembly = landau_obs::span(landau_obs::names::ASSEMBLY);
        match self.assembly {
            AssemblyPath::SetValues => kernels::assemble_setvalues(&self.space, ns, &ce, mats),
            AssemblyPath::Atomic => {
                let t3 = kernels::assemble_atomic(&self.space, ns, &ce, mats);
                tally.merge(&t3);
            }
            AssemblyPath::Colored => {
                let batches = self.color_batches.get_or_insert_with(|| {
                    let (colors, nc) = landau_fem::coloring::color_elements(&self.space);
                    landau_fem::coloring::color_batches(&colors, nc)
                });
                kernels::assemble_colored(&self.space, ns, &ce, mats, batches);
            }
        }
        drop(sp_assembly);
        self.device
            .record_launch("landau_jacobian", &tally, self.space.n_elements() as u64);
        // Electric-field advection: RHS gets −(ẽ/m̃) Ẽ ∂_z f.
        if e_field != 0.0 {
            for (s, sp) in self.species.list.iter().enumerate() {
                mats[s].axpy_same_pattern(-(sp.charge / sp.mass) * e_field, &self.dz);
            }
        }
    }

    /// Assemble the shifted mass matrix through the mass kernel (for
    /// roofline parity with the paper's two-kernel split). Returns the
    /// single-species matrix (identical across species).
    pub fn assemble_shifted_mass(&mut self, shift: f64) -> Csr {
        let _sp = landau_obs::span(landau_obs::names::MASS_BUILD);
        let ns = self.species.len();
        let (ce, tally) = kernels::mass_element_matrices(&self.space, ns, &self.ipdata, shift);
        let mut mats = vec![self.pattern.clone()];
        // Assemble only the first species block (they are identical).
        let nb = self.space.tab.nb;
        let block = ns * nb * nb;
        let ce0: Vec<f64> = ce
            .chunks(block)
            .flat_map(|c| c[..nb * nb].to_vec())
            .collect();
        let mut tally = tally;
        let t = kernels::assemble_atomic(&self.space, 1, &ce0, &mut mats);
        tally.merge(&t);
        self.device
            .record_launch("mass", &tally, self.space.n_elements() as u64);
        mats.swap_remove(0)
    }

    /// The residual of the collision operator: `out[α] = L_α(f) f_α`
    /// (exact, since the Landau operator is quadratic in `f`).
    pub fn collision_rhs(&mut self, state: &[f64], e_field: f64) -> Vec<f64> {
        let op = self.assemble(state, e_field);
        let mut out = vec![0.0; state.len()];
        op.apply(state, &mut out);
        out
    }

    /// Merge an externally produced tally into a named kernel counter.
    pub fn record(&self, kernel: &str, tally: &Tally, blocks: u64) {
        self.device.record_launch(kernel, tally, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::Moments;
    use crate::species::Species;
    use landau_mesh::presets::{MeshSpec, RefineShell};

    /// A small (~30 cell) adapted mesh that keeps single-core test runs
    /// fast; species are chosen with thermal speeds the mesh resolves.
    fn small_space() -> FemSpace {
        let spec = MeshSpec {
            domain_radius: 4.0,
            base_level: 1,
            shells: vec![RefineShell {
                radius: 2.0,
                max_cell_size: 0.5,
            }],
            tail_box: None,
        };
        FemSpace::new(spec.build(), 3)
    }

    fn small_operator(backend: Backend) -> LandauOperator {
        let sl = SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: 0.8,
            },
        ]);
        LandauOperator::new(small_space(), sl, backend)
    }

    #[test]
    fn dim_x_matches_paper_for_q3() {
        let op = small_operator(Backend::Cpu);
        // Q3: 16 integration points → blockDim (16, 16) = 256 threads.
        assert_eq!(op.space.tab.nq, 16);
        assert_eq!(op.dim_x, 16);
    }

    #[test]
    fn conservation_of_density_momentum_energy() {
        // The weak-form invariants: for ψ whose *interpolant* is exact
        // (1, z, |x|² are in the Q3 space), the moment rate is
        // ψ_coeffsᵀ (L f) — density per species, z-momentum and energy
        // summed over species must vanish.
        let mut op = small_operator(Backend::Cpu);
        let state = op.initial_state();
        // Perturb the state so the operator is far from an equilibrium pair.
        let n = op.n();
        let mut f = state.clone();
        for (i, v) in f.iter_mut().enumerate() {
            *v *= 1.0 + 0.1 * ((i % 7) as f64 - 3.0) / 3.0;
        }
        let rhs = op.collision_rhs(&f, 0.0);
        let ones = vec![1.0; n];
        let zvec = op.space.interpolate(|_r, z| z);
        let evec = op.space.interpolate(|r, z| r * r + z * z);
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let masses: Vec<f64> = op.species.list.iter().map(|s| s.mass).collect();
        let mut dp = 0.0;
        let mut de = 0.0;
        let mut pscale = 0.0;
        let mut escale = 0.0;
        for s in 0..2 {
            let r = &rhs[s * n..(s + 1) * n];
            let dn = dot(&ones, r);
            let scale: f64 = r.iter().map(|v| v.abs()).sum();
            assert!(
                dn.abs() < 1e-11 * scale,
                "density drift {dn} (scale {scale})"
            );
            let p = masses[s] * dot(&zvec, r);
            let e = 0.5 * masses[s] * dot(&evec, r);
            dp += p;
            de += e;
            pscale += p.abs();
            escale += e.abs();
        }
        assert!(
            dp.abs() < 1e-9 * pscale.max(1e-12),
            "momentum drift {dp} vs parts {pscale}"
        );
        assert!(
            de.abs() < 1e-9 * escale.max(1e-12),
            "energy drift {de} vs parts {escale}"
        );
        let _ = Moments::new(&op.space, &op.species);
    }

    #[test]
    fn maxwellian_is_near_equilibrium() {
        // A same-temperature Maxwellian pair is a fixed point: C(f) ≈ 0
        // relative to the operator's action on a genuinely off-equilibrium
        // state (a hotter electron Maxwellian — note a mere density scaling
        // would stay an equilibrium).
        let sl = SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: 1.0,
            },
        ]);
        let mut op = LandauOperator::new(small_space(), sl, Backend::Cpu);
        let eq = op.initial_state();
        let rhs_eq = op.collision_rhs(&eq, 0.0);
        let mut pert = eq.clone();
        let n = op.n();
        let hot = Species {
            temperature: 2.0,
            ..Species::electron()
        };
        pert[..n].copy_from_slice(&op.space.interpolate(|r, z| hot.maxwellian(r, z, 0.0)));
        let rhs_pert = op.collision_rhs(&pert, 0.0);
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            norm(&rhs_eq) < 0.25 * norm(&rhs_pert),
            "equilibrium residual {} vs perturbed {}",
            norm(&rhs_eq),
            norm(&rhs_pert)
        );
    }

    #[test]
    fn backends_assemble_identically() {
        let mut a = small_operator(Backend::Cpu);
        let mut b = small_operator(Backend::CudaModel);
        b.assembly = AssemblyPath::Atomic;
        let mut c = small_operator(Backend::KokkosModel);
        c.assembly = AssemblyPath::Colored;
        let state = a.initial_state();
        let ma = a.assemble(&state, 0.1);
        let mb = b.assemble(&state, 0.1);
        let mc = c.assemble(&state, 0.1);
        let scale: f64 = ma.mats[0].vals.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for s in 0..2 {
            for ((x, y), z) in ma.mats[s]
                .vals
                .iter()
                .zip(&mb.mats[s].vals)
                .zip(&mc.mats[s].vals)
            {
                assert!((x - y).abs() < 1e-11 * scale);
                assert!((x - z).abs() < 1e-11 * scale);
            }
        }
    }

    #[test]
    fn cpu_backend_folds_the_same_bits_with_and_without_a_cache() {
        let mut op = small_operator(Backend::Cpu);
        let state = op.initial_state();
        let closed_form = op.assemble(&state, 0.1);
        let stats = op.device.kernel_stats("landau_jacobian");
        assert!(stats.cache_build_flops > 0 && stats.cache_read == 0);
        op.enable_tensor_cache(usize::MAX);
        let cached = op.assemble(&state, 0.1);
        assert!(op.device.kernel_stats("landau_jacobian").cache_read > 0);
        for (a, b) in closed_form.mats.iter().zip(&cached.mats) {
            assert!(a
                .vals
                .iter()
                .zip(&b.vals)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn e_field_term_scales_with_charge_over_mass() {
        let mut op = small_operator(Backend::Cpu);
        let state = op.initial_state();
        let m0 = op.assemble(&state, 0.0);
        let m1 = op.assemble(&state, 0.5);
        // Difference must be exactly −(e/m)·E·Dz per species.
        for (s, sp) in op.species.list.iter().enumerate() {
            let c = -(sp.charge / sp.mass) * 0.5;
            for (k, (v1, v0)) in m1.mats[s].vals.iter().zip(&m0.mats[s].vals).enumerate() {
                let want = c * op.dz.vals[k];
                assert!(
                    (v1 - v0 - want).abs() < 1e-12 * (1.0 + want.abs()),
                    "species {s} entry {k}"
                );
            }
        }
    }

    #[test]
    fn device_counters_accumulate() {
        let mut op = small_operator(Backend::CudaModel);
        let state = op.initial_state();
        let _ = op.assemble(&state, 0.0);
        let s = op.device.kernel_stats("landau_jacobian");
        assert_eq!(s.launches, 1);
        assert!(s.flops > 0 && s.shuffles > 0 && s.dram_read > 0);
        let _ = op.assemble_shifted_mass(1.0);
        let m = op.device.kernel_stats("mass");
        assert!(m.launches == 1 && m.atomics > 0);
        // The Jacobian kernel is far more compute-intense than the mass
        // kernel (Table IV's qualitative content).
        assert!(
            s.arithmetic_intensity() > 4.0 * m.arithmetic_intensity(),
            "AI: jac {} vs mass {}",
            s.arithmetic_intensity(),
            m.arithmetic_intensity()
        );
    }
}
