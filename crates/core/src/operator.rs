//! The multi-species Landau operator.
//!
//! A [`Geometry`] (everything the mesh alone determines, shared by `Arc`),
//! the species list, the kernel back-end and this instance's own state —
//! packed fields, device counters, the tile source in use — make the object
//! the time integrator drives. The assembled
//! operator is the approximate linearization of §III: `D(f, v̄)` and
//! `K(f, v̄)` frozen at the current state and discretized with standard
//! finite elements — so `L(f) f = C(f)` exactly (the Landau operator is
//! quadratic) while `L(f)` serves as the quasi-Newton Jacobian.
//!
//! The multi-species matrix is block diagonal (`I_{S×S} ⊗ A_1` pattern):
//! one block per species, all sharing a pattern, and all combinations of
//! the same two assembled matrices ([`Jacobian`]).

use crate::geometry::Geometry;
use crate::ipdata::IpData;
use crate::kernels;
use crate::species::SpeciesList;
use crate::tensor_cache::{CacheMode, TensorTable};
use landau_fem::FemSpace;
use landau_sparse::csr::Csr;
use landau_vgpu::kokkos::PlainFactory;
use landau_vgpu::{Device, DeviceSpec, Tally};
use std::ops::Deref;
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
    /// `MatSetValues`-style scatter, parallel over matrices (CPU path).
    SetValues,
    /// Concurrent element scatter with f64 atomics (the released GPU path).
    Atomic,
    /// Graph-coloring: colors serialize, elements within a color are
    /// conflict-free (no atomics).
    Colored,
}

/// The assembled Landau + electric-field operator for one state, one
/// matrix per species: [`Jacobian::materialise`].
#[derive(Clone, Debug)]
pub struct AssembledOperator {
    /// One matrix per species, identical patterns, block-diagonal global
    /// structure.
    pub mats: Vec<Csr>,
}

/// The Landau Jacobian of one state in its rank-two form. The operator is
/// linear in the species factors, so species α's block is
/// `L_α = k_α A_K + d_α A_D + c_α D_z` with `k_α = q_α²/m_α`,
/// `d_α = −q_α²/m_α²`, `c_α = −(q_α/m_α)E`, over the *same* assembled
/// `A_K`, `A_D` and the geometry's `D_z`. Every consumer — the solver
/// refill, the residual and [`Self::materialise`] — reads an entry
/// through [`Self::entry`], so all of them see the same bits.
#[derive(Clone)]
pub struct Jacobian {
    /// `[A_K, A_D]` on the geometry's pattern.
    pub(crate) pair: [Csr; 2],
    /// `[k_α, d_α, c_α]` per species.
    pub(crate) factors: Vec<[f64; 3]>,
    /// `E ≠ 0`: the `c_α D_z` term is added.
    field: bool,
    geom: Arc<Geometry>,
}

impl Jacobian {
    /// The one entry formula: species `a`'s value at pattern slot `o`.
    #[inline]
    pub fn entry(&self, a: usize, o: usize) -> f64 {
        let [k, d, c] = self.factors[a];
        let v = k * self.pair[0].vals[o] + d * self.pair[1].vals[o];
        if self.field {
            v + c * self.geom.dz.vals[o]
        } else {
            v
        }
    }

    /// One matrix per species, every value from [`Self::entry`].
    pub fn materialise(&self) -> Vec<Csr> {
        (0..self.factors.len())
            .map(|a| {
                let mut m = self.pair[0].clone();
                for (o, v) in m.vals.iter_mut().enumerate() {
                    *v = self.entry(a, o);
                }
                m
            })
            .collect()
    }

    /// `y_α = L_α x_α` for species-major `x`, `y`: one pass over the
    /// pattern that forms each entry and accumulates it in
    /// `Csr::matvec_into`'s row order, so `y` carries the bits of the
    /// per-species products on [`Self::materialise`]'s matrices.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        let m = &self.pair[0];
        let n = m.n_rows;
        assert!(x.len() == n * self.factors.len() && y.len() == x.len());
        for i in 0..n {
            let row = m.row_ptr[i]..m.row_ptr[i + 1];
            for a in 0..self.factors.len() {
                let xa = &x[a * n..(a + 1) * n];
                let mut s = 0.0;
                for k in row.clone() {
                    s += self.entry(a, k) * xa[m.col_idx[k]];
                }
                y[a * n + i] = s;
            }
        }
    }
}

/// The Landau operator on one shared grid. The mesh-only data (`space`,
/// `mass`, `dz`, `dim_x`, ordering, band map) is read through `Deref` from
/// the [`Geometry`].
pub struct LandauOperator {
    pub(crate) geom: Arc<Geometry>,
    /// The plasma composition.
    pub species: SpeciesList,
    /// Kernel back-end.
    pub backend: Backend,
    /// Assembly path.
    pub assembly: AssemblyPath,
    /// Virtual device carrying the performance counters.
    pub device: Arc<Device>,
    /// Reusable packed integration-point data.
    pub ipdata: IpData,
    /// The tile source `assemble` folds over: the geometry's recomputing
    /// source until [`Self::enable_tensor_cache`] adopts its resident table.
    table: Arc<TensorTable>,
}

impl Deref for LandauOperator {
    type Target = Geometry;

    fn deref(&self) -> &Geometry {
        &self.geom
    }
}

impl LandauOperator {
    /// Build the operator over a space with the given species and backend,
    /// on a fresh geometry of its own.
    pub fn new(space: FemSpace, species: SpeciesList, backend: Backend) -> Self {
        Self::on(Geometry::new(space), species, backend)
    }

    /// Build the operator on an existing geometry: nothing mesh-only is
    /// rebuilt, so the vertices of a batch (or any operators with different
    /// species and backends) share one mesh, ordering and table.
    pub fn on(geom: Arc<Geometry>, species: SpeciesList, backend: Backend) -> Self {
        LandauOperator {
            ipdata: IpData::on(Arc::clone(&geom.points), species.len()),
            table: Arc::clone(&geom.recompute),
            device: Arc::new(Device::new(DeviceSpec::v100())),
            assembly: AssemblyPath::SetValues,
            geom,
            species,
            backend,
        }
    }

    /// The geometry this operator sits on.
    pub fn geometry(&self) -> &Arc<Geometry> {
        &self.geom
    }

    /// Stream the geometry's tensor table under the given byte budget (see
    /// [`Geometry::tensor_table`]: built once per geometry, recomputed per
    /// tile when it does not fit). Returns the tile source now in use.
    ///
    /// Not enabled by default: the closed-form path is the reference both
    /// for correctness and for the paper's arithmetic-intensity tables.
    pub fn enable_tensor_cache(&mut self, budget_bytes: usize) -> Arc<TensorTable> {
        self.table = self.geom.tensor_table(budget_bytes, &self.device);
        Arc::clone(&self.table)
    }

    /// The tile source in use.
    pub fn tensor_table(&self) -> &Arc<TensorTable> {
        &self.table
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
    /// field, one matrix per species ([`Jacobian::materialise`]).
    pub fn assemble(&mut self, state: &[f64], e_field: f64) -> AssembledOperator {
        let mats = self.jacobian(state, e_field).materialise();
        AssembledOperator { mats }
    }

    /// Assemble the Jacobian of `state` at field `e_field` in its rank-two
    /// form. Counters for the `landau_jacobian` kernel are recorded on the
    /// device.
    pub fn jacobian(&mut self, state: &[f64], e_field: f64) -> Jacobian {
        let _sp = landau_obs::span(landau_obs::names::JACOBIAN_BUILD);
        assert_eq!(state.len(), self.n_total());
        self.ipdata.pack(&self.geom.space, state);
        let sp_kernel = landau_obs::span(landau_obs::names::KERNEL);
        let (ip, species, dim_x, table) = (&self.ipdata, &self.species, self.dim_x, &self.table);
        let resident = table.mode() == CacheMode::Cached;
        let (mut coeffs, tally) = match self.backend {
            // One fold body, whether a tile comes from memory or the closed form.
            Backend::Cpu => kernels::inner_integral_cpu_cached(ip, species, table),
            // The device models stream a resident table; without one they
            // run Algorithm 1, which recomputes every pair as written.
            Backend::CudaModel => {
                if resident {
                    kernels::inner_integral_cuda_model_cached(ip, species, dim_x, table)
                } else {
                    kernels::inner_integral_cuda_model(ip, species, dim_x)
                }
            }
            Backend::KokkosModel => {
                if resident {
                    kernels::inner_integral_kokkos_cached(ip, species, dim_x, table, &PlainFactory)
                } else {
                    kernels::inner_integral_kokkos_model(ip, species, dim_x)
                }
            }
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
        let mut jac = self.new_jacobian();
        self.assemble_tail(&coeffs, tally, &mut jac, e_field);
        jac
    }

    /// A zero [`Jacobian`] for this operator's geometry and species: the
    /// storage [`Self::assemble_tail`] fills.
    pub fn new_jacobian(&self) -> Jacobian {
        Jacobian {
            pair: [self.geom.pattern.clone(), self.geom.pattern.clone()],
            factors: vec![[0.0; 3]; self.species.len()],
            field: false,
            geom: Arc::clone(&self.geom),
        }
    }

    /// The transform/assemble tail of [`Self::jacobian`]: the pair of
    /// element matrices from the inner-integral coefficients (packed in
    /// [`Self::ipdata`]), their scatter into `jac.pair` (zeroed first, so a
    /// reused `jac` is bitwise-safe), this operator's species factors at
    /// `e_field`, and the launch accounting. Public so the tail can be timed
    /// on its own (the `kernels` bench gates it).
    ///
    /// `Backend::Cpu` records what it executes. The device models record
    /// Algorithm 1 as the paper's GPU runs it: `S` scaled element matrices
    /// (`nq·S·nb·(8 + 6nb)` flops and `S·nb²` doubles written per element)
    /// and, on the atomic path, `S` per-species scatters.
    pub fn assemble_tail(
        &self,
        coeffs: &kernels::IpCoeffs,
        mut tally: Tally,
        jac: &mut Jacobian,
        e_field: f64,
    ) {
        let ns = self.species.len();
        assert!(Arc::ptr_eq(&jac.geom, &self.geom) && jac.factors.len() == ns);
        let modelled = self.backend != Backend::Cpu;
        let sp_kernel = landau_obs::span(landau_obs::names::KERNEL);
        let space = &*self.geom.space;
        let ce = kernels::landau_element_matrices(space, &self.ipdata, coeffs);
        drop(sp_kernel);
        let (nb, nq, ne) = (space.tab.nb, space.tab.nq, space.n_elements() as u64);
        let nm = if modelled { ns } else { 2 };
        tally.flops += ne * (nq * nm * nb * (8 + nb * 6)) as u64;
        tally.dram_write += ne * (nm * nb * nb * 8) as u64;
        let sp_assembly = landau_obs::span(landau_obs::names::ASSEMBLY);
        let pair = &mut jac.pair;
        match self.assembly {
            AssemblyPath::SetValues => kernels::assemble_setvalues(space, 2, &ce, pair),
            AssemblyPath::Atomic => {
                let t3 = kernels::assemble_atomic(space, 2, &ce, pair);
                tally.atomics += if modelled {
                    (ns * space.scatter_map(&pair[0]).targets()) as u64
                } else {
                    t3.atomics
                };
            }
            AssemblyPath::Colored => {
                kernels::assemble_colored(space, 2, &ce, pair, self.geom.color_batches());
            }
        }
        drop(sp_assembly);
        self.device
            .record_launch("landau_jacobian", &tally, space.n_elements() as u64);
        jac.field = e_field != 0.0;
        for (f, sp) in jac.factors.iter_mut().zip(&self.species.list) {
            let (q, m) = (sp.charge, sp.mass);
            *f = [q * q / m, -q * q / (m * m), -(q / m) * e_field];
        }
    }

    /// Assemble the shifted mass matrix through the mass kernel (for
    /// roofline parity with the paper's two-kernel split). Returns the
    /// single-species matrix (identical across species).
    pub fn assemble_shifted_mass(&mut self, shift: f64) -> Csr {
        let _sp = landau_obs::span(landau_obs::names::MASS_BUILD);
        let ns = self.species.len();
        let (ce, mut tally) = kernels::mass_element_matrices(&self.space, ns, &self.ipdata, shift);
        let mut mats = vec![self.geom.pattern.clone()];
        let t = kernels::assemble_atomic(&self.space, 1, &ce, &mut mats);
        tally.merge(&t);
        self.device
            .record_launch("mass", &tally, self.space.n_elements() as u64);
        mats.swap_remove(0)
    }

    /// The residual of the collision operator: `out[α] = L_α(f) f_α`
    /// (exact, since the Landau operator is quadratic in `f`).
    pub fn collision_rhs(&mut self, state: &[f64], e_field: f64) -> Vec<f64> {
        let mut out = vec![0.0; state.len()];
        self.jacobian(state, e_field).apply(state, &mut out);
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

    /// `assemble().mats` holds, bit for bit, the entries the solver refill
    /// reads (`Jacobian::entry`), and the residual's
    /// one-pass product equals `Csr::matvec_into` on those matrices.
    #[test]
    fn every_consumer_reads_the_materialised_bits() {
        let mut op = small_operator(Backend::Cpu);
        let state = op.initial_state();
        let n = op.n();
        let x: Vec<f64> = (0..state.len())
            .map(|i| state[i] * (1.0 + 0.3 * ((i % 7) as f64 - 3.0)))
            .collect();
        for e_field in [0.0, 0.4] {
            let mats = op.assemble(&state, e_field).mats;
            let jac = op.jacobian(&state, e_field);
            let mut y = vec![0.0; x.len()];
            jac.apply(&x, &mut y);
            for (a, m) in mats.iter().enumerate() {
                for (o, v) in m.vals.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        jac.entry(a, o).to_bits(),
                        "species {a} slot {o}"
                    );
                }
                let want = m.matvec(&x[a * n..(a + 1) * n]);
                for (w, got) in want.iter().zip(&y[a * n..(a + 1) * n]) {
                    assert_eq!(w.to_bits(), got.to_bits(), "species {a}");
                }
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
