//! Kernel registry for the static verifier.
//!
//! Every Team-based backend kernel self-registers here (see
//! [`crate::kernels::register`]) with its name, the [`PolicyFamily`] of
//! launch configurations it supports, a **scratch budget closure** — the
//! single source of truth for how many slots the kernel allocates per
//! block — and a monomorphic adapter that runs it under the symbolic
//! member factory. The `verify-kernels` driver in `landau-check`
//! enumerates this registry, executes each kernel symbolically over the
//! family's representative policies, and discharges the race / barrier /
//! capacity / determinism proof obligations for every [`GpuSpec`] in
//! `landau_vgpu::spec`.
//!
//! Keeping the budget *here* (rather than as a hand-written length at the
//! allocation site) is what makes the capacity proof meaningful: the
//! kernel allocates `budget(dims, policy)` slots, the verifier checks the
//! observed allocation equals the declared budget, and then proves
//! `budget · 8 B` fits every device's per-block shared memory for the
//! whole policy family. Lint E007 in `landau-check` flags allocation
//! sites that bypass the budget.
//!
//! [`GpuSpec`]: landau_vgpu::GpuSpec

use crate::ipdata::IpData;
use crate::kernels::IpCoeffs;
use crate::species::{Species, SpeciesList};
use crate::tensor_cache::TensorTable;
use landau_fem::FemSpace;
use landau_mesh::presets::uniform_mesh;
use landau_vgpu::kokkos::TeamPolicy;
use landau_vgpu::symbolic::SymbolicCtx;

/// The problem dimensions a scratch budget may depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelDims {
    /// Integration points per element (`team_size`).
    pub nq: usize,
    /// Species count.
    pub ns: usize,
    /// Total integration points.
    pub n: usize,
}

/// The launch-configuration family a kernel is verified over: the
/// verifier proves obligations at each representative vector length (the
/// lane dimension is symbolic *within* each policy — every lane pair is
/// quantified, not sampled).
#[derive(Clone, Copy, Debug)]
pub struct PolicyFamily {
    /// Representative `blockDim.x` values (powers of two the paper uses,
    /// plus non-power-of-two lengths Kokkos permits).
    pub vector_lengths: &'static [usize],
}

impl PolicyFamily {
    /// The family every Team-based kernel in this crate supports: the
    /// paper's power-of-two lane counts up to a full AMD wavefront, plus
    /// odd lengths to exercise the non-power-of-two tree join.
    pub fn standard() -> Self {
        PolicyFamily {
            vector_lengths: &[1, 2, 3, 8, 16, 32, 64],
        }
    }
}

/// One registered kernel: everything the verifier needs to run and judge
/// it without knowing its concrete types (the adapters are monomorphic
/// over [`SymbolicCtx`], since `Team` methods are generic and rule out
/// trait objects).
pub struct KernelEntry {
    /// Stable kernel name (report key; must be unique in the registry).
    pub name: &'static str,
    /// Launch configurations to verify over.
    pub family: PolicyFamily,
    /// Declared scratch slots per block — the registry's budget closure.
    pub budget: fn(&KernelDims, &TeamPolicy) -> usize,
    /// Execute the kernel once on `input` at the given vector length,
    /// with every team member drawn from the symbolic factory, and return
    /// the coefficients it computed.
    pub run_symbolic: fn(&VerifyInput, usize, &SymbolicCtx) -> IpCoeffs,
}

/// The registry: a flat list of entries, populated by each backend
/// module's `register` hook.
#[derive(Default)]
pub struct KernelRegistry {
    entries: Vec<KernelEntry>,
}

impl KernelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one kernel; panics on a duplicate name (two entries with
    /// one name would shadow each other in the findings report).
    pub fn add(&mut self, entry: KernelEntry) {
        assert!(
            self.entries.iter().all(|e| e.name != entry.name),
            "duplicate kernel registration: {}",
            entry.name
        );
        self.entries.push(entry);
    }

    /// All registered kernels.
    pub fn entries(&self) -> &[KernelEntry] {
        &self.entries
    }

    /// The standard registry: every production Team-based kernel in this
    /// crate.
    pub fn standard() -> Self {
        let mut reg = Self::new();
        crate::kernels::register(&mut reg);
        reg
    }
}

/// Representative problem data the registry kernels execute on: the same
/// small two-species Maxwellian setup the kernel unit tests pin their
/// backend agreement on. Small enough that a full symbolic sweep over the
/// policy family stays in CI budget, rich enough that every staging slot
/// class (coordinates, weights, per-species field terms) is exercised.
pub struct VerifyInput {
    /// FEM space the integration points live on.
    pub space: FemSpace,
    /// Two-species plasma (electron + deuterium-like ion).
    pub species: SpeciesList,
    /// Packed integration-point data.
    pub ip: IpData,
    /// Full tensor table for the cached kernel.
    pub table: std::sync::Arc<TensorTable>,
}

impl VerifyInput {
    /// Build the representative input.
    pub fn representative() -> Self {
        let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
        let species = SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 0.5,
                temperature: 2.0,
            },
        ]);
        let mut ip = IpData::new(&space, &species);
        let nd = space.n_dofs;
        let mut state = vec![0.0; species.len() * nd];
        for (s, sp) in species.list.iter().enumerate() {
            let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) + 0.01);
            state[s * nd..(s + 1) * nd].copy_from_slice(&v);
        }
        ip.pack(&space, &state);
        let table = TensorTable::build(&ip.points, usize::MAX);
        VerifyInput {
            space,
            species,
            ip,
            table,
        }
    }

    /// The dimensions budget closures are evaluated at.
    pub fn dims(&self) -> KernelDims {
        KernelDims {
            nq: self.ip.nq,
            ns: self.ip.ns,
            n: self.ip.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_unique_named_entries() {
        let reg = KernelRegistry::standard();
        assert!(reg.entries().len() >= 2, "both kokkos kernels register");
        for e in reg.entries() {
            assert!(!e.family.vector_lengths.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate kernel registration")]
    fn duplicate_names_are_rejected() {
        fn zero(_: &KernelDims, _: &TeamPolicy) -> usize {
            0
        }
        fn noop(_: &VerifyInput, _: usize, _: &SymbolicCtx) -> IpCoeffs {
            IpCoeffs::zeros(0)
        }
        let entry = || KernelEntry {
            name: "dup",
            family: PolicyFamily::standard(),
            budget: zero,
            run_symbolic: noop,
        };
        let mut reg = KernelRegistry::new();
        reg.add(entry());
        reg.add(entry());
    }

    #[test]
    fn declared_budgets_match_observed_allocation() {
        let input = VerifyInput::representative();
        let dims = input.dims();
        for e in KernelRegistry::standard().entries() {
            for &vl in e.family.vector_lengths {
                let policy = TeamPolicy {
                    league_size: dims.n / dims.nq,
                    team_size: dims.nq,
                    vector_length: vl,
                };
                let declared = (e.budget)(&dims, &policy);
                let ctx = SymbolicCtx::new();
                (e.run_symbolic)(&input, vl, &ctx);
                let logs = ctx.take_logs();
                assert!(!logs.is_empty(), "{}: no blocks ran", e.name);
                for b in &logs {
                    let observed: usize = b.alloc_slots.iter().sum();
                    assert_eq!(
                        observed, declared,
                        "{} at vl={vl}: budget closure drifted from the kernel",
                        e.name
                    );
                }
            }
        }
    }
}
