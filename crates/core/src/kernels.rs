//! Algorithm 1: the Landau Jacobian kernels in three programming styles,
//! plus the mass kernel and both assembly paths.
//!
//! The computation has two stages:
//!
//! 1. **Inner integral** (`O(N² S)`, lines 3–16): for every test
//!    integration point `i`, reduce over all field points `j` the Landau
//!    tensors contracted with the species-summed field data, producing the
//!    friction vector `G_K(i)` and diffusion tensor `G_D(i)`. The species
//!    sum was hoisted *inside* the inner integral (eq. 11), which is the
//!    paper's key loop optimization — the `β` loop touches packed field
//!    data only, so the leading term is species-count linear, not
//!    quadratic.
//! 2. **Transform & assemble** (lines 17–23): map to the global basis,
//!    contract with the test/trial tabulations and scatter. Algorithm 1
//!    scales per species here (`ν ẽ_α² m0/m_α` and `−ν ẽ_α² (m0/m_α)²`)
//!    and writes `S` blocks, `O(N N_b² S)`; the operator is linear in
//!    those factors, so the host builds the two unscaled matrices once and
//!    every species reads them (`O(N N_b²)`, [`crate::operator::Jacobian`]).
//!
//! The three back-ends (plain CPU, CUDA model, Kokkos model) produce the
//! same `G` arrays up to floating-point association order; tests pin them
//! to ≤1e-12 relative difference.
//!
//! The CPU backend's one production body is [`inner_integral_cpu_cached`]
//! (tiles streamed from a resident [`TensorTable`] or evaluated from the
//! closed form by a zero-budget one); [`inner_integral_cpu`] is the scalar
//! per-pair reference, and the device models run Algorithm 1 as written.

use crate::ipdata::IpData;
use crate::registry::{KernelDims, KernelEntry, KernelRegistry, PolicyFamily, VerifyInput};
use crate::species::SpeciesList;
use crate::tensor::{landau_tensor_2d, TENSOR2D_FLOPS};
use crate::tensor_cache::{CachedStream, TensorTable};
use landau_fem::FemSpace;
use landau_par::prelude::*;
use landau_sparse::csr::Csr;
use landau_vgpu::kokkos::{PlainFactory, Team, TeamFactory, TeamPolicy};
use landau_vgpu::symbolic::SymbolicCtx;
use landau_vgpu::{cuda_strided_reduce, Tally};

/// Output of the inner-integral stage: per integration point, the friction
/// vector `G_K` (2 components) and symmetric diffusion tensor `G_D`
/// (`[rr, rz, zz]`), *before* the per-species scaling.
#[derive(Clone, Debug)]
pub struct IpCoeffs {
    /// `G_K` per point.
    pub gk: Vec<[f64; 2]>,
    /// `G_D` per point (symmetric storage).
    pub gd: Vec<[f64; 3]>,
}

impl IpCoeffs {
    /// Zeroed coefficients for `n` points.
    pub fn zeros(n: usize) -> Self {
        IpCoeffs {
            gk: vec![[0.0; 2]; n],
            gd: vec![[0.0; 3]; n],
        }
    }

    /// Flat lane count (`5 · n`: two `G_K` and three `G_D` components per
    /// point) — the buffer size fault injection draws its lane from.
    pub fn lanes(&self) -> usize {
        2 * self.gk.len() + 3 * self.gd.len()
    }

    /// Apply an injected fault to one flat lane (lanes `[0, 2n)` map to
    /// `G_K`, `[2n, 5n)` to `G_D`). Called by the operator's kernel driver
    /// only when a [`landau_vgpu::FaultPlan`] is armed and due.
    pub fn apply_fault(&mut self, f: &landau_vgpu::InjectedFault) {
        let n = self.gk.len();
        if n == 0 {
            return;
        }
        let flat = f.index % (5 * n);
        let v: &mut f64 = if flat < 2 * n {
            &mut self.gk[flat % n][flat / n]
        } else {
            let r = flat - 2 * n;
            &mut self.gd[r % n][r / n]
        };
        match f.kind {
            landau_vgpu::FaultKind::Nan => *v = f64::NAN,
            landau_vgpu::FaultKind::Perturb { rel } => *v *= 1.0 + rel,
            landau_vgpu::FaultKind::SingularBlock => {}
        }
    }

    /// Max absolute relative difference against another coefficient set.
    pub fn max_rel_diff(&self, other: &IpCoeffs) -> f64 {
        let mut scale = 1e-300f64;
        for v in self.gk.iter().flatten().chain(self.gd.iter().flatten()) {
            scale = scale.max(v.abs());
        }
        let mut d = 0.0f64;
        for (a, b) in self
            .gk
            .iter()
            .flatten()
            .chain(self.gd.iter().flatten())
            .zip(other.gk.iter().flatten().chain(other.gd.iter().flatten()))
        {
            d = d.max((a - b).abs());
        }
        d / scale
    }
}

/// FLOPs per `(i, j)` tensor-contract pair (tensor eval + `β` accumulation +
/// `G` update), used for analytic counting. `s` is the species count.
#[inline]
pub fn pair_flops(s: usize) -> u64 {
    TENSOR2D_FLOPS + 6 * s as u64 + 19
}

#[inline]
fn pair_body(ri: f64, zi: f64, ip: &IpData, fk: &[f64], fd: &[f64], j: usize, acc: &mut [f64; 5]) {
    let t = landau_tensor_2d(ri, zi, ip.r[j], ip.z[j]);
    // Lines 5–8: species sums of field data (β loop over packed arrays).
    let mut tkr = 0.0;
    let mut tkz = 0.0;
    let mut td = 0.0;
    for (b, (&fkb, &fdb)) in fk.iter().zip(fd).enumerate() {
        let off = b * ip.n + j;
        tkr += fkb * ip.dfr[off];
        tkz += fkb * ip.dfz[off];
        td += fdb * ip.f[off];
    }
    // Lines 9–10: weighted accumulation.
    let w = ip.w[j];
    acc[0] += w * (t.k[0][0] * tkr + t.k[0][1] * tkz);
    acc[1] += w * (t.k[1][0] * tkr + t.k[1][1] * tkz);
    let wtd = w * td;
    acc[2] += wtd * t.d[0];
    acc[3] += wtd * t.d[1];
    acc[4] += wtd * t.d[2];
}

/// Inner integral, plain CPU style (the "common CPU code" of §III-D):
/// a parallel loop over test points, each scanning every field point.
/// Reference only: [`inner_integral_cpu_cached`] is the CPU backend's kernel.
pub fn inner_integral_cpu(ip: &IpData, species: &SpeciesList) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_iter_mut()
        .zip(out.gd.par_iter_mut())
        .enumerate()
        .map(|(i, (gk, gd))| {
            let (ri, zi) = (ip.r[i], ip.z[i]);
            let mut acc = [0.0f64; 5];
            for j in 0..n {
                if j == i {
                    continue; // the integrable self-interaction singularity
                }
                pair_body(ri, zi, ip, &fk, &fd, j, &mut acc);
            }
            *gk = [acc[0], acc[1]];
            *gd = [acc[2], acc[3], acc[4]];
            Tally {
                flops: (n as u64 - 1) * pair_flops(ip.ns),
                ..Default::default()
            }
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// Inner integral in the CUDA programming model (Algorithm 1): one block
/// per element; `threadIdx.y` indexes the element's integration points;
/// the x lanes run the strided loop over all `N` field points with
/// register partials combined by the warp-shuffle butterfly.
///
/// `dim_x` is `blockDim.x`; the paper picks the largest power of two with
/// `dim_x · N_q ≤ 256` (16 for Q3).
pub fn inner_integral_cuda_model(
    ip: &IpData,
    species: &SpeciesList,
    dim_x: usize,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let nq = ip.nq;
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            // Shared-memory staging: the block prefetches all β field terms
            // (the full packed stream) once per element.
            t.dram_read += ip.stream_bytes();
            t.shared_bytes += ip.stream_bytes();
            // threadIdx.y rows.
            for iq in 0..nq {
                let gi = e * nq + iq;
                let (ri, zi) = (ip.r[gi], ip.z[gi]);
                let acc: [f64; 5] = cuda_strided_reduce(dim_x, n, &mut t, |j, a| {
                    if j != gi {
                        pair_body(ri, zi, ip, &fk, &fd, j, a);
                    }
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            t.flops += (nq as u64) * (n as u64 - 1) * pair_flops(ip.ns);
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// Scratch budget of the staged Kokkos inner integral: the element-local
/// tile `[r | z | w | per species (f | df/dr | df/dz)]`, `nq` slots each.
/// This closure is the registry's single source of truth — the kernel
/// allocates exactly this, and the static verifier proves it fits every
/// device's shared memory across the whole policy family.
pub fn staging_scratch_budget(dims: &KernelDims, _policy: &TeamPolicy) -> usize {
    (3 + 3 * dims.ns) * dims.nq
}

/// Scratch budget of the cached Kokkos inner integral: the tile stream
/// lives in registers and the tensor table in global memory, so the
/// kernel allocates no team scratch at all.
pub fn cached_scratch_budget(_dims: &KernelDims, _policy: &TeamPolicy) -> usize {
    0
}

fn run_staged_symbolic(input: &VerifyInput, vector_length: usize, ctx: &SymbolicCtx) -> IpCoeffs {
    inner_integral_kokkos_with(&input.ip, &input.species, vector_length, ctx).0
}

fn run_cached_symbolic(input: &VerifyInput, vector_length: usize, ctx: &SymbolicCtx) -> IpCoeffs {
    inner_integral_kokkos_cached(&input.ip, &input.species, vector_length, &input.table, ctx).0
}

/// Self-register this module's Team-based kernels with the static
/// verifier's registry. New Team kernels must be added here — the
/// verify-kernels gate proves exactly what is registered.
pub fn register(reg: &mut KernelRegistry) {
    reg.add(KernelEntry {
        name: "inner_integral_kokkos_staged",
        family: PolicyFamily::standard(),
        budget: staging_scratch_budget,
        run_symbolic: run_staged_symbolic,
    });
    reg.add(KernelEntry {
        name: "inner_integral_kokkos_cached",
        family: PolicyFamily::standard(),
        budget: cached_scratch_budget,
        run_symbolic: run_cached_symbolic,
    });
}

/// Inner integral in the Kokkos model: one league member per element, the
/// team over integration points, and the inner integral as a generic-object
/// `parallel_reduce` over a `ThreadVectorRange` (§III-D).
pub fn inner_integral_kokkos_model(
    ip: &IpData,
    species: &SpeciesList,
    vector_length: usize,
) -> (IpCoeffs, Tally) {
    inner_integral_kokkos_with(ip, species, vector_length, &PlainFactory)
}

/// The Kokkos-model inner integral, generic over the [`TeamFactory`] so
/// the identical kernel body runs under plain members *or* under the
/// static verifier's logging members of `landau_vgpu::symbolic`.
///
/// The element-local data (coordinates, weights, and the packed per-species
/// field terms at the element's own integration points) is cooperatively
/// staged into team scratch by the vector lanes, a team barrier orders the
/// staging against the reads, and each test point's reduction then
/// broadcast-reads its coordinates from scratch.
pub fn inner_integral_kokkos_with<F: TeamFactory>(
    ip: &IpData,
    species: &SpeciesList,
    vector_length: usize,
    factory: &F,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let nq = ip.nq;
    let ns = ip.ns;
    let policy = TeamPolicy {
        league_size: ip.n / nq,
        team_size: nq,
        vector_length,
    };
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            t.dram_read += ip.stream_bytes();
            let mut member = factory.member(e, policy, &mut t);
            let lanes_n = policy.vector_length.max(1);
            // Kokkos scratch staging of the element-local data: layout is
            // [r | z | w | per species (f | df/dr | df/dz)], nq slots each.
            // The length comes from the registered budget closure so the
            // allocation cannot drift from the capacity proof (lint E007).
            let budget_slots = staging_scratch_budget(&KernelDims { nq, ns, n }, &policy);
            let mut sm = member.scratch(budget_slots);
            member.vector_for(budget_slots, |idx, lane| {
                let field = idx / nq;
                let gi = e * nq + idx % nq;
                let v = match field {
                    0 => ip.r[gi],
                    1 => ip.z[gi],
                    2 => ip.w[gi],
                    _ => {
                        let s = (field - 3) / 3;
                        match (field - 3) % 3 {
                            0 => ip.f[s * n + gi],
                            1 => ip.dfr[s * n + gi],
                            _ => ip.dfz[s * n + gi],
                        }
                    }
                };
                sm.write(lane, idx, v);
            });
            // Order the cooperative stores against the cross-lane reads.
            member.barrier();
            for iq in member.team_range() {
                let gi = e * nq + iq;
                // Every lane broadcast-reads the test-point coordinates
                // into its registers (all reads post-barrier, so ordered).
                let mut ri = 0.0;
                let mut zi = 0.0;
                for p in 0..lanes_n {
                    ri = sm.read(p, iq);
                    zi = sm.read(p, nq + iq);
                }
                let acc: [f64; 5] = member.vector_reduce(n, |j, a: &mut [f64; 5]| {
                    if j != gi {
                        pair_body(ri, zi, ip, &fk, &fd, j, a);
                    }
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            drop(member);
            t.flops += (nq as u64) * (n as u64 - 1) * pair_flops(ip.ns);
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// The CPU backend's inner integral: the species sums are staged once for
/// all `N` field points (they do not depend on the test point), then a
/// parallel loop over elements folds every field-element tile of each test
/// point through [`CachedStream::fold`] — tiles streamed from a resident
/// table, or evaluated from the closed form by a `Recompute` one. The
/// per-pair [`inner_integral_cpu`] stays as the reference implementation.
pub fn inner_integral_cpu_cached(
    ip: &IpData,
    species: &SpeciesList,
    table: &TensorTable,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    debug_assert!(table.matches(ip), "table geometry must match the ipdata");
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let nq = ip.nq;
    let ne = ip.n / nq;
    let stream = CachedStream {
        table,
        ip,
        fk: &fk,
        fd: &fd,
    };
    let mut sums = vec![0.0f64; 3 * ip.n];
    stream.stage(0..ip.n, &mut sums);
    let mut out = IpCoeffs::zeros(ip.n);
    out.gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .for_each(|(e, (gke, gde))| {
            let mut tile_buf = table.tile_buf();
            for iq in 0..nq {
                let mut acc = [0.0f64; 5];
                for je in 0..ne {
                    stream.fold(e * nq + iq, je, &sums, &mut tile_buf, &mut acc);
                }
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
        });
    (out, table.stream_tally(ip.ns, true))
}

/// Cached inner integral in the CUDA programming model: one block per
/// element as in [`inner_integral_cuda_model`], but the x lanes stride over
/// field-element *tiles* instead of points, each lane streaming whole tiles
/// from the table with register partials combined by the warp-shuffle
/// butterfly.
pub fn inner_integral_cuda_model_cached(
    ip: &IpData,
    species: &SpeciesList,
    dim_x: usize,
    table: &TensorTable,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    debug_assert!(table.matches(ip), "table geometry must match the ipdata");
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let stream = CachedStream {
        table,
        ip,
        fk: &fk,
        fd: &fd,
    };
    let nq = ip.nq;
    let ne = ip.n / nq;
    let mut out = IpCoeffs::zeros(ip.n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            // Each block prefetches the packed field stream once for the
            // species staging.
            t.dram_read += ip.stream_bytes();
            t.shared_bytes += ip.stream_bytes();
            let (mut sums, mut tile_buf) = (vec![0.0f64; 3 * ip.n], table.tile_buf());
            for iq in 0..nq {
                let gi = e * nq + iq;
                let acc: [f64; 5] = cuda_strided_reduce(dim_x, ne, &mut t, |je, a| {
                    stream.accumulate(gi, je, &mut sums, &mut tile_buf, a);
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally + table.stream_tally(species.len(), false))
}

/// Cached inner integral in the Kokkos model: league member per element,
/// team over its integration points, and the tile sweep as a generic-object
/// `parallel_reduce` over a `ThreadVectorRange(0, N_e)`. Generic over the
/// [`TeamFactory`] so the static verifier's logging members can run it
/// too. Unlike the uncached kernel no coordinate staging is needed — the
/// table already encodes the test-point geometry.
pub fn inner_integral_kokkos_cached<F: TeamFactory>(
    ip: &IpData,
    species: &SpeciesList,
    vector_length: usize,
    table: &TensorTable,
    factory: &F,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    debug_assert!(table.matches(ip), "table geometry must match the ipdata");
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let stream = CachedStream {
        table,
        ip,
        fk: &fk,
        fd: &fd,
    };
    let nq = ip.nq;
    let ne = ip.n / nq;
    let policy = TeamPolicy {
        league_size: ne,
        team_size: nq,
        vector_length,
    };
    let mut out = IpCoeffs::zeros(ip.n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            t.dram_read += ip.stream_bytes();
            let (mut sums, mut tile_buf) = (vec![0.0f64; 3 * ip.n], table.tile_buf());
            let mut member = factory.member(e, policy, &mut t);
            for iq in member.team_range() {
                let gi = e * nq + iq;
                let acc: [f64; 5] = member.vector_reduce(ne, |je, a: &mut [f64; 5]| {
                    stream.accumulate(gi, je, &mut sums, &mut tile_buf, a);
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            drop(member);
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally + table.stream_tally(species.len(), false))
}

/// Transform & assemble (lines 13–23) without the species factors: the
/// two element matrices every species' block is a combination of, `A_K`
/// (friction, `∫ w ∇ψ·G_K φ`) and `A_D` (diffusion, `∫ w ∇ψ·G_D ∇φ`),
/// mapped to the global basis. Species α's element matrix is
/// `k_α A_K + d_α A_D` ([`crate::operator::Jacobian`]); Algorithm 1 applies
/// those factors here instead (lines 14–15, 19–20) and writes `S` blocks,
/// which is what the device models are charged
/// ([`crate::operator::LandauOperator::assemble_tail`]).
///
/// Returns `ce[e][m][b_test][b_trial]` flattened, `m = 0` for `A_K` and
/// `m = 1` for `A_D`: the layout the scatters read with `ns = 2`.
pub fn landau_element_matrices(space: &FemSpace, ip: &IpData, coeffs: &IpCoeffs) -> Vec<f64> {
    let _sp = landau_obs::span(landau_obs::names::ELEMENT_MATRICES);
    let nb = space.tab.nb;
    let nq = space.tab.nq;
    let mut ce = vec![0.0; space.n_elements() * 2 * nb * nb];
    ce.par_chunks_mut(2 * nb * nb)
        .enumerate()
        .for_each(|(e, cee)| {
            let gs = space.elements[e].grad_scale();
            let (cek, ced) = cee.split_at_mut(nb * nb);
            for q in 0..nq {
                let gi = e * nq + q;
                let w = ip.w[gi];
                let gk = coeffs.gk[gi];
                let gd = coeffs.gd[gi];
                let b = &space.tab.b[q * nb..(q + 1) * nb];
                let dx = &space.tab.dxi[q * nb..(q + 1) * nb];
                let dy = &space.tab.deta[q * nb..(q + 1) * nb];
                // The map to the global basis (diagonal J ⇒ scale by 2/h).
                let kvec = [w * gk[0], w * gk[1]];
                let dmat = [w * gd[0], w * gd[1], w * gd[2]];
                for bt in 0..nb {
                    let gtr = gs * dx[bt];
                    let gtz = gs * dy[bt];
                    let kdot = gtr * kvec[0] + gtz * kvec[1];
                    let dr = gtr * dmat[0] + gtz * dmat[1];
                    let dz = gtr * dmat[1] + gtz * dmat[2];
                    let rowk = &mut cek[bt * nb..(bt + 1) * nb];
                    let rowd = &mut ced[bt * nb..(bt + 1) * nb];
                    for bj in 0..nb {
                        rowk[bj] += kdot * b[bj];
                        rowd[bj] += gs * (dr * dx[bj] + dz * dy[bj]);
                    }
                }
            }
        });
    ce
}

/// Mass-kernel element matrices: `C ← Transform&Assemble(w[gi]·s, 0, 0)` —
/// the scaled mass matrix the time integrator adds each stage (§V-A1).
/// The matrix is species-independent, so one `nb × nb` block per element
/// is built; the tally charges the `ns` blocks the paper's kernel writes.
pub fn mass_element_matrices(
    space: &FemSpace,
    ns: usize,
    ip: &IpData,
    shift: f64,
) -> (Vec<f64>, Tally) {
    let _sp = landau_obs::span(landau_obs::names::MASS_ELEMENTS);
    let nb = space.tab.nb;
    let nq = space.tab.nq;
    let block = nb * nb;
    let mut ce = vec![0.0; space.n_elements() * block];
    ce.par_chunks_mut(block).enumerate().for_each(|(e, cee)| {
        for q in 0..nq {
            let gi = e * nq + q;
            let w = ip.w[gi] * shift;
            let b = &space.tab.b[q * nb..(q + 1) * nb];
            for bt in 0..nb {
                let wb = w * b[bt];
                for bj in 0..nb {
                    cee[bt * nb + bj] += wb * b[bj];
                }
            }
        }
    });
    // The mass kernel reads only the weights (low AI by design).
    let ne = space.n_elements() as u64;
    let tally = Tally {
        flops: ne * (nq * nb * (1 + 2 * nb)) as u64,
        dram_read: ne * (nq * 8) as u64,
        dram_write: ne * (ns * block * 8) as u64,
        ..Tally::new()
    };
    (ce, tally)
}

/// CPU assembly path (`MatSetValues`, §III-F): scatter `ns` element
/// matrices per element into as many CSR matrices. The matrices are
/// independent, so the scatter parallelizes over them without contention.
pub fn assemble_setvalues(space: &FemSpace, ns: usize, ce: &[f64], mats: &mut [Csr]) {
    // The colored scatter with every element in one batch, in order.
    assemble_colored(space, ns, ce, mats, &[(0..space.n_elements()).collect()]);
}

/// Graph-coloring assembly (the second §III-F strategy): colors assemble
/// one after another, elements within a color concurrently, with *no*
/// atomics — each color's elements touch disjoint dofs. We emulate the
/// concurrency structure; on the host the scatter within a color is a
/// plain loop. The safety property — same-colour elements share no
/// expanded dof — is pinned by `landau_fem::coloring`'s tests.
pub fn assemble_colored(
    space: &FemSpace,
    ns: usize,
    ce: &[f64],
    mats: &mut [Csr],
    batches: &[Vec<usize>],
) {
    let _sp = landau_obs::span(landau_obs::names::SCATTER);
    let nb = space.tab.nb;
    let block = ns * nb * nb;
    assert_eq!(mats.len(), ns);
    let map = space.scatter_map(&mats[0]);
    mats.par_iter_mut().enumerate().for_each(|(a, m)| {
        m.zero_entries();
        for color in batches {
            for &e in color {
                let cea = &ce[e * block + a * nb * nb..e * block + (a + 1) * nb * nb];
                map.scatter(e, &space.elements[e], cea, |k, v| m.vals[k] += v);
            }
        }
    });
}

/// Device assembly path (atomics, the released PETSc GPU approach):
/// elements scatter concurrently, resolving contention with f64 atomic
/// adds. Returns the atomic-add count (charged a penalty on hardware
/// without native f64 atomics, §V-D1).
pub fn assemble_atomic(space: &FemSpace, ns: usize, ce: &[f64], mats: &mut [Csr]) -> Tally {
    let _sp = landau_obs::span(landau_obs::names::SCATTER);
    let nb = space.tab.nb;
    let block = ns * nb * nb;
    assert_eq!(mats.len(), ns);
    let map = space.scatter_map(&mats[0]);
    let mut tally = Tally::new();
    for (a, m) in mats.iter_mut().enumerate() {
        m.zero_entries();
        let vals = m.atomic_vals();
        let n_atomics: u64 = space
            .elements
            .par_iter()
            .enumerate()
            .map(|(e, el)| {
                let cea = &ce[e * block + a * nb * nb..e * block + (a + 1) * nb * nb];
                let mut count = 0u64;
                map.scatter(e, el, cea, |k, v| {
                    vals[k].fetch_add(v);
                    count += 1;
                });
                count
            })
            .sum();
        tally.atomics += n_atomics;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::SpeciesList;
    use landau_fem::assemble::csr_pattern;
    use landau_fem::coloring::{color_batches, color_elements};
    use landau_mesh::presets::uniform_mesh;

    fn setup() -> (FemSpace, SpeciesList, IpData) {
        let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
        // Two species whose thermal scales the coarse test mesh resolves
        // (a deuterium Maxwellian would be an unresolved spike here).
        let sl = SpeciesList::new(vec![
            crate::species::Species::electron(),
            crate::species::Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 0.5,
                temperature: 2.0,
            },
        ]);
        let mut ip = IpData::new(&space, &sl);
        let nd = space.n_dofs;
        let mut state = vec![0.0; 2 * nd];
        for (s, sp) in sl.list.iter().enumerate() {
            let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) + 0.01);
            state[s * nd..(s + 1) * nd].copy_from_slice(&v);
        }
        ip.pack(&space, &state);
        (space, sl, ip)
    }

    #[test]
    fn backends_agree() {
        let (_space, sl, ip) = setup();
        let (cpu, t_cpu) = inner_integral_cpu(&ip, &sl);
        let (cuda, t_cuda) = inner_integral_cuda_model(&ip, &sl, 16);
        let (kk, _t_kk) = inner_integral_kokkos_model(&ip, &sl, 8);
        assert!(
            cpu.max_rel_diff(&cuda) < 1e-12,
            "{}",
            cpu.max_rel_diff(&cuda)
        );
        assert!(cpu.max_rel_diff(&kk) < 1e-12, "{}", cpu.max_rel_diff(&kk));
        // Same flop model, CUDA counts shuffles.
        assert_eq!(t_cpu.flops, t_cuda.flops);
        assert!(t_cuda.shuffles > 0);
        assert!(t_cpu.shuffles == 0);
    }

    #[test]
    fn coefficients_decay_away_from_bulk() {
        // G_D is an integral of f against a decaying kernel: points far from
        // the Maxwellian bulk see smaller diffusion.
        let (_space, sl, ip) = setup();
        let (c, _) = inner_integral_cpu(&ip, &sl);
        let near = (0..ip.n)
            .min_by(|&a, &b| {
                let ra = ip.r[a].hypot(ip.z[a]);
                let rb = ip.r[b].hypot(ip.z[b]);
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        let far = (0..ip.n)
            .max_by(|&a, &b| {
                let ra = ip.r[a].hypot(ip.z[a]);
                let rb = ip.r[b].hypot(ip.z[b]);
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        assert!(c.gd[near][0] > c.gd[far][0]);
        assert!(c.gd[near][2] > 0.0, "diffusion is positive");
    }

    #[test]
    fn assembly_paths_agree() {
        let (space, sl, ip) = setup();
        let (coeffs, _) = inner_integral_cpu(&ip, &sl);
        let ce = landau_element_matrices(&space, &ip, &coeffs);
        let pat = csr_pattern(&space);
        let mut a1 = vec![pat.clone(), pat.clone()];
        let mut a2 = vec![pat.clone(), pat.clone()];
        let mut a3 = vec![pat.clone(), pat.clone()];
        assemble_setvalues(&space, 2, &ce, &mut a1);
        let t = assemble_atomic(&space, 2, &ce, &mut a2);
        assert!(t.atomics > 0);
        let (colors, ncolors) = color_elements(&space);
        assert!(ncolors > 1);
        assemble_colored(&space, 2, &ce, &mut a3, &color_batches(&colors, ncolors));
        for s in 0..2 {
            for ((v1, v2), v3) in a1[s].vals.iter().zip(&a2[s].vals).zip(&a3[s].vals) {
                assert!((v1 - v2).abs() < 1e-12 * (1.0 + v1.abs()));
                assert!((v1 - v3).abs() < 1e-12 * (1.0 + v1.abs()));
            }
        }
    }

    #[test]
    fn density_row_is_conserved() {
        // ψ = 1 ⇒ ∇ψ = 0 ⇒ the operator's action tested against the
        // constant function vanishes: 1ᵀ A = 0 for both A_K and A_D, so
        // for every species' combination of them.
        let (space, sl, ip) = setup();
        let (coeffs, _) = inner_integral_cpu(&ip, &sl);
        let ce = landau_element_matrices(&space, &ip, &coeffs);
        let pat = csr_pattern(&space);
        let mut mats = vec![pat.clone(), pat.clone()];
        assemble_setvalues(&space, 2, &ce, &mut mats);
        // Column sums of L (= 1ᵀL) must vanish.
        for m in &mats {
            let ones = vec![1.0; m.n_rows];
            // 1ᵀ L = column sums: compute Lᵀ·1 via iterating entries.
            let mut colsum = vec![0.0; m.n_cols];
            for i in 0..m.n_rows {
                for k in m.row_ptr[i]..m.row_ptr[i + 1] {
                    colsum[m.col_idx[k]] += m.vals[k];
                }
            }
            let scale: f64 = m.vals.iter().map(|v| v.abs()).fold(0.0, f64::max);
            for (j, c) in colsum.iter().enumerate() {
                assert!(c.abs() < 1e-11 * scale, "column {j}: {c} (scale {scale})");
            }
            let _ = ones;
        }
    }

    #[test]
    fn mass_kernel_matches_fem_assembly() {
        let (space, sl, ip) = setup();
        let (ce, t) = mass_element_matrices(&space, sl.len(), &ip, 2.5);
        assert!(t.flops > 0);
        let mut mats = vec![csr_pattern(&space)];
        assemble_setvalues(&space, 1, &ce, &mut mats);
        let mref = landau_fem::assemble_mass_matrix(&space);
        for (v, r) in mats[0].vals.iter().zip(&mref.vals) {
            assert!((v - 2.5 * r).abs() < 1e-11 * (1.0 + r.abs()));
        }
    }

    #[test]
    fn cached_backends_agree_with_reference() {
        let (_space, sl, ip) = setup();
        let table = TensorTable::build(&ip.points, usize::MAX);
        let (cpu, t_ref) = inner_integral_cpu(&ip, &sl);
        let (ccpu, t_cc) = inner_integral_cpu_cached(&ip, &sl, &table);
        let (ccuda, t_cu) = inner_integral_cuda_model_cached(&ip, &sl, 16, &table);
        let (ckk, _) = inner_integral_kokkos_cached(&ip, &sl, 8, &table, &PlainFactory);
        assert!(
            cpu.max_rel_diff(&ccpu) < 1e-14,
            "{}",
            cpu.max_rel_diff(&ccpu)
        );
        assert!(
            cpu.max_rel_diff(&ccuda) < 1e-14,
            "{}",
            cpu.max_rel_diff(&ccuda)
        );
        assert!(cpu.max_rel_diff(&ckk) < 1e-14, "{}", cpu.max_rel_diff(&ckk));
        // Staged per tile or once per assembly, folded by tile trees or in
        // sequence: the cached kernels agree among themselves too.
        assert!(ccpu.max_rel_diff(&ccuda) < 1e-14 && ccpu.max_rel_diff(&ckk) < 1e-14);
        // Streaming the table trades tensor flops for table bytes.
        assert!(t_cc.flops < t_ref.flops / 4);
        assert!(t_cc.cache_read > 0 && t_cc.cache_flops_saved > 0);
        assert!(t_cu.shuffles > 0);
    }

    #[test]
    fn cached_kernels_match_under_forced_recompute() {
        let (_space, sl, ip) = setup();
        let full = TensorTable::build(&ip.points, usize::MAX);
        let re = TensorTable::build(&ip.points, 0);
        let (a, _) = inner_integral_cpu_cached(&ip, &sl, &full);
        let (b, t_re) = inner_integral_cpu_cached(&ip, &sl, &re);
        // Identical streaming arithmetic either side: bitwise equal.
        for (x, y) in a.gk.iter().flatten().zip(b.gk.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.gd.iter().flatten().zip(b.gd.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(t_re.cache_build_flops > 0 && t_re.cache_read == 0);
        // The closed-form fold — what `Backend::Cpu` runs without a cache —
        // against the per-pair reference and Algorithm 1 as written.
        let (reference, _) = inner_integral_cpu(&ip, &sl);
        let (cuda, _) = inner_integral_cuda_model(&ip, &sl, 16);
        assert!(b.max_rel_diff(&reference) < 1e-13 && b.max_rel_diff(&cuda) < 1e-13);
    }

    #[test]
    fn flop_model_scales_quadratically() {
        let (_space, sl, ip) = setup();
        let (_c, t) = inner_integral_cpu(&ip, &sl);
        let n = ip.n as u64;
        assert_eq!(t.flops, n * (n - 1) * pair_flops(2));
    }
}
