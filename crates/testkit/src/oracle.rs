//! Reference implementations that production code is compared against bit
//! for bit. They are the code the production paths replaced, kept as it
//! was: slow, simple, and not to be optimized.
//!
//! * [`RefBand`] — the scalar full-band LU.
//! * [`RebuildIntegrator`] — the implicit step whose linear solver is
//!   rebuilt from CSR every Newton iteration.
//! * [`SevenStreamTable`] — the cached inner integral that stored `U^K`'s
//!   second column and staged the species sums per `(test point, tile)`.
//! * [`host_loop_advance`] — the batch advanced one vertex at a time, each
//!   through its own solo stepper, with no pool.
//! * [`species_tail`] — the Jacobian tail with one element matrix and one
//!   scatter per species ([`landau_element_matrices`]).

use landau_core::fault_sites::SITE_LU_FACTOR;
use landau_core::ipdata::IpData;
use landau_core::kernels::{assemble_atomic, assemble_setvalues, IpCoeffs};
use landau_core::operator::AssemblyPath;
use landau_core::solver::{NonFiniteSite, SolveError, StepStats, ThetaMethod};
use landau_core::tensor::landau_tensor_2d;
use landau_core::{BatchStats, BatchedAdvance, VertexStats};
use landau_core::{FaultKind, LandauOperator, SpeciesList};
use landau_fem::FemSpace;
use landau_par::prelude::*;
use landau_sparse::csr::Csr;
use landau_sparse::rcm::bandwidth;
use landau_sparse::vecops;
use landau_vgpu::Tally;

/// The scalar full-band LU that `landau_sparse::band::BandMatrix` ran
/// before it swept envelope-bounded row slices: bounds-checked
/// `get`/`set`, a branch per entry, every row and column of the band.
/// `BandMatrix::factor` must leave the same bits in the same places, and
/// `solve_into` the same solution.
#[derive(Clone, Debug)]
pub struct RefBand {
    /// Matrix dimension.
    pub n: usize,
    /// Subdiagonal count.
    pub lbw: usize,
    /// Superdiagonal count.
    pub ubw: usize,
    data: Vec<f64>,
}

impl RefBand {
    /// Copy the in-band entries of any matrix given as a function.
    pub fn from_fn(n: usize, lbw: usize, ubw: usize, entry: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = RefBand {
            n,
            lbw,
            ubw,
            data: vec![0.0; n * (lbw + ubw + 1)],
        };
        for i in 0..n {
            for j in i.saturating_sub(lbw)..=(i + ubw).min(n - 1) {
                m.set(i, j, entry(i, j));
            }
        }
        m
    }

    #[inline]
    fn w(&self) -> usize {
        self.lbw + self.ubw + 1
    }

    /// Read entry `(i, j)` (0 outside the band).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let d = j as isize - i as isize;
        if d < -(self.lbw as isize) || d > self.ubw as isize {
            return 0.0;
        }
        self.data[i * self.w() + (d + self.lbw as isize) as usize]
    }

    /// Write entry `(i, j)`; panics outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let d = j as isize - i as isize;
        assert!(
            d >= -(self.lbw as isize) && d <= self.ubw as isize,
            "entry ({i},{j}) outside band (lbw={}, ubw={})",
            self.lbw,
            self.ubw
        );
        let w = self.w();
        self.data[i * w + (d + self.lbw as isize) as usize] = v;
    }

    /// In-place LU without pivoting (outer-product form); `Err(i)` at a
    /// pivot smaller than `1e-300`, leaving the storage as factored so far.
    pub fn factor(&mut self) -> Result<(), usize> {
        let n = self.n;
        let tiny = 1e-300;
        for i in 0..n {
            let piv = self.get(i, i);
            if piv.abs() < tiny {
                return Err(i);
            }
            let rmax = (i + self.lbw).min(n - 1);
            let cmax = (i + self.ubw).min(n - 1);
            for r in (i + 1)..=rmax {
                let l = self.get(r, i) / piv;
                self.set(r, i, l);
                if l != 0.0 {
                    for c in (i + 1)..=cmax {
                        let u = self.get(i, c);
                        if u != 0.0 {
                            let v = self.get(r, c) - l * u;
                            self.set(r, c, v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Solve `A x = b` after [`RefBand::factor`]; overwrites `x`.
    pub fn solve_into(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        let n = self.n;
        for i in 0..n {
            let jlo = i.saturating_sub(self.lbw);
            let s: f64 = (jlo..i).map(|j| self.get(i, j) * x[j]).sum();
            x[i] -= s;
        }
        for i in (0..n).rev() {
            let jhi = (i + self.ubw).min(n - 1);
            let s: f64 = ((i + 1)..=jhi).map(|j| self.get(i, j) * x[j]).sum();
            x[i] = (x[i] - s) / self.get(i, i);
        }
    }
}

/// `TimeIntegrator`'s guarded Newton step as it was when every iteration
/// rebuilt its linear solver: `mass.clone → axpy(−γ) → permute_symmetric →
/// band copy → scalar LU`, with fresh work vectors each time. The
/// production integrator refills one persistent solver in place instead
/// and must land on the same bits: same states, same Newton counts, same
/// errors, under fault injection, damped retries and a `dt` that changes
/// between steps. No spans, no monitor; times are not filled in.
pub struct RebuildIntegrator {
    /// The operator being advanced (its device carries the fault plan).
    pub op: LandauOperator,
    /// Time-step method.
    pub method: ThetaMethod,
    /// Relative Newton tolerance.
    pub rtol: f64,
    /// Absolute Newton tolerance.
    pub atol: f64,
    /// Newton iteration cap.
    pub max_newton: usize,
    /// Residual growth over `r0` that counts as divergence.
    pub divergence_ratio: f64,
    /// Consecutive no-progress iterations that count as a stall.
    pub stall_window: usize,
    perm: Vec<usize>,
}

impl RebuildIntegrator {
    /// An integrator for `op` that solves in the ordering `perm` (take it
    /// from `TimeIntegrator::perm`) with `TimeIntegrator::new`'s defaults.
    pub fn new(op: LandauOperator, method: ThetaMethod, perm: Vec<usize>) -> Self {
        assert_eq!(perm.len(), op.n());
        RebuildIntegrator {
            op,
            method,
            rtol: 1e-8,
            atol: 1e-12,
            max_newton: 50,
            divergence_ratio: 1e4,
            stall_window: 8,
            perm,
        }
    }

    fn theta(&self) -> f64 {
        match self.method {
            ThetaMethod::BackwardEuler => 1.0,
            ThetaMethod::CrankNicolson => 0.5,
            ThetaMethod::Theta(t) => t,
        }
    }

    /// One factored band block per species for `J = M − γ L`, or the
    /// first `(block, row)` whose pivot vanished.
    fn build_solver(&self, lmats: &[Csr], gamma: f64) -> Result<Vec<RefBand>, (usize, usize)> {
        let n = self.op.n();
        let mut blocks: Vec<RefBand> = lmats
            .iter()
            .map(|la| {
                let mut j = self.op.mass.clone();
                j.axpy_same_pattern(-gamma, la);
                let pj = j.permute_symmetric(&self.perm);
                let bw = bandwidth(&pj);
                // The values went through `add_value` into a zeroed CSR on
                // their way to the band, which made a `−0.0` a `+0.0`.
                RefBand::from_fn(n, bw, bw, |i, c| 0.0 + pj.get(i, c))
            })
            .collect();
        if let Some(f) = self.op.device.poll_fault(SITE_LU_FACTOR, blocks.len()) {
            if matches!(f.kind, FaultKind::SingularBlock) {
                let m = &mut blocks[f.index % lmats.len()];
                for c in 0..=m.ubw.min(n - 1) {
                    m.set(0, c, 0.0);
                }
            }
        }
        // Every block is factored before the first failure is reported,
        // as the parallel factorization did.
        let results: Vec<Result<(), usize>> = blocks.iter_mut().map(RefBand::factor).collect();
        match results.iter().position(Result::is_err) {
            Some(b) => Err((b, results[b].unwrap_err())),
            None => Ok(blocks),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn residual(
        &self,
        mats: &[Csr],
        f: &[f64],
        fn_old: &[f64],
        source: Option<&[f64]>,
        rhs_old: Option<&[f64]>,
        dt: f64,
        theta: f64,
        out: &mut [f64],
    ) {
        let n = self.op.n();
        let mut lf = vec![0.0; f.len()];
        for (s, m) in mats.iter().enumerate() {
            m.matvec_into(&f[s * n..(s + 1) * n], &mut lf[s * n..(s + 1) * n]);
        }
        for a in 0..mats.len() {
            let fs = &f[a * n..(a + 1) * n];
            let fo = &fn_old[a * n..(a + 1) * n];
            let df: Vec<f64> = fs.iter().zip(fo).map(|(x, y)| x - y).collect();
            let mdf = self.op.mass.matvec(&df);
            let o = &mut out[a * n..(a + 1) * n];
            for i in 0..n {
                o[i] = mdf[i] - dt * theta * lf[a * n + i];
            }
            if let Some(s) = source {
                let ms = self.op.mass.matvec(&s[a * n..(a + 1) * n]);
                for i in 0..n {
                    o[i] -= dt * theta * ms[i];
                }
            }
            if let Some(r) = rhs_old {
                for i in 0..n {
                    o[i] -= dt * (1.0 - theta) * r[a * n + i];
                }
            }
        }
    }

    /// `TimeIntegrator::try_step_damped`: on `Err`, `state` is `f^n` again.
    pub fn try_step_damped(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        backtracks: usize,
    ) -> Result<StepStats, SolveError> {
        let theta = self.theta();
        let n = self.op.n();
        let n_total = self.op.n_total();
        assert_eq!(state.len(), n_total);
        let mut stats = StepStats::default();
        if !state.iter().all(|x| x.is_finite()) {
            return Err(SolveError::NonFinite {
                site: NonFiniteSite::State,
            });
        }
        let fn_old = state.to_vec();
        let rhs_old: Option<Vec<f64>> = (theta < 1.0).then(|| {
            let mut r = self.op.collision_rhs(&fn_old, e_field);
            if let Some(s) = source {
                for a in 0..self.op.species.len() {
                    let ms = self.op.mass.matvec(&s[a * n..(a + 1) * n]);
                    for i in 0..n {
                        r[a * n + i] += ms[i];
                    }
                }
            }
            r
        });

        let mut r = vec![0.0; n_total];
        let mut r0_norm = None;
        let mut prev_rnorm = f64::INFINITY;
        let mut stall = 0usize;
        let mut failure = None;
        for _it in 0..self.max_newton {
            let assembled = self.op.assemble(state, e_field);
            self.residual(
                &assembled.mats,
                state,
                &fn_old,
                source,
                rhs_old.as_deref(),
                dt,
                theta,
                &mut r,
            );
            let rnorm = vecops::norm2(&r);
            stats.residual = rnorm;
            if !rnorm.is_finite() {
                failure = Some(SolveError::NonFinite {
                    site: NonFiniteSite::Residual,
                });
                break;
            }
            let r0 = *r0_norm.get_or_insert(rnorm);
            if rnorm <= self.atol + self.rtol * r0 {
                stats.converged = true;
                break;
            }
            if rnorm > self.divergence_ratio * r0 {
                failure = Some(SolveError::NewtonDiverged {
                    iters: stats.newton_iters,
                    r0,
                    r_final: rnorm,
                });
                break;
            }
            if rnorm >= 0.999 * prev_rnorm {
                stall += 1;
                if stall >= self.stall_window {
                    failure = Some(SolveError::NewtonStalled {
                        iters: stats.newton_iters,
                        r_final: rnorm,
                    });
                    break;
                }
            } else {
                stall = 0;
            }
            prev_rnorm = rnorm;

            let blocks = match self.build_solver(&assembled.mats, dt * theta) {
                Ok(blocks) => blocks,
                Err((block, row)) => {
                    failure = Some(SolveError::SingularJacobian { block, row });
                    break;
                }
            };
            let mut d = vec![0.0; n_total];
            for (a, block) in blocks.iter().enumerate() {
                let mut delta: Vec<f64> = self.perm.iter().map(|&p| r[a * n + p]).collect();
                block.solve_into(&mut delta);
                for (&v, &p) in delta.iter().zip(&self.perm) {
                    d[a * n + p] = v;
                }
            }
            if !d.iter().all(|x| x.is_finite()) {
                failure = Some(SolveError::NonFinite {
                    site: NonFiniteSite::Solution,
                });
                break;
            }
            let mut lambda = 1.0;
            if backtracks > 0 {
                let mut cand = vec![0.0; n_total];
                let mut rt = vec![0.0; n_total];
                for bt in 0..=backtracks {
                    for (c, (s, dd)) in cand.iter_mut().zip(state.iter().zip(&d)) {
                        *c = s - lambda * dd;
                    }
                    if cand.iter().all(|x| x.is_finite()) {
                        let trial = self.op.assemble(&cand, e_field);
                        self.residual(
                            &trial.mats,
                            &cand,
                            &fn_old,
                            source,
                            rhs_old.as_deref(),
                            dt,
                            theta,
                            &mut rt,
                        );
                        let rc = vecops::norm2(&rt);
                        if rc.is_finite() && rc < rnorm {
                            break;
                        }
                    }
                    if bt < backtracks {
                        lambda *= 0.5;
                    }
                }
            }
            vecops::axpy(-lambda, &d, state);
            stats.newton_iters += 1;
        }
        if failure.is_none() && !stats.converged {
            let r_final = stats.residual;
            let r0 = r0_norm.unwrap_or(r_final);
            failure = Some(if r_final >= r0 {
                SolveError::NewtonDiverged {
                    iters: stats.newton_iters,
                    r0,
                    r_final,
                }
            } else {
                SolveError::NewtonStalled {
                    iters: stats.newton_iters,
                    r_final,
                }
            });
        }
        match failure {
            None => Ok(stats),
            Some(e) => {
                state.copy_from_slice(&fn_old);
                Err(e)
            }
        }
    }
}

/// Every `G_K`, then every `G_D` component as raw bits, for `assert_eq!`
/// between a production kernel's coefficients and an oracle's.
pub fn coeff_bits(c: &IpCoeffs) -> Vec<u64> {
    let gk = c.gk.iter().flatten();
    gk.chain(c.gd.iter().flatten())
        .map(|v| v.to_bits())
        .collect()
}

/// The tensor table and CPU cached inner integral as they were before the
/// table dropped its two duplicate streams and the species sums left the
/// pair loop: seven streams `k00, k01, k10, k11, d0, d1, d2` per tile, and
/// `tkr/tkz/td` re-staged for every `(test point, field tile)`.
/// `landau_core::kernels::inner_integral_cpu_cached` must return these
/// bits from its five streams and its one staging pass, in either table
/// mode. Only the per-tile `Tally` metering is left out.
pub struct SevenStreamTable {
    n: usize,
    nq: usize,
    ne: usize,
    /// `(i·N_e + je)·7·nq + c·nq + jj`; empty when tiles are recomputed.
    data: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
}

impl SevenStreamTable {
    const STREAMS: usize = 7;
    const UNROLL: usize = 4;

    /// The table for `ip`'s geometry: `resident` stores all `56 N²` bytes,
    /// otherwise every tile is recomputed when it is streamed.
    pub fn build(ip: &IpData, resident: bool) -> Self {
        let (n, nq) = (ip.n, ip.nq);
        let mut table = SevenStreamTable {
            n,
            nq,
            ne: n / nq,
            data: Vec::new(),
            r: ip.r.clone(),
            z: ip.z.clone(),
            w: ip.w.clone(),
        };
        if resident {
            let tile = Self::STREAMS * nq;
            let mut data = vec![0.0f64; n * table.ne * tile];
            for (t, out) in data.chunks_mut(tile).enumerate() {
                table.fill_tile(t / table.ne, t % table.ne, out);
            }
            table.data = data;
        }
        table
    }

    fn fill_tile(&self, i: usize, je: usize, out: &mut [f64]) {
        let nq = self.nq;
        let (ri, zi) = (self.r[i], self.z[i]);
        let (k00, rest) = out.split_at_mut(nq);
        let (k01, rest) = rest.split_at_mut(nq);
        let (k10, rest) = rest.split_at_mut(nq);
        let (k11, rest) = rest.split_at_mut(nq);
        let (d0, rest) = rest.split_at_mut(nq);
        let (d1, d2) = rest.split_at_mut(nq);
        for jj in 0..nq {
            let j = je * nq + jj;
            if j == i {
                k00[jj] = 0.0;
                k01[jj] = 0.0;
                k10[jj] = 0.0;
                k11[jj] = 0.0;
                d0[jj] = 0.0;
                d1[jj] = 0.0;
                d2[jj] = 0.0;
                continue;
            }
            let t = landau_tensor_2d(ri, zi, self.r[j], self.z[j]);
            let w = self.w[j];
            k00[jj] = w * t.k[0][0];
            k01[jj] = w * t.k[0][1];
            k10[jj] = w * t.k[1][0];
            k11[jj] = w * t.k[1][1];
            d0[jj] = w * t.d[0];
            d1[jj] = w * t.d[1];
            d2[jj] = w * t.d[2];
        }
    }

    fn tile<'a>(&'a self, i: usize, je: usize, buf: &'a mut [f64]) -> &'a [f64] {
        let len = Self::STREAMS * self.nq;
        if self.data.is_empty() {
            self.fill_tile(i, je, &mut buf[..len]);
            &buf[..len]
        } else {
            let off = (i * self.ne + je) * len;
            &self.data[off..off + len]
        }
    }

    /// `CachedStream::accumulate` as it was: stage tile `je`'s species
    /// sums, then fold the seven streams in.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &self,
        ip: &IpData,
        (fk, fd): (&[f64], &[f64]),
        i: usize,
        je: usize,
        sums: &mut [f64],
        tiles: &mut [f64],
        acc: &mut [f64; 5],
    ) {
        const UNROLL: usize = SevenStreamTable::UNROLL;
        let nq = self.nq;
        let n = ip.n;
        let j0 = je * nq;
        let (tkr, rest) = sums.split_at_mut(nq);
        let (tkz, td) = rest.split_at_mut(nq);
        tkr[..nq].fill(0.0);
        tkz[..nq].fill(0.0);
        td[..nq].fill(0.0);
        for (b, (&fkb, &fdb)) in fk.iter().zip(fd).enumerate() {
            let off = b * n + j0;
            let dfr = &ip.dfr[off..off + nq];
            let dfz = &ip.dfz[off..off + nq];
            let f = &ip.f[off..off + nq];
            for jj in 0..nq {
                tkr[jj] += fkb * dfr[jj];
                tkz[jj] += fkb * dfz[jj];
                td[jj] += fdb * f[jj];
            }
        }
        let streams = self.tile(i, je, tiles);
        let (k00, rest) = streams.split_at(nq);
        let (k01, rest) = rest.split_at(nq);
        let (k10, rest) = rest.split_at(nq);
        let (k11, rest) = rest.split_at(nq);
        let (d0, rest) = rest.split_at(nq);
        let (d1, d2) = rest.split_at(nq);
        let mut p = [[0.0f64; UNROLL]; 5];
        let mut jj = 0;
        while jj + UNROLL <= nq {
            #[allow(clippy::needless_range_loop)] // lockstep index into 5 lanes
            for l in 0..UNROLL {
                let j = jj + l;
                p[0][l] += k00[j] * tkr[j] + k01[j] * tkz[j];
                p[1][l] += k10[j] * tkr[j] + k11[j] * tkz[j];
                p[2][l] += d0[j] * td[j];
                p[3][l] += d1[j] * td[j];
                p[4][l] += d2[j] * td[j];
            }
            jj += UNROLL;
        }
        while jj < nq {
            let l = jj % UNROLL;
            p[0][l] += k00[jj] * tkr[jj] + k01[jj] * tkz[jj];
            p[1][l] += k10[jj] * tkr[jj] + k11[jj] * tkz[jj];
            p[2][l] += d0[jj] * td[jj];
            p[3][l] += d1[jj] * td[jj];
            p[4][l] += d2[jj] * td[jj];
            jj += 1;
        }
        for (c, a) in acc.iter_mut().enumerate() {
            *a += (p[c][0] + p[c][1]) + (p[c][2] + p[c][3]);
        }
    }

    /// `inner_integral_cpu_cached` as it was: a parallel loop over
    /// elements, each test point accumulating every field-element tile.
    pub fn inner_integral(&self, ip: &IpData, species: &SpeciesList) -> IpCoeffs {
        assert!(
            self.n == ip.n
                && self.nq == ip.nq
                && self.r == ip.r
                && self.z == ip.z
                && self.w == ip.w,
            "table geometry must match the ipdata"
        );
        let fk = species.k_field_factors();
        let fd = species.d_field_factors();
        let nq = self.nq;
        let mut out = IpCoeffs::zeros(ip.n);
        out.gk
            .par_chunks_mut(nq)
            .zip(out.gd.par_chunks_mut(nq))
            .enumerate()
            .for_each(|(e, (gke, gde))| {
                let mut sums = vec![0.0; 3 * nq];
                let mut tiles = vec![0.0; Self::STREAMS * nq];
                for iq in 0..nq {
                    let gi = e * nq + iq;
                    let mut acc = [0.0f64; 5];
                    for je in 0..self.ne {
                        self.accumulate(ip, (&fk, &fd), gi, je, &mut sums, &mut tiles, &mut acc);
                    }
                    gke[iq] = [acc[0], acc[1]];
                    gde[iq] = [acc[2], acc[3], acc[4]];
                }
            });
        out
    }
}

/// `BatchedAdvance::advance` as a plain loop: every vertex takes its
/// `steps` macro steps alone through its own `AdaptiveStepper`, one vertex
/// after another, nothing shared between threads. A terminal failure
/// takes the batch's one rollback (the stepper's last good state, `Δt`
/// pinned at the policy floor); a second one retires the vertex. The pool
/// sweep must leave every vertex on the same bits with the same
/// per-vertex counts. The ladder lives in this call only, so compare on
/// batches that have not rolled back or retired a vertex before. Launch
/// counters stay zero; neither metrics nor checkpoints are touched.
pub fn host_loop_advance(
    batch: &mut BatchedAdvance,
    dt: f64,
    steps: usize,
    e_field: f64,
) -> BatchStats {
    let t0 = std::time::Instant::now();
    let mut per_vertex = Vec::with_capacity(batch.len());
    for v in 0..batch.len() {
        let mut state = std::mem::take(&mut batch.states[v]);
        let mut vs = VertexStats {
            newton_iters: 0,
            retried: 0,
            dt_fraction_min: 1.0,
            failed: false,
        };
        let mut rolled_back = false;
        let st = batch.stepper_mut(v);
        for _ in 0..steps {
            let mut res = st.advance(&mut state, dt, e_field, None);
            // A terminal failure still spent attempts and Δt subdivisions.
            while let Err(f) = res {
                vs.retried += f.attempts;
                vs.dt_fraction_min = vs.dt_fraction_min.min(f.dt_fraction);
                if rolled_back {
                    vs.failed = true;
                    break;
                }
                rolled_back = true;
                if st.checkpoint().len() == state.len() {
                    state.copy_from_slice(st.checkpoint());
                }
                st.dt_scale = st.cfg.min_dt_fraction;
                res = st.advance(&mut state, dt, e_field, None);
            }
            match res {
                Ok((stats, rec)) => {
                    vs.newton_iters += stats.newton_iters;
                    vs.retried += rec.retried;
                    vs.dt_fraction_min = vs.dt_fraction_min.min(rec.dt_fraction_min);
                }
                Err(_) => break,
            }
        }
        batch.states[v] = state;
        per_vertex.push(vs);
    }
    let seconds = t0.elapsed().as_secs_f64();
    let healthy = per_vertex.iter().filter(|v| !v.failed);
    let productive: usize = healthy.map(|v| v.newton_iters).sum();
    BatchStats {
        newton_iters: per_vertex.iter().map(|v| v.newton_iters).sum(),
        productive_newton_iters: productive,
        seconds,
        newton_per_sec: if productive == 0 {
            0.0
        } else {
            productive as f64 / seconds
        },
        failed: per_vertex.iter().filter(|v| v.failed).count(),
        retried: per_vertex.iter().map(|v| v.retried).sum(),
        dt_fraction_min: (per_vertex.iter().map(|v| v.dt_fraction_min)).fold(1.0, f64::min),
        per_vertex,
        ..Default::default()
    }
}

/// The transform stage as it was when every species built its own element
/// matrix: the species scaling applied per integration point inside the
/// element loop (Algorithm 1, lines 14–15 and 19–20), `ns` scaled blocks
/// per element. `landau_core::kernels::landau_element_matrices` builds the
/// two unscaled blocks `A_K`, `A_D` instead; species α's block is
/// `k_α A_K + d_α A_D`, within roundoff of this one.
///
/// Returns `ce[e][α][b_test][b_trial]` flattened, plus the stage tally.
pub fn landau_element_matrices(
    space: &FemSpace,
    species: &SpeciesList,
    ip: &IpData,
    coeffs: &IpCoeffs,
) -> (Vec<f64>, Tally) {
    let ns = species.len();
    let nb = space.tab.nb;
    let nq = space.tab.nq;
    let block = ns * nb * nb;
    let mut ce = vec![0.0; space.n_elements() * block];
    // Per-species scale factors (ν = 1 in nondimensional units).
    let kscale: Vec<f64> = species
        .list
        .iter()
        .map(|s| s.charge * s.charge / s.mass)
        .collect();
    let dscale: Vec<f64> = species
        .list
        .iter()
        .map(|s| -s.charge * s.charge / (s.mass * s.mass))
        .collect();
    let tally: Tally = ce
        .par_chunks_mut(block)
        .enumerate()
        .map(|(e, cee)| {
            let el = &space.elements[e];
            let gs = el.grad_scale();
            let mut t = Tally::new();
            for q in 0..nq {
                let gi = e * nq + q;
                let w = ip.w[gi];
                let gk = coeffs.gk[gi];
                let gd = coeffs.gd[gi];
                let b = &space.tab.b[q * nb..(q + 1) * nb];
                let dx = &space.tab.dxi[q * nb..(q + 1) * nb];
                let dy = &space.tab.deta[q * nb..(q + 1) * nb];
                for (a, (&ks, &ds)) in kscale.iter().zip(&dscale).enumerate() {
                    // Lines 14–15 & 19–20: species scaling and the map to
                    // the global basis (diagonal J ⇒ scale by 2/h).
                    let kvec = [w * ks * gk[0], w * ks * gk[1]];
                    let dmat = [w * ds * gd[0], w * ds * gd[1], w * ds * gd[2]];
                    let cea = &mut cee[a * nb * nb..(a + 1) * nb * nb];
                    for bt in 0..nb {
                        let gtr = gs * dx[bt];
                        let gtz = gs * dy[bt];
                        let kdot = gtr * kvec[0] + gtz * kvec[1];
                        let dr = gtr * dmat[0] + gtz * dmat[1];
                        let dz = gtr * dmat[1] + gtz * dmat[2];
                        let row = &mut cea[bt * nb..(bt + 1) * nb];
                        for bj in 0..nb {
                            row[bj] += kdot * b[bj] + gs * (dr * dx[bj] + dz * dy[bj]);
                        }
                    }
                }
            }
            t.flops += (nq * ns * nb * (8 + nb * 6)) as u64;
            t.dram_write += (block * 8) as u64;
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (ce, tally)
}

/// `LandauOperator::assemble_tail` as it was when the Jacobian was `S`
/// species matrices: [`landau_element_matrices`] above, one scatter per
/// species into `mats` (`S` matrices on the operator's pattern, zeroed by
/// the scatter) and the field term `−(q_α/m_α)E D_z` added to each. The
/// scatter is `MatSetValues` for a `SetValues` operator and the atomic one
/// otherwise. The production tail's materialised matrices
/// (`LandauOperator::assemble`) stay within roundoff of these.
pub fn species_tail(op: &LandauOperator, coeffs: &IpCoeffs, e_field: f64, mats: &mut [Csr]) {
    let ns = op.species.len();
    assert_eq!(mats.len(), ns);
    let (ce, _) = landau_element_matrices(&op.space, &op.species, &op.ipdata, coeffs);
    match op.assembly {
        AssemblyPath::SetValues => assemble_setvalues(&op.space, ns, &ce, mats),
        AssemblyPath::Atomic | AssemblyPath::Colored => {
            assemble_atomic(&op.space, ns, &ce, mats);
        }
    }
    if e_field != 0.0 {
        for (s, sp) in op.species.list.iter().enumerate() {
            mats[s].axpy_same_pattern(-(sp.charge / sp.mass) * e_field, &op.dz);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_band_solves_a_tridiagonal_system() {
        let mut m = RefBand::from_fn(4, 1, 1, |i, j| if i == j { 4.0 } else { -1.0 });
        m.factor().unwrap();
        let mut x = vec![3.0, 2.0, 2.0, 3.0];
        m.solve_into(&mut x);
        for v in x {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn ref_band_reports_the_zero_pivot_row() {
        // Pivot 1 is 0.5 − (1/2)·1 = 0 once pivot 0 has been eliminated.
        let diag = [2.0, 0.5, 3.0];
        let mut m = RefBand::from_fn(3, 1, 1, |i, j| if i == j { diag[i] } else { 1.0 });
        assert_eq!(m.factor(), Err(1));
        assert_eq!(m.get(1, 0), 0.5, "the multiplier column of pivot 0 stays");
    }
}
