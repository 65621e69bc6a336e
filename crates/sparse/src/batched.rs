//! Batched banded LU over a lane-minor SoA layout (the sequel paper's
//! batched linear solvers, arXiv 2209.03228 §4).
//!
//! [`BatchedBandStorage`] holds `n_mats` equally-sized banded matrices —
//! one per (vertex, species) lane of a batched Newton solve — in a single
//! allocation laid out *tile-major, slot-major, lane-minor*: lanes are
//! grouped into `LANE_TILE`-wide tiles, and band slot
//! `s = i·w + (j − i + lbw)` of lane `m` lives at
//! `data[(m/T)·n_slots·T + s·T + (m%T)]` with `T = LANE_TILE`. The
//! innermost dimension strides lanes, so a warp (or SIMD vector, or cache
//! line) walks matrices while every lane executes the same pivot step —
//! and grouping the slot rows per tile keeps consecutive slots of a tile
//! `T·8` bytes apart instead of `n_mats·8`, so the lockstep sweeps stay
//! page- and prefetch-local no matter how large the batch grows.
//!
//! The lockstep [`factor`](BatchedBandStorage::factor) and
//! [`solve_into`](BatchedBandStorage::solve_into) reproduce
//! [`BandMatrix::factor`]/[`BandMatrix::solve_into`] *bitwise* per lane:
//! identical pivot order, identical `l != 0.0` / `u != 0.0` skip guards,
//! identical left-to-right partial-sum order in both substitutions. Lanes
//! are fully independent, so interleaving them changes no per-lane FP
//! sequence — the property tests below pin this with `to_bits` equality.
//!
//! Lanes retire individually: a failed pivot (or an inactive mask entry)
//! removes that lane from all subsequent pivot steps without
//! desynchronizing the rest of the batch, mirroring how
//! [`BandMatrix::factor`] returns at its first bad pivot.
//!
//! A batch has one sparsity pattern, so one symbolic [`Envelope`] bounds
//! the sweeps of every lane: rows left of it are skipped and the column
//! sweep stops at its right edge, under the same rule as in
//! [`crate::band`] (outside it every lane stores `+0.0`; the first live
//! negative or NaN pivot widens it to the whole band).

use crate::band::{BandMatrix, Envelope};

/// Lanes per cache tile of the lockstep sweeps. The factorization's
/// sliding window — `(lbw+1)` band rows of `w · LANE_TILE` doubles — stays
/// resident while the pivot walks down, so large batches stream each band
/// value from memory once per factorization instead of once per pivot
/// touching it. Per-lane arithmetic is independent of the tiling.
const LANE_TILE: usize = 64;

/// `n_mats` banded matrices of identical shape in SoA band storage.
#[derive(Clone, Debug)]
pub struct BatchedBandStorage {
    n: usize,
    lbw: usize,
    ubw: usize,
    n_mats: usize,
    data: Vec<f64>,
    /// One pattern per batch, so one envelope for all lanes: every value
    /// stored outside it, in any lane, is `+0.0`.
    env: Envelope,
    factored: bool,
}

impl BatchedBandStorage {
    /// `n_mats` zero matrices, each `n × n` with `lbw` sub- and `ubw`
    /// superdiagonals. The allocation rounds the lane count up to a whole
    /// number of tiles; padding lanes hold zeros and are never active.
    pub fn zeros(n: usize, lbw: usize, ubw: usize, n_mats: usize) -> Self {
        Self::zeros_in(n, lbw, ubw, n_mats, Envelope::full(n, lbw, ubw))
    }

    fn zeros_in(n: usize, lbw: usize, ubw: usize, n_mats: usize, env: Envelope) -> Self {
        let n_tiles = n_mats.div_ceil(LANE_TILE);
        BatchedBandStorage {
            n,
            lbw,
            ubw,
            n_mats,
            data: vec![0.0; n * (lbw + ubw + 1) * n_tiles * LANE_TILE],
            env,
            factored: false,
        }
    }

    /// Rows per matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Subdiagonal count.
    pub fn lbw(&self) -> usize {
        self.lbw
    }

    /// Superdiagonal count.
    pub fn ubw(&self) -> usize {
        self.ubw
    }

    /// Number of matrices (lanes).
    pub fn n_mats(&self) -> usize {
        self.n_mats
    }

    /// Band slots per matrix (`n · w`).
    pub fn n_slots(&self) -> usize {
        self.n * self.w()
    }

    /// Storage row width.
    #[inline]
    fn w(&self) -> usize {
        self.lbw + self.ubw + 1
    }

    /// Flat index of band slot `s` in lane `m` (tile-major layout).
    #[inline]
    fn idx(&self, s: usize, m: usize) -> usize {
        (m / LANE_TILE) * self.n_slots() * LANE_TILE + s * LANE_TILE + (m % LANE_TILE)
    }

    #[cold]
    fn widen_to_band(&mut self) {
        self.env = Envelope::full(self.n, self.lbw, self.ubw);
    }

    /// Read entry `(i, j)` of lane `m` (0 outside the band).
    #[inline]
    pub fn get(&self, m: usize, i: usize, j: usize) -> f64 {
        let d = j as isize - i as isize;
        if d < -(self.lbw as isize) || d > self.ubw as isize {
            return 0.0;
        }
        self.data[self.idx(i * self.w() + (d + self.lbw as isize) as usize, m)]
    }

    /// Zero all values and clear the factored flag, keeping the allocation.
    /// Must be called before each refill: factorization writes fill-in into
    /// band slots the sparse pattern leaves untouched.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
        self.factored = false;
    }

    /// Copy a [`BandMatrix`] into lane `m` (the lane is zeroed first). The
    /// batch envelope grows to cover the matrix's.
    pub fn pack_lane(&mut self, m: usize, b: &BandMatrix) {
        assert_eq!((b.n, b.lbw, b.ubw), (self.n, self.lbw, self.ubw));
        if !self.env.covers(b.envelope()) {
            self.env = self.env.union(b.envelope());
        }
        for s in 0..self.n_slots() {
            let k = self.idx(s, m);
            self.data[k] = 0.0;
        }
        let w = self.w();
        for i in 0..self.n {
            for j in i.saturating_sub(self.lbw)..=(i + self.ubw).min(self.n.saturating_sub(1)) {
                let k = self.idx(i * w + j + self.lbw - i, m);
                self.data[k] = b.get(i, j);
            }
        }
        self.factored = false;
    }

    /// Extract lane `m` as a standalone [`BandMatrix`] (values verbatim).
    pub fn unpack_lane(&self, m: usize) -> BandMatrix {
        let mut b = BandMatrix::zeros(self.n, self.lbw, self.ubw);
        for i in 0..self.n {
            for j in i.saturating_sub(self.lbw)..=(i + self.ubw).min(self.n.saturating_sub(1)) {
                b.set(i, j, self.get(m, i, j));
            }
        }
        b
    }

    /// Batch-build from equally-shaped matrices (one per lane); the batch
    /// envelope is the union of theirs.
    pub fn from_band_matrices(mats: &[BandMatrix]) -> Self {
        assert!(!mats.is_empty());
        let (n, lbw, ubw) = (mats[0].n, mats[0].lbw, mats[0].ubw);
        let env = mats[0].envelope().clone();
        let mut s = BatchedBandStorage::zeros_in(n, lbw, ubw, mats.len(), env);
        for (m, b) in mats.iter().enumerate() {
            s.pack_lane(m, b);
        }
        s
    }

    /// Lockstep in-place LU of every active lane (outer-product form,
    /// no pivoting — identical pivot/update order to [`BandMatrix::factor`]).
    ///
    /// Returns, per lane, the row of its first failing pivot (`|piv| <
    /// 1e-300`), or `None` if the lane factored cleanly or was inactive. A
    /// failing lane retires immediately: every subsequent operation leaves
    /// its values bit-for-bit untouched, exactly as [`BandMatrix::factor`]
    /// returns at its first bad pivot. Inactive lanes' values are likewise
    /// never changed.
    ///
    /// Lanes are swept in `LANE_TILE`-wide cache tiles — each tile runs
    /// the full pivot sequence while its sliding row window stays
    /// resident — and the innermost lane loops are branchless selects over
    /// unit strides, so they vectorize. Per lane the FP sequence is
    /// unchanged: retired/inactive lanes keep their old value through the
    /// select, and the `l/u` zero-skip guards become a `− 0.0` (exact for
    /// every operand the skip could have preserved).
    pub fn factor(&mut self, active: &[bool]) -> Vec<Option<usize>> {
        assert!(!self.factored, "matrix batch already factored");
        assert_eq!(active.len(), self.n_mats);
        let (n, mm, w, lbw) = (self.n, self.n_mats, self.w(), self.lbw);
        let tile_len = self.n_slots() * LANE_TILE;
        let tiny = 1e-300;
        let mut failed: Vec<Option<usize>> = vec![None; mm];
        let mut alive: Vec<bool> = active.to_vec();
        let mut widened = false;
        for t0 in (0..mm).step_by(LANE_TILE) {
            let t1 = (t0 + LANE_TILE).min(mm);
            let tl = t1 - t0;
            // Fully retired tiles are skipped outright — nothing in them
            // may be read or written.
            if alive[t0..t1].iter().all(|&a| !a) {
                continue;
            }
            let tb = (t0 / LANE_TILE) * tile_len;
            for i in 0..n {
                let diag = tb + (i * w + lbw) * LANE_TILE;
                for q in 0..tl {
                    let piv = self.data[diag + q];
                    if alive[t0 + q] && piv.abs() < tiny {
                        failed[t0 + q] = Some(i);
                        alive[t0 + q] = false;
                    }
                    // A live negative or NaN pivot turns the `+0.0`s
                    // outside the envelope into `−0.0`/NaN in its lane
                    // (see `BandMatrix::factor`): whole band from here on.
                    if alive[t0 + q] && !(piv > 0.0 || widened) {
                        self.widen_to_band();
                        widened = true;
                    }
                }
                let all_alive = alive[t0..t1].iter().all(|&a| a);
                let rmax = (i + lbw).min(n - 1);
                let cmax = self.env.last(i);
                for r in (i + 1)..=rmax {
                    if self.env.first(r) > i {
                        continue;
                    }
                    // Multiplier column: l = a(r,i) / piv, stored in place.
                    let lrow = tb + (r * w + (i + lbw - r)) * LANE_TILE;
                    {
                        let (top, bot) = self.data.split_at_mut(lrow);
                        let pv = &top[diag..diag + tl];
                        let lv = &mut bot[..tl];
                        if all_alive {
                            for q in 0..tl {
                                lv[q] /= pv[q];
                            }
                        } else {
                            for q in 0..tl {
                                let old = lv[q];
                                let nv = old / pv[q];
                                lv[q] = if alive[t0 + q] { nv } else { old };
                            }
                        }
                    }
                    // Rank-1 update of the dense sub-block a(r, i+1..cmax).
                    // The per-lane l/u zero-skip guards of BandMatrix fold
                    // into the subtrahend: where either factor is zero the
                    // update subtracts +0.0, which leaves every value the
                    // skip could have preserved (±0.0 included) bitwise
                    // unchanged.
                    for c in (i + 1)..=cmax {
                        let urow = tb + (i * w + (c + lbw - i)) * LANE_TILE;
                        let trow = tb + (r * w + (c + lbw - r)) * LANE_TILE;
                        let (top, bot) = self.data.split_at_mut(trow);
                        let lv = &top[lrow..lrow + tl];
                        let uv = &top[urow..urow + tl];
                        let tv = &mut bot[..tl];
                        if all_alive {
                            for q in 0..tl {
                                let l = lv[q];
                                let u = uv[q];
                                let sub = if l != 0.0 && u != 0.0 { l * u } else { 0.0 };
                                tv[q] -= sub;
                            }
                        } else {
                            for q in 0..tl {
                                let l = lv[q];
                                let u = uv[q];
                                let sub = if alive[t0 + q] && l != 0.0 && u != 0.0 {
                                    l * u
                                } else {
                                    0.0
                                };
                                tv[q] -= sub;
                            }
                        }
                    }
                }
            }
        }
        self.factored = true;
        failed
    }

    /// Lockstep forward/backward substitution over the active lanes.
    ///
    /// `x` is lane-minor SoA: row `i` of lane `m` lives at
    /// `x[i · n_mats + m]`. Per lane the partial sums accumulate in the
    /// same left-to-right order as [`BandMatrix::solve_into`], so results
    /// are bitwise identical. Inactive lanes' entries are left untouched.
    pub fn solve_into(&self, x: &mut [f64], active: &[bool]) {
        assert!(self.factored, "solve before factor");
        let (n, mm, w, lbw) = (self.n, self.n_mats, self.w(), self.lbw);
        let tile_len = self.n_slots() * LANE_TILE;
        assert_eq!(x.len(), n * mm);
        assert_eq!(active.len(), mm);
        let mut acc = [0.0f64; LANE_TILE];
        for t0 in (0..mm).step_by(LANE_TILE) {
            let t1 = (t0 + LANE_TILE).min(mm);
            let tl = t1 - t0;
            if active[t0..t1].iter().all(|&a| !a) {
                continue;
            }
            let all_active = active[t0..t1].iter().all(|&a| a);
            let tb = (t0 / LANE_TILE) * tile_len;
            // Forward substitution with the unit lower factor. The j loop
            // is outermost so lane reads coalesce; per lane the
            // accumulation order over j is unchanged (ascending from zero).
            for i in 0..n {
                let jlo = self.env.first(i);
                acc[..tl].fill(0.0);
                for j in jlo..i {
                    let row = tb + (i * w + (j + lbw - i)) * LANE_TILE;
                    let xr = j * mm + t0;
                    let dv = &self.data[row..row + tl];
                    let xv = &x[xr..xr + tl];
                    for q in 0..tl {
                        acc[q] += dv[q] * xv[q];
                    }
                }
                let xi = i * mm + t0;
                let xo = &mut x[xi..xi + tl];
                if all_active {
                    for q in 0..tl {
                        xo[q] -= acc[q];
                    }
                } else {
                    for q in 0..tl {
                        if active[t0 + q] {
                            xo[q] -= acc[q];
                        }
                    }
                }
            }
            // Backward substitution.
            for i in (0..n).rev() {
                let jhi = self.env.last(i);
                acc[..tl].fill(0.0);
                for j in (i + 1)..=jhi {
                    let row = tb + (i * w + (j + lbw - i)) * LANE_TILE;
                    let xr = j * mm + t0;
                    let dv = &self.data[row..row + tl];
                    let xv = &x[xr..xr + tl];
                    for q in 0..tl {
                        acc[q] += dv[q] * xv[q];
                    }
                }
                let diag = tb + (i * w + lbw) * LANE_TILE;
                let xi = i * mm + t0;
                let pv = &self.data[diag..diag + tl];
                let xo = &mut x[xi..xi + tl];
                if all_active {
                    for q in 0..tl {
                        xo[q] = (xo[q] - acc[q]) / pv[q];
                    }
                } else {
                    for q in 0..tl {
                        if active[t0 + q] {
                            xo[q] = (xo[q] - acc[q]) / pv[q];
                        }
                    }
                }
            }
        }
    }

    /// Factorization FLOPs for `n_active` lanes (hardware model).
    pub fn factor_flops(&self, n_active: usize) -> u64 {
        n_active as u64 * BandMatrix::factor_flops(self.n, self.lbw)
    }

    /// Solve FLOPs for `n_active` lanes.
    pub fn solve_flops(&self, n_active: usize) -> u64 {
        n_active as u64 * BandMatrix::solve_flops(self.n, self.lbw)
    }

    /// Approximate heap footprint (for memory accounting).
    pub fn approx_heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::BlockBandSolver;
    use crate::csr::Csr;

    /// Diagonally dominant random band, same LCG as the band.rs tests.
    fn random_banded(n: usize, bw: usize, seed: u64) -> BandMatrix {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = BandMatrix::zeros(n, bw, bw);
        for i in 0..n {
            for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                m.set(i, j, next());
            }
            let d = m.get(i, i);
            m.set(i, i, d + 3.0 * (bw as f64 + 1.0));
        }
        m
    }

    fn rhs(n: usize, m: usize) -> Vec<f64> {
        (0..n).map(|i| ((i + 7 * m) as f64 * 0.13).sin()).collect()
    }

    #[test]
    fn pack_unpack_roundtrip_is_bitwise() {
        let mats: Vec<BandMatrix> = (0..5).map(|m| random_banded(17, 3, 100 + m)).collect();
        let soa = BatchedBandStorage::from_band_matrices(&mats);
        for (m, b) in mats.iter().enumerate() {
            let back = soa.unpack_lane(m);
            for i in 0..17 {
                for j in 0..17 {
                    assert_eq!(
                        b.get(i, j).to_bits(),
                        back.get(i, j).to_bits(),
                        "lane {m} entry ({i},{j}) mutated in SoA round-trip"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_layout_matches_block_band_solver() {
        // The same matrices as a block-diagonal CSR through BlockBandSolver
        // (the per-vertex production path) and as SoA lanes must solve to
        // bitwise-identical answers.
        let (n, bw, nm) = (12usize, 2usize, 4usize);
        let mats: Vec<BandMatrix> = (0..nm)
            .map(|m| random_banded(n, bw, 40 + m as u64))
            .collect();
        // Block-diagonal CSR with one block per lane.
        let mut cols = vec![Vec::new(); n * nm];
        for (m, _) in mats.iter().enumerate() {
            let off = m * n;
            for i in 0..n {
                for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                    cols[off + i].push(off + j);
                }
            }
        }
        let mut a = Csr::from_pattern(n * nm, n * nm, &cols);
        for (m, b) in mats.iter().enumerate() {
            let off = m * n;
            for i in 0..n {
                for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                    a.add_value(off + i, off + j, b.get(i, j));
                }
            }
        }
        let mut blocked = BlockBandSolver::from_block_csr(&a, &vec![n; nm]);
        blocked.factor().unwrap();
        let mut x_ref: Vec<f64> = (0..nm).flat_map(|m| rhs(n, m)).collect();
        blocked.solve_into(&mut x_ref);

        let mut soa = BatchedBandStorage::from_band_matrices(&mats);
        let active = vec![true; nm];
        let failed = soa.factor(&active);
        assert!(failed.iter().all(|f| f.is_none()));
        // Lane-minor RHS: x[i*nm + m].
        let mut x = vec![0.0; n * nm];
        for m in 0..nm {
            let b = rhs(n, m);
            for i in 0..n {
                x[i * nm + m] = b[i];
            }
        }
        soa.solve_into(&mut x, &active);
        for m in 0..nm {
            for i in 0..n {
                assert_eq!(
                    x_ref[m * n + i].to_bits(),
                    x[i * nm + m].to_bits(),
                    "lane {m} row {i}: SoA solve diverged from BlockBandSolver"
                );
            }
        }
    }

    #[test]
    fn batched_factor_solve_bitwise_equals_independent() {
        for (n, bw, nm) in [(1usize, 0usize, 3usize), (9, 1, 2), (24, 4, 7), (40, 7, 16)] {
            let mats: Vec<BandMatrix> = (0..nm)
                .map(|m| random_banded(n, bw, (n * 31 + m) as u64))
                .collect();
            let mut soa = BatchedBandStorage::from_band_matrices(&mats);
            let active = vec![true; nm];
            let failed = soa.factor(&active);
            assert!(failed.iter().all(|f| f.is_none()), "n={n} bw={bw}");
            let mut x = vec![0.0; n * nm];
            for m in 0..nm {
                let b = rhs(n, m);
                for i in 0..n {
                    x[i * nm + m] = b[i];
                }
            }
            soa.solve_into(&mut x, &active);
            for (m, b) in mats.iter().enumerate() {
                // Independent reference: one BandMatrix at a time.
                let mut r = b.clone();
                r.factor().unwrap();
                let mut xr = rhs(n, m);
                r.solve_into(&mut xr);
                for i in 0..n {
                    assert_eq!(
                        xr[i].to_bits(),
                        x[i * nm + m].to_bits(),
                        "n={n} bw={bw} lane {m} row {i}: batched LU not bitwise"
                    );
                }
                // The factored storage itself must match, not just the solve.
                let fac = soa.unpack_lane(m);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            r.get(i, j).to_bits(),
                            fac.get(i, j).to_bits(),
                            "n={n} bw={bw} lane {m} factor entry ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn failing_lane_retires_without_touching_others() {
        let (n, bw, nm) = (10usize, 2usize, 5usize);
        let mats: Vec<BandMatrix> = (0..nm)
            .map(|m| random_banded(n, bw, 7 + m as u64))
            .collect();
        // Lane 2 is exactly singular: a zero first row.
        let mut singular = mats.clone();
        for j in 0..=bw {
            singular[2].set(0, j, 0.0);
        }
        let mut soa = BatchedBandStorage::from_band_matrices(&singular);
        let active = vec![true; nm];
        let failed = soa.factor(&active);
        assert_eq!(failed[2], Some(0), "poisoned lane must fail at row 0");
        for m in [0usize, 1, 3, 4] {
            assert!(failed[m].is_none());
            let mut r = mats[m].clone();
            r.factor().unwrap();
            let fac = soa.unpack_lane(m);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        r.get(i, j).to_bits(),
                        fac.get(i, j).to_bits(),
                        "lane {m} factor perturbed by retired lane 2"
                    );
                }
            }
        }
    }

    #[test]
    fn inactive_lanes_are_left_untouched() {
        let (n, bw, nm) = (8usize, 1usize, 3usize);
        let mats: Vec<BandMatrix> = (0..nm)
            .map(|m| random_banded(n, bw, 55 + m as u64))
            .collect();
        let mut soa = BatchedBandStorage::from_band_matrices(&mats);
        let before = soa.unpack_lane(1);
        let active = vec![true, false, true];
        let failed = soa.factor(&active);
        assert!(failed.iter().all(|f| f.is_none()));
        let after = soa.unpack_lane(1);
        let mut x = vec![1.5; n * nm];
        soa.solve_into(&mut x, &active);
        for i in 0..n {
            assert_eq!(x[i * nm + 1].to_bits(), 1.5f64.to_bits());
            for j in 0..n {
                assert_eq!(before.get(i, j).to_bits(), after.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn reset_clears_fill_in() {
        let mut soa = BatchedBandStorage::zeros(6, 2, 2, 2);
        soa.pack_lane(0, &random_banded(6, 2, 1));
        soa.pack_lane(1, &random_banded(6, 2, 2));
        let failed = soa.factor(&[true, true]);
        assert!(failed.iter().all(|f| f.is_none()));
        soa.reset();
        for m in 0..2 {
            for i in 0..6 {
                for j in 0..6 {
                    assert_eq!(soa.get(m, i, j), 0.0);
                }
            }
        }
    }
}
