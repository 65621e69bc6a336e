//! Banded LU direct solver (the paper's custom GPU solver, §III-G).
//!
//! Band storage keeps the main diagonal plus `ubw` superdiagonals and `lbw`
//! subdiagonals. Factorization is the standard outer-product form (Golub &
//! Van Loan, Algorithm 4.3.1) without pivoting — Landau Jacobians are
//! `M/dt - L` with a dominant mass term, structurally symmetric, and the
//! paper's solver likewise does not pivot.
//!
//! RCM leaves the band ragged: on the §V problem only about half of it
//! lies inside the matrix profile. Every matrix therefore carries a
//! symbolic [`Envelope`] — per row, the first and the last column that can
//! hold a nonzero once the factorization has filled in — and
//! [`BandMatrix::factor`]/[`BandMatrix::solve_into`] sweep row slices
//! bounded by it. The invariant that makes this exact: **outside the
//! envelope every stored value is `+0.0`**, so the entries the sweeps skip
//! are the ones on which the full-band loop is the identity.
//!
//! Multi-species Jacobians are block diagonal after RCM; the block-aware
//! entry point factors/solves each species block independently and in
//! parallel — the CPU analogue of the paper's use of CUDA group
//! synchronization to give each species' factorization several SMs.
//! A [`BandMap`] precomputes the scatter from the (unpermuted) CSR pattern
//! into band slots, so a solver that lives across Newton iterations is
//! refilled in place ([`BlockBandSolver::refill`]) instead of rebuilt.

use crate::csr::Csr;
use landau_par::prelude::*;

/// Symbolic row envelope of a banded LU: row `i` can hold nonzeros — of
/// the matrix or of its no-pivot LU factors — only in columns
/// `first(i)..=last(i)`, with `first(i) ≤ i ≤ last(i)` inside the band.
///
/// It is closed under fill: pivot `i` updates row `r > i` only where
/// `first(r) ≤ i`, across columns up to `last(i)`, so `last(r) ≥ last(i)`
/// for every such pair. `first` never moves (an update touches columns
/// right of the pivot only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Envelope {
    /// The whole band: what a matrix built entry by entry has to assume.
    pub fn full(n: usize, lbw: usize, ubw: usize) -> Self {
        Envelope {
            first: (0..n).map(|i| i.saturating_sub(lbw)).collect(),
            last: (0..n).map(|i| (i + ubw).min(n - 1)).collect(),
        }
    }

    /// The envelope of an `n × n` sparsity pattern given as `(row, column)`
    /// pairs (the diagonal counts as present), with its half-bandwidth.
    fn of_pattern(n: usize, entries: impl Iterator<Item = (usize, usize)>) -> (Self, usize) {
        let mut first: Vec<usize> = (0..n).collect();
        let mut last = first.clone();
        for (i, j) in entries {
            first[i] = first[i].min(j);
            last[i] = last[i].max(j);
        }
        let bw = (0..n)
            .map(|i| (i - first[i]).max(last[i] - i))
            .max()
            .unwrap_or(0);
        (Envelope::closed(first, last), bw)
    }

    /// The fill closure of a sparse pattern's per-row column extents
    /// (`first[i] ≤ i ≤ last[i]`).
    fn closed(first: Vec<usize>, mut last: Vec<usize>) -> Self {
        for r in 0..first.len() {
            let reach = last[first[r]..r].iter().copied().max();
            last[r] = last[r].max(reach.unwrap_or(0));
        }
        Envelope { first, last }
    }

    /// Rows.
    pub fn n(&self) -> usize {
        self.first.len()
    }

    /// First column of row `i`.
    #[inline]
    pub fn first(&self, i: usize) -> usize {
        self.first[i]
    }

    /// Last column of row `i`, fill included.
    #[inline]
    pub fn last(&self, i: usize) -> usize {
        self.last[i]
    }

    /// True if `(i, j)` lies inside.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.first[i] <= j && j <= self.last[i]
    }

    /// True if every row of `other` lies inside this envelope.
    pub fn covers(&self, other: &Envelope) -> bool {
        self.n() == other.n()
            && (0..self.n())
                .all(|i| self.first[i] <= other.first[i] && other.last[i] <= self.last[i])
    }

    /// The smallest envelope covering both.
    pub fn union(&self, other: &Envelope) -> Envelope {
        assert_eq!(self.n(), other.n());
        let first = self.first.iter().zip(&other.first).map(|(a, b)| *a.min(b));
        let last = self.last.iter().zip(&other.last).map(|(a, b)| *a.max(b));
        Envelope::closed(first.collect(), last.collect())
    }

    /// Entries inside.
    pub fn area(&self) -> usize {
        (0..self.n())
            .map(|i| self.last[i] - self.first[i] + 1)
            .sum()
    }
}

/// A square banded matrix in LAPACK-like band-row storage:
/// entry `(i, j)` with `|i-j| ≤ bw` lives at `data[i * w + (j - i + lbw)]`
/// where `w = lbw + ubw + 1`.
#[derive(Clone, Debug)]
pub struct BandMatrix {
    /// Matrix dimension.
    pub n: usize,
    /// Subdiagonal count.
    pub lbw: usize,
    /// Superdiagonal count.
    pub ubw: usize,
    data: Vec<f64>,
    /// Every value stored outside it is `+0.0`.
    env: Envelope,
    factored: bool,
}

impl BandMatrix {
    /// Zero banded matrix, to be filled entry by entry: its envelope is
    /// the whole band.
    pub fn zeros(n: usize, lbw: usize, ubw: usize) -> Self {
        Self::zeros_in(n, lbw, ubw, Envelope::full(n, lbw, ubw))
    }

    fn zeros_in(n: usize, lbw: usize, ubw: usize, env: Envelope) -> Self {
        BandMatrix {
            n,
            lbw,
            ubw,
            data: vec![0.0; n * (lbw + ubw + 1)],
            env,
            factored: false,
        }
    }

    /// Storage row width.
    #[inline]
    fn w(&self) -> usize {
        self.lbw + self.ubw + 1
    }

    /// The symbolic envelope that bounds the sweeps.
    pub fn envelope(&self) -> &Envelope {
        &self.env
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

    /// Write entry `(i, j)`. A write outside the envelope widens it to the
    /// whole band, so entry-by-entry callers need not know about it.
    ///
    /// # Panics
    /// Panics outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let d = j as isize - i as isize;
        assert!(
            d >= -(self.lbw as isize) && d <= self.ubw as isize,
            "entry ({i},{j}) outside band (lbw={}, ubw={})",
            self.lbw,
            self.ubw
        );
        if !self.env.contains(i, j) {
            self.widen_to_band();
        }
        let w = self.w();
        self.data[i * w + (d + self.lbw as isize) as usize] = v;
    }

    #[cold]
    fn widen_to_band(&mut self) {
        self.env = Envelope::full(self.n, self.lbw, self.ubw);
    }

    /// Import a CSR matrix into band storage (bandwidth and envelope taken
    /// from the CSR pattern; use after RCM permutation).
    pub fn from_csr(a: &Csr) -> Self {
        assert_eq!(a.n_rows, a.n_cols);
        Self::from_csr_block(a, 0, a.n_rows)
    }

    /// Import the diagonal block `off..off + n` of `a`.
    fn from_csr_block(a: &Csr, off: usize, n: usize) -> Self {
        let entries = (0..n).flat_map(|i| {
            let cols = &a.col_idx[a.row_ptr[off + i]..a.row_ptr[off + i + 1]];
            cols.iter().map(move |&j| {
                assert!(
                    (off..off + n).contains(&j),
                    "entry ({},{j}) crosses block boundary",
                    off + i
                );
                (i, j - off)
            })
        });
        let (env, bw) = Envelope::of_pattern(n, entries);
        let mut m = Self::zeros_in(n, bw, bw, env);
        let w = m.w();
        for i in 0..n {
            for k in a.row_ptr[off + i]..a.row_ptr[off + i + 1] {
                m.data[i * w + bw + (a.col_idx[k] - off) - i] = a.vals[k];
            }
        }
        m
    }

    /// Overwrite the matrix through a precomputed [`BandMap`]: the envelope
    /// is zeroed first (a factorization leaves fill-in there that the
    /// sparse pattern does not overwrite), then entry `o` of the CSR
    /// pattern the map was built from gets the value `value(o)`.
    pub fn refill(&mut self, map: &BandMap, value: impl Fn(usize) -> f64) {
        assert_eq!((self.n, self.lbw, self.ubw), (map.n, map.bw, map.bw));
        assert!(
            self.env.covers(&map.env),
            "band map scatters outside the matrix envelope"
        );
        let (w, lbw) = (self.w(), self.lbw);
        for (i, row) in self.data.chunks_exact_mut(w).enumerate() {
            row[self.env.first[i] + lbw - i..=self.env.last[i] + lbw - i].fill(0.0);
        }
        for (&slot, &o) in map.slots.iter().zip(&map.origin) {
            self.data[slot] = value(o);
        }
        self.factored = false;
    }

    /// `y = A x` for an unfactored band matrix.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert!(!self.factored, "matvec on factored matrix");
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| {
                let jlo = i.saturating_sub(self.lbw);
                let jhi = (i + self.ubw).min(self.n - 1);
                (jlo..=jhi).map(|j| self.get(i, j) * x[j]).sum()
            })
            .collect()
    }

    /// In-place LU factorization without pivoting (outer-product form).
    /// Returns `Err(i)` if a pivot at row `i` is smaller than `tiny`; the
    /// storage then holds the factorization up to that pivot.
    ///
    /// The arithmetic and its order are those of the scalar full-band loop
    /// (kept as `landau_testkit::oracle::RefBand`), bit for bit on every
    /// input:
    /// * a row whose multiplier is `0.0` is skipped, as there;
    /// * the per-entry `u != 0.0` skip is a select of the subtrahend —
    ///   `t − (+0.0)` is `t` for every `t`, `−0.0` and NaN included — so
    ///   the rank-1 update is a branch-free sweep over two row slices;
    /// * rows and columns outside the envelope are not visited. Under a
    ///   positive pivot that is exact: a multiplier there is
    ///   `+0.0 / piv = +0.0`, stored over `+0.0` and then skipped, and a
    ///   `u` there is `+0.0`. A negative or NaN pivot would make those
    ///   zeros `−0.0` or NaN, so the first one widens the envelope (for
    ///   good) and the sweep (from that pivot on) to the whole band.
    pub fn factor(&mut self) -> Result<(), usize> {
        assert!(!self.factored, "matrix already factored");
        let (n, w, lbw) = (self.n, self.w(), self.lbw);
        let tiny = 1e-300;
        let mut widened = false;
        for i in 0..n {
            let piv = self.data[i * w + lbw];
            if piv.abs() < tiny {
                return Err(i);
            }
            if !(piv > 0.0 || widened) {
                self.widen_to_band();
                widened = true;
            }
            let (head, below) = self.data.split_at_mut((i + 1) * w);
            let u = &head[i * w + lbw + 1..][..self.env.last[i] - i];
            let rmax = (i + lbw).min(n - 1);
            for (r, row) in (i + 1..=rmax).zip(below.chunks_exact_mut(w)) {
                if self.env.first[r] > i {
                    continue;
                }
                // Column `i` of row `r`, then the targets of the update.
                let (l, t) = row[i + lbw - r..].split_at_mut(1);
                l[0] /= piv;
                let l = l[0];
                if l != 0.0 {
                    for (t, &u) in t.iter_mut().zip(u) {
                        *t -= if u != 0.0 { l * u } else { 0.0 };
                    }
                }
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solve `A x = b` after [`BandMatrix::factor`]; overwrites `x`.
    ///
    /// The same left-to-right sums as the scalar full-band loop, over the
    /// envelope's columns. The products left out are `+0.0 · x[j]`, so the
    /// result is bit-equal to the full-band sums while `x` stays finite
    /// (a non-finite `x[j]` would turn them into NaN there), up to the sign
    /// of an `x[i]` that is a zero and meets only zero products.
    pub fn solve_into(&self, x: &mut [f64]) {
        assert!(self.factored, "solve before factor");
        assert_eq!(x.len(), self.n);
        let (w, lbw) = (self.w(), self.lbw);
        let dot = |row: &[f64], x: &[f64]| -> f64 { row.iter().zip(x).map(|(a, b)| a * b).sum() };
        // Forward substitution with unit lower factor.
        for (i, row) in self.data.chunks_exact(w).enumerate() {
            let jlo = self.env.first[i];
            x[i] -= dot(&row[jlo + lbw - i..lbw], &x[jlo..i]);
        }
        // Backward substitution.
        for (i, row) in self.data.chunks_exact(w).enumerate().rev() {
            let jhi = self.env.last[i];
            let s = dot(&row[lbw + 1..][..jhi - i], &x[i + 1..=jhi]);
            x[i] = (x[i] - s) / row[lbw];
        }
    }

    /// Factor-and-solve convenience for one right-hand side.
    pub fn factor_solve(mut self, b: &[f64]) -> Result<Vec<f64>, usize> {
        self.factor()?;
        let mut x = b.to_vec();
        self.solve_into(&mut x);
        Ok(x)
    }

    /// FLOP count of a factorization under the dense-band model
    /// (`≈ 2 n B (B+1)` for half-bandwidth `B`) — used by the hardware
    /// model. The envelope sweep executes fewer, so a rate derived from
    /// this count is model FLOPs over time.
    pub fn factor_flops(n: usize, bw: usize) -> u64 {
        2 * n as u64 * bw as u64 * (bw as u64 + 1)
    }

    /// Approximate FLOP count of a solve (`≈ 4 n B`).
    pub fn solve_flops(n: usize, bw: usize) -> u64 {
        4 * n as u64 * bw as u64
    }
}

/// The scatter from a CSR pattern into the band storage of its symmetric
/// permutation `P A Pᵀ`: per stored entry, the band slot
/// `i·w + (j − i + bw)` it lands in and the index of its value in the
/// *unpermuted* CSR. Built once per pattern and ordering, it replaces the
/// per-assembly `clone → axpy → permute_symmetric → band copy` chain by one
/// indirection — for [`BandMatrix::refill`] and, the slot numbering being
/// the same, for the lanes of [`crate::batched::BatchedBandStorage`].
#[derive(Clone, Debug)]
pub struct BandMap {
    n: usize,
    bw: usize,
    slots: Vec<usize>,
    origin: Vec<usize>,
    env: Envelope,
}

impl BandMap {
    /// Map the pattern of the square matrix `a` under `perm` (new index
    /// `k` is old index `perm[k]`, as [`Csr::permute_symmetric`] takes it).
    pub fn new(a: &Csr, perm: &[usize]) -> Self {
        assert_eq!(a.n_rows, a.n_cols);
        assert_eq!(perm.len(), a.n_rows);
        let n = a.n_rows;
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let (old_row, inv) = (|old: usize| a.row_ptr[old]..a.row_ptr[old + 1], &inv);
        let (env, bw) = Envelope::of_pattern(
            n,
            perm.iter()
                .enumerate()
                .flat_map(|(i, &old)| old_row(old).map(move |k| (i, inv[a.col_idx[k]]))),
        );
        // (band slot, value index) row by row, each row in slot order, so
        // that the scatter writes ascending addresses.
        let w = 2 * bw + 1;
        let mut entries: Vec<(usize, usize)> = Vec::with_capacity(a.nnz());
        for (i, &old) in perm.iter().enumerate() {
            let at = entries.len();
            entries.extend(old_row(old).map(|k| (i * w + inv[a.col_idx[k]] + bw - i, k)));
            entries[at..].sort_unstable();
        }
        BandMap {
            n,
            bw,
            slots: entries.iter().map(|&(slot, _)| slot).collect(),
            origin: entries.iter().map(|&(_, k)| k).collect(),
            env,
        }
    }

    /// Rows of the mapped matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Half-bandwidth of the permuted pattern.
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Band slot per stored entry.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// Index into the unpermuted CSR values per stored entry, parallel to
    /// [`Self::slots`].
    pub fn origin(&self) -> &[usize] {
        &self.origin
    }

    /// Envelope of the permuted pattern.
    pub fn envelope(&self) -> &Envelope {
        &self.env
    }
}

/// A block-diagonal banded solver: one [`BandMatrix`] per species block,
/// factored and solved independently (and in parallel).
#[derive(Clone, Debug)]
pub struct BlockBandSolver {
    blocks: Vec<BandMatrix>,
    offsets: Vec<usize>,
}

impl BlockBandSolver {
    /// Build from a block-diagonal CSR: `block_sizes` gives the dimension of
    /// each diagonal block (all entries of the CSR must fall inside blocks).
    pub fn from_block_csr(a: &Csr, block_sizes: &[usize]) -> Self {
        let total: usize = block_sizes.iter().sum();
        assert_eq!(total, a.n_rows, "block sizes must cover the matrix");
        let mut offsets = Vec::with_capacity(block_sizes.len() + 1);
        offsets.push(0);
        for &s in block_sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        let blocks = block_sizes
            .iter()
            .zip(&offsets)
            .map(|(&size, &off)| BandMatrix::from_csr_block(a, off, size))
            .collect();
        BlockBandSolver { blocks, offsets }
    }

    /// `n_blocks` zero blocks on the pattern of `map`, to be filled by
    /// [`Self::refill`] before every factorization.
    pub fn from_map(map: &BandMap, n_blocks: usize) -> Self {
        let block = BandMatrix::zeros_in(map.n, map.bw, map.bw, map.env.clone());
        BlockBandSolver {
            blocks: vec![block; n_blocks],
            offsets: (0..=n_blocks).map(|b| b * map.n).collect(),
        }
    }

    /// [`BandMatrix::refill`] on every block (parallel over blocks):
    /// `value(b, o)` is the value of pattern entry `o` in block `b`.
    pub fn refill(&mut self, map: &BandMap, value: impl Fn(usize, usize) -> f64 + Sync) {
        self.blocks
            .par_iter_mut()
            .enumerate()
            .for_each(|(b, m)| m.refill(map, |o| value(b, o)));
    }

    /// Factor every block (parallel over blocks). Returns `Err((block, row))`
    /// on a zero pivot.
    pub fn factor(&mut self) -> Result<(), (usize, usize)> {
        let _sp = landau_obs::span(landau_obs::names::LU_FACTOR);
        let results: Vec<Result<(), usize>> =
            self.blocks.par_iter_mut().map(|b| b.factor()).collect();
        for (bi, r) in results.into_iter().enumerate() {
            if let Err(row) = r {
                return Err((bi, row));
            }
        }
        Ok(())
    }

    /// Solve in place (parallel over blocks).
    pub fn solve_into(&self, x: &mut [f64]) {
        let _sp = landau_obs::span(landau_obs::names::TRI_SOLVE);
        assert_eq!(x.len(), *self.offsets.last().unwrap());
        // Split the solution vector at the block boundaries.
        let mut slices: Vec<&mut [f64]> = Vec::with_capacity(self.blocks.len());
        let mut rest = x;
        for b in &self.blocks {
            let (head, tail) = rest.split_at_mut(b.n);
            slices.push(head);
            rest = tail;
        }
        self.blocks
            .par_iter()
            .zip(slices.into_par_iter())
            .for_each(|(b, s)| b.solve_into(s));
    }

    /// Number of diagonal blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fault-injection support: make block `b` exactly singular by zeroing
    /// its first row, so [`BlockBandSolver::factor`] reports `Err((b, 0))`.
    /// Used by the seeded resilience tests to prove the solve path maps a
    /// zero pivot to the right error and recovers; never called on the
    /// fault-free path.
    pub fn poison_block(&mut self, b: usize) {
        if self.blocks.is_empty() {
            return;
        }
        let nb = self.blocks.len();
        let m = &mut self.blocks[b % nb];
        if m.n == 0 {
            return;
        }
        // Zeros keep the envelope invariant wherever they land.
        let row0 = m.lbw..=m.lbw + m.ubw.min(m.n - 1);
        m.data[row0].fill(0.0);
    }

    /// Max half-bandwidth across blocks.
    pub fn max_bandwidth(&self) -> usize {
        self.blocks.iter().map(|b| b.lbw).max().unwrap_or(0)
    }

    /// Total factorization FLOPs (for the hardware model).
    pub fn factor_flops(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| BandMatrix::factor_flops(b.n, b.lbw))
            .sum()
    }

    /// Total solve FLOPs.
    pub fn solve_flops(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| BandMatrix::solve_flops(b.n, b.lbw))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::InsertMode;
    use landau_math::dense::{dense_solve, DenseMatrix};

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
            m.set(i, i, d + 3.0 * (bw as f64 + 1.0)); // diagonal dominance
        }
        m
    }

    fn band_to_dense(m: &BandMatrix) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(m.n, m.n);
        for i in 0..m.n {
            for j in 0..m.n {
                d[(i, j)] = m.get(i, j);
            }
        }
        d
    }

    #[test]
    fn band_solve_matches_dense() {
        for (n, bw) in [(1usize, 0usize), (5, 1), (20, 3), (40, 7), (64, 15)] {
            let m = random_banded(n, bw, (n * 31 + bw) as u64);
            let d = band_to_dense(&m);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let xd = dense_solve(&d, &b).unwrap();
            let xb = m.factor_solve(&b).unwrap();
            for i in 0..n {
                assert!(
                    (xd[i] - xb[i]).abs() < 1e-9,
                    "n={n} bw={bw} i={i}: {} vs {}",
                    xd[i],
                    xb[i]
                );
            }
        }
    }

    #[test]
    fn residual_is_small() {
        let m = random_banded(50, 5, 99);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let ax = {
            let x = m.clone().factor_solve(&b).unwrap();
            m.matvec(&x)
        };
        for i in 0..50 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_pivot_reported() {
        let mut m = BandMatrix::zeros(2, 1, 1);
        m.set(0, 0, 0.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 1.0);
        assert_eq!(m.factor(), Err(0));
    }

    #[test]
    fn from_csr_roundtrip() {
        let mut a = Csr::from_pattern(3, 3, &[vec![0, 1], vec![0, 1, 2], vec![1, 2]]);
        a.set_values(&[0], &[0, 1], &[4.0, 1.0], InsertMode::Insert);
        a.set_values(&[1], &[0, 1, 2], &[1.0, 4.0, 1.0], InsertMode::Insert);
        a.set_values(&[2], &[1, 2], &[1.0, 4.0], InsertMode::Insert);
        let m = BandMatrix::from_csr(&a);
        assert_eq!(m.lbw, 1);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x), a.matvec(&x));
    }

    #[test]
    fn block_solver_matches_monolithic() {
        // Two independent diagonal-dominant tridiagonal blocks.
        let mut cols = vec![Vec::new(); 8];
        for blk in 0..2usize {
            let off = blk * 4;
            for (i, col) in cols.iter_mut().enumerate().skip(off).take(4) {
                col.push(i);
                if i > off {
                    col.push(i - 1);
                }
                if i + 1 < off + 4 {
                    col.push(i + 1);
                }
            }
        }
        let mut a = Csr::from_pattern(8, 8, &cols);
        for i in 0..8usize {
            a.add_value(i, i, 5.0 + i as f64);
            if a.find(i, i + 1).is_some() {
                a.add_value(i, i + 1, 1.0);
            }
            if i > 0 && a.find(i, i - 1).is_some() {
                a.add_value(i, i - 1, 2.0);
            }
        }
        let b: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        let mono = BandMatrix::from_csr(&a).factor_solve(&b).unwrap();
        let mut blocked = BlockBandSolver::from_block_csr(&a, &[4, 4]);
        blocked.factor().unwrap();
        let mut x = b.clone();
        blocked.solve_into(&mut x);
        for i in 0..8 {
            assert!((mono[i] - x[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn poisoned_block_reports_singular() {
        // Two decoupled diagonal blocks; poisoning the second must surface
        // as Err((1, 0)) from factor, leaving block 0 factorable.
        let mut cols = vec![Vec::new(); 4];
        for (i, c) in cols.iter_mut().enumerate() {
            c.push(i);
        }
        let mut a = Csr::from_pattern(4, 4, &cols);
        for i in 0..4 {
            a.add_value(i, i, 2.0 + i as f64);
        }
        let mut s = BlockBandSolver::from_block_csr(&a, &[2, 2]);
        assert_eq!(s.n_blocks(), 2);
        s.poison_block(1);
        assert_eq!(s.factor(), Err((1, 0)));
    }

    #[test]
    #[should_panic(expected = "crosses block boundary")]
    fn block_solver_rejects_coupled_blocks() {
        let mut cols = vec![Vec::new(); 4];
        for (i, c) in cols.iter_mut().enumerate() {
            c.push(i);
        }
        cols[1].push(2); // couples the two 2-blocks
        let a = Csr::from_pattern(4, 4, &cols);
        let _ = BlockBandSolver::from_block_csr(&a, &[2, 2]);
    }

    #[test]
    fn flop_model_is_monotone() {
        assert!(BandMatrix::factor_flops(100, 10) < BandMatrix::factor_flops(100, 20));
        assert!(BandMatrix::solve_flops(100, 10) < BandMatrix::solve_flops(200, 10));
    }
}
