//! Compressed sparse row matrices with `MatSetValues`-style insertion.

use crate::atomic::AtomicF64;

/// How `set_values` combines new entries with existing ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertMode {
    /// Add to the existing value (`ADD_VALUES`).
    Add,
    /// Overwrite the existing value (`INSERT_VALUES`).
    Insert,
}

/// A square-or-rectangular CSR matrix with a frozen nonzero pattern.
///
/// The pattern is fixed at construction (from a [`crate::coo::CooMatrix`] or
/// an explicit pattern); value updates address existing entries only —
/// exactly the model the paper uses, where the first (CPU) assembly builds
/// the structure and device assemblies then write values into it.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Row pointer array, length `n_rows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, sorted ascending within each row.
    pub col_idx: Vec<usize>,
    /// Values, parallel to `col_idx`.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Build from an explicit pattern: `cols_per_row[i]` lists the column
    /// indices of row `i` (any order; duplicates are merged). Values start
    /// at zero.
    pub fn from_pattern(n_rows: usize, n_cols: usize, cols_per_row: &[Vec<usize>]) -> Self {
        assert_eq!(cols_per_row.len(), n_rows);
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for cols in cols_per_row {
            let mut c = cols.clone();
            c.sort_unstable();
            c.dedup();
            assert!(c.last().is_none_or(|&j| j < n_cols), "column out of range");
            col_idx.extend_from_slice(&c);
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals: vec![0.0; nnz],
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Zero all values, keeping the pattern (`MatZeroEntries`).
    pub fn zero_entries(&mut self) {
        self.vals.fill(0.0);
    }

    /// Find the storage offset of entry `(i, j)`, if present.
    #[inline]
    pub fn find(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].binary_search(&j).ok().map(|k| lo + k)
    }

    /// Read entry `(i, j)` (0 if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.find(i, j).map_or(0.0, |k| self.vals[k])
    }

    /// `MatSetValues`: scatter a dense `rows.len() × cols.len()` block into
    /// the matrix. All addressed entries must exist in the pattern.
    ///
    /// # Panics
    /// Panics if an addressed entry is missing from the pattern (PETSc would
    /// raise a "new nonzero caused a malloc" error in this configuration).
    pub fn set_values(&mut self, rows: &[usize], cols: &[usize], block: &[f64], mode: InsertMode) {
        assert_eq!(block.len(), rows.len() * cols.len());
        for (bi, &i) in rows.iter().enumerate() {
            for (bj, &j) in cols.iter().enumerate() {
                let v = block[bi * cols.len() + bj];
                if v == 0.0 && mode == InsertMode::Add {
                    continue;
                }
                let k = self
                    .find(i, j)
                    .unwrap_or_else(|| panic!("entry ({i},{j}) not in pattern"));
                match mode {
                    InsertMode::Add => self.vals[k] += v,
                    InsertMode::Insert => self.vals[k] = v,
                }
            }
        }
    }

    /// Add a single value (must exist in the pattern).
    #[inline]
    pub fn add_value(&mut self, i: usize, j: usize, v: f64) {
        let k = self
            .find(i, j)
            .unwrap_or_else(|| panic!("entry ({i},{j}) not in pattern"));
        self.vals[k] += v;
    }

    /// View the values as atomics for concurrent device-style assembly
    /// ("fetch-and-add" contention resolution, §III-F of the paper).
    pub fn atomic_vals(&mut self) -> &[AtomicF64] {
        AtomicF64::cast_slice_mut(&mut self.vals)
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A x` into an existing buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n_rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.vals[k] * x[self.col_idx[k]];
            }
            *yi = s;
        }
    }

    /// `y += a * A x`.
    pub fn matvec_add_scaled(&self, a: f64, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate().take(self.n_rows) {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.vals[k] * x[self.col_idx[k]];
            }
            *yi += a * s;
        }
    }

    /// `A += a * B` for matrices with identical patterns
    /// (`MatAXPY` with `SAME_NONZERO_PATTERN`).
    pub fn axpy_same_pattern(&mut self, a: f64, other: &Csr) {
        assert_eq!(self.row_ptr, other.row_ptr, "patterns differ");
        assert_eq!(self.col_idx, other.col_idx, "patterns differ");
        for (v, &o) in self.vals.iter_mut().zip(&other.vals) {
            *v += a * o;
        }
    }

    /// Scale all values (`MatScale`).
    pub fn scale(&mut self, a: f64) {
        for v in &mut self.vals {
            *v *= a;
        }
    }

    /// Symmetrized adjacency of the pattern (for ordering algorithms).
    pub fn pattern_adjacency(&self) -> Vec<Vec<usize>> {
        assert_eq!(self.n_rows, self.n_cols);
        let mut adj = vec![Vec::new(); self.n_rows];
        for i in 0..self.n_rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Extract the dense representation (tests/small systems only).
    pub fn to_dense(&self) -> landau_math_dense::DenseMatrix {
        let mut d = landau_math_dense::DenseMatrix::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                d[(i, self.col_idx[k])] = self.vals[k];
            }
        }
        d
    }

    /// Apply a symmetric permutation: returns `P A Pᵀ` where row/col `i` of
    /// the result is row/col `perm[i]` of `self`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> Csr {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(perm.len(), self.n_rows);
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut cols_per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n_rows];
        for i in 0..self.n_rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                cols_per_row[inv[i]].push((inv[self.col_idx[k]], self.vals[k]));
            }
        }
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for row in &mut cols_per_row {
            row.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in row.iter() {
                col_idx.push(j);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

// Local alias so the doc path above stays short.
use landau_math::dense as landau_math_dense;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 2 0]
        // [0 3 4]
        // [5 0 6]
        let mut a = Csr::from_pattern(3, 3, &[vec![0, 1], vec![1, 2], vec![0, 2]]);
        a.set_values(&[0], &[0, 1], &[1.0, 2.0], InsertMode::Insert);
        a.set_values(&[1], &[1, 2], &[3.0, 4.0], InsertMode::Insert);
        a.set_values(&[2], &[0, 2], &[5.0, 6.0], InsertMode::Insert);
        a
    }

    #[test]
    fn pattern_and_values() {
        let a = sample();
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = vec![1.0, -1.0, 2.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![-1.0, 5.0, 17.0]);
        let d = a.to_dense();
        assert_eq!(d.matvec(&x), y);
    }

    #[test]
    fn add_values_accumulates() {
        let mut a = sample();
        a.set_values(&[0, 1], &[1], &[10.0, 10.0], InsertMode::Add);
        assert_eq!(a.get(0, 1), 12.0);
        assert_eq!(a.get(1, 1), 13.0);
    }

    #[test]
    #[should_panic(expected = "not in pattern")]
    fn insertion_outside_pattern_panics() {
        let mut a = sample();
        a.add_value(0, 2, 1.0);
    }

    #[test]
    fn zero_entries_keeps_pattern() {
        let mut a = sample();
        a.zero_entries();
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.get(2, 2), 0.0);
    }

    #[test]
    fn axpy_same_pattern_works() {
        let mut a = sample();
        let b = sample();
        a.axpy_same_pattern(2.0, &b);
        assert_eq!(a.get(2, 2), 18.0);
    }

    #[test]
    fn symmetric_permutation_preserves_action() {
        let a = sample();
        let perm = vec![2usize, 0, 1]; // new i <- old perm[i]
        let p = a.permute_symmetric(&perm);
        let x = vec![0.3, -1.2, 0.7];
        // (PAPᵀ)(Px) = P(Ax)
        let px: Vec<f64> = perm.iter().map(|&o| x[o]).collect();
        let lhs = p.matvec(&px);
        let ax = a.matvec(&x);
        let rhs: Vec<f64> = perm.iter().map(|&o| ax[o]).collect();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-14);
        }
    }

    #[test]
    fn duplicate_pattern_columns_merge() {
        let a = Csr::from_pattern(1, 4, &[vec![2, 1, 2, 1]]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.row_ptr, vec![0, 2]);
        assert_eq!(a.col_idx, vec![1, 2]);
    }
}
