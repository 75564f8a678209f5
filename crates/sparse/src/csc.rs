//! Coordinate-format builder and compressed sparse column storage.

use awesym_linalg::Scalar;

/// Coordinate-format ("triplet") sparse matrix builder over scalar `T`.
///
/// Duplicate `(row, col)` entries are summed when converting to [`Csc`],
/// which is exactly the semantics of MNA stamping.
#[derive(Debug, Clone, PartialEq)]
pub struct Triplets<T> {
    n: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Triplets {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `v` at `(row, col)`; duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `col` is out of range.
    pub fn push(&mut self, row: usize, col: usize, v: T) {
        assert!(row < self.n && col < self.n, "triplet index out of range");
        if v.is_zero() {
            return;
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(v);
    }

    /// Converts to compressed sparse column form, summing duplicates.
    pub fn to_csc(&self) -> Csc<T> {
        let n = self.n;
        // Bucket the entries by column, keeping their push order.
        let mut start = vec![0usize; n + 1];
        for &c in &self.cols {
            start[c + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let nnz = self.vals.len();
        let mut ri = vec![0usize; nnz];
        let mut vx = vec![T::zero(); nnz];
        let mut next = start.clone();
        for k in 0..nnz {
            let c = self.cols[k];
            let dst = next[c];
            ri[dst] = self.rows[k];
            vx[dst] = self.vals[k];
            next[c] += 1;
        }
        Csc::from_columns(n, &start, &ri, &vx)
    }
}

/// Compressed sparse column matrix over scalar `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Compresses a matrix given column by column: column `j` holds the
    /// entries `rows[k]`, `vals[k]` for `k` in `col_ptr[j]..col_ptr[j + 1]`,
    /// in any row order. Each column is sorted by row in one reused buffer
    /// (a stable sort, so duplicates sum in the order given), duplicates
    /// are summed, and zero entries and zero sums are dropped.
    pub(crate) fn from_columns(n: usize, col_ptr: &[usize], rows: &[usize], vals: &[T]) -> Self {
        let mut out_ptr = Vec::with_capacity(n + 1);
        out_ptr.push(0);
        let mut out_ri = Vec::with_capacity(vals.len());
        let mut out_vx = Vec::with_capacity(vals.len());
        let mut entries: Vec<(usize, T)> = Vec::new();
        for j in 0..n {
            entries.clear();
            entries.extend(
                (col_ptr[j]..col_ptr[j + 1])
                    .filter(|&k| !vals[k].is_zero())
                    .map(|k| (rows[k], vals[k])),
            );
            entries.sort_by_key(|e| e.0);
            let mut it = entries.iter().copied();
            if let Some((mut r, mut v)) = it.next() {
                for (r2, v2) in it {
                    if r2 == r {
                        v += v2;
                    } else {
                        if !v.is_zero() {
                            out_ri.push(r);
                            out_vx.push(v);
                        }
                        r = r2;
                        v = v2;
                    }
                }
                if !v.is_zero() {
                    out_ri.push(r);
                    out_vx.push(v);
                }
            }
            out_ptr.push(out_ri.len());
        }
        Csc {
            n,
            col_ptr: out_ptr,
            row_idx: out_ri,
            vals: out_vx,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column pointer array (length `n + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (length `nnz`).
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values (length `nnz`).
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Iterates over the stored entries of column `j` as `(row, value)`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        (self.col_ptr[j]..self.col_ptr[j + 1]).map(move |k| (self.row_idx[k], self.vals[k]))
    }

    /// Value at `(row, col)`; zero when not stored.
    pub fn get(&self, row: usize, col: usize) -> T {
        for (r, v) in self.col_iter(col) {
            if r == row {
                return v;
            }
        }
        T::zero()
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "dimension mismatch in mul_vec");
        let mut y = vec![T::zero(); self.n];
        for (j, &xj) in x.iter().enumerate() {
            if xj.is_zero() {
                continue;
            }
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.vals[k] * xj;
            }
        }
        y
    }

    /// Transposed matrix-vector product `y = Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn mul_vec_transposed(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "dimension mismatch in mul_vec_transposed");
        let mut y = vec![T::zero(); self.n];
        for (j, yj) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                acc += self.vals[k] * x[self.row_idx[k]];
            }
            *yj = acc;
        }
        y
    }

    /// Densifies into a row-major `Vec<Vec<T>>` (testing/debugging helper).
    // The column index addresses *inner* vectors at scattered rows, so an
    // iterator over `d` cannot replace it.
    #[allow(clippy::needless_range_loop)]
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let mut d = vec![vec![T::zero(); self.n]; self.n];
        for j in 0..self.n {
            for (r, v) in self.col_iter(j) {
                d[r][j] = v;
            }
        }
        d
    }

    /// Maps values through `f`, preserving the pattern (used to lift a real
    /// pattern into a complex one, e.g. building `G + jωC`).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Csc<U> {
        Csc {
            n: self.n,
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Linear combination `a·self + b·other` (patterns may differ).
    ///
    /// # Panics
    ///
    /// Panics when the dimensions differ.
    pub fn linear_combination(&self, a: T, other: &Csc<T>, b: T) -> Csc<T> {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut t = Triplets::new(self.n);
        for j in 0..self.n {
            for (r, v) in self.col_iter(j) {
                t.push(r, j, a * v);
            }
            for (r, v) in other.col_iter(j) {
                t.push(r, j, b * v);
            }
        }
        t.to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc<f64> {
        let mut t = Triplets::new(3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(2, 2, 3.0);
        t.push(0, 2, 4.0);
        t.push(2, 0, 5.0);
        t.to_csc()
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(1, 1, 5.0);
        t.push(1, 1, -5.0);
        t.push(1, 0, 0.0); // dropped eagerly
        let m = t.to_csc();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn columns_sorted_by_row() {
        let mut t = Triplets::new(3);
        t.push(2, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(1, 0, 3.0);
        let m = t.to_csc();
        let rows: Vec<usize> = m.col_iter(0).map(|(r, _)| r).collect();
        assert_eq!(rows, vec![0, 1, 2]);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.mul_vec(&x);
        assert_eq!(y, vec![1.0 + 12.0, 4.0, 5.0 + 9.0]);
        let yt = m.mul_vec_transposed(&x);
        // A^T x: col j of A dotted with x.
        assert_eq!(yt, vec![1.0 + 15.0, 4.0, 4.0 + 9.0]);
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0][2], 4.0);
        assert_eq!(d[2][0], 5.0);
        assert_eq!(d[1][0], 0.0);
    }

    #[test]
    fn linear_combination_merges_patterns() {
        let mut ta = Triplets::new(2);
        ta.push(0, 0, 1.0);
        let mut tb = Triplets::new(2);
        tb.push(1, 1, 1.0);
        tb.push(0, 0, 2.0);
        let c = ta.to_csc().linear_combination(2.0, &tb.to_csc(), 3.0);
        assert_eq!(c.get(0, 0), 2.0 + 6.0);
        assert_eq!(c.get(1, 1), 3.0);
    }

    #[test]
    fn map_to_complex() {
        use awesym_linalg::Complex64;
        let m = sample();
        let c = m.map(|v| Complex64::new(0.0, v));
        assert_eq!(c.get(0, 2), Complex64::new(0.0, 4.0));
        assert_eq!(c.nnz(), m.nnz());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut t = Triplets::new(2);
        t.push(2, 0, 1.0);
    }
}
