//! Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting.
//!
//! The algorithm follows the classical formulation: for each column of the
//! (column-permuted) matrix, a depth-first search over the pattern of the
//! already-computed `L` determines which entries fill in, a sparse
//! triangular solve computes the column, and a pivot row is chosen among
//! the not-yet-pivotal rows with a diagonal preference controlled by a
//! threshold.

use crate::csc::Csc;
use crate::ordering::{min_degree_order, Ordering};
use awesym_linalg::{LinalgError, Scalar};

/// Options controlling [`SparseLu::factor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuOptions {
    /// Column ordering strategy.
    pub ordering: Ordering,
    /// Partial-pivoting threshold in `(0, 1]`: the diagonal entry is kept as
    /// pivot when its magnitude is at least `threshold` times the largest
    /// eligible magnitude in the column. `1.0` is classical partial pivoting.
    pub threshold: f64,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            ordering: Ordering::MinDegree,
            threshold: 1e-3,
        }
    }
}

/// A sparse LU factorization `P A Q = L U`.
///
/// Factor once, then call [`SparseLu::solve`] (and
/// [`SparseLu::solve_transposed`] for adjoint/sensitivity analysis) for any
/// number of right-hand sides.
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    n: usize,
    /// L in CSC, unit diagonal stored, rows in pivot order.
    l: Csc<T>,
    /// U in CSC, diagonal stored last per column, rows in pivot order.
    u: Csc<T>,
    /// `row_perm[k]` = original row that is pivot `k`.
    row_perm: Vec<usize>,
    /// `col_perm[k]` = original column eliminated at step `k`.
    col_perm: Vec<usize>,
}

impl<T: Scalar> SparseLu<T> {
    /// Factors a square sparse matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when a column has no usable pivot.
    pub fn factor(a: &Csc<T>, opts: LuOptions) -> Result<Self, LinalgError> {
        let n = a.dim();
        let col_perm = match opts.ordering {
            Ordering::Natural => (0..n).collect::<Vec<_>>(),
            Ordering::MinDegree => min_degree_order(a),
        };
        // pinv[orig_row] = pivot position, or usize::MAX when unpivoted.
        let mut pinv = vec![usize::MAX; n];
        let mut row_perm = vec![0usize; n];

        // L and U built column by column. L row indices are original rows
        // during the factorization; they are remapped through pinv at the end.
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();

        // Workspaces.
        let mut x = vec![T::zero(); n];
        let mut mark = vec![usize::MAX; n]; // visitation stamp per original row
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (orig row, next child idx)
        let mut topo: Vec<usize> = Vec::new();

        for k in 0..n {
            let j = col_perm[k];
            // --- Symbolic: find the reach of A(:,j) through pivotal columns of L.
            topo.clear();
            for (r0, _) in a.col_iter(j) {
                if mark[r0] == k {
                    continue;
                }
                // DFS from r0, iterative with explicit child cursors.
                stack.push((r0, 0));
                mark[r0] = k;
                while !stack.is_empty() {
                    let top = stack.len() - 1;
                    let (r, child) = stack[top];
                    let piv = pinv[r];
                    if piv == usize::MAX {
                        // Non-pivotal row: leaf.
                        topo.push(r);
                        stack.pop();
                        continue;
                    }
                    // Children are the below-diagonal rows of L column `piv`.
                    let lo = l_colptr[piv];
                    let hi = l_colptr[piv + 1];
                    let mut c = child;
                    let mut pushed = false;
                    while lo + c < hi {
                        let rr = l_rows[lo + c];
                        c += 1;
                        if mark[rr] != k {
                            mark[rr] = k;
                            stack[top].1 = c;
                            stack.push((rr, 0));
                            pushed = true;
                            break;
                        }
                    }
                    if !pushed {
                        // All children visited: finish this node.
                        topo.push(r);
                        stack.pop();
                    }
                }
            }
            // topo now holds the reach in reverse topological order
            // (children appear before parents), so iterate in reverse for the
            // forward triangular solve.

            // --- Numeric: scatter A(:,j), then eliminate.
            for &r in topo.iter() {
                x[r] = T::zero();
            }
            for (r, v) in a.col_iter(j) {
                x[r] = v;
            }
            for idx in (0..topo.len()).rev() {
                let r = topo[idx];
                let piv = pinv[r];
                if piv == usize::MAX {
                    continue;
                }
                let xr = x[r];
                if xr.is_zero() {
                    continue;
                }
                // x -= L(:,piv) * x[r]  (unit diagonal implicit here; the
                // stored column contains the below-diagonal entries with
                // original row indices plus the diagonal 1 first).
                let lo = l_colptr[piv];
                let hi = l_colptr[piv + 1];
                for t in lo..hi {
                    let rr = l_rows[t];
                    let lv = l_vals[t];
                    x[rr] -= lv * xr;
                }
            }

            // --- Pivot selection among non-pivotal rows.
            let mut max_mag = 0.0_f64;
            let mut best_row = usize::MAX;
            let mut diag_row = usize::MAX;
            for &r in topo.iter() {
                if pinv[r] == usize::MAX {
                    let m = x[r].modulus();
                    if r == j {
                        diag_row = r;
                    }
                    if m > max_mag {
                        max_mag = m;
                        best_row = r;
                    }
                }
            }
            if best_row == usize::MAX || max_mag == 0.0 {
                return Err(LinalgError::Singular { step: k });
            }
            let pivot_row =
                if diag_row != usize::MAX && x[diag_row].modulus() >= opts.threshold * max_mag {
                    diag_row
                } else {
                    best_row
                };
            let pivot = x[pivot_row];
            pinv[pivot_row] = k;
            row_perm[k] = pivot_row;

            // --- Emit U column k (rows already pivotal), diagonal last.
            for &r in topo.iter().rev() {
                let piv = pinv[r];
                if piv != usize::MAX && r != pivot_row && piv < k && !x[r].is_zero() {
                    u_rows.push(piv);
                    u_vals.push(x[r]);
                }
            }
            u_rows.push(k);
            u_vals.push(pivot);
            u_colptr.push(u_rows.len());

            // --- Emit L column k: unit diagonal then below-diagonal entries
            // (original row indices for now).
            for &r in topo.iter() {
                if pinv[r] == usize::MAX && !x[r].is_zero() {
                    l_rows.push(r);
                    l_vals.push(x[r] / pivot);
                }
            }
            l_colptr.push(l_rows.len());
        }

        // Remap L's row indices into pivot order and sort columns.
        for r in l_rows.iter_mut() {
            *r = pinv[*r];
        }
        let l = Csc::from_columns(n, &l_colptr, &l_rows, &l_vals);
        let u = Csc::from_columns(n, &u_colptr, &u_rows, &u_vals);
        Ok(SparseLu {
            n,
            l,
            u,
            row_perm,
            col_perm,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in `L + U` (fill-in indicator).
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        // y = L \ (P b)
        let mut y: Vec<T> = (0..self.n).map(|k| b[self.row_perm[k]]).collect();
        for k in 0..self.n {
            let yk = y[k];
            if yk.is_zero() {
                continue;
            }
            for (r, v) in self.l.col_iter(k) {
                y[r] -= v * yk;
            }
        }
        // z = U \ y  (U diagonal stored last per column)
        for k in (0..self.n).rev() {
            let lo = self.u.col_ptr()[k];
            let hi = self.u.col_ptr()[k + 1];
            let diag = self.u.values()[hi - 1];
            let zk = y[k] / diag;
            y[k] = zk;
            if zk.is_zero() {
                continue;
            }
            for t in lo..hi - 1 {
                let r = self.u.row_idx()[t];
                y[r] -= self.u.values()[t] * zk;
            }
        }
        // x = Q z
        let mut x = vec![T::zero(); self.n];
        for k in 0..self.n {
            x[self.col_perm[k]] = y[k];
        }
        x
    }

    /// Solves `Aᵀ x = b` (the adjoint system used by sensitivity analysis).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        // Aᵀ = Qᵀ⁻¹ Uᵀ Lᵀ P…: with P A Q = L U,  Aᵀ = Q Uᵀ Lᵀ P in
        // permutation-matrix notation; solve Uᵀ w = Qᵀ b, Lᵀ v = w, x = Pᵀ v.
        let mut w: Vec<T> = (0..self.n).map(|k| b[self.col_perm[k]]).collect();
        // Uᵀ is lower triangular: forward solve using columns of U as rows.
        for k in 0..self.n {
            let lo = self.u.col_ptr()[k];
            let hi = self.u.col_ptr()[k + 1];
            let mut acc = w[k];
            for t in lo..hi - 1 {
                let r = self.u.row_idx()[t];
                acc -= self.u.values()[t] * w[r];
            }
            w[k] = acc / self.u.values()[hi - 1];
        }
        // Lᵀ is upper triangular with unit diagonal: backward solve.
        for k in (0..self.n).rev() {
            let mut acc = w[k];
            for (r, v) in self.l.col_iter(k) {
                acc -= v * w[r];
            }
            w[k] = acc;
        }
        let mut x = vec![T::zero(); self.n];
        for k in 0..self.n {
            x[self.row_perm[k]] = w[k];
        }
        x
    }

    /// Determinant of the original matrix (product of pivots with the
    /// permutation parities folded in).
    pub fn det(&self) -> T {
        let mut d = T::one();
        for k in 0..self.n {
            let hi = self.u.col_ptr()[k + 1];
            d *= self.u.values()[hi - 1];
        }
        let sign = perm_sign(&self.row_perm) * perm_sign(&self.col_perm);
        d * T::from_f64(sign)
    }
}

fn perm_sign(p: &[usize]) -> f64 {
    let mut seen = vec![false; p.len()];
    let mut sign = 1.0;
    for start in 0..p.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = p[i];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;
    use awesym_linalg::Complex64;

    fn ladder(n: usize) -> Csc<f64> {
        // Tridiagonal SPD conductance matrix of an RC ladder.
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 2.0 + 0.1 * i as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    fn check_solution(a: &Csc<f64>, lu: &SparseLu<f64>, x_true: &[f64]) {
        let b = a.mul_vec(x_true);
        let x = lu.solve(&b);
        for (p, q) in x.iter().zip(x_true.iter()) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
    }

    #[test]
    fn solve_tridiagonal() {
        for n in [1, 2, 3, 10, 100] {
            let a = ladder(n);
            let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
            check_solution(&a, &lu, &x_true);
        }
    }

    #[test]
    fn natural_ordering_also_works() {
        let a = ladder(50);
        let lu = SparseLu::factor(
            &a,
            LuOptions {
                ordering: Ordering::Natural,
                threshold: 1.0,
            },
        )
        .unwrap();
        check_solution(&a, &lu, &vec![1.0; 50]);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] requires row exchange.
        let mut t = Triplets::new(2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
        let x = lu.solve(&[3.0, 4.0]);
        assert!((x[0] - 4.0).abs() < 1e-14 && (x[1] - 3.0).abs() < 1e-14);
        assert!((lu.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn mna_like_indefinite_matrix() {
        // MNA with a voltage source has a zero diagonal block:
        // [ G  B ] [v]   [0]
        // [ Bᵀ 0 ] [i] = [E]
        let mut t = Triplets::new(3);
        t.push(0, 0, 1.0); // conductance to ground at node 0
        t.push(1, 1, 2.0);
        t.push(0, 2, 1.0); // source branch into node 0
        t.push(2, 0, 1.0);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
        let x_true = [5.0, 0.0, -5.0];
        check_solution(&a, &lu, &x_true);
    }

    #[test]
    fn transposed_solve() {
        let a = ladder(20);
        // Make it unsymmetric so the transpose matters.
        let mut t = Triplets::new(20);
        for j in 0..20 {
            for (r, v) in a.col_iter(j) {
                t.push(r, j, if r < j { 0.5 * v } else { v });
            }
        }
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
        let x_true: Vec<f64> = (0..20).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b = a.mul_vec_transposed(&x_true);
        let x = lu.solve_transposed(&b);
        for (p, q) in x.iter().zip(x_true.iter()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn determinant_matches_dense() {
        let a = ladder(6);
        let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
        let dense = awesym_linalg::Mat::from_fn(6, 6, |i, j| a.get(i, j));
        assert!((lu.det() - dense.det()).abs() < 1e-9 * dense.det().abs());
    }

    #[test]
    fn singular_matrix_detected() {
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        assert!(matches!(
            SparseLu::factor(&t.to_csc(), LuOptions::default()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_detected() {
        // Empty column.
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        assert!(SparseLu::factor(&t.to_csc(), LuOptions::default()).is_err());
    }

    #[test]
    fn complex_factorization() {
        let n = 8;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, Complex64::new(2.0, 0.5 * i as f64));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(-1.0, 0.1));
                t.push(i + 1, i, Complex64::new(-1.0, -0.1));
            }
        }
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).unwrap();
        let x_true: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, -1.0)).collect();
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b);
        for (p, q) in x.iter().zip(x_true.iter()) {
            assert!((*p - *q).abs() < 1e-9);
        }
    }

    #[test]
    fn random_sparse_vs_dense() {
        // Pseudo-random sparse matrices cross-checked against dense LU.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..10 {
            let n = 5 + trial;
            let mut t = Triplets::new(n);
            for i in 0..n {
                t.push(i, i, 1.0 + rnd());
                for _ in 0..2 {
                    let j = (rnd() * n as f64) as usize % n;
                    t.push(i, j, rnd() - 0.5);
                }
            }
            let a = t.to_csc();
            let dense = awesym_linalg::Mat::from_fn(n, n, |i, j| a.get(i, j));
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b = a.mul_vec(&x_true);
            let xs = SparseLu::factor(&a, LuOptions::default())
                .unwrap()
                .solve(&b);
            let xd = dense.solve(&b).unwrap();
            for (p, q) in xs.iter().zip(xd.iter()) {
                assert!((p - q).abs() < 1e-8, "trial {trial}");
            }
        }
    }
}
