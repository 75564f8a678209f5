//! Sparse-matrix substrate for AWEsymbolic.
//!
//! Circuit MNA matrices are large and very sparse (the paper's coupled-line
//! example has 1000 segments per line). This crate provides:
//!
//! - [`Triplets`]: a coordinate-format builder that sums duplicates — the
//!   natural target for MNA stamping;
//! - [`Csc`]: compressed sparse column storage with matrix-vector products;
//! - [`SparseLu`]: a left-looking (Gilbert–Peierls) LU factorization with
//!   threshold partial pivoting and a fill-reducing minimum-degree column
//!   ordering, generic over real and complex scalars.
//!
//! The factorization is reusable: AWE factors the conductance matrix `G`
//! once and computes every moment with one forward/backward substitution.
//!
//! # Example
//!
//! ```
//! use awesym_sparse::{SparseLu, Triplets};
//!
//! # fn main() -> Result<(), awesym_linalg::LinalgError> {
//! let mut t = Triplets::new(2);
//! t.push(0, 0, 2.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let lu = SparseLu::factor(&t.to_csc(), Default::default())?;
//! let x = lu.solve(&[1.0, 2.0]);
//! assert!((2.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod csc;
mod lu;
mod ordering;

pub use csc::{Csc, Triplets};
pub use lu::{LuOptions, SparseLu};
#[doc(hidden)]
pub use ordering::min_degree_order_scan;
pub use ordering::{min_degree_order, Ordering};
