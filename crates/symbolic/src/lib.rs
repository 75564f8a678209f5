//! Symbolic-algebra substrate for AWEsymbolic.
//!
//! The paper delegated its symbolic computation to Mathematica; this crate
//! is the from-scratch Rust equivalent, scoped to exactly what symbolic AWE
//! needs:
//!
//! - [`SymbolSet`] — interned symbol names (the circuit elements treated as
//!   symbols);
//! - [`MPoly`] — multivariate polynomials with `f64` coefficients (the
//!   paper proves the network-function coefficients are multilinear in the
//!   symbols, so polynomial degree stays tiny);
//! - [`Ratio`] — rational functions `num/den`;
//! - [`SMat`] — symbolic matrices with division-free determinant,
//!   adjugate and Cramer solves (subset-sum Laplace expansion, numerically
//!   safe with floating coefficients);
//! - [`ExprGraph`]/[`Tape`] — a hash-consed expression DAG with constant
//!   folding and common-subexpression elimination that *compiles* symbolic
//!   forms into a flat register program. Evaluating the tape at given
//!   symbol values is the paper's "compiled set of operations" whose
//!   incremental cost is orders of magnitude below a full AWE analysis;
//! - [`opt`] — the optimizing pass pipeline (constant folding, CSE,
//!   neg/sub and mul-add fusion, dead-op elimination, register reuse)
//!   that [`ExprGraph::compile`] runs by default;
//! - [`Evaluator`] — the unified evaluation surface: owned scratch,
//!   single-point `eval_into`, and a vectorized `eval_batch` kernel
//!   (see [`lanes`]: 32-point blocks of f64 lanes with register tiling,
//!   hoisted const/sym loads, and a bit-identical scalar tail).
//!
//! # Example
//!
//! ```
//! use awesym_symbolic::{MPoly, SymbolSet};
//!
//! let mut syms = SymbolSet::new();
//! let g1 = syms.intern("g1");
//! let g2 = syms.intern("g2");
//! // p = g1·g2 + 2
//! let p = MPoly::var(&syms, g1)
//!     .mul(&MPoly::var(&syms, g2))
//!     .add(&MPoly::constant(syms.len(), 2.0));
//! assert_eq!(p.eval(&[3.0, 4.0]), 14.0);
//! ```

#![forbid(unsafe_code)]

mod eval;
mod expr;
pub mod lanes;
mod mpoly;
pub mod opt;
mod ratio;
mod smat;
mod symbols;

pub use eval::{AffineTail, BatchShapeError, Evaluator};
pub use expr::{CompiledFn, ExprGraph, ExprId, Tape, TapeOp};
pub use lanes::MAX_BLOCK_POINTS;
pub use mpoly::MPoly;
pub use opt::{CompileOptions, OptLevel};
pub use ratio::Ratio;
pub use smat::SMat;
pub use symbols::{Sym, SymbolSet};
