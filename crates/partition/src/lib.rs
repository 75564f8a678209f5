//! Moment-level partitioning and compiled symbolic AWE — the paper's core
//! contribution.
//!
//! Given a circuit and a set of *symbolic elements* (chosen by hand or by
//! AWEsensitivity), this crate:
//!
//! 1. splits the MNA unknowns into a large *numeric* partition and a small
//!    *port* set touched by the symbols, the input, and the output
//!    ([`SymbolicSystem`]);
//! 2. reduces the numeric partition to its multiport admittance moment
//!    matrices `Y_0, Y_1, …` with one sparse factorization (the Schur
//!    complement of the internal block is exactly the paper's multiport
//!    Y-parameter representation);
//! 3. stencils the symbol stamps into the small global matrices
//!    `Ŷ_k = Y_k + Σ_e σ_e·S_{e,k}` and runs the moment recursion
//!    *symbolically*, producing each transfer-function moment as a
//!    polynomial quotient `m_k(σ) = P_k(σ)/D(σ)^{k+1}` with
//!    `D = det(Ŷ_0)`;
//! 4. compiles the symbolic moments into an evaluation tape
//!    ([`CompiledModel`]): evaluating the model at concrete symbol values
//!    replays the tape and runs a tiny `q×q` Padé solve — the compiled
//!    reduced set of operations whose incremental cost the paper measures
//!    at four to five orders of magnitude below a full AWE analysis.
//!
//! The crate also contains [`exact`], a full symbolic MNA solver for small
//! circuits that reproduces the paper's eq. (5)/(6) and serves as ground
//! truth (and as the "exact symbolic analysis does not scale" baseline).
//!
//! # Example
//!
//! ```
//! use awesym_circuit::generators::fig1_rc;
//! use awesym_partition::{CompiledModel, SymbolBinding};
//!
//! # fn main() -> Result<(), awesym_partition::PartitionError> {
//! let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
//! let c2 = w.circuit.find("C2").unwrap();
//! let model = CompiledModel::build(
//!     &w.circuit,
//!     w.input,
//!     w.output,
//!     &[SymbolBinding::capacitance("c2", vec![c2])],
//!     2,
//! )?;
//! // Evaluate the compiled model at a new value of C2.
//! let m = model.eval_moments(&[2e-9]);
//! assert!((m[0] - 1.0).abs() < 1e-9); // DC gain is 1 for any C2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod assemble;
mod binding;
mod error;
pub mod exact;
mod model;
mod symmoments;

pub use assemble::{SymbolicSystem, MAX_ORDER, MAX_PORTS};
pub use awesym_symbolic::{AffineTail, Evaluator, OptLevel};
pub use binding::{apply_symbol_values, SymbolBinding, SymbolRole};
pub use error::PartitionError;
pub use model::{CompiledModel, Degradation, ModelOptions};
pub use symmoments::SymbolicMoments;
