//! Asymptotic Waveform Evaluation (AWE) — the cornerstone of AWEsymbolic.
//!
//! AWE (Pillage & Rohrer, 1990) approximates the response of a large linear
//! circuit by matching the leading *moments* of its transfer function with a
//! low-order Padé model:
//!
//! 1. [`MomentEngine`] factors the MNA conductance matrix `G` once and
//!    computes moment vectors `X_0 = G⁻¹ b`, `X_k = −G⁻¹ C X_{k−1}`; the
//!    output moments are `m_k = lᵀ X_k`.
//! 2. [`pade_rom`] turns `2q` moments into a `q`-pole reduced-order model
//!    ([`Rom`]) through a frequency-scaled Hankel solve, polynomial root
//!    extraction and a residue (Vandermonde) solve.
//! 3. [`Rom`] evaluates frequency responses, impulse/step responses and the
//!    performance metrics the paper plots (DC gain, dominant pole,
//!    unity-gain frequency, phase margin, delay, cross-talk peak).
//! 4. [`sensitivity`] implements AWEsensitivity: adjoint moment
//!    sensitivities chained into pole/zero sensitivities, used to select
//!    the symbolic elements automatically.
//!
//! # Example
//!
//! ```
//! use awesym_circuit::generators::rc_ladder;
//! use awesym_awe::AweAnalysis;
//!
//! # fn main() -> Result<(), awesym_awe::AweError> {
//! let w = rc_ladder(50, 10.0, 1e-12);
//! let awe = AweAnalysis::new(&w.circuit, w.input, w.output)?;
//! let rom = awe.rom(2)?;
//! assert!((rom.dc_gain() - 1.0).abs() < 1e-9);
//! assert!(rom.is_stable());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod analysis;
pub mod delay;
mod error;
mod moments;
mod pade;
mod rom;
pub mod sensitivity;

pub use analysis::AweAnalysis;
pub use delay::{delay_estimates, DelayEstimates};
pub use error::AweError;
pub use moments::{MomentEngine, Moments};
pub use pade::pade_rom;
pub use rom::Rom;
