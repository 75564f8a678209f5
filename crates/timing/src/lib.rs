//! # awesym-timing
//!
//! Symbolic gate-chain timing analysis and a streaming Monte Carlo yield
//! engine on top of the AWEsymbolic compiled-model stack.
//!
//! The crate splits into four layers:
//!
//! - [`sample`] — counter-based per-block RNG ([`sample::BlockRng`]):
//!   `(seed, block_index)` fully determines every draw, so results never
//!   depend on thread scheduling;
//! - [`accum`] — merge-order-invariant online statistics
//!   ([`accum::YieldAccumulator`]): Welford moments via per-block partials
//!   folded in canonical order, fixed log-grid quantiles, exact
//!   yield/invalid counters — O(1) memory in the sample count;
//! - [`chain`] — the timing model ([`chain::GateChain`]): each logic stage
//!   compiles to an optimized moment tape over `rdrv`/`cload` symbols, and
//!   the path delay composes per-stage 50 %-delay metrics under shared
//!   global + per-stage process variation;
//! - [`engine`] — the streaming engine ([`engine::McEngine`]): each run's
//!   scoped threads steal whole blocks from an atomic counter, drive the
//!   lane kernel through `Evaluator::eval_columns`, and return
//!   accumulators that merge bit-identically at any worker count.
//!
//! See `docs/timing.md` for the model, symbol conventions, the determinism
//! guarantee, and CLI usage (`awesym timing`).
//!
//! ```
//! use awesym_timing::{ChainSpec, GateChain, McConfig, McEngine, QuantileGrid};
//! use std::sync::Arc;
//!
//! let chain = GateChain::compile(&ChainSpec::uniform(2)).unwrap();
//! let grid = QuantileGrid::around(chain.nominal_delay(), 64.0, 512);
//! let deadline = 1.25 * chain.nominal_delay();
//! let registry = awesym_obs::Registry::new();
//! let engine = McEngine::new(Arc::new(chain), 2, &registry);
//! let report = engine.run(&McConfig::new(10_000, 42, grid).with_deadline(deadline));
//! assert_eq!(report.summary.samples, 10_000);
//! assert!(report.summary.yield_fraction.unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod chain;
pub mod engine;
pub mod sample;

pub use accum::{BlockPartial, QuantileGrid, Summary, Welford, YieldAccumulator};
pub use chain::{ChainSpec, CompiledStage, DelayMetric, GateChain, StageSpec};
pub use engine::{BlockSpec, BlockWorker, McConfig, McEngine, McReport, McTask};
pub use sample::BlockRng;
