//! Gate-chain timing models: a path of logic stages, each a linearized RC
//! driver/interconnect/load segment, compiled to per-stage analytic delay
//! tapes and composed into a single path-delay function over shared
//! process symbols.
//!
//! This is the "Symbolic Timing Analysis of Digital Circuits Using
//! Analytic Delay Functions" workload mapped onto AWEsymbolic: each stage
//! becomes a [`awesym_circuit::generators::gate_stage`] circuit whose
//! driver resistance and load capacitance carry symbols, compiled once via
//! the partition/symbolic/AWE pipeline (`symbolic::opt`-optimized tape),
//! and evaluated millions of times by the streaming Monte Carlo engine.
//!
//! ## Process-variation model
//!
//! Every sample draws, in a pinned order from the block's [`BlockRng`]:
//!
//! 1. `g_r`, `g_c` — **global** (chip-wide) log-normal factors shared by
//!    every stage's driver resistance / load capacitance;
//! 2. per stage, in path order: `l_r`, `l_c` — **local** (per-gate)
//!    log-normal factors.
//!
//! Stage `i` is then evaluated at `(Rdrv_i · g_r · l_r, Cload_i · g_c ·
//! l_c)`, and the path delay is the sum of per-stage 50 %-delay metrics
//! computed from each stage's compiled moments.

use crate::sample::BlockRng;
use crate::{BlockSpec, BlockWorker, McTask};
use awesym_circuit::generators::gate_stage;
use awesym_partition::{CompiledModel, ModelOptions, PartitionError, SymbolBinding};
use awesym_symbolic::Evaluator;

/// Which moment-based 50 %-delay metric each stage contributes.
///
/// See `awesym_awe::delay_estimates` for the family; the streaming engine
/// recomputes the chosen metric inline from the tape's moment outputs so
/// the per-sample cost stays a handful of flops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DelayMetric {
    /// `ln2 · (−m₁)` — the step-delay Elmore heuristic. Cheapest.
    Elmore,
    /// `ln2 · m₁²/√m₂` (D2M), falling back to Elmore where `m₂ ≤ 0`.
    /// The default: markedly better than Elmore near resistance-dominated
    /// nodes at the same per-sample cost class.
    D2m,
    /// 50 % crossing of the two-pole reduced model (full Padé + Newton
    /// solve per stage per sample) — the accuracy reference, roughly an
    /// order of magnitude slower than the closed-form metrics.
    TwoPole,
}

impl std::str::FromStr for DelayMetric {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "elmore" => Ok(DelayMetric::Elmore),
            "d2m" => Ok(DelayMetric::D2m),
            "two-pole" | "two_pole" => Ok(DelayMetric::TwoPole),
            other => Err(format!(
                "unknown metric '{other}' (expected elmore|d2m|two-pole)"
            )),
        }
    }
}

/// One logic stage of a path: linearized driver, lumped interconnect,
/// receiver load, plus the local variation sigmas.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSpec {
    /// Stage name (reported in the chain summary).
    pub name: String,
    /// Driver on-resistance (Ω).
    pub rdrv: f64,
    /// Lumped wire segments.
    pub segments: usize,
    /// Total wire resistance (Ω).
    pub r_wire: f64,
    /// Total wire-to-ground capacitance (F).
    pub c_wire: f64,
    /// Receiver input capacitance (F).
    pub cload: f64,
    /// Local log-normal sigma on the driver resistance.
    pub sigma_rdrv: f64,
    /// Local log-normal sigma on the load capacitance.
    pub sigma_cload: f64,
}

/// A full path specification: the stages plus the chip-wide variation
/// terms and modeling knobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChainSpec {
    /// Stages in path order.
    pub stages: Vec<StageSpec>,
    /// Global log-normal sigma shared by every stage's driver resistance.
    pub sigma_global_r: f64,
    /// Global log-normal sigma shared by every stage's load capacitance.
    pub sigma_global_c: f64,
    /// AWE model order per stage (2 matches the paper's workhorse order).
    pub order: usize,
    /// Per-stage delay metric.
    pub metric: DelayMetric,
}

impl ChainSpec {
    /// A uniform `n`-stage chain with early-90s-flavored stage constants
    /// (120 Ω drivers, 80 Ω / 0.4 pF wires over 8 segments, 25 fF loads)
    /// and 8 % local / 5 % global sigmas — the default CLI and benchmark
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one stage");
        ChainSpec {
            stages: (0..n)
                .map(|i| StageSpec {
                    name: format!("stage{i}"),
                    rdrv: 120.0,
                    segments: 8,
                    r_wire: 80.0,
                    c_wire: 0.4e-12,
                    cload: 25e-15,
                    sigma_rdrv: 0.08,
                    sigma_cload: 0.08,
                })
                .collect(),
            sigma_global_r: 0.05,
            sigma_global_c: 0.05,
            order: 2,
            metric: DelayMetric::D2m,
        }
    }
}

/// A compiled stage: the optimized moment tape plus its nominal symbol
/// values and sigmas.
#[derive(Debug, Clone)]
pub struct CompiledStage {
    /// Stage name from the spec.
    pub name: String,
    /// Compiled symbolic model over `[rdrv, cload]`.
    pub model: CompiledModel,
    /// Nominal `(rdrv, cload)`.
    pub nominal: [f64; 2],
    /// Local `(sigma_rdrv, sigma_cload)`.
    pub sigma: [f64; 2],
}

/// The composed path-delay function: per-stage compiled tapes sharing the
/// global process symbols, plus everything the streaming engine needs to
/// turn a `(seed, block)` pair into a block of path delays.
#[derive(Debug, Clone)]
pub struct GateChain {
    spec: ChainSpec,
    stages: Vec<CompiledStage>,
    nominal_delay: f64,
}

impl GateChain {
    /// Builds each stage's circuit, binds `rdrv`/`cload` symbols, and
    /// compiles the per-stage moment tapes (shared-subexpression
    /// optimized, `symbolic::opt` full pipeline).
    ///
    /// # Errors
    ///
    /// Propagates model-compilation failures; rejects an empty spec or a
    /// stage whose nominal delay metric is not finite and positive.
    pub fn compile(spec: &ChainSpec) -> Result<Self, PartitionError> {
        if spec.stages.is_empty() {
            return Err(PartitionError::BadBinding {
                what: "chain has no stages".into(),
            });
        }
        let mut stages = Vec::with_capacity(spec.stages.len());
        let mut nominal_delay = 0.0;
        for s in &spec.stages {
            let w = gate_stage(s.rdrv, s.segments, s.r_wire, s.c_wire, s.cload);
            let rdrv = w.circuit.find("Rdrv").expect("gate_stage names Rdrv");
            let cload = w.circuit.find("Cload").expect("gate_stage names Cload");
            let bindings = [
                SymbolBinding::resistance("rdrv", vec![rdrv]),
                SymbolBinding::capacitance("cload", vec![cload]),
            ];
            let model = CompiledModel::build_with_options(
                &w.circuit,
                w.input,
                w.output,
                &bindings,
                ModelOptions::order(spec.order),
            )?;
            let m = model.eval_moments(&[s.rdrv, s.cload]);
            let d = stage_delay(&m, spec.metric);
            if !(d.is_finite() && d > 0.0) {
                return Err(PartitionError::BadBinding {
                    what: format!("stage '{}' has no valid nominal delay ({d})", s.name),
                });
            }
            nominal_delay += d;
            stages.push(CompiledStage {
                name: s.name.clone(),
                model,
                nominal: [s.rdrv, s.cload],
                sigma: [s.sigma_rdrv, s.sigma_cload],
            });
        }
        Ok(GateChain {
            spec: spec.clone(),
            stages,
            nominal_delay,
        })
    }

    /// The spec this chain was compiled from.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The compiled stages, in path order.
    pub fn stages(&self) -> &[CompiledStage] {
        &self.stages
    }

    /// Path delay with every variation factor at its median (sum of
    /// per-stage nominal metrics) — the natural center for the quantile
    /// grid and the deadline default.
    pub fn nominal_delay(&self) -> f64 {
        self.nominal_delay
    }

    /// Total optimized tape instructions across stages.
    pub fn op_count(&self) -> usize {
        self.stages.iter().map(|s| s.model.op_count()).sum()
    }

    /// Path delay of one concrete sample given its variation factors —
    /// the scalar reference the streaming engine's batch path must match
    /// bit for bit (used by tests).
    pub fn sample_delay(&self, g: [f64; 2], locals: &[[f64; 2]]) -> f64 {
        assert_eq!(locals.len(), self.stages.len(), "one local pair per stage");
        let mut total = 0.0;
        for (stage, l) in self.stages.iter().zip(locals) {
            let vals = [
                stage.nominal[0] * g[0] * l[0],
                stage.nominal[1] * g[1] * l[1],
            ];
            let m = stage.model.eval_moments(&vals);
            total += stage_delay(&m, self.spec.metric);
        }
        total
    }
}

/// The chosen 50 %-delay metric from one stage's moment vector. Returns
/// NaN when the metric cannot be formed — the engine's invalid-sample
/// sentinel.
#[inline]
pub fn stage_delay(m: &[f64], metric: DelayMetric) -> f64 {
    let ln2 = std::f64::consts::LN_2;
    let elmore = -m[1];
    match metric {
        DelayMetric::Elmore => ln2 * elmore,
        DelayMetric::D2m => {
            if m.len() >= 3 && m[2] > 0.0 {
                ln2 * m[1] * m[1] / m[2].sqrt()
            } else {
                ln2 * elmore
            }
        }
        DelayMetric::TwoPole => awesym_awe::delay_estimates(m)
            .ok()
            .and_then(|d| d.two_pole)
            .unwrap_or(f64::NAN),
    }
}

/// Per-worker state for a [`GateChain`] run: one [`Evaluator`] per stage
/// (owned scratch and lane register file, reused across every block the
/// worker processes) plus flat column-major buffers for a block's symbol
/// values and one stage's moments.
pub struct ChainWorker<'a> {
    chain: &'a GateChain,
    evals: Vec<Evaluator<'a>>,
    /// The block's stage inputs: symbol `k` of sample `j` at stage `s` is
    /// `points[(2 * s + k) * count + j]`.
    points: Vec<f64>,
    /// One stage's moments: moment `k` of sample `j` is
    /// `moments[k * count + j]`.
    moments: Vec<f64>,
    /// One sample's moments, gathered for the delay metric.
    row: Vec<f64>,
}

impl<'a> ChainWorker<'a> {
    fn new(chain: &'a GateChain) -> Self {
        ChainWorker {
            evals: chain.stages.iter().map(|s| s.model.evaluator()).collect(),
            points: Vec::new(),
            moments: Vec::new(),
            row: Vec::new(),
            chain,
        }
    }
}

impl BlockWorker for ChainWorker<'_> {
    fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
        let chain = self.chain;
        let count = block.count;
        self.points.resize(2 * chain.stages.len() * count, 0.0);
        // Draw order (per sample): global pair, then each stage's local
        // pair in path order. Pinned — see module docs.
        let mut rng = BlockRng::new(block.seed, block.index);
        for j in 0..count {
            let g_r = rng.log_normal(chain.spec.sigma_global_r);
            let g_c = rng.log_normal(chain.spec.sigma_global_c);
            for (s, stage) in chain.stages.iter().enumerate() {
                let l_r = rng.log_normal(stage.sigma[0]);
                let l_c = rng.log_normal(stage.sigma[1]);
                self.points[2 * s * count + j] = stage.nominal[0] * g_r * l_r;
                self.points[(2 * s + 1) * count + j] = stage.nominal[1] * g_c * l_c;
            }
        }
        out.clear();
        out.resize(count, 0.0);
        for (s, ev) in self.evals.iter().enumerate() {
            let n_out = ev.n_outputs();
            self.moments.resize(n_out * count, 0.0);
            self.row.resize(n_out, 0.0);
            ev.eval_columns(
                &self.points[2 * s * count..],
                count,
                count,
                &mut self.moments,
                count,
            )
            .expect("stage buffers are sized for the stage tape");
            for (j, o) in out.iter_mut().enumerate() {
                for (k, m) in self.row.iter_mut().enumerate() {
                    *m = self.moments[k * count + j];
                }
                // NaN from any stage poisons the sample's sum, which the
                // accumulator then counts as invalid.
                *o += stage_delay(&self.row, chain.spec.metric);
            }
        }
    }
}

impl McTask for GateChain {
    type Worker<'a> = ChainWorker<'a>;
    fn make_worker(&self) -> ChainWorker<'_> {
        ChainWorker::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ChainSpec {
        let mut spec = ChainSpec::uniform(3);
        for s in &mut spec.stages {
            s.segments = 2;
        }
        spec
    }

    #[test]
    fn compile_and_nominal_delay() {
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        assert_eq!(chain.stages().len(), 3);
        assert!(chain.nominal_delay() > 0.0);
        assert!(chain.op_count() > 0);
        // Uniform chain: nominal = 3 × single-stage delay.
        let single = GateChain::compile(&ChainSpec {
            stages: tiny_spec().stages[..1].to_vec(),
            ..tiny_spec()
        })
        .unwrap();
        let ratio = chain.nominal_delay() / single.nominal_delay();
        assert!((ratio - 3.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn empty_chain_rejected() {
        let spec = ChainSpec {
            stages: Vec::new(),
            ..ChainSpec::uniform(1)
        };
        assert!(GateChain::compile(&spec).is_err());
    }

    #[test]
    fn block_worker_matches_scalar_reference() {
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        let mut worker = chain.make_worker();
        let block = BlockSpec {
            index: 5,
            count: 23,
            seed: 0xFACE,
        };
        let mut out = Vec::new();
        worker.run_block(block, &mut out);
        assert_eq!(out.len(), 23);
        // Re-derive each sample with the scalar path from the same stream.
        let mut rng = BlockRng::new(0xFACE, 5);
        for (j, &batch) in out.iter().enumerate() {
            let g = [
                rng.log_normal(chain.spec().sigma_global_r),
                rng.log_normal(chain.spec().sigma_global_c),
            ];
            let locals: Vec<[f64; 2]> = chain
                .stages()
                .iter()
                .map(|s| [rng.log_normal(s.sigma[0]), rng.log_normal(s.sigma[1])])
                .collect();
            let scalar = chain.sample_delay(g, &locals);
            assert_eq!(batch, scalar, "sample {j}");
        }
    }

    #[test]
    fn stage_tapes_lane_width_parity() {
        // Real compiled stage-delay tapes: the lane kernel must be
        // bit-identical to the per-point path, so block grouping cannot
        // perturb Monte Carlo results.
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        for stage in chain.stages() {
            let ev = stage.model.evaluator();
            let n_out = ev.n_outputs();
            // 41 points: one full 32-point block + a 9-point scalar tail.
            let points: Vec<Vec<f64>> = (0..41)
                .map(|i| {
                    vec![
                        stage.nominal[0] * (0.8 + 0.01 * i as f64),
                        stage.nominal[1] * (1.2 - 0.007 * i as f64),
                    ]
                })
                .collect();
            let mut reference = vec![0.0; points.len() * n_out];
            for (p, row) in points.iter().zip(reference.chunks_exact_mut(n_out)) {
                ev.eval_into(p, row);
            }
            let mut got = vec![0.0; points.len() * n_out];
            ev.eval_batch(&points, &mut got);
            for (i, (&g, &r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.to_bits(), r.to_bits(), "moment slot {i}: {g} != {r}");
            }
        }
    }

    #[test]
    fn metrics_order_sanely() {
        let chain_d2m = GateChain::compile(&tiny_spec()).unwrap();
        let spec_elm = ChainSpec {
            metric: DelayMetric::Elmore,
            ..tiny_spec()
        };
        let chain_elm = GateChain::compile(&spec_elm).unwrap();
        let spec_tp = ChainSpec {
            metric: DelayMetric::TwoPole,
            ..tiny_spec()
        };
        let chain_tp = GateChain::compile(&spec_tp).unwrap();
        // The three metrics estimate the same physical 50 % delay, so they
        // must agree to within tens of percent on a plain RC stage. (For a
        // single pole D2M equals ln2·Elmore exactly; distributed RC pushes
        // D2M slightly above it, m₂ < m₁².)
        let (d_tp, d_d2m, d_elm) = (
            chain_tp.nominal_delay(),
            chain_d2m.nominal_delay(),
            chain_elm.nominal_delay(),
        );
        assert!(d_tp > 0.0 && d_d2m > 0.0 && d_elm > 0.0);
        assert!(
            (d_d2m / d_elm - 1.0).abs() < 0.35,
            "d2m {d_d2m} vs elmore {d_elm}"
        );
        assert!(
            (d_d2m / d_tp - 1.0).abs() < 0.35,
            "d2m {d_d2m} vs tp {d_tp}"
        );
    }

    #[test]
    fn metric_parse() {
        assert_eq!("d2m".parse::<DelayMetric>().unwrap(), DelayMetric::D2m);
        assert_eq!(
            "two-pole".parse::<DelayMetric>().unwrap(),
            DelayMetric::TwoPole
        );
        assert!("bogus".parse::<DelayMetric>().is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = tiny_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ChainSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
