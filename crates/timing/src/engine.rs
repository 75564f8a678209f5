//! Streaming Monte Carlo engine: worker threads drive a compiled task's
//! batch evaluator through fixed-size sample blocks and fold every block
//! into merge-order-invariant online accumulators.
//!
//! ## Determinism contract
//!
//! Three properties combine so a run's report is **bit-identical at any
//! worker count**:
//!
//! 1. each block's samples come from a [`BlockRng`](crate::sample::BlockRng)
//!    keyed only by `(seed, block_index)` — never by thread identity;
//! 2. workers claim whole blocks from a shared atomic counter (coarse
//!    work-stealing), so a block's *contents* do not depend on who runs it;
//! 3. the per-worker [`YieldAccumulator`]s are merge-order invariant (see
//!    `accum`): integer counters commute exactly, and floating-point
//!    Welford partials are folded in canonical block order at the end.
//!
//! Memory is O(blocks) for the Welford partials plus O(block_size) scratch
//! per worker — no per-sample vector is ever materialized, so a 10⁷-sample
//! run costs the same resident memory as a 10⁴-sample one.
//!
//! ## Threads
//!
//! Each [`McEngine::run`] spawns its worker threads with
//! `std::thread::scope` and joins them before it returns, so no thread
//! outlives a run. Every thread builds its [`BlockWorker`] when the run
//! starts (cheap: evaluators share their compiled function's lane plan)
//! and drops it, scratch and all, when the run ends, so an idle engine
//! holds no per-worker memory. A block that panics does not hang the run:
//! once the other threads have finished, `run` re-raises that panic's
//! payload, and the engine stays usable for the next run.

use crate::accum::{QuantileGrid, Summary, YieldAccumulator};
use awesym_obs::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One unit of work: which block, how many samples it holds, and the run
/// seed. Fully determines the block's sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Block index within the run (keys the RNG stream).
    pub index: u64,
    /// Samples in this block (the final block may be short).
    pub count: usize,
    /// The run seed.
    pub seed: u64,
}

/// Per-thread execution state for a task: owns evaluators and scratch,
/// turns a [`BlockSpec`] into that block's sample values.
pub trait BlockWorker {
    /// Fills `out` with the block's `count` sample values. Invalid samples
    /// are represented as NaN (or any non-finite / non-positive value) —
    /// the accumulator counts and excludes them.
    fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>);
}

/// A compiled Monte Carlo task: something that can mint per-thread
/// workers borrowing its compiled artifacts.
pub trait McTask: Send + Sync {
    /// The per-thread worker, borrowing evaluators from `self`.
    type Worker<'a>: BlockWorker
    where
        Self: 'a;
    /// Builds one worker. Called once per worker thread at the start of
    /// every run; the worker serves every block its thread claims in that
    /// run and is dropped when the run ends.
    fn make_worker(&self) -> Self::Worker<'_>;
}

/// Run parameters for one Monte Carlo job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Total samples to draw.
    pub samples: u64,
    /// Samples per block. Larger blocks amortize tape dispatch; smaller
    /// blocks steal more evenly. 4096 is a good default for tapes in the
    /// 10²–10³ op range.
    pub block_size: usize,
    /// Run seed.
    pub seed: u64,
    /// Pass/fail deadline for the yield counter (same unit as the sample
    /// values, i.e. seconds for delay tasks). `None` disables yield.
    pub deadline: Option<f64>,
    /// Quantile histogram grid.
    pub grid: QuantileGrid,
}

impl McConfig {
    /// Default block size (see [`McConfig::block_size`]).
    pub const DEFAULT_BLOCK: usize = 4096;

    /// A config with the default block size and no deadline.
    pub fn new(samples: u64, seed: u64, grid: QuantileGrid) -> Self {
        McConfig {
            samples,
            block_size: Self::DEFAULT_BLOCK,
            seed,
            deadline: None,
            grid,
        }
    }

    /// Sets the deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the block size.
    ///
    /// # Panics
    ///
    /// Panics when `block_size == 0`.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        self.block_size = block_size;
        self
    }

    fn n_blocks(&self) -> u64 {
        self.samples.div_ceil(self.block_size as u64)
    }
}

/// A finished run: the statistical [`Summary`] plus throughput facts.
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Merged online statistics.
    pub summary: Summary,
    /// Wall-clock seconds for the job (excludes compile time).
    pub wall_secs: f64,
    /// Samples per wall-clock second.
    pub samples_per_sec: f64,
    /// Worker threads that ran the job.
    pub workers: usize,
}

/// Streaming Monte Carlo engine over a compiled task.
///
/// Construction only registers metrics; [`McEngine::run`] can then be
/// called any number of times (e.g. a benchmark's repetitions), each run
/// on its own scoped worker threads. See the module docs.
pub struct McEngine<T: McTask + 'static> {
    task: Arc<T>,
    workers: usize,
    metrics: EngineMetrics,
}

/// The engine's observability surface (all registered on the caller's
/// [`Registry`]).
struct EngineMetrics {
    blocks: Arc<awesym_obs::Counter>,
    samples: Arc<awesym_obs::Counter>,
    merges: Arc<awesym_obs::Counter>,
    block_ns: Arc<awesym_obs::Histogram>,
    samples_per_sec: Arc<awesym_obs::Gauge>,
}

/// Block-latency histogram edges: 1 µs … 100 ms in decade-ish steps.
const BLOCK_NS_EDGES: &[u64] = &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

impl<T: McTask + 'static> McEngine<T> {
    /// An engine running `task` on `workers` threads per run.
    ///
    /// Metrics (`mc_blocks_total`, `mc_samples_total`, `mc_merges_total`,
    /// `mc_block_ns`, `mc_samples_per_sec`) register on `registry`.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(task: Arc<T>, workers: usize, registry: &Registry) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        McEngine {
            task,
            workers,
            metrics: EngineMetrics {
                blocks: registry.counter("mc_blocks_total"),
                samples: registry.counter("mc_samples_total"),
                merges: registry.counter("mc_merges_total"),
                block_ns: registry.histogram("mc_block_ns", BLOCK_NS_EDGES),
                samples_per_sec: registry.gauge("mc_samples_per_sec"),
            },
        }
    }

    /// The task this engine runs.
    pub fn task(&self) -> &T {
        &self.task
    }

    /// Worker threads per run.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one Monte Carlo job to completion and returns the merged
    /// report. Blocks the calling thread while the run's worker threads
    /// do the work.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a block that panicked, after every other
    /// worker thread has finished.
    pub fn run(&self, cfg: &McConfig) -> McReport {
        assert!(cfg.block_size > 0, "block size must be positive");
        let t0 = Instant::now();
        let next_block = AtomicU64::new(0);
        // Every thread is joined before any panic is re-raised.
        let joined: Vec<std::thread::Result<YieldAccumulator>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| s.spawn(|| self.work(cfg, &next_block)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut results: Vec<YieldAccumulator> = joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();

        // Deterministic merge: which worker ran which blocks varies run to
        // run, but the accumulator's merge is order-invariant by
        // construction, so any order yields bit-identical results.
        let mut acc = results.pop().expect("at least one worker result");
        for other in &results {
            acc.merge(other);
            self.metrics.merges.inc();
        }
        let summary = acc.finish();
        let wall_secs = t0.elapsed().as_secs_f64();
        let samples_per_sec = if wall_secs > 0.0 {
            summary.samples as f64 / wall_secs
        } else {
            0.0
        };
        self.metrics.samples_per_sec.set(samples_per_sec as i64);
        McReport {
            summary,
            wall_secs,
            samples_per_sec,
            workers: self.workers,
        }
    }

    /// One worker thread's share of a run: build the worker, then claim
    /// and fold blocks until the counter passes the last one.
    fn work(&self, cfg: &McConfig, next_block: &AtomicU64) -> YieldAccumulator {
        let mut worker = self.task.make_worker();
        let mut buf: Vec<f64> = Vec::new();
        let mut acc = YieldAccumulator::new(cfg.grid, cfg.deadline);
        let n_blocks = cfg.n_blocks();
        loop {
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= n_blocks {
                return acc;
            }
            let remaining = cfg.samples - b * cfg.block_size as u64;
            let count = (cfg.block_size as u64).min(remaining) as usize;
            let t0 = Instant::now();
            worker.run_block(
                BlockSpec {
                    index: b,
                    count,
                    seed: cfg.seed,
                },
                &mut buf,
            );
            debug_assert_eq!(buf.len(), count, "worker filled the block");
            acc.push_block(b, &buf);
            self.metrics
                .block_ns
                .observe(t0.elapsed().as_nanos() as u64);
            self.metrics.blocks.inc();
            self.metrics.samples.add(count as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap analytic task: sample value = log-normal(0.2) around 1.0.
    /// Fast enough to run big sample counts in debug tests.
    struct LogNormalTask;

    struct LnWorker;

    impl BlockWorker for LnWorker {
        fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
            let mut rng = crate::sample::BlockRng::new(block.seed, block.index);
            out.clear();
            out.extend((0..block.count).map(|_| rng.log_normal(0.2)));
        }
    }

    impl McTask for LogNormalTask {
        type Worker<'a> = LnWorker;
        fn make_worker(&self) -> LnWorker {
            LnWorker
        }
    }

    fn grid() -> QuantileGrid {
        QuantileGrid::around(1.0, 64.0, 512)
    }

    fn run_with(workers: usize, samples: u64) -> McReport {
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(LogNormalTask), workers, &reg);
        let cfg = McConfig::new(samples, 0xD00D, grid())
            .with_block_size(512)
            .with_deadline(1.5);
        engine.run(&cfg)
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        let base = run_with(1, 20_000);
        for workers in [2, 4, 8] {
            let r = run_with(workers, 20_000);
            assert_eq!(r.summary, base.summary, "workers={workers}");
        }
    }

    #[test]
    fn statistics_are_sane() {
        let r = run_with(4, 50_000);
        let s = &r.summary;
        assert_eq!(s.samples, 50_000);
        assert_eq!(s.invalid, 0);
        // log-normal(σ=0.2): median 1, mean exp(σ²/2) ≈ 1.0202.
        assert!((s.mean - 1.0202).abs() < 0.01, "mean {}", s.mean);
        let (p50, p95, p997) = (s.p50.unwrap(), s.p95.unwrap(), s.p997.unwrap());
        assert!((p50 - 1.0).abs() < 0.02, "p50 {p50}");
        assert!(p95 > p50 && p997 > p95);
        // P(x ≤ 1.5) = Φ(ln1.5/0.2) = Φ(2.027) ≈ 0.9787.
        let y = s.yield_fraction.unwrap();
        assert!((y - 0.9787).abs() < 0.01, "yield {y}");
        assert!(r.samples_per_sec > 0.0);
    }

    #[test]
    fn engine_is_reusable_across_jobs() {
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(LogNormalTask), 3, &reg);
        let cfg = McConfig::new(5_000, 7, grid()).with_block_size(256);
        let a = engine.run(&cfg);
        let b = engine.run(&cfg);
        assert_eq!(a.summary, b.summary);
        let c = engine.run(&McConfig::new(5_000, 8, grid()).with_block_size(256));
        assert_ne!(c.summary.mean, a.summary.mean);
        assert_eq!(reg.counter("mc_blocks_total").get(), 60);
        assert_eq!(reg.counter("mc_samples_total").get(), 15_000);
    }

    #[test]
    fn short_final_block_is_exact() {
        let r = run_with(1, 1_025); // 2 full 512-blocks + 1-sample tail
        assert_eq!(r.summary.samples, 1_025);
        assert_eq!(r.summary.blocks, 3);
    }

    #[test]
    fn panicking_block_reraises_and_engine_stays_usable() {
        use std::sync::mpsc;
        use std::time::Duration;
        const BAD_SEED: u64 = 0xBAD;
        /// The log-normal task, except that block 3 panics under one seed.
        struct FlakyTask;
        struct FlakyWorker;
        impl BlockWorker for FlakyWorker {
            fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
                if block.seed == BAD_SEED && block.index == 3 {
                    panic!("injected failure in block 3");
                }
                LnWorker.run_block(block, out);
            }
        }
        impl McTask for FlakyTask {
            type Worker<'a> = FlakyWorker;
            fn make_worker(&self) -> FlakyWorker {
                FlakyWorker
            }
        }
        let engine = Arc::new(McEngine::new(Arc::new(FlakyTask), 3, &Registry::new()));
        let (tx, rx) = mpsc::channel();
        let helper = Arc::clone(&engine);
        // A helper thread, so a hung run fails the watchdog below instead
        // of hanging the test binary.
        let handle = std::thread::spawn(move || {
            let cfg = McConfig::new(5_000, BAD_SEED, grid()).with_block_size(256);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| helper.run(&cfg)));
            let _ = tx.send(run.map(|r| r.summary));
        });
        let payload = match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(payload)) => payload,
            Ok(Ok(summary)) => panic!("run returned despite a panicking block: {summary:?}"),
            Err(e) => panic!("run did not return within 5 s of a block panic: {e}"),
        };
        handle.join().expect("helper thread exits after reporting");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("injected failure in block 3"));
        // The same engine runs the next job as a fresh one would.
        let cfg = McConfig::new(5_000, 7, grid()).with_block_size(256);
        let again = engine.run(&cfg);
        let fresh = McEngine::new(Arc::new(FlakyTask), 3, &Registry::new()).run(&cfg);
        assert_eq!(again.summary, fresh.summary);
    }

    #[test]
    fn invalid_samples_are_counted_not_propagated() {
        struct NanTask;
        struct NanWorker;
        impl BlockWorker for NanWorker {
            fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
                out.clear();
                out.extend((0..block.count).map(|j| {
                    if j % 10 == 0 {
                        f64::NAN
                    } else {
                        1.0 + j as f64 * 1e-6
                    }
                }));
            }
        }
        impl McTask for NanTask {
            type Worker<'a> = NanWorker;
            fn make_worker(&self) -> NanWorker {
                NanWorker
            }
        }
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(NanTask), 2, &reg);
        let r = engine.run(&McConfig::new(1_000, 1, grid()).with_block_size(100));
        assert_eq!(r.summary.samples, 1_000);
        assert_eq!(r.summary.invalid, 100);
        assert_eq!(r.summary.valid, 900);
        assert!(r.summary.mean.is_finite());
    }
}
