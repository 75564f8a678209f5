//! Sharded fleet serving: crash isolation between models.
//!
//! Model names hash to shards ([`shard_of`]); each shard owns
//!
//! - a **model registry** ([`ModelRegistry`]): one LRU of
//!   [`ShardConfig::capacity`] models;
//! - a **persistent worker pool** ([`crate::WorkerPool`]), whose threads
//!   outlive every chunk crash;
//! - a **circuit breaker** ([`CircuitBreaker`]): repeated chunk
//!   crashes flip the shard to `open`, where requests are refused
//!   immediately with `unavailable` + `retry_after_ms` instead of
//!   feeding a crash loop; after a cooldown one probe request
//!   (`half-open`) decides between closing and re-opening with a doubled
//!   cooldown;
//! - a **bounded queue** with depth-aware shedding: beyond
//!   `max_queue` concurrent jobs the shard sheds with an adaptive
//!   backoff hint ([`adaptive_retry_after_ms`]) that grows with how far
//!   past the budget the queue is;
//! - a **draining flag** for graceful shutdown (`drain` command): a
//!   draining shard refuses new evaluation work but finishes what it
//!   has.
//!
//! A shard's events reach clients through [`Shard::health`]. The shard
//! counts its jobs' chunk crashes, the pool its own hand-offs, and the
//! breaker its own opens, each on a counter registered on the server's
//! metrics registry as `shard{i}_{chunk_crashes,pool_handoffs,
//! breaker_opened}_total`, so `health` and the registry read the same
//! numbers. Requests, errors and stage times are counted once, server
//! wide, in [`crate::ServerStats`].
//!
//! The batch engine's panic guards already isolate *point* and *chunk*
//! failures. A panic inside one point's evaluation, such as a tape
//! replay that crashes, is caught by the per-point and lane-stride
//! guards, answers that point `internal` and is counted in
//! `panics_caught`; it never charges the breaker. Only a chunk that
//! crashes outside those guards counts against its job, so this layer
//! isolates a *crash loop* of chunk crashes to the shard that owns the
//! model.

use crate::batch::BatchOutput;
use crate::columns::{check_result_size, result_cols, BatchResults, PointColumns};
use crate::error::ServeError;
use crate::pool::WorkerPool;
use crate::registry::ModelRegistry;
use awesym_obs::{Counter, Registry};
use awesym_partition::CompiledModel;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// FNV-1a over the model name: stable across runs and platforms, so a
/// client can predict (and tests can pin) name→shard placement.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard that owns `name` in a fleet of `shards` shards.
pub fn shard_of(name: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a(name) % shards as u64) as usize
}

/// Adaptive overload backoff: the configured base hint, scaled by how
/// far past its budget the queue is. At the budget boundary the hint is
/// exactly `base_ms` (so a lightly-loaded shed retries quickly); a queue
/// at 3x its budget hints 3x the base. Capped at 64x so a pathological
/// depth cannot tell clients to go away for minutes.
pub fn adaptive_retry_after_ms(base_ms: u64, depth: usize, budget: usize) -> u64 {
    let base = base_ms.max(1);
    if budget == 0 {
        return base;
    }
    let ratio = depth.div_ceil(budget).clamp(1, 64) as u64;
    base.saturating_mul(ratio)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker tuning: how many consecutive crash-failures open it and how
/// long it stays open before probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed jobs (jobs with a crashed chunk) that trip the
    /// breaker.
    pub threshold: u32,
    /// First open-state cooldown; doubles per consecutive re-open.
    pub cooldown: Duration,
    /// Cooldown ceiling.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 8,
            cooldown: Duration::from_millis(250),
            max_cooldown: Duration::from_secs(10),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open {
        until: Instant,
    },
    /// One probe request is in flight; its outcome decides the phase.
    HalfOpen {
        probing: bool,
    },
}

struct BreakerState {
    phase: BreakerPhase,
    consecutive_failures: u32,
    cooldown: Duration,
}

/// Per-shard circuit breaker over *chunk-crash* failures (per-point
/// errors are already handled gracefully and do not count). States:
/// closed → open (after `threshold` consecutive crash-jobs) → half-open
/// (after the cooldown; one probe allowed) → closed on probe success or
/// back to open with a doubled, capped cooldown on probe failure.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<BreakerState>,
    opened_total: Arc<Counter>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        Self::with_opened_counter(config, Arc::default())
    }

    /// [`CircuitBreaker::new`], counting opens on `opened_total` (a shard
    /// passes its registered `shard{i}_breaker_opened_total`).
    pub(crate) fn with_opened_counter(config: BreakerConfig, opened_total: Arc<Counter>) -> Self {
        CircuitBreaker {
            config,
            state: Mutex::new(BreakerState {
                phase: BreakerPhase::Closed,
                consecutive_failures: 0,
                cooldown: config.cooldown,
            }),
            opened_total,
        }
    }

    /// Admits or refuses a request. `Err(retry_after_ms)` means the
    /// breaker is open (or another probe is already in flight).
    pub fn admit(&self) -> Result<(), u64> {
        let mut s = lock(&self.state);
        match s.phase {
            BreakerPhase::Closed => Ok(()),
            BreakerPhase::Open { until } => {
                let now = Instant::now();
                if now < until {
                    Err(until.saturating_duration_since(now).as_millis().max(1) as u64)
                } else {
                    s.phase = BreakerPhase::HalfOpen { probing: true };
                    Ok(())
                }
            }
            BreakerPhase::HalfOpen { probing: false } => {
                s.phase = BreakerPhase::HalfOpen { probing: true };
                Ok(())
            }
            BreakerPhase::HalfOpen { probing: true } => {
                // A probe is already deciding the shard's fate; don't
                // pile more requests onto a possibly-crashing pool.
                Err(s.cooldown.as_millis().max(1) as u64)
            }
        }
    }

    /// Reports an admitted request that completed without chunk
    /// crashes.
    pub fn record_success(&self) {
        let mut s = lock(&self.state);
        s.consecutive_failures = 0;
        s.cooldown = self.config.cooldown;
        s.phase = BreakerPhase::Closed;
    }

    /// Reports an admitted request with a chunk that crashed outside the
    /// per-point guard.
    pub fn record_failure(&self) {
        let mut s = lock(&self.state);
        match s.phase {
            BreakerPhase::HalfOpen { .. } => {
                // Failed probe: straight back to open, doubled cooldown.
                s.cooldown = (s.cooldown * 2).min(self.config.max_cooldown);
                s.phase = BreakerPhase::Open {
                    until: Instant::now() + s.cooldown,
                };
                self.opened_total.inc();
            }
            BreakerPhase::Closed => {
                s.consecutive_failures += 1;
                if s.consecutive_failures >= self.config.threshold {
                    s.phase = BreakerPhase::Open {
                        until: Instant::now() + s.cooldown,
                    };
                    self.opened_total.inc();
                }
            }
            BreakerPhase::Open { .. } => {}
        }
    }

    /// The current phase as a stable wire string: `"closed"`, `"open"`,
    /// or `"half_open"`.
    pub fn phase_name(&self) -> &'static str {
        match lock(&self.state).phase {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open { until } if Instant::now() < until => "open",
            // An expired open is one admit() away from half-open.
            BreakerPhase::Open { .. } | BreakerPhase::HalfOpen { .. } => "half_open",
        }
    }

    /// Times the breaker transitioned into open.
    pub fn opened_total(&self) -> u64 {
        self.opened_total.get()
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// Per-shard tuning, derived from the server config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Models the shard keeps before evicting the least recently used
    /// (min 1).
    pub capacity: usize,
    /// Most threads on one job, the submitting thread included; also the
    /// pool threads the shard keeps.
    pub workers: usize,
    /// Concurrent jobs (queued + running) before depth-aware shedding;
    /// 0 disables the bound.
    pub max_queue: usize,
    /// Base overload backoff hint, scaled by queue depth.
    pub retry_after_ms: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            capacity: 80,
            workers: crate::batch::default_workers(),
            max_queue: 64,
            retry_after_ms: 50,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Health summary of one shard (the `health` command's per-shard row).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: u64,
    /// Breaker phase: `closed`, `open`, `half_open`.
    pub breaker: String,
    /// Configured pool workers.
    pub workers: u64,
    /// Chunks that crashed outside the per-point guard, on any thread.
    pub chunk_crashes: u64,
    /// Times the breaker opened.
    pub breaker_opened: u64,
    /// Jobs the pool published to its threads as helpers; a job of one
    /// chunk, or of one allowed thread, runs on the submitting thread
    /// alone and is not counted.
    pub pool_handoffs: u64,
    /// Jobs queued or running right now.
    pub queue_depth: u64,
    /// Draining for shutdown?
    pub draining: bool,
    /// Models resident.
    pub models: u64,
}

/// One shard: model registry + worker pool + breaker + bounded
/// queue. See the module docs for the full design.
pub struct Shard {
    id: usize,
    config: ShardConfig,
    registry: ModelRegistry,
    pool: WorkerPool,
    breaker: CircuitBreaker,
    queue_depth: AtomicUsize,
    draining: AtomicBool,
    /// Chunks of this shard's jobs that crashed outside the per-point
    /// guard, whichever thread ran them.
    chunk_crashes: Arc<Counter>,
}

impl Shard {
    /// Builds shard `id`, registering its metrics on `registry`.
    pub fn new(id: usize, config: ShardConfig, registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(&format!("shard{id}_{name}"));
        Shard {
            id,
            config,
            registry: ModelRegistry::new(config.capacity),
            pool: WorkerPool::with_handoffs(id, config.workers, c("pool_handoffs_total")),
            breaker: CircuitBreaker::with_opened_counter(config.breaker, c("breaker_opened_total")),
            queue_depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            chunk_crashes: c("chunk_crashes_total"),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's model registry: the models whose names
    /// [`shard_of`] places on this shard.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The shard's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Starts refusing new evaluation work (in-flight jobs finish).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// True when the shard is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Jobs queued or running right now.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Admission control shared by every evaluation-class request bound
    /// for this shard: draining and breaker checks, then the bounded
    /// queue. On success the queue depth has been taken; release it via
    /// the returned guard going out of scope.
    fn admit(&self) -> Result<DepthGuard<'_>, ServeError> {
        if self.is_draining() {
            return Err(ServeError::Unavailable {
                shard: self.id as u64,
                reason: "draining".to_string(),
                retry_after_ms: self.config.retry_after_ms,
            });
        }
        if let Err(retry_after_ms) = self.breaker.admit() {
            return Err(ServeError::Unavailable {
                shard: self.id as u64,
                reason: "circuit breaker open".to_string(),
                retry_after_ms,
            });
        }
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.max_queue > 0 && depth > self.config.max_queue {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                inflight: depth as u64,
                max_inflight: self.config.max_queue as u64,
                retry_after_ms: adaptive_retry_after_ms(
                    self.config.retry_after_ms,
                    depth,
                    self.config.max_queue,
                ),
            });
        }
        Ok(DepthGuard { shard: self })
    }

    /// Row-major adapter over [`Shard::evaluate_columns`]: the points are
    /// copied into columns on the way in.
    pub fn evaluate(
        &self,
        model: Arc<CompiledModel>,
        points: Arc<Vec<Vec<f64>>>,
        output: BatchOutput,
        deadline: Option<Instant>,
        max_workers: Option<usize>,
    ) -> Result<BatchResults, ServeError> {
        let columns = PointColumns::from_rows(&points, model.symbols().len());
        self.evaluate_columns(model, Arc::new(columns), output, deadline, max_workers)
    }

    /// Evaluates a columnar batch on this shard's pool, with admission
    /// control and breaker accounting: a job with a crashed chunk adds its
    /// crashes to `shard{i}_chunk_crashes_total` and is a breaker failure,
    /// any other job a success. The model must already be resolved (the
    /// caller counts lookup time separately).
    pub fn evaluate_columns(
        &self,
        model: Arc<CompiledModel>,
        points: Arc<PointColumns>,
        output: BatchOutput,
        deadline: Option<Instant>,
        max_workers: Option<usize>,
    ) -> Result<BatchResults, ServeError> {
        // Refused before admission, so an oversized batch never holds a
        // queue slot or a half-open breaker's probe.
        check_result_size(points.len(), result_cols(&output, &model))?;
        let _depth = self.admit()?;
        let outcome = self
            .pool
            .run_batch(model, points, output, deadline, max_workers)?;
        if outcome.chunk_crashes > 0 {
            self.chunk_crashes.add(outcome.chunk_crashes);
            self.breaker.record_failure();
        } else {
            self.breaker.record_success();
        }
        Ok(outcome)
    }

    /// Health snapshot for the `health` command.
    pub fn health(&self) -> ShardHealth {
        ShardHealth {
            shard: self.id as u64,
            breaker: self.breaker.phase_name().to_string(),
            workers: self.pool.workers() as u64,
            chunk_crashes: self.chunk_crashes.get(),
            breaker_opened: self.breaker.opened_total(),
            pool_handoffs: self.pool.handoffs(),
            queue_depth: self.queue_depth() as u64,
            draining: self.is_draining(),
            models: self.registry.len() as u64,
        }
    }

    /// Ready to take traffic: breaker closed and not draining.
    pub fn is_ready(&self) -> bool {
        !self.is_draining() && self.breaker.phase_name() == "closed"
    }
}

/// RAII release of one unit of shard queue depth.
struct DepthGuard<'a> {
    shard: &'a Shard,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.shard.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;

    fn tiny_model() -> CompiledModel {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
    }

    #[test]
    fn shard_placement_is_stable_and_covers_all_shards() {
        assert_eq!(shard_of("anything", 1), 0);
        // Pinned: placement is part of the observable contract (clients
        // may pre-shard); a hash change must be a conscious decision.
        assert_eq!(shard_of("opamp741", 4), shard_of("opamp741", 4));
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[shard_of(&format!("model-{i}"), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn adaptive_hint_grows_with_depth_and_respects_base() {
        // At (or under) the budget boundary the hint is the base — the
        // contract the server's legacy shed test pins at 77 ms.
        assert_eq!(adaptive_retry_after_ms(50, 1, 4), 50);
        assert_eq!(adaptive_retry_after_ms(50, 4, 4), 50);
        // Deeper queues hint longer, monotonically.
        let hints: Vec<u64> = [4, 8, 9, 16, 64, 256]
            .iter()
            .map(|&d| adaptive_retry_after_ms(50, d, 4))
            .collect();
        assert_eq!(hints, [50, 100, 150, 200, 800, 3200]);
        for w in hints.windows(2) {
            assert!(w[0] <= w[1], "{hints:?}");
        }
        // Capped at 64x, zero-budget and zero-base degenerate sanely.
        assert_eq!(adaptive_retry_after_ms(50, 1_000_000, 4), 50 * 64);
        assert_eq!(adaptive_retry_after_ms(50, 10, 0), 50);
        assert_eq!(adaptive_retry_after_ms(0, 10, 2), 5);
    }

    #[test]
    fn shard_keeps_five_times_the_server_capacity_and_evicts_the_lru_model() {
        for c in [0usize, 1, 2] {
            let server = crate::Server::new(c);
            let shard = &server.shards()[0];
            let keep = c.max(1) + (4 * c).max(1);
            let name = |i: usize| format!("m{i}");
            for i in 0..keep {
                assert_eq!(server.insert_model(&name(i), tiny_model()), None, "c={c}");
            }
            // Touch m0 so m1 is the least recently used.
            assert!(shard.registry().get("m0").is_some(), "c={c}");
            let evicted = server.insert_model(&name(keep), tiny_model());
            assert_eq!(evicted.as_deref(), Some("m1"), "c={c}");
            assert_eq!(shard.health().models, keep as u64, "c={c}");
        }
    }

    #[test]
    fn shard_reinserted_model_replaces_the_old_one() {
        for c in [0usize, 1, 2] {
            let server = crate::Server::new(c);
            let shard = &server.shards()[0];
            server.insert_model("a", tiny_model());
            server.insert_model("b", tiny_model());
            let held = shard.registry().get("a").unwrap();
            // A re-inserted name hands out the new model and leaves no
            // stale copy behind.
            assert_eq!(server.insert_model("a", tiny_model()), None, "c={c}");
            let fresh = shard.registry().get("a").unwrap();
            assert!(!Arc::ptr_eq(&held, &fresh), "c={c}");
            assert_eq!(shard.registry().names(), ["a", "b"], "c={c}");
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let b = CircuitBreaker::new(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(20),
            max_cooldown: Duration::from_millis(100),
        });
        assert_eq!(b.phase_name(), "closed");
        assert!(b.admit().is_ok());
        b.record_failure();
        assert_eq!(b.phase_name(), "closed", "one failure under threshold");
        b.record_failure();
        assert_eq!(b.phase_name(), "open");
        assert_eq!(b.opened_total(), 1);
        let retry = b.admit().unwrap_err();
        assert!((1..=20).contains(&retry), "{retry}");
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown over: one probe admitted, a second refused.
        assert!(b.admit().is_ok());
        assert!(b.admit().is_err());
        // Failed probe → open again with doubled cooldown.
        b.record_failure();
        assert_eq!(b.phase_name(), "open");
        assert_eq!(b.opened_total(), 2);
        std::thread::sleep(Duration::from_millis(45));
        assert!(b.admit().is_ok());
        b.record_success();
        assert_eq!(b.phase_name(), "closed");
        assert!(b.admit().is_ok());
    }

    #[test]
    fn shard_sheds_beyond_queue_budget_with_adaptive_hint() {
        let obs = Registry::new();
        let shard = Shard::new(
            0,
            ShardConfig {
                max_queue: 1,
                workers: 1,
                retry_after_ms: 30,
                ..ShardConfig::default()
            },
            &obs,
        );
        // Hold the single queue slot, then watch the next admit shed.
        let guard = shard.admit().unwrap();
        match shard.admit() {
            Err(ServeError::Overloaded {
                retry_after_ms,
                inflight,
                max_inflight,
            }) => {
                assert_eq!((inflight, max_inflight), (2, 1));
                assert_eq!(retry_after_ms, 60, "2x budget → 2x base hint");
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("expected Overloaded, got admission"),
        }
        drop(guard);
        assert_eq!(shard.queue_depth(), 0);
        assert!(shard.admit().is_ok());
    }

    #[test]
    fn draining_shard_refuses_with_unavailable() {
        let obs = Registry::new();
        let shard = Shard::new(0, ShardConfig::default(), &obs);
        assert!(shard.is_ready());
        shard.drain();
        assert!(!shard.is_ready());
        match shard.evaluate(
            Arc::new(tiny_model()),
            Arc::new(vec![vec![1e-9, 1e3]]),
            BatchOutput::Moments,
            None,
            None,
        ) {
            Err(ServeError::Unavailable { reason, .. }) => assert_eq!(reason, "draining"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let health = shard.health();
        assert!(health.draining);
        assert_eq!(health.breaker, "closed");
    }

    impl Shard {
        /// Runs `f` while one queue slot is taken, as by a job in flight.
        pub(crate) fn with_queue_slot_held<T>(&self, f: impl FnOnce() -> T) -> T {
            let _slot = self.admit().expect("a free queue slot");
            f()
        }
    }

    #[test]
    fn healthy_shard_evaluates_and_reports() {
        let obs = Registry::new();
        let shard = Shard::new(
            3,
            ShardConfig {
                workers: 2,
                ..ShardConfig::default()
            },
            &obs,
        );
        shard.registry().insert("m", tiny_model());
        let model = shard.registry().get("m").unwrap();
        let out = shard
            .evaluate(
                model,
                Arc::new(vec![vec![1e-9, 1e3], vec![2e-9, 2e3]]),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.ok_count(), 2);
        let health = shard.health();
        assert_eq!(health.shard, 3);
        assert_eq!(health.models, 1);
        assert_eq!(health.chunk_crashes, 0);
        assert_eq!(health.queue_depth, 0);
    }
}
