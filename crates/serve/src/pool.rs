//! Persistent worker pool for batch evaluation — the one executor every
//! batch runs on.
//!
//! A per-batch `std::thread::scope` spawn made batch throughput *drop* as
//! workers increased (thread spawn + join cost swamped the
//! sub-microsecond per-point work), so workers are spawned once, park on
//! a condvar, and steal coarse chunks of whatever job is at the head of
//! the queue via an atomic chunk frontier — a batch pays one mutex
//! handoff instead of N thread spawns.
//!
//! A job of exactly one point (every `eval`) skips even that handoff: it
//! runs on the submitting thread through the same chunk engine the
//! workers use, with no queue lock, no wake-up and no wait. Waking a
//! parked worker and sleeping until it answers costs more than the point
//! itself. Jobs of two or more points always go through the queue.
//!
//! The pool is also the shard supervisor's foundation:
//!
//! - **jobs never hang** — every chunk runs under `catch_unwind`; a chunk
//!   that crashes outside the per-point guard fills its unfinished slots
//!   with `internal` point errors and is counted on the job
//!   ([`BatchResults::chunk_crashes`], which the shard's breaker reads)
//!   before the chunk's accounting completes, so the submitter always
//!   gets a full result vector. On a pool worker the crash also ends the
//!   thread; on the submitting thread it does not;
//! - **worker death is survivable** — if every worker dies mid-job, the
//!   submitting thread notices (`alive == 0`) and drains the remaining
//!   chunks itself, serially;
//! - **supervised restart** — each submission first runs a cheap
//!   supervision pass: dead workers are respawned, subject to a capped
//!   exponential backoff so a crash-looping model cannot burn CPU on
//!   futile restarts. The pool counts its restarts, deaths and
//!   hand-offs itself, on counters a shard registers as its metrics
//!   (`PoolCounters`); restarts and deaths count threads only.
//!
//! Jobs are columnar end to end: workers read the request's
//! [`PointColumns`] and fill a chunk of [`BatchResults`] that is copied
//! into the job's one column-major result buffer. Evaluators borrow the
//! compiled model, so each worker builds one per job it joins and keeps
//! it — scratch and lane register file — for every chunk it claims in
//! that job; the lane plan belongs to the model's compiled function and
//! is built once for its lifetime. What the pool eliminates is the
//! per-batch thread churn, which was the actual scaling killer.

use crate::batch::{BatchCtl, BatchOutput, ChunkEval};
use crate::columns::{check_result_size, result_cols, BatchResults, PointColumns};
use crate::error::PointError;
use crate::ServeError;
use awesym_obs::Counter;
use awesym_partition::CompiledModel;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Smallest chunk a worker claims at once, whatever the tape size.
/// Chunks are the work-stealing grain: coarse enough that the claim
/// (one `fetch_add`) is noise next to the evaluation, fine enough that
/// a 1200-point batch still spreads across 8 workers.
const MIN_CHUNK: usize = 64;

/// Chunks per worker the splitter aims for — a little oversubscription
/// so a worker stalled on a slow point does not strand a whole stripe.
const CHUNKS_PER_WORKER: usize = 4;

/// Tape operations a chunk should amortize at minimum. The per-chunk
/// overhead (frontier claim, slot writeback, deadline check) is fixed,
/// so the floor on chunk size scales inversely with the tape: a tiny
/// 32-op tape gets ~2048-point chunks where a 100k-op tape keeps the
/// fine 64-point grain.
const TARGET_CHUNK_OPS: usize = 65_536;

/// Ceiling on the op-count-scaled chunk floor, so a degenerate one-op
/// tape still yields enough chunks for the pool to share.
const MAX_CHUNK_FLOOR: usize = 4_096;

/// Points per chunk for an `n`-point batch of a tape with `op_count`
/// operations, split across at most `max_workers` workers.
///
/// The parallelism target (`CHUNKS_PER_WORKER` chunks per worker) sets
/// the upper shape; the floor is work-based — at least
/// [`TARGET_CHUNK_OPS`] tape operations per chunk (capped at
/// [`MAX_CHUNK_FLOOR`] points) — so small tapes produce fewer, larger
/// chunks instead of paying fixed per-chunk overhead 4× per worker.
///
/// The result is rounded up to the lane kernel's block
/// ([`awesym_symbolic::MAX_BLOCK_POINTS`]) so every chunk but the batch's
/// last feeds the kernel whole blocks; a misaligned grain would make
/// *every* chunk pay a scalar tail for its trailing points.
pub(crate) fn chunk_size(n: usize, max_workers: usize, op_count: usize) -> usize {
    let floor = (TARGET_CHUNK_OPS / op_count.max(1))
        .clamp(MIN_CHUNK, MAX_CHUNK_FLOOR)
        .min(n);
    n.div_ceil(max_workers.max(1) * CHUNKS_PER_WORKER)
        .clamp(floor.max(1), n)
        .next_multiple_of(awesym_symbolic::MAX_BLOCK_POINTS)
        .min(n)
        .max(1)
}

/// How long a submitter waits on the done condvar per wakeup. Pure
/// belt-and-suspenders: every completion path notifies the condvar, the
/// timeout only bounds the damage of a lost-wakeup bug.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// Restart/backoff knobs for the pool's supervision pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads to keep alive.
    pub workers: usize,
    /// Backoff after the first restart burst; doubles per consecutive
    /// burst.
    pub restart_backoff: Duration,
    /// Backoff ceiling.
    pub max_restart_backoff: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: crate::batch::default_workers(),
            restart_backoff: Duration::from_millis(10),
            max_restart_backoff: Duration::from_secs(2),
        }
    }
}

/// Lock, surviving poison: the pool must keep supervising even if some
/// thread panicked at an unexpected moment while holding a lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued batch: the inputs, an atomic chunk frontier workers claim
/// from, and the result buffer they fill.
struct Job {
    model: Arc<CompiledModel>,
    points: Arc<PointColumns>,
    output: BatchOutput,
    ctl: BatchCtl,
    /// Points per chunk.
    chunk: usize,
    n_chunks: usize,
    /// Most workers allowed to co-evaluate this job (the request's
    /// `workers` field).
    max_workers: usize,
    /// Workers currently inside this job. Only touched under the queue
    /// lock (atomic purely for shared access through the `Arc`).
    entered: AtomicUsize,
    next_chunk: AtomicUsize,
    chunks_done: AtomicUsize,
    done: AtomicBool,
    results: Mutex<BatchResults>,
}

impl Job {
    /// Whether a worker scanning the queue should pick this job up:
    /// unclaimed chunks remain and the participation cap has room.
    /// Callers hold the queue lock.
    fn claimable(&self) -> bool {
        self.entered.load(Ordering::Relaxed) < self.max_workers
            && self.next_chunk.load(Ordering::Relaxed) < self.n_chunks
    }

    /// The next unclaimed chunk's point range, if any.
    fn claim(&self) -> Option<std::ops::Range<usize>> {
        let c = self.next_chunk.fetch_add(1, Ordering::Relaxed);
        (c < self.n_chunks).then(|| c * self.chunk..((c + 1) * self.chunk).min(self.points.len()))
    }

    /// Claims and evaluates chunks until the frontier is exhausted.
    /// Returns `true` when an injected worker-kill fired and the calling
    /// worker must die (this job's accounting is already safe by then).
    fn work(&self, shared: &Shared) -> bool {
        let mut w = ChunkEval::new(&self.model, &self.output);
        while let Some(range) = self.claim() {
            let start = range.start;
            let killed = run_chunk(&mut w, &self.points, range, &self.output, &self.ctl);
            if killed {
                // The worker is about to die. Counting the death before
                // the deposit that may complete the job means a submitter
                // that sees its job done also sees the death.
                shared.counters.deaths.inc();
            }
            self.deposit(shared, start, &mut w.out);
            if killed {
                return true;
            }
        }
        false
    }

    /// Copies a finished chunk's results into the job's buffer and, when
    /// it was the last chunk, marks the job done, removes it from the
    /// queue, and wakes the submitter.
    fn deposit(&self, shared: &Shared, start: usize, chunk: &mut BatchResults) {
        lock(&self.results).absorb(start, chunk);
        let finished = self.chunks_done.fetch_add(1, Ordering::AcqRel) + 1;
        if finished == self.n_chunks {
            let mut q = lock(&shared.queue);
            self.done.store(true, Ordering::Release);
            q.retain(|j| !std::ptr::eq(Arc::as_ptr(j), self));
            drop(q);
            shared.done.notify_all();
        }
    }
}

/// Evaluates points `range` into `w.out` behind a chunk-level
/// `catch_unwind`: the one place a crash outside the per-point guard
/// (under `fault-injection`, an injected worker kill) becomes `internal`
/// errors in the chunk's unfinished slots, counted in `ctl.panics` and
/// `ctl.crashes`. Returns `true` when the chunk crashed; the caller
/// decides whether its thread survives.
fn run_chunk(
    w: &mut ChunkEval<'_>,
    points: &PointColumns,
    range: std::ops::Range<usize>,
    output: &BatchOutput,
    ctl: &BatchCtl,
) -> bool {
    w.out.reset(range.len());
    let run = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        if crate::faults::fault_kills_worker(ctl.shard, range.start) {
            panic!(
                "injected fault: worker killed at chunk starting {}",
                range.start
            );
        }
        w.run(points, range, output, ctl);
    }));
    let crashed = run.is_err();
    if crashed {
        ctl.panics.fetch_add(1, Ordering::Relaxed);
        ctl.crashes.fetch_add(1, Ordering::Relaxed);
        w.out.fail_unfilled(
            0,
            &PointError::internal("chunk evaluation crashed outside the per-point guard"),
        );
    }
    crashed
}

/// The pool's event counters. A shard passes its registered
/// `shard{i}_pool_handoffs_total`, `shard{i}_worker_restarts_total` and
/// `shard{i}_worker_deaths_total`, so each event is counted once, where
/// it happens.
#[derive(Default)]
pub(crate) struct PoolCounters {
    /// Jobs queued to the worker threads.
    pub(crate) handoffs: Arc<Counter>,
    /// Workers respawned by supervision.
    pub(crate) restarts: Arc<Counter>,
    /// Worker threads that died.
    pub(crate) deaths: Arc<Counter>,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Workers park here for new work.
    work: Condvar,
    /// Submitters park here for job completion (paired with `queue`).
    done: Condvar,
    alive: AtomicUsize,
    counters: PoolCounters,
    shutdown: AtomicBool,
    shard: usize,
}

/// Supervision bookkeeping: live handles plus restart pacing state for
/// the capped exponential backoff.
struct Supervisor {
    handles: Vec<JoinHandle<()>>,
    next_worker_id: usize,
    backoff: Duration,
    not_before: Instant,
    healthy_since: Option<Instant>,
}

/// A persistent, supervised worker pool evaluating batches against any
/// compiled model. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    config: PoolConfig,
    supervisor: Mutex<Supervisor>,
}

impl WorkerPool {
    /// A pool of `config.workers` threads (at least 1) serving `shard`.
    /// Unsharded users pass shard 0.
    pub fn new(shard: usize, config: PoolConfig) -> Self {
        Self::with_counters(shard, config, PoolCounters::default())
    }

    /// [`WorkerPool::new`], counting its events on `counters`.
    pub(crate) fn with_counters(shard: usize, config: PoolConfig, counters: PoolCounters) -> Self {
        let config = PoolConfig {
            workers: config.workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Condvar::new(),
            alive: AtomicUsize::new(0),
            counters,
            shutdown: AtomicBool::new(false),
            shard,
        });
        let pool = WorkerPool {
            shared,
            config,
            supervisor: Mutex::new(Supervisor {
                handles: Vec::new(),
                next_worker_id: 0,
                backoff: config.restart_backoff,
                not_before: Instant::now(),
                healthy_since: None,
            }),
        };
        {
            let mut sup = lock(&pool.supervisor);
            for _ in 0..pool.config.workers {
                pool.spawn_worker(&mut sup);
            }
        }
        pool
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Worker threads currently alive.
    pub fn alive(&self) -> usize {
        self.shared.alive.load(Ordering::Relaxed)
    }

    /// Workers respawned by supervision (initial spawns not counted).
    pub fn restarts(&self) -> u64 {
        self.shared.counters.restarts.get()
    }

    /// Worker threads that died (panicked outside the per-point guard).
    pub fn deaths(&self) -> u64 {
        self.shared.counters.deaths.get()
    }

    /// Jobs handed to the worker threads through the queue: one per job
    /// of two or more points. A one-point job runs on the submitting
    /// thread and is not counted.
    pub fn handoffs(&self) -> u64 {
        self.shared.counters.handoffs.get()
    }

    fn spawn_worker(&self, sup: &mut Supervisor) {
        let shared = Arc::clone(&self.shared);
        let id = sup.next_worker_id;
        sup.next_worker_id += 1;
        self.shared.alive.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("awesym-shard{}-w{id}", self.shared.shard))
            .spawn(move || worker_loop(&shared))
            .expect("spawn pool worker thread");
        sup.handles.push(handle);
    }

    /// One supervision pass: respawn dead workers, paced by a capped
    /// exponential backoff so a crash loop cannot spin. Called on every
    /// submission (cheap when the pool is healthy) and usable directly
    /// for health probing. Returns the number of workers respawned.
    pub fn supervise(&self) -> usize {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return 0;
        }
        let mut sup = lock(&self.supervisor);
        let now = Instant::now();
        let missing = self.config.workers.saturating_sub(self.alive());
        if missing == 0 {
            // Fully healthy for a whole ceiling-backoff window → forgive
            // the crash history so the next incident restarts promptly.
            match sup.healthy_since {
                Some(t) if now.duration_since(t) >= self.config.max_restart_backoff => {
                    sup.backoff = self.config.restart_backoff;
                }
                Some(_) => {}
                None => sup.healthy_since = Some(now),
            }
            return 0;
        }
        sup.healthy_since = None;
        if now < sup.not_before {
            return 0; // still backing off from the previous burst
        }
        // Reap finished handles so the vec doesn't grow unboundedly
        // across a long crash loop.
        sup.handles.retain(|h| !h.is_finished());
        for _ in 0..missing {
            self.spawn_worker(&mut sup);
        }
        self.shared.counters.restarts.add(missing as u64);
        sup.not_before = now + sup.backoff;
        sup.backoff = (sup.backoff * 2).min(self.config.max_restart_backoff);
        missing
    }

    /// Evaluates `points` against `model`, returning results in input
    /// order. A one-point job runs on the calling thread. A larger job is
    /// queued to the pool, and `max_workers` caps how many pool workers
    /// co-evaluate it (`None` → all); the submitting thread then only
    /// waits, unless the whole pool is dead, in which case it drains the
    /// job itself so the request still completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the job's result buffer would
    /// exceed [`crate::MAX_RESULT_VALUES`]; nothing is allocated or run.
    pub fn run_batch(
        &self,
        model: Arc<CompiledModel>,
        points: Arc<PointColumns>,
        output: BatchOutput,
        deadline: Option<Instant>,
        max_workers: Option<usize>,
    ) -> Result<BatchResults, ServeError> {
        let n = points.len();
        let cols = result_cols(&output, &model);
        check_result_size(n, cols)?;
        if n == 0 {
            return Ok(BatchResults::new(&output, cols, 0));
        }
        self.supervise();
        let ctl = BatchCtl::new(deadline, self.shared.shard);
        if n == 1 {
            // The chunk buffer of a one-point job is already the job's
            // whole result in its final layout.
            let mut w = ChunkEval::new(&model, &output);
            run_chunk(&mut w, &points, 0..1, &output, &ctl);
            let mut results = w.out;
            results.finish(&ctl);
            return Ok(results);
        }
        let max_workers = max_workers
            .unwrap_or(usize::MAX)
            .clamp(1, self.config.workers);
        let chunk = chunk_size(n, max_workers, model.op_count());
        let job = Arc::new(Job {
            results: Mutex::new(BatchResults::new(&output, cols, n)),
            model,
            points,
            output,
            ctl,
            chunk,
            n_chunks: n.div_ceil(chunk),
            max_workers,
            entered: AtomicUsize::new(0),
            next_chunk: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        });
        {
            let mut q = lock(&self.shared.queue);
            q.push_back(Arc::clone(&job));
            drop(q);
            self.shared.work.notify_all();
        }
        self.shared.counters.handoffs.inc();
        // Wait for completion; if the whole pool dies, drain what's left
        // on this thread. Dying workers complete their current chunk's
        // accounting before dropping `alive`, so alive == 0 means every
        // remaining chunk is unclaimed and safe to take.
        let mut q = lock(&self.shared.queue);
        while !job.done.load(Ordering::Acquire) {
            if self.shared.alive.load(Ordering::Relaxed) == 0 {
                drop(q);
                self.drain(&job);
                q = lock(&self.shared.queue);
                continue;
            }
            let (guard, _timeout) = self
                .shared
                .done
                .wait_timeout(q, WAIT_SLICE)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        drop(q);
        let mut results = std::mem::take(&mut *lock(&job.results));
        results.finish(&job.ctl);
        Ok(results)
    }

    /// Serial fallback when no worker is alive: the submitting thread
    /// claims the remaining chunks through the same frontier. A chunk
    /// that crashes here becomes `internal` errors like anywhere else,
    /// and the submitting thread carries on, so the request completes.
    fn drain(&self, job: &Arc<Job>) {
        let mut w = ChunkEval::new(&job.model, &job.output);
        while let Some(range) = job.claim() {
            let start = range.start;
            run_chunk(&mut w, &job.points, range, &job.output, &job.ctl);
            job.deposit(&self.shared, start, &mut w.out);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock and holds it until it parks, so it either sees the flag or
        // is already parked when the notify below arrives.
        {
            let _q = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut lock(&self.supervisor).handles);
        for h in handles {
            // Worker panics were already converted to point errors and
            // death counts; joining must not re-raise them.
            let _ = h.join();
        }
    }
}

/// The worker body: park until a claimable job appears, help it, repeat.
/// Exits on shutdown or on an injected worker-kill (after making the
/// current job's accounting whole).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    shared.alive.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(job) = q.iter().find(|j| j.claimable()) {
                    let job = Arc::clone(job);
                    job.entered.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let killed = job.work(shared);
        {
            let q = lock(&shared.queue);
            job.entered.fetch_sub(1, Ordering::Relaxed);
            if killed {
                // Order matters: the job's chunks are already accounted
                // for (work() deposits before returning), so dropping
                // `alive` here can never strand a claimed chunk.
                shared.alive.fetch_sub(1, Ordering::Relaxed);
            }
            drop(q);
            // Leaving frees a participation slot (or signals death to
            // waiting submitters); wake both sides to re-scan.
            shared.work.notify_all();
            shared.done.notify_all();
        }
        if killed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{PointResult, PointValue, RomSummary};
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;

    fn model2() -> Arc<CompiledModel> {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        Arc::new(CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap())
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
            })
            .collect()
    }

    fn grid(n: usize) -> Arc<PointColumns> {
        Arc::new(PointColumns::from_rows(&rows(n), 2))
    }

    /// Per-point model calls for `rows(n)`: the independent reference.
    fn reference(m: &CompiledModel, n: usize) -> Vec<PointResult> {
        rows(n)
            .iter()
            .map(|p| Ok(PointValue::Moments(m.eval_moments(p))))
            .collect()
    }

    /// Every point's outcome, in input order.
    fn points_of(r: &BatchResults) -> Vec<PointResult> {
        (0..r.len()).map(|i| r.point(i)).collect()
    }

    fn small_pool(workers: usize) -> WorkerPool {
        WorkerPool::new(
            0,
            PoolConfig {
                workers,
                restart_backoff: Duration::from_millis(1),
                max_restart_backoff: Duration::from_millis(50),
            },
        )
    }

    #[test]
    fn small_tapes_get_fewer_larger_chunks() {
        let (n, workers) = (4096, 8);
        // A big tape keeps the fine parallelism grain: 4 chunks/worker.
        let fine = chunk_size(n, workers, 100_000);
        assert_eq!(fine, 128);
        assert_eq!(n.div_ceil(fine), 32);
        // A tiny 32-op tape amortizes per-chunk overhead over a
        // 2048-point floor instead: fewer, larger chunks.
        let coarse = chunk_size(n, workers, 32);
        assert_eq!(coarse, 2048);
        assert_eq!(n.div_ceil(coarse), 2);
        assert!(coarse > fine && n.div_ceil(coarse) < n.div_ceil(fine));
        // The floor is capped so a degenerate one-op tape still splits.
        assert_eq!(chunk_size(10_000, 1, 1), 4_096);
        // A batch smaller than the floor is one whole chunk.
        assert_eq!(chunk_size(10, 8, 1), 10);
        // And the fine grain never drops below MIN_CHUNK.
        assert_eq!(chunk_size(4096, 64, 100_000), MIN_CHUNK);
    }

    #[test]
    fn chunks_align_to_lane_blocks() {
        use awesym_symbolic::MAX_BLOCK_POINTS;
        // A raw grain of 313 (10 000 / 32 chunks) rounds up to the lane
        // block multiple so only the batch's final chunk has a scalar
        // tail.
        assert_eq!(chunk_size(10_000, 8, 100_000), 320);
        for (n, w, ops) in [
            (10_000usize, 8usize, 100_000usize),
            (333, 2, 50),
            (1200, 4, 118),
            (4096, 8, 32),
            (31, 8, 1),
            (65, 3, 10_000),
        ] {
            let c = chunk_size(n, w, ops);
            assert!(
                c % MAX_BLOCK_POINTS == 0 || c == n,
                "chunk_size({n}, {w}, {ops}) = {c} is neither lane-aligned nor the whole batch"
            );
            assert!(c >= 1 && c <= n);
        }
    }

    #[test]
    fn pool_results_match_direct_evaluation_at_any_worker_count() {
        let m = model2();
        let pts = grid(333);
        let reference = reference(&m, pts.len());
        for workers in [1, 2, 4, 8] {
            let pool = small_pool(workers);
            let out = pool
                .run_batch(
                    Arc::clone(&m),
                    Arc::clone(&pts),
                    BatchOutput::Moments,
                    None,
                    None,
                )
                .unwrap();
            assert_eq!(points_of(&out), reference, "workers={workers}");
            assert_eq!(out.panics_caught, 0);
            assert!(!out.deadline_exceeded);
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs_and_output_kinds() {
        let pool = small_pool(2);
        let m = model2();
        let pts = grid(90);
        for output in [
            BatchOutput::Moments,
            BatchOutput::Rom,
            BatchOutput::DcGain,
            BatchOutput::Delays,
        ] {
            let out = pool
                .run_batch(Arc::clone(&m), Arc::clone(&pts), output.clone(), None, None)
                .unwrap();
            assert_eq!(points_of(&out).len(), 90, "{output:?}");
            assert!(points_of(&out).iter().all(Result::is_ok), "{output:?}");
        }
        assert_eq!(pool.alive(), 2);
        assert_eq!(pool.restarts(), 0);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = small_pool(4);
        let out = pool
            .run_batch(
                model2(),
                Arc::new(PointColumns::from_rows(&[], 2)),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        assert!(points_of(&out).is_empty());
    }

    #[test]
    fn expired_deadline_marks_every_point() {
        let pool = small_pool(4);
        let past = Instant::now() - Duration::from_millis(1);
        let out = pool
            .run_batch(model2(), grid(200), BatchOutput::Moments, Some(past), None)
            .unwrap();
        assert!(out.deadline_exceeded);
        assert_eq!(points_of(&out).len(), 200);
        for r in &points_of(&out) {
            assert_eq!(r.as_ref().unwrap_err().code, "deadline_exceeded");
        }
    }

    #[test]
    fn one_point_jobs_match_direct_model_calls_without_a_handoff() {
        let pool = small_pool(2);
        let m = model2();
        let times = vec![0.0, 1e-6, 1e-5];
        for p in rows(3) {
            let pts = Arc::new(PointColumns::from_rows(std::slice::from_ref(&p), 2));
            let (rom, degraded) = m.rom_degraded_from_moments(&m.eval_moments(&p)).unwrap();
            let summary = RomSummary {
                poles_re: rom.poles().iter().map(|z| z.re).collect(),
                poles_im: rom.poles().iter().map(|z| z.im).collect(),
                residues_re: rom.residues().iter().map(|z| z.re).collect(),
                residues_im: rom.residues().iter().map(|z| z.im).collect(),
                dc_gain: rom.dc_gain(),
                stable: rom.is_stable(),
                delay_50: rom.delay_50(),
                degraded: degraded.clone(),
            };
            let cases = [
                (
                    BatchOutput::Moments,
                    PointValue::Moments(m.eval_moments(&p)),
                ),
                (BatchOutput::DcGain, PointValue::DcGain(m.dc_gain(&p))),
                (BatchOutput::Rom, PointValue::Rom(summary)),
                (
                    BatchOutput::Step {
                        times: times.clone(),
                    },
                    PointValue::Step {
                        samples: m.step_response(&p, &times).unwrap(),
                        degraded,
                    },
                ),
                (
                    BatchOutput::Delays,
                    PointValue::Delays(m.delay_estimates(&p).unwrap().into()),
                ),
            ];
            for (output, want) in cases {
                let out = pool
                    .run_batch(Arc::clone(&m), Arc::clone(&pts), output.clone(), None, None)
                    .unwrap();
                assert_eq!(points_of(&out), [Ok(want)], "{output:?}");
                assert_eq!((out.panics_caught, out.chunk_crashes), (0, 0));
            }
        }
        assert_eq!(pool.handoffs(), 0, "one-point jobs never reach the queue");
        pool.run_batch(m, grid(2), BatchOutput::Moments, None, None)
            .unwrap();
        assert_eq!(pool.handoffs(), 1, "a two-point job is queued");
    }

    #[test]
    fn one_point_job_past_its_deadline_answers_deadline_exceeded() {
        let pool = small_pool(2);
        let past = Instant::now() - Duration::from_millis(1);
        let out = pool
            .run_batch(model2(), grid(1), BatchOutput::Rom, Some(past), None)
            .unwrap();
        assert!(out.deadline_exceeded);
        assert_eq!(out.len(), 1);
        assert_eq!(out.error(0).unwrap().code, "deadline_exceeded");
        assert_eq!(pool.handoffs(), 0);
    }

    #[test]
    fn one_point_job_of_wrong_arity_answers_bad_request() {
        let pool = small_pool(2);
        let pts = Arc::new(PointColumns::from_rows(&[vec![1e-9]], 2));
        let out = pool
            .run_batch(model2(), pts, BatchOutput::Moments, None, None)
            .unwrap();
        let e = out.error(0).unwrap();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("2 symbols"), "{e}");
        assert_eq!(pool.handoffs(), 0);
    }

    #[test]
    fn participation_cap_still_completes_the_job() {
        let pool = small_pool(8);
        let m = model2();
        let pts = grid(300);
        let reference = reference(&m, pts.len());
        let out = pool
            .run_batch(
                Arc::clone(&m),
                Arc::clone(&pts),
                BatchOutput::Moments,
                None,
                Some(1),
            )
            .unwrap();
        assert_eq!(points_of(&out), reference);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(small_pool(4));
        let m = model2();
        let pts = grid(256);
        let reference = reference(&m, pts.len());
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = Arc::clone(&pool);
                let m = Arc::clone(&m);
                let pts = Arc::clone(&pts);
                let reference = &reference;
                s.spawn(move || {
                    for _ in 0..5 {
                        let out = pool
                            .run_batch(
                                Arc::clone(&m),
                                Arc::clone(&pts),
                                BatchOutput::Moments,
                                None,
                                None,
                            )
                            .unwrap();
                        assert_eq!(&points_of(&out), reference);
                    }
                });
            }
        });
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killed_workers_never_hang_jobs_and_supervision_respawns() {
        use crate::faults::{self, FaultPlan};
        // The fault plan is process-global and lib tests run in parallel,
        // so target a shard id nothing else in this binary uses — other
        // pools/shards (ids 0-3) see no injected faults.
        let pool = WorkerPool::new(
            7777,
            PoolConfig {
                workers: 3,
                restart_backoff: Duration::from_millis(1),
                max_restart_backoff: Duration::from_millis(50),
            },
        );
        faults::install(FaultPlan {
            seed: 5,
            worker_kill_rate_pct: 100,
            target_shard: Some(7777),
            ..FaultPlan::default()
        });
        let m = model2();
        // More chunks than workers (op-count-aware sizing caps chunks at
        // MAX_CHUNK_FLOOR points for this tiny tape): with chunks left
        // over after every worker dies, the submitter must observe the
        // dead pool — which happens-after the death accounting under the
        // queue lock — and drain the tail, so `deaths`/`alive` below are
        // deterministic rather than racing the final chunk's deposit.
        let n = 4 * MAX_CHUNK_FLOOR;
        let out = pool
            .run_batch(Arc::clone(&m), grid(n), BatchOutput::Moments, None, None)
            .unwrap();
        faults::clear();
        // Every point answered: killed chunks as internal errors, the
        // rest drained serially by the submitter after the pool died.
        assert_eq!(points_of(&out).len(), n);
        assert!(out.panics_caught > 0);
        assert!(pool.deaths() > 0);
        assert_eq!(pool.alive(), 0);
        // Supervision brings the pool back (backoff is 1 ms in tests)
        // and the next batch is fully healthy.
        std::thread::sleep(Duration::from_millis(5));
        let pts = grid(100);
        let reference = reference(&m, 100);
        let out = pool
            .run_batch(Arc::clone(&m), pts, BatchOutput::Moments, None, None)
            .unwrap();
        assert_eq!(points_of(&out), reference);
        assert!(pool.restarts() >= 3, "restarts={}", pool.restarts());
        assert_eq!(pool.alive(), 3);
    }
}
