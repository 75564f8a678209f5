//! Persistent worker pool for batch evaluation — the one executor every
//! batch runs on.
//!
//! A per-batch `std::thread::scope` spawn made batch throughput *drop* as
//! workers increased (thread spawn + join cost swamped the
//! sub-microsecond per-point work), so workers are spawned once, park on
//! a condvar, and steal coarse chunks of whatever job is at the head of
//! the queue via an atomic chunk frontier.
//!
//! The submitting thread is every job's first worker (caller-runs). A
//! job of one chunk (every `eval`, every small batch) runs on it through
//! the same chunk engine the pool threads use, with no queue lock, no
//! wake-up and no wait. A larger job is published to the queue and wakes
//! at most `workers − 1` parked pool threads as helpers, while the
//! submitter claims chunks from the same frontier until it is empty and
//! then sleeps only while a helper still holds a chunk. A parked thread
//! takes microseconds to wake, and the submitter does not wait for that
//! before work starts.
//!
//! Jobs never hang, and every thread that runs a chunk follows one crash
//! policy: the chunk runs under `catch_unwind`
//! (`ChunkEval::run_chunk`), so a chunk that crashes outside the
//! per-point guard fills its unfinished slots with `internal` point
//! errors and is counted on the job ([`BatchResults::chunk_crashes`],
//! which the shard's breaker reads) before the chunk is deposited. The
//! thread that ran it, pool thread or submitter, drops its evaluator and
//! claims its next chunk; only dropping the pool ends a pool thread. The
//! pool counts its hand-offs on a counter a shard registers as a metric.
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
use crate::ServeError;
use awesym_obs::Counter;
use awesym_partition::CompiledModel;
use std::collections::VecDeque;
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

/// Lock, surviving poison: a thread that panicked at an unexpected
/// moment while holding a lock must not wedge the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One batch of two or more chunks: the inputs, an atomic chunk frontier
/// the submitter and its helpers claim from, and the result buffer they
/// fill.
struct Job {
    model: Arc<CompiledModel>,
    points: Arc<PointColumns>,
    output: BatchOutput,
    ctl: BatchCtl,
    /// Points per chunk.
    chunk: usize,
    n_chunks: usize,
    /// Most pool threads inside this job at once: the request's
    /// `workers` less the submitting thread.
    max_workers: usize,
    /// Pool threads currently inside this job. Only touched under the
    /// queue lock (atomic purely for shared access through the `Arc`).
    entered: AtomicUsize,
    next_chunk: AtomicUsize,
    chunks_done: AtomicUsize,
    done: AtomicBool,
    results: Mutex<BatchResults>,
}

impl Job {
    /// Whether a pool thread scanning the queue should pick this job up:
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

    /// Claims, evaluates and deposits chunks until the frontier is
    /// exhausted. A crashed chunk is deposited like any other.
    fn work(&self, shared: &Shared) {
        let mut w = ChunkEval::new(&self.model, &self.output);
        while let Some(range) = self.claim() {
            let start = range.start;
            w.run_chunk(&self.points, range, &self.output, &self.ctl);
            self.deposit(shared, start, &mut w.out);
        }
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

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Workers park here for new work.
    work: Condvar,
    /// Submitters park here for job completion (paired with `queue`).
    done: Condvar,
    /// Jobs published to pool threads as helpers. A shard passes its
    /// registered `shard{i}_pool_handoffs_total`.
    handoffs: Arc<Counter>,
    shutdown: AtomicBool,
    shard: usize,
}

/// A persistent worker pool evaluating batches against any compiled
/// model. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `workers` threads (at least 1) serving `shard`; a job
    /// uses at most that many threads, the submitting thread included.
    /// Unsharded users pass shard 0.
    pub fn new(shard: usize, workers: usize) -> Self {
        Self::with_handoffs(shard, workers, Arc::default())
    }

    /// [`WorkerPool::new`], counting hand-offs on `handoffs`.
    pub(crate) fn with_handoffs(shard: usize, workers: usize, handoffs: Arc<Counter>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Condvar::new(),
            handoffs,
            shutdown: AtomicBool::new(false),
            shard,
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("awesym-shard{shard}-w{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs published to pool threads as helpers: one per job of two or
    /// more chunks that may use two or more threads. Any other job runs
    /// on the submitting thread alone and is not counted.
    pub fn handoffs(&self) -> u64 {
        self.shared.handoffs.get()
    }

    /// Pool threads that have not exited.
    #[cfg(test)]
    fn running(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// Evaluates `points` against `model`, returning results in input
    /// order. `max_workers` caps the threads evaluating this job, the
    /// calling thread included (`None` → the pool's `workers`). The
    /// calling thread runs a one-chunk job alone; a larger job is also
    /// offered to `max_workers − 1` pool threads, and the calling thread
    /// claims chunks alongside them.
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
        let ctl = BatchCtl::new(deadline, self.shared.shard);
        let max_workers = max_workers.unwrap_or(usize::MAX).clamp(1, self.workers);
        let chunk = chunk_size(n, max_workers, model.op_count());
        if chunk == n {
            // The chunk buffer of a one-chunk job is already the job's
            // whole result in its final layout.
            let mut w = ChunkEval::new(&model, &output);
            w.run_chunk(&points, 0..n, &output, &ctl);
            let mut results = w.out;
            results.finish(&ctl);
            return Ok(results);
        }
        let job = Arc::new(Job {
            results: Mutex::new(BatchResults::new(&output, cols, n)),
            model,
            points,
            output,
            ctl,
            chunk,
            n_chunks: n.div_ceil(chunk),
            max_workers: max_workers - 1,
            entered: AtomicUsize::new(0),
            next_chunk: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        });
        if job.max_workers > 0 {
            lock(&self.shared.queue).push_back(Arc::clone(&job));
            for _ in 0..job.max_workers {
                self.shared.work.notify_one();
            }
            self.shared.handoffs.inc();
        }
        job.work(&self.shared);
        // The frontier is empty, and a helper deposits every chunk it
        // claimed, so only those chunks are waited for.
        let mut q = lock(&self.shared.queue);
        while !job.done.load(Ordering::Acquire) {
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
        for h in self.handles.drain(..) {
            // Chunk panics were already converted to point errors and
            // crash counts; joining must not re-raise anything.
            let _ = h.join();
        }
    }
}

/// The worker body: park until a claimable job appears, help it, repeat
/// until the pool is dropped.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
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
        job.work(shared);
        let _q = lock(&shared.queue);
        job.entered.fetch_sub(1, Ordering::Relaxed);
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

    /// A job this long is at least four chunks at every worker count the
    /// tests use, so pool threads join it as helpers.
    const MULTI: usize = 4 * MAX_CHUNK_FLOOR;

    fn small_pool(workers: usize) -> WorkerPool {
        WorkerPool::new(0, workers)
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
                c.is_multiple_of(MAX_BLOCK_POINTS) || c == n,
                "chunk_size({n}, {w}, {ops}) = {c} is neither lane-aligned nor the whole batch"
            );
            assert!(c >= 1 && c <= n);
        }
    }

    #[test]
    fn pool_results_match_direct_evaluation_at_any_worker_count() {
        let m = model2();
        // 333 points are one chunk, which the calling thread runs alone;
        // MULTI points are several, so pool threads help.
        for n in [333, MULTI] {
            let pts = grid(n);
            let reference = reference(&m, n);
            for workers in [1, 2, 4, 8] {
                let chunks = n.div_ceil(chunk_size(n, workers, m.op_count()));
                assert_eq!(chunks >= 4, n == MULTI, "n={n} workers={workers}");
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
                assert_eq!(points_of(&out), reference, "n={n} workers={workers}");
                assert_eq!(out.panics_caught, 0);
                assert!(!out.deadline_exceeded);
                let helped = n == MULTI && workers > 1;
                assert_eq!(
                    pool.handoffs(),
                    u64::from(helped),
                    "n={n} workers={workers}"
                );
            }
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
            assert_eq!(out.chunk_crashes, 0, "{output:?}");
        }
        assert_eq!(pool.running(), 2);
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
        pool.run_batch(m, grid(MULTI), BatchOutput::Moments, None, None)
            .unwrap();
        assert_eq!(pool.handoffs(), 1, "a multi-chunk job is published once");
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
        // 256 points are one chunk per submitter; MULTI points are
        // published to the pool threads, 30 jobs in all.
        for (n, handoffs) in [(256, 0), (MULTI, 30)] {
            let pts = grid(n);
            let reference = reference(&m, n);
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
            assert_eq!(pool.handoffs(), handoffs, "n={n}");
        }
    }

    /// Every chunk of a multi-chunk job crashes, on pool threads and on
    /// the calling thread alike. Every point still answers, the crashes
    /// are counted on the job, and no thread exits: the pool's next job
    /// is bit-identical to per-point evaluation.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn crashed_chunks_never_hang_jobs_or_end_a_pool_thread() {
        use crate::faults::{self, FaultPlan};
        // The fault plan is process-global: hold the crate's plan lock,
        // and target a shard id no other pool in this binary uses.
        const SHARD: usize = 7777;
        let _guard = faults::test_guard();
        let pool = WorkerPool::new(SHARD, 3);
        let m = model2();
        let n_chunks = MULTI.div_ceil(chunk_size(MULTI, 3, m.op_count()));
        assert!(n_chunks > 3, "{n_chunks}");
        faults::install(FaultPlan {
            seed: 5,
            chunk_crash_rate_pct: 100,
            target_shard: Some(SHARD),
            ..FaultPlan::default()
        });
        // The hook holds the calling thread in its first crash until a
        // pool thread has crashed a chunk too, so pool threads run
        // crashed chunks whatever the scheduling.
        let caller = std::thread::current().id();
        let pool_crashed = Arc::new((Mutex::new(false), Condvar::new()));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new({
            let pool_crashed = Arc::clone(&pool_crashed);
            move |_| {
                let (crashed, cv) = &*pool_crashed;
                let me = std::thread::current();
                if me
                    .name()
                    .is_some_and(|n| n.starts_with(&format!("awesym-shard{SHARD}-")))
                {
                    *lock(crashed) = true;
                    cv.notify_all();
                } else if me.id() == caller {
                    let wait = Duration::from_secs(10);
                    drop(cv.wait_timeout_while(lock(crashed), wait, |c| !*c));
                }
            }
        }));
        let out = pool
            .run_batch(
                Arc::clone(&m),
                grid(MULTI),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        std::panic::set_hook(hook);
        faults::clear();

        assert_eq!(out.len(), MULTI);
        for (i, r) in points_of(&out).iter().enumerate() {
            assert_eq!(r.as_ref().unwrap_err().code, "internal", "point {i}");
        }
        assert_eq!(out.chunk_crashes, n_chunks as u64);
        assert!(*lock(&pool_crashed.0), "no pool thread ran a crashed chunk");
        assert_eq!(pool.running(), 3, "a crash ended a pool thread");

        let out = pool
            .run_batch(
                Arc::clone(&m),
                grid(MULTI),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        let bits = |r: &[PointResult]| -> Vec<u64> {
            r.iter()
                .flat_map(|p| match p {
                    Ok(PointValue::Moments(v)) => v.clone(),
                    other => panic!("{other:?}"),
                })
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&points_of(&out)), bits(&reference(&m, MULTI)));
        assert_eq!((out.panics_caught, out.chunk_crashes), (0, 0));
        assert_eq!(pool.handoffs(), 2, "one hand-off per multi-chunk job");
        assert_eq!(pool.running(), 3);
    }

    /// An injected crash on a chunk the calling thread runs fails exactly
    /// that chunk's points and counts one chunk crash, and the calling
    /// thread answers its next job.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn kill_on_a_caller_run_chunk_fails_only_that_chunk() {
        use crate::faults::{self, FaultPlan};
        const SHARD: usize = 7780;
        let _guard = faults::test_guard();
        let pool = WorkerPool::new(SHARD, 2);
        let m = model2();
        // `max_workers: 1` leaves every chunk to the calling thread.
        let chunk = chunk_size(MULTI, 1, m.op_count());
        let starts: Vec<usize> = (0..MULTI).step_by(chunk).collect();
        assert!(starts.len() >= 4);
        let crashes = |p: &FaultPlan| -> Vec<usize> {
            starts
                .iter()
                .copied()
                .filter(|&s| p.crashes_chunk_on(SHARD, s))
                .collect()
        };
        // The first seed whose plan crashes one chunk, and not the first.
        let plan = (0..)
            .map(|seed| FaultPlan {
                seed,
                chunk_crash_rate_pct: 25,
                target_shard: Some(SHARD),
                ..FaultPlan::default()
            })
            .find(|p| matches!(crashes(p)[..], [s] if s != 0))
            .unwrap();
        let start = crashes(&plan)[0];
        let crashed = start..start + chunk;
        faults::install(plan);
        let out = pool
            .run_batch(
                Arc::clone(&m),
                grid(MULTI),
                BatchOutput::Moments,
                None,
                Some(1),
            )
            .unwrap();
        // The next job starts at point 0, which the plan does not crash.
        let next = pool
            .run_batch(Arc::clone(&m), grid(1), BatchOutput::Moments, None, None)
            .unwrap();
        faults::clear();

        assert_eq!((out.chunk_crashes, out.panics_caught), (1, 1));
        let want = reference(&m, MULTI);
        for (i, got) in points_of(&out).iter().enumerate() {
            if crashed.contains(&i) {
                assert_eq!(got.as_ref().unwrap_err().code, "internal", "point {i}");
            } else {
                assert_eq!(got, &want[i], "point {i}");
            }
        }
        assert_eq!((pool.handoffs(), pool.running()), (0, 2));
        assert_eq!(points_of(&next), reference(&m, 1));
        assert_eq!(next.chunk_crashes, 0);
    }
}
