//! The chunk engine every batch runs through.
//!
//! A compiled model's evaluation is a pure function of the symbol values
//! (a flat tape replay plus a tiny Padé solve), so fanning a batch of
//! points across threads is embarrassingly parallel: each thread working
//! on a batch owns a private [`Evaluator`] (which carries its own scratch
//! and lane register file; the lane plan is the model's, shared) and
//! evaluates disjoint chunks of the request's column-major
//! [`PointColumns`] into a chunk of [`BatchResults`], and the shared model
//! is only read. The submitting thread is always one of those threads: it
//! runs a one-chunk batch (every `eval`, every small batch) alone, and
//! claims chunks of a larger one alongside the [`crate::WorkerPool`]
//! threads it woke as helpers. Results always come back
//! in input order, and a bad point (wrong arity, unstable ROM, …) yields
//! a per-point [`PointError`] instead of aborting the batch. Moment-only
//! batches take the vectorized lane kernel straight off the request
//! columns — one hoisted-load tape replay per block of
//! [`awesym_symbolic::MAX_BLOCK_POINTS`] points (see `docs/tape.md` §7)
//! instead of a walk per point, bit-identical to the per-point path.
//!
//! This module is also the process's blast shield:
//!
//! - **panic isolation** — every point evaluation runs under
//!   `catch_unwind`, so a poisoned point becomes a `PointError` with code
//!   `internal` and the rest of the batch (and the server) keeps going;
//! - **numeric health** — non-finite moments are rejected as
//!   `numeric_unstable` instead of being returned (on the lane path by
//!   `BatchResults::settle_finite`, one contiguous pass per result
//!   column of each 32-point stride), and ROM construction reports when
//!   it had to degrade to a lower approximation order;
//! - **deadlines** — every chunk checks the batch deadline cooperatively
//!   between points and marks unevaluated points `deadline_exceeded`
//!   instead of running arbitrarily long;
//! - **fault injection** — with the `fault-injection` feature, installed
//!   `crate::faults` plans inject panics, NaN moments, and slowdowns per
//!   point, deterministically.

use crate::columns::{result_cols, BatchResults, PointColumns};
use crate::error::{partition_code, PointError};
use awesym_partition::{CompiledModel, Degradation, Evaluator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Points evaluated between deadline checks (and per batch-kernel
/// sub-block): one full lane block, so the check never forces the kernel
/// into a scalar tail.
const CHECK_STRIDE: usize = awesym_symbolic::MAX_BLOCK_POINTS;

/// What to compute for each point of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutput {
    /// The raw `2q` moments.
    Moments,
    /// Full reduced-order model: poles, residues, DC gain, 50 % delay.
    Rom,
    /// DC gain only (first moment).
    DcGain,
    /// Unit-step response sampled at the given times.
    Step {
        /// Sample times in seconds.
        times: Vec<f64>,
    },
    /// The moment-based delay-metric family.
    Delays,
}

/// Pole/residue summary of a reduced-order model, flattened to plain
/// arrays for transport.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RomSummary {
    /// Real parts of the poles (rad/s).
    pub poles_re: Vec<f64>,
    /// Imaginary parts of the poles.
    pub poles_im: Vec<f64>,
    /// Real parts of the residues.
    pub residues_re: Vec<f64>,
    /// Imaginary parts of the residues.
    pub residues_im: Vec<f64>,
    /// DC gain.
    pub dc_gain: f64,
    /// All poles in the open left half-plane?
    pub stable: bool,
    /// 50 % step delay, when the response crosses it.
    pub delay_50: Option<f64>,
    /// The numeric-health fallback that fired, when the exact order was
    /// rejected and a lower order was served.
    pub degraded: Option<Degradation>,
}

/// The delay-metric family, mirroring [`awesym_awe::DelayEstimates`] with
/// serde support.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DelaySummary {
    /// Elmore delay `−m₁`.
    pub elmore: f64,
    /// `ln2 · (−m₁)`.
    pub ln2_elmore: f64,
    /// The D2M metric.
    pub d2m: f64,
    /// Two-pole 50 % delay, when the fit exists.
    pub two_pole: Option<f64>,
}

impl From<awesym_awe::DelayEstimates> for DelaySummary {
    fn from(d: awesym_awe::DelayEstimates) -> Self {
        DelaySummary {
            elmore: d.elmore,
            ln2_elmore: d.ln2_elmore,
            d2m: d.d2m,
            two_pole: d.two_pole,
        }
    }
}

/// One point's successful result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PointValue {
    /// Raw moments.
    Moments(Vec<f64>),
    /// Pole/residue model.
    Rom(RomSummary),
    /// DC gain.
    DcGain(f64),
    /// Step-response samples.
    Step {
        /// The sampled response values.
        samples: Vec<f64>,
        /// The numeric-health fallback that fired, if any.
        degraded: Option<Degradation>,
    },
    /// Delay metrics.
    Delays(DelaySummary),
}

/// One point's outcome: a value or a structured point-local error.
pub type PointResult = Result<PointValue, PointError>;

/// Shared per-batch control block: the deadline, the health counters the
/// workers update, and the id of the shard evaluating the batch (0 on
/// unsharded paths; fault plans can target one shard).
pub(crate) struct BatchCtl {
    pub(crate) deadline: Option<Instant>,
    pub(crate) expired: AtomicBool,
    pub(crate) panics: AtomicU64,
    /// Chunks that crashed outside the per-point guard. The shard's
    /// breaker is charged from this count, so only this job's crashes
    /// count against it.
    pub(crate) crashes: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) shard: usize,
}

impl BatchCtl {
    /// A fresh control block for one batch evaluated by `shard`.
    pub(crate) fn new(deadline: Option<Instant>, shard: usize) -> Self {
        BatchCtl {
            deadline,
            expired: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            shard,
        }
    }

    /// True once the deadline has passed. Sticky: the first worker to
    /// notice flips a flag all workers see without re-reading the clock.
    pub(crate) fn check_expired(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.expired.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Applies any injected fault for the point at `index`: sleeps through
/// `Slow`, panics for `Panic`, and returns `true` when the point's
/// moments must be poisoned with NaN. A no-op (always `false`) without
/// the `fault-injection` feature.
#[inline]
fn apply_injected_fault(shard: usize, index: usize) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        use crate::faults::{fault_for_point_on, Fault};
        match fault_for_point_on(shard, index) {
            Some(Fault::Panic) => panic!("injected fault: panic at point {index}"),
            Some(Fault::Slow(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(Fault::NanMoments) => true,
            None => false,
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (shard, index);
        false
    }
}

/// True when a fault plan is installed (forces the per-point path so
/// every point passes the injection hook). Always `false` without the
/// `fault-injection` feature.
#[inline]
pub(crate) fn faults_active() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        crate::faults::active()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Renders a caught panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn rom_summary(
    model: &CompiledModel,
    moments: &[f64],
) -> Result<(RomSummary, Option<Degradation>), PointError> {
    let (rom, degraded) = model
        .rom_degraded_from_moments(moments)
        .map_err(|e| PointError::new(partition_code(&e), e.to_string()))?;
    let summary = RomSummary {
        poles_re: rom.poles().iter().map(|p| p.re).collect(),
        poles_im: rom.poles().iter().map(|p| p.im).collect(),
        residues_re: rom.residues().iter().map(|k| k.re).collect(),
        residues_im: rom.residues().iter().map(|k| k.im).collect(),
        dc_gain: rom.dc_gain(),
        stable: rom.is_stable(),
        delay_50: rom.delay_50(),
        degraded: degraded.clone(),
    };
    Ok((summary, degraded))
}

/// One worker's evaluation state for one batch: a lazily built
/// [`Evaluator`] (whose lane register file then serves every chunk the
/// worker claims), per-point row buffers, and the chunk result
/// buffer the worker fills before depositing it into the batch's.
pub(crate) struct ChunkEval<'m> {
    model: &'m CompiledModel,
    ev: Option<Evaluator<'m>>,
    vals: Vec<f64>,
    moments: Vec<f64>,
    /// The current chunk's results, slot `i` for the chunk's `i`-th point.
    pub(crate) out: BatchResults,
}

impl<'m> ChunkEval<'m> {
    /// Evaluation state for `output` batches of `model`; allocates
    /// nothing until the first chunk.
    pub(crate) fn new(model: &'m CompiledModel, output: &BatchOutput) -> Self {
        ChunkEval {
            model,
            ev: None,
            vals: Vec::new(),
            moments: Vec::new(),
            out: BatchResults::new(output, result_cols(output, model), 0),
        }
    }

    /// Evaluates points `range` of `input` into [`ChunkEval::out`] behind a
    /// chunk-level `catch_unwind`: the one place a crash outside the
    /// per-point guard (under `fault-injection`, an injected chunk crash)
    /// becomes `internal` errors in the chunk's unfinished slots, counted
    /// in `ctl.panics` and `ctl.crashes`. Whichever thread ran the chunk
    /// drops its evaluator, as after a per-point panic, and carries on.
    pub(crate) fn run_chunk(
        &mut self,
        input: &PointColumns,
        range: std::ops::Range<usize>,
        output: &BatchOutput,
        ctl: &BatchCtl,
    ) {
        self.out.reset(range.len());
        let run = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if crate::faults::fault_crashes_chunk(ctl.shard, range.start) {
                panic!("injected fault: chunk starting {} crashed", range.start);
            }
            self.run(input, range, output, ctl);
        }));
        if run.is_err() {
            ctl.panics.fetch_add(1, Ordering::Relaxed);
            ctl.crashes.fetch_add(1, Ordering::Relaxed);
            self.ev = None;
            self.out.fail_unfilled(
                0,
                &PointError::internal("chunk evaluation crashed outside the per-point guard"),
            );
        }
    }

    /// Evaluates points `range` of `input` into the freshly reset
    /// [`ChunkEval::out`], so a chunk cut short by a crash keeps what it
    /// finished. Moment-only chunks
    /// whose points all have the right arity go through the lane kernel
    /// in lane-block-sized deadline-check strides, straight from the
    /// request columns into the result columns; anything else —
    /// including any run with fault injection active — takes the
    /// per-point path.
    fn run(
        &mut self,
        input: &PointColumns,
        range: std::ops::Range<usize>,
        output: &BatchOutput,
        ctl: &BatchCtl,
    ) {
        let (start, len) = (range.start, range.len());
        debug_assert_eq!(self.out.len(), len, "chunk results reset by run_chunk");
        let model = self.model;
        let n_in = self.ev.get_or_insert_with(|| model.evaluator()).n_inputs();
        let lanes = matches!(output, BatchOutput::Moments)
            && !faults_active()
            && input.uniform(range, n_in);
        if !lanes {
            // The slow path is one tape replay (and possibly a Padé
            // solve) per point — a clock read per point is noise, so
            // check every time.
            for i in 0..len {
                if ctl.check_expired() {
                    self.mark_deadline(i);
                    return;
                }
                self.point_guarded(input, start, i, output, ctl);
            }
            return;
        }
        let n = input.len();
        let mut done = 0;
        while done < len {
            if ctl.check_expired() {
                self.mark_deadline(done);
                return;
            }
            let stride = (len - done).min(CHECK_STRIDE);
            let evaluator = self.ev.get_or_insert_with(|| model.evaluator());
            let out = &mut self.out;
            let run = catch_unwind(AssertUnwindSafe(|| {
                evaluator.eval_columns(
                    &input.values()[start + done..],
                    n,
                    stride,
                    &mut out.values_mut()[done..],
                    len,
                )
            }));
            match run {
                Ok(Ok(())) => out.settle_finite(done..done + stride, non_finite_moments),
                Ok(Err(shape)) => {
                    // Unreachable (arity pre-checked), but degrade to a
                    // per-point error rather than trusting it.
                    for i in done..done + stride {
                        out.fail(i, PointError::bad_request(shape.to_string()));
                    }
                }
                Err(_payload) => {
                    // A panic inside the batch kernel: isolate the poisoned
                    // point(s) by replaying this stride point by point
                    // (each replay produces its own per-point error).
                    ctl.panics.fetch_add(1, Ordering::Relaxed);
                    self.ev = None;
                    for i in done..done + stride {
                        self.point_guarded(input, start, i, output, ctl);
                    }
                }
            }
            done += stride;
        }
    }

    /// Marks every unfilled slot from `from` onward as deadline-exceeded.
    fn mark_deadline(&mut self, from: usize) {
        self.out.fail_unfilled(
            from,
            &PointError::deadline("deadline expired before this point was evaluated"),
        );
    }

    /// Evaluates chunk slot `i` (batch point `start + i`) behind
    /// `catch_unwind`: a panic in the tape replay, the Padé solve, or an
    /// injected fault becomes an `internal` point error, and the
    /// evaluator is rebuilt (its scratch state is suspect mid-unwind).
    fn point_guarded(
        &mut self,
        input: &PointColumns,
        start: usize,
        i: usize,
        output: &BatchOutput,
        ctl: &BatchCtl,
    ) {
        let model = self.model;
        let evaluator = self.ev.get_or_insert_with(|| model.evaluator());
        let (vals, moments, out) = (&mut self.vals, &mut self.moments, &mut self.out);
        let r = catch_unwind(AssertUnwindSafe(|| {
            eval_point(
                model,
                evaluator,
                input,
                start + i,
                output,
                vals,
                moments,
                ctl,
                out,
                i,
            )
        }));
        let r = r.unwrap_or_else(|payload| {
            ctl.panics.fetch_add(1, Ordering::Relaxed);
            self.ev = None;
            Err(PointError::internal(format!(
                "evaluation panicked: {}",
                panic_message(payload.as_ref())
            )))
        });
        match r {
            Ok(()) => self.out.succeed(i),
            Err(e) => self.out.fail(i, e),
        }
    }
}

/// Evaluates batch point `index` of `input` through a worker's
/// [`Evaluator`], writing its columns (and any extra) into slot `slot` of
/// `out`; `vals` and `moments` are the worker's reused row buffers.
/// Increments `ctl.degraded` when a ROM fallback fires.
#[allow(clippy::too_many_arguments)]
fn eval_point(
    model: &CompiledModel,
    ev: &Evaluator<'_>,
    input: &PointColumns,
    index: usize,
    output: &BatchOutput,
    vals: &mut Vec<f64>,
    moments: &mut Vec<f64>,
    ctl: &BatchCtl,
    out: &mut BatchResults,
    slot: usize,
) -> Result<(), PointError> {
    let n_sym = ev.n_inputs();
    let arity = input.arity(index);
    if arity != n_sym {
        return Err(PointError::bad_request(format!(
            "point has {arity} values, model has {n_sym} symbols"
        )));
    }
    input.gather(index, vals);
    moments.resize(ev.n_outputs(), 0.0);
    let poison = apply_injected_fault(ctl.shard, index);
    // Single tape replay covers every output kind — the ROM paths reuse
    // the already-evaluated moments instead of replaying the tape again.
    ev.eval_into(vals, moments);
    if poison {
        moments.fill(f64::NAN);
    }
    // Numeric health gate: never hand back NaN/Inf moments (a division by
    // a zero-valued symbol combination, or an injected fault).
    if moments.iter().any(|m| !m.is_finite()) {
        return Err(non_finite_moments());
    }
    let note_degraded = |d: &Option<Degradation>| {
        if d.is_some() {
            ctl.degraded.fetch_add(1, Ordering::Relaxed);
        }
    };
    match output {
        BatchOutput::Moments => out.set_moments(slot, moments),
        BatchOutput::DcGain => out.set_dc_gain(slot, moments[0]),
        BatchOutput::Rom => {
            let (summary, degraded) = rom_summary(model, moments)?;
            note_degraded(&degraded);
            out.set_rom(slot, summary);
        }
        BatchOutput::Step { times } => {
            let (rom, degraded) = model
                .rom_degraded_from_moments(moments)
                .map_err(|e| PointError::new(partition_code(&e), e.to_string()))?;
            note_degraded(&degraded);
            out.set_step(slot, &rom.step_response_series(times), degraded);
        }
        BatchOutput::Delays => {
            let d = awesym_awe::delay_estimates(moments)
                .map_err(|e| PointError::numeric(e.to_string()))?;
            out.set_delays(slot, &d.into());
        }
    }
    Ok(())
}

/// The error of a point whose moments came out non-finite, on the lane
/// and the per-point path alike.
fn non_finite_moments() -> PointError {
    PointError::numeric("evaluation produced non-finite moments")
}

/// Worker-count default: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;
    use std::sync::Arc;
    use std::time::Duration;

    fn model2() -> Arc<CompiledModel> {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        Arc::new(CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap())
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
            })
            .collect()
    }

    /// Runs `points` through a fresh pool of `workers` threads (`None` →
    /// [`default_workers`]), as a shard does.
    fn run(
        m: &Arc<CompiledModel>,
        points: &[Vec<f64>],
        output: &BatchOutput,
        workers: Option<usize>,
        deadline: Option<Instant>,
    ) -> BatchResults {
        let pool = WorkerPool::new(0, workers.unwrap_or_else(default_workers));
        let input = PointColumns::from_rows(points, m.symbols().len());
        pool.run_batch(
            Arc::clone(m),
            Arc::new(input),
            output.clone(),
            deadline,
            None,
        )
        .unwrap()
    }

    /// Every point's outcome, in input order.
    fn points_of(r: &BatchResults) -> Vec<PointResult> {
        (0..r.len()).map(|i| r.point(i)).collect()
    }

    fn evaluate(
        m: &Arc<CompiledModel>,
        points: &[Vec<f64>],
        output: &BatchOutput,
        workers: Option<usize>,
    ) -> Vec<PointResult> {
        points_of(&run(m, points, output, workers, None))
    }

    #[test]
    fn batch_matches_direct_evaluation_in_order() {
        let m = model2();
        let pts = grid(64);
        let got = evaluate(&m, &pts, &BatchOutput::Moments, Some(4));
        assert_eq!(got.len(), pts.len());
        for (r, p) in got.iter().zip(&pts) {
            assert_eq!(r.as_ref().unwrap(), &PointValue::Moments(m.eval_moments(p)));
        }
    }

    #[test]
    fn worker_counts_agree() {
        let m = model2();
        // 37 points are one chunk, which the calling thread runs alone;
        // 4 × 4096 points are at least four, so pool threads help.
        for n in [37, 4 * 4096] {
            let input = Arc::new(PointColumns::from_rows(&grid(n), 2));
            let mut base = None;
            for w in [1, 2, 3, 8, 64] {
                let pool = WorkerPool::new(0, w);
                let out = pool
                    .run_batch(
                        Arc::clone(&m),
                        Arc::clone(&input),
                        BatchOutput::Rom,
                        None,
                        None,
                    )
                    .unwrap();
                let got = points_of(&out);
                assert_eq!(&got, base.get_or_insert_with(|| got.clone()), "workers={w}");
                let helped = n > 37 && w > 1;
                assert_eq!(pool.handoffs(), u64::from(helped), "n={n} workers={w}");
            }
        }
    }

    /// Points whose moments overflow, from finite symbol values, are
    /// settled by the lane path's column-wise check exactly as the
    /// per-point path settles them: the same status bytes, the same
    /// errors, and NaN in every column of a failed point.
    #[test]
    fn lane_path_fails_non_finite_points_as_the_per_point_path_does() {
        let m = model2();
        let mut pts = grid(4096);
        for (i, p) in pts.iter_mut().enumerate().filter(|(i, _)| i % 37 == 5) {
            *p = vec![1e300, 1e300 * (1.0 + i as f64)];
        }
        let output = BatchOutput::Moments;
        let lanes = run(&m, &pts, &output, Some(2), None);

        let input = PointColumns::from_rows(&pts, 2);
        let ctl = BatchCtl::new(None, 0);
        let mut per_point = ChunkEval::new(&m, &output);
        per_point.out.reset(pts.len());
        for i in 0..pts.len() {
            per_point.point_guarded(&input, 0, i, &output, &ctl);
        }
        let reference = &per_point.out;

        let failed = lanes.status().iter().filter(|&&b| b != 0).count();
        assert_eq!(failed, (0..pts.len()).filter(|i| i % 37 == 5).count());
        assert_eq!(lanes.status(), reference.status());
        let bits = |r: &BatchResults| r.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lanes), bits(reference));
        for i in 0..pts.len() {
            assert_eq!(lanes.error(i), reference.error(i), "point {i}");
            if lanes.error(i).is_some() {
                assert!(lanes.point(i).is_err());
                let nan = (0..lanes.cols()).all(|k| lanes.values()[k * pts.len() + i].is_nan());
                assert!(nan, "point {i} reads NaN in every column");
            }
        }
    }

    #[test]
    fn bad_points_error_without_aborting_batch() {
        let m = model2();
        let pts = vec![vec![1e-9, 1e3], vec![1e-9], vec![2e-9, 2e3]];
        let got = evaluate(&m, &pts, &BatchOutput::DcGain, Some(2));
        assert!(got[0].is_ok());
        let e = got[1].as_ref().unwrap_err();
        assert!(e.message.contains("2 symbols"), "{e}");
        assert_eq!(e.code, "bad_request");
        assert!(got[2].is_ok());
    }

    #[test]
    fn all_output_kinds_produce_values() {
        let m = model2();
        let pts = grid(4);
        for out in [
            BatchOutput::Moments,
            BatchOutput::Rom,
            BatchOutput::DcGain,
            BatchOutput::Step {
                times: vec![0.0, 1e-6, 1e-5],
            },
            BatchOutput::Delays,
        ] {
            let got = evaluate(&m, &pts, &out, None);
            assert!(got.iter().all(Result::is_ok), "{out:?}");
        }
        assert!(evaluate(&m, &[], &BatchOutput::Moments, None).is_empty());
    }

    #[test]
    fn delay_values_are_physical() {
        let m = model2();
        let got = evaluate(&m, &grid(3), &BatchOutput::Delays, Some(2));
        for r in got {
            let PointValue::Delays(d) = r.unwrap() else {
                panic!("wrong kind")
            };
            assert!(d.elmore > 0.0 && d.d2m > 0.0);
        }
    }

    #[test]
    fn healthy_points_report_no_degradation() {
        let m = model2();
        let out = run(&m, &grid(8), &BatchOutput::Rom, Some(2), None);
        assert_eq!(out.panics_caught, 0);
        assert_eq!(out.degraded_points, 0);
        assert!(!out.deadline_exceeded);
        for r in &points_of(&out) {
            let PointValue::Rom(s) = r.as_ref().unwrap() else {
                panic!("wrong kind")
            };
            assert!(s.degraded.is_none());
        }
    }

    #[test]
    fn expired_deadline_marks_remaining_points() {
        let m = model2();
        // A deadline already in the past: every point is marked, none
        // evaluated, and the outcome says so.
        let past = Instant::now() - Duration::from_millis(1);
        for workers in [1, 4] {
            let out = run(
                &m,
                &grid(100),
                &BatchOutput::Moments,
                Some(workers),
                Some(past),
            );
            assert!(out.deadline_exceeded);
            assert_eq!(out.len(), 100);
            let expired = points_of(&out)
                .iter()
                .filter(|r| {
                    r.as_ref()
                        .err()
                        .is_some_and(|e| e.code == "deadline_exceeded")
                })
                .count();
            assert_eq!(expired, 100, "workers={workers}");
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let m = model2();
        let pts = grid(40);
        let free = evaluate(&m, &pts, &BatchOutput::Moments, Some(2));
        let far = Instant::now() + Duration::from_secs(3600);
        let out = run(&m, &pts, &BatchOutput::Moments, Some(2), Some(far));
        assert!(!out.deadline_exceeded);
        assert_eq!(points_of(&out), free);
    }
}
