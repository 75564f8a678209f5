//! The unified evaluation surface for compiled tapes.
//!
//! [`Evaluator`] owns its scratch register file and routes batches
//! through the vectorized lane backend ([`crate::lanes`]): full blocks of
//! [`MAX_BLOCK_POINTS`](crate::MAX_BLOCK_POINTS) points replay a pre-lowered arithmetic stream
//! (const/sym loads hoisted out, operands pre-resolved) with
//! double-buffered input columns, and the remainder falls back to the
//! per-point path. Results are bit-identical to
//! [`Evaluator::eval_into`]. The lane plan itself belongs to the
//! [`CompiledFn`], so every evaluator of a function shares one. The
//! pre-lane SoA kernel survives as [`Evaluator::eval_batch_soa_ref`], the
//! baseline the `simd` bench section measures speedups against.

use crate::lanes::{LanePlan, Phase, B};
use crate::CompiledFn;
use std::cell::RefCell;
use std::fmt;

/// Points per SoA block in [`Evaluator::eval_batch_soa_ref`], the scalar
/// reference kernel.
const LANES: usize = 8;

/// A batch input whose shape does not match the compiled function —
/// either a point with the wrong symbol count or an output slice of the
/// wrong length. Returned by [`Evaluator::eval_columns`] and
/// [`Evaluator::eval_batch_soa_ref`] so callers can turn shape bugs into
/// per-request errors instead of panics; [`Evaluator::eval_batch`]
/// panics with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchShapeError {
    /// Point `index` carried `got` values; the function takes `expected`.
    PointArity {
        /// Index of the offending point.
        index: usize,
        /// Values supplied.
        got: usize,
        /// Symbol count the function expects.
        expected: usize,
    },
    /// The output slice holds `got` values; `expected` are needed.
    OutputLen {
        /// Slice length supplied.
        got: usize,
        /// `points.len() * n_outputs()`.
        expected: usize,
    },
    /// A column-major input slice holds `got` values; `expected` are
    /// needed (or its stride is shorter than the point count).
    InputLen {
        /// Slice length supplied.
        got: usize,
        /// Values the strided columns span.
        expected: usize,
    },
}

impl fmt::Display for BatchShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchShapeError::PointArity {
                index,
                got,
                expected,
            } => write!(
                f,
                "point {index} has {got} values, function takes {expected} symbols"
            ),
            BatchShapeError::OutputLen { got, expected } => {
                write!(f, "output slice holds {got} values, {expected} needed")
            }
            BatchShapeError::InputLen { got, expected } => {
                write!(f, "input columns hold {got} values, {expected} needed")
            }
        }
    }
}

impl std::error::Error for BatchShapeError {}

/// An affine extension appended after the tape outputs:
/// `row_i = base[i] + Σ_j jac[i][j] · (x[j] − x0[j])`.
///
/// This is how a partial-Padé model's Taylor tail (first-order moment
/// sensitivities around the nominal point) rides along with the compiled
/// symbolic moments in a single [`Evaluator`].
#[derive(Debug, Clone, PartialEq)]
pub struct AffineTail {
    base: Vec<f64>,
    jac: Vec<Vec<f64>>,
    x0: Vec<f64>,
}

impl AffineTail {
    /// Builds a tail of `base.len()` rows over `x0.len()` inputs.
    ///
    /// # Panics
    ///
    /// Panics when `jac` is not `base.len()` rows of `x0.len()` columns.
    pub fn new(base: Vec<f64>, jac: Vec<Vec<f64>>, x0: Vec<f64>) -> Self {
        assert_eq!(jac.len(), base.len(), "jacobian row count mismatch");
        for row in &jac {
            assert_eq!(row.len(), x0.len(), "jacobian column count mismatch");
        }
        AffineTail { base, jac, x0 }
    }

    /// Number of appended rows.
    pub fn rows(&self) -> usize {
        self.base.len()
    }

    #[inline]
    fn eval_row(&self, i: usize, vals: &[f64]) -> f64 {
        self.eval_row_with(i, |j| vals[j])
    }

    /// Row `i` with input `j` read through `x` (the lane driver reads it
    /// from the register file's input region).
    #[inline]
    fn eval_row_with(&self, i: usize, x: impl Fn(usize) -> f64) -> f64 {
        let mut acc = self.base[i];
        for (j, (&jac, &x0)) in self.jac[i].iter().zip(&self.x0).enumerate() {
            acc += jac * (x(j) - x0);
        }
        acc
    }
}

/// A reusable evaluation context for a [`CompiledFn`] — the preferred way
/// to evaluate compiled models.
///
/// The evaluator owns its register file, so evaluation takes `&self` and
/// allocates nothing per point. It is `Send` but not `Sync`: create one
/// per worker thread (they are cheap — one `Vec` of `n_regs` doubles;
/// the lane plan is the [`CompiledFn`]'s, built once by the first batch
/// call through any evaluator, and [`Evaluator::eval_columns`] keeps its
/// lane register file from its first call on).
///
/// ```
/// use awesym_symbolic::ExprGraph;
///
/// let mut g = ExprGraph::new(2);
/// let (x, y) = (g.sym(0), g.sym(1));
/// let e = g.mul(x, y);
/// let f = g.compile(&[e]);
/// let ev = f.evaluator();
/// let mut out = [0.0];
/// ev.eval_into(&[3.0, 4.0], &mut out);
/// assert_eq!(out[0], 12.0);
/// ```
#[derive(Debug)]
pub struct Evaluator<'m> {
    fun: &'m CompiledFn,
    tail: Option<AffineTail>,
    scratch: RefCell<Vec<f64>>,
    /// The column-major entry's lane register file, kept across calls so
    /// a caller that feeds the kernel in small strides (the serve
    /// engine's 32-point deadline checks) allocates and splats the const
    /// pool once.
    lanes: RefCell<LaneFile>,
}

/// An evaluator's lane register file plus the row buffers the
/// column-major scalar tail gathers into. Empty until the first batch
/// call that needs it.
#[derive(Debug, Default)]
struct LaneFile {
    /// Empty before the first lane call.
    backing: Vec<f64>,
    /// Start of the 64-byte-aligned register file inside `backing`.
    off: usize,
    point: Vec<f64>,
    row: Vec<f64>,
}

impl LaneFile {
    /// The register file for `plan`, allocated and const-splatted on
    /// first use.
    ///
    /// The file is 64-byte aligned. `Vec<f64>` only guarantees 8-byte
    /// alignment, and when the base lands mid-cache-line every tile
    /// load/store in the replay straddles two lines — a silent
    /// per-process penalty (≈20 % on the bundled workloads) that comes
    /// and goes with allocator layout. `align_offset` keeps this in safe
    /// code: over-allocate one cache line and start at the first aligned
    /// element (offset 0 if the implementation ever declines to compute
    /// one). Replay writes only runtime-register slots, so the const pool
    /// stays valid across calls.
    fn regs(&mut self, plan: &LanePlan) -> &mut [f64] {
        let n_slots = plan.n_slots() * B;
        if self.backing.is_empty() {
            self.backing = vec![0.0; n_slots + 8];
            self.off = match self.backing.as_ptr().align_offset(64) {
                o if o <= 8 => o,
                _ => 0,
            };
            plan.init_consts(&mut self.backing[self.off..self.off + n_slots]);
        }
        &mut self.backing[self.off..self.off + n_slots]
    }
}

impl<'m> Evaluator<'m> {
    pub(crate) fn new(fun: &'m CompiledFn, tail: Option<AffineTail>) -> Self {
        if let Some(t) = &tail {
            assert_eq!(t.x0.len(), fun.n_syms(), "affine tail input arity mismatch");
        }
        Evaluator {
            fun,
            tail,
            scratch: RefCell::new(vec![0.0; fun.tape().n_regs()]),
            lanes: RefCell::new(LaneFile::default()),
        }
    }

    /// Number of input symbols.
    pub fn n_inputs(&self) -> usize {
        self.fun.n_syms()
    }

    /// Number of outputs per point (tape outputs plus tail rows).
    pub fn n_outputs(&self) -> usize {
        self.fun.n_outputs() + self.tail.as_ref().map_or(0, AffineTail::rows)
    }

    /// Evaluates one point into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len() != self.n_inputs()` or
    /// `out.len() != self.n_outputs()`.
    pub fn eval_into(&self, vals: &[f64], out: &mut [f64]) {
        assert_eq!(vals.len(), self.n_inputs(), "value vector length mismatch");
        assert_eq!(out.len(), self.n_outputs(), "output slice length mismatch");
        self.replay_point(vals, out);
    }

    /// The per-point replay behind [`Evaluator::eval_into`]; batch calls
    /// run their scalar tails through it. Shapes are the caller's to
    /// check.
    fn replay_point(&self, vals: &[f64], out: &mut [f64]) {
        let mut regs = self.scratch.borrow_mut();
        self.fun.tape().replay(vals, &mut regs);
        let k = self.fun.n_outputs();
        for (o, &r) in out[..k].iter_mut().zip(self.fun.output_regs()) {
            *o = regs[r as usize];
        }
        if let Some(t) = &self.tail {
            for (i, o) in out[k..].iter_mut().enumerate() {
                *o = t.eval_row(i, vals);
            }
        }
    }

    /// Evaluates one point, allocating the result vector.
    pub fn eval(&self, vals: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_outputs()];
        self.eval_into(vals, &mut out);
        out
    }

    /// Evaluates a batch of points into row-major `out`
    /// (`points.len() × self.n_outputs()`).
    ///
    /// Full blocks of [`MAX_BLOCK_POINTS`](crate::MAX_BLOCK_POINTS) points run through the
    /// vectorized lane kernel; the remainder falls back to the
    /// single-point path. Results are bit-identical to per-point
    /// [`Evaluator::eval_into`] — see `docs/tape.md` §7.
    ///
    /// # Panics
    ///
    /// Panics when a point has the wrong arity or `out` is not
    /// `points.len() * self.n_outputs()` long. Column-major callers that
    /// want a typed error use [`Evaluator::eval_columns`].
    pub fn eval_batch(&self, points: &[Vec<f64>], out: &mut [f64]) {
        if let Err(e) = self.check_shapes(points, out) {
            // A shape mismatch here is a caller bug; panic in every build
            // profile rather than read stale registers.
            panic!("eval_batch shape error: {e}");
        }
        let n_out = self.n_outputs();
        let full = self.eval_rows(points, out);
        // Scalar tail: the per-point replay, bit-identical.
        for (p, row) in points[full..]
            .iter()
            .zip(out[full * n_out..].chunks_exact_mut(n_out))
        {
            self.replay_point(p, row);
        }
    }

    /// Evaluates `count` points held column-major — symbol `s` of point
    /// `i` is `input[s * in_stride + i]` — writing output `k` of point
    /// `i` to `out[k * out_stride + i]`. The strides let a caller run a
    /// sub-range of a larger column-major batch in place: the serve
    /// engine passes its request buffer and result buffer offset to the
    /// first point of each deadline stride.
    ///
    /// Runs the same lane kernel and block driver as
    /// [`Evaluator::eval_batch`], so results are bit-identical to
    /// per-point [`Evaluator::eval_into`]. The register file and const
    /// pool are built on the first call and reused by later ones.
    ///
    /// # Errors
    ///
    /// [`BatchShapeError::InputLen`] / [`BatchShapeError::OutputLen`]
    /// when a stride is shorter than `count` or a slice cannot hold every
    /// column; nothing is evaluated on error.
    pub fn eval_columns(
        &self,
        input: &[f64],
        in_stride: usize,
        count: usize,
        out: &mut [f64],
        out_stride: usize,
    ) -> Result<(), BatchShapeError> {
        let span = |cols: usize, stride: usize| match cols {
            0 => 0,
            c => (c - 1) * stride + count,
        };
        let (need_in, need_out) = (
            span(self.n_inputs(), in_stride),
            span(self.n_outputs(), out_stride),
        );
        if in_stride < count || input.len() < need_in {
            return Err(BatchShapeError::InputLen {
                got: input.len(),
                expected: need_in.max(count),
            });
        }
        if out_stride < count || out.len() < need_out {
            return Err(BatchShapeError::OutputLen {
                got: out.len(),
                expected: need_out.max(count),
            });
        }
        let full = self.eval_cols(input, in_stride, count, out, out_stride);
        if full < count {
            let mut file = self.lanes.borrow_mut();
            let LaneFile { point, row, .. } = &mut *file;
            point.resize(self.n_inputs(), 0.0);
            row.resize(self.n_outputs(), 0.0);
            for i in full..count {
                for (s, x) in point.iter_mut().enumerate() {
                    *x = input[s * in_stride + i];
                }
                self.replay_point(point, row);
                for (k, &v) in row.iter().enumerate() {
                    out[k * out_stride + i] = v;
                }
            }
        }
        Ok(())
    }

    /// The pre-lane blocked SoA kernel (8-point blocks, const and sym
    /// loads replayed every block). Kept as the measured baseline for the
    /// `simd` section of `tape_bench` — the ≥1.5x gate in `bench_gate`
    /// compares the lane kernel against this — and as an independent
    /// reference implementation in parity tests.
    /// Production callers want [`Evaluator::eval_batch`].
    ///
    /// # Errors
    ///
    /// [`BatchShapeError::PointArity`] for the first point whose length is
    /// not `self.n_inputs()`; [`BatchShapeError::OutputLen`] when `out` is
    /// not `points.len() * self.n_outputs()` long. Nothing is evaluated
    /// and `out` is untouched on error.
    pub fn eval_batch_soa_ref(
        &self,
        points: &[Vec<f64>],
        out: &mut [f64],
    ) -> Result<(), BatchShapeError> {
        self.check_shapes(points, out)?;
        let tape = self.fun.tape();
        let n_in = self.n_inputs();
        let n_out = self.n_outputs();
        let k = self.fun.n_outputs();
        let full = points.len() / LANES * LANES;
        if full > 0 {
            let mut xb = vec![0.0; n_in.max(1) * LANES];
            let mut regs = vec![0.0; tape.n_regs().max(1) * LANES];
            for p0 in (0..full).step_by(LANES) {
                for (lane, p) in points[p0..p0 + LANES].iter().enumerate() {
                    for (s, &x) in p.iter().enumerate() {
                        xb[s * LANES + lane] = x;
                    }
                }
                replay_block(tape, &xb, &mut regs);
                for lane in 0..LANES {
                    let row = &mut out[(p0 + lane) * n_out..(p0 + lane + 1) * n_out];
                    for (o, &r) in row[..k].iter_mut().zip(self.fun.output_regs()) {
                        *o = regs[r as usize * LANES + lane];
                    }
                    if let Some(t) = &self.tail {
                        for (i, o) in row[k..].iter_mut().enumerate() {
                            *o = t.eval_row(i, &points[p0 + lane]);
                        }
                    }
                }
            }
        }
        for (p, row) in points[full..]
            .iter()
            .zip(out[full * n_out..].chunks_exact_mut(n_out))
        {
            self.replay_point(p, row);
        }
        Ok(())
    }

    fn check_shapes(&self, points: &[Vec<f64>], out: &[f64]) -> Result<(), BatchShapeError> {
        let n_in = self.n_inputs();
        let n_out = self.n_outputs();
        if out.len() != points.len() * n_out {
            return Err(BatchShapeError::OutputLen {
                got: out.len(),
                expected: points.len() * n_out,
            });
        }
        if let Some((index, p)) = points.iter().enumerate().find(|(_, p)| p.len() != n_in) {
            return Err(BatchShapeError::PointArity {
                index,
                got: p.len(),
                expected: n_in,
            });
        }
        Ok(())
    }

    /// Row-major front of the block driver: block rows are transposed
    /// into the input region, outputs scattered into point rows.
    ///
    /// Its register file lives for one call: row-major callers hand the
    /// kernel whole batches, so a kept file would only add resident
    /// memory.
    fn eval_rows(&self, points: &[Vec<f64>], out: &mut [f64]) -> usize {
        let n_out = self.n_outputs();
        self.eval_blocks(
            &mut LaneFile::default(),
            points.len(),
            |plan, phase, p0, regs| plan.load_inputs(phase, &points[p0..p0 + B], regs),
            |p0, k, tile| {
                for (l, &v) in tile.iter().enumerate() {
                    out[(p0 + l) * n_out + k] = v;
                }
            },
        )
    }

    /// Column-major front of the block driver: each symbol's block is one
    /// contiguous copy in, each output's block one contiguous copy out.
    fn eval_cols(
        &self,
        input: &[f64],
        in_stride: usize,
        count: usize,
        out: &mut [f64],
        out_stride: usize,
    ) -> usize {
        self.eval_blocks(
            &mut self.lanes.borrow_mut(),
            count,
            |plan, phase, p0, regs| {
                for (s, slot) in plan.input_slots(phase).enumerate() {
                    regs[slot * B..(slot + 1) * B]
                        .copy_from_slice(&input[s * in_stride + p0..][..B]);
                }
            },
            |p0, k, tile| out[k * out_stride + p0..][..B].copy_from_slice(tile),
        )
    }

    /// The block driver: runs all full blocks of an `n`-point batch
    /// through the lane kernel, in `file`'s register file, and returns how
    /// many points were covered (a multiple of [`MAX_BLOCK_POINTS`](crate::MAX_BLOCK_POINTS); the
    /// caller owns the scalar tail).
    /// `load(plan, phase, p0, regs)` fills `phase`'s input region with
    /// block `p0`; `store(p0, k, tile)` receives output `k` of the block
    /// (tape outputs first, then affine-tail rows).
    ///
    /// Inputs are double-buffered: block `k + 1` is loaded into the
    /// inactive input region *before* block `k` replays, so the next
    /// block's loads overlap the current block's arithmetic chain instead
    /// of serializing after it (runtime registers are phase-shared — only
    /// the input regions ping/pong — which is safe because loads touch
    /// nothing but the inactive input region).
    fn eval_blocks(
        &self,
        file: &mut LaneFile,
        n: usize,
        mut load: impl FnMut(&LanePlan, Phase, usize, &mut [f64]),
        mut store: impl FnMut(usize, usize, &[f64; B]),
    ) -> usize {
        let full = n / B * B;
        if full == 0 {
            return 0;
        }
        let plan = self.fun.lane_plan();
        let k_tape = self.fun.n_outputs();
        let regs = file.regs(plan);
        let mut phase = Phase::Ping;
        load(plan, phase, 0, regs);
        for p0 in (0..full).step_by(B) {
            if p0 + B < full {
                load(plan, phase.other(), p0 + B, regs);
            }
            plan.replay(phase, regs);
            for (k, &slot) in plan.outputs(phase).iter().enumerate() {
                let o = slot as usize * B;
                store(p0, k, (&regs[o..o + B]).try_into().expect("B-lane tile"));
            }
            if let Some(t) = &self.tail {
                // Tail rows read the block's inputs straight from the
                // input region, in the same operand order as `eval_row`.
                let x0 = plan.input_slots(phase).start * B;
                let x = &regs[x0..x0 + self.fun.n_syms() * B];
                for i in 0..t.rows() {
                    let tile: [f64; B] =
                        std::array::from_fn(|l| t.eval_row_with(i, |j| x[j * B + l]));
                    store(p0, k_tape + i, &tile);
                }
            }
            phase = phase.other();
        }
        full
    }
}

/// Replays the tape over [`LANES`] points at once. Registers live in SoA
/// layout: lane `l` of register `r` is `regs[r*LANES + l]`. Operands are
/// copied to stack arrays before the lane loop so each arm is a
/// straight-line, bounds-check-free map the compiler can vectorize.
fn replay_block(tape: &crate::Tape, xb: &[f64], regs: &mut [f64]) {
    use crate::TapeOp;
    let lane = |v: u32| v as usize * LANES;
    for (op, &d) in tape.ops().iter().zip(tape.dst()) {
        let db = lane(d);
        let dv: [f64; LANES] = match *op {
            TapeOp::Const(c) => [c; LANES],
            TapeOp::Sym(s) => xb[lane(s)..lane(s) + LANES].try_into().unwrap(),
            TapeOp::Add(a, b) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                let vb: [f64; LANES] = regs[lane(b)..lane(b) + LANES].try_into().unwrap();
                std::array::from_fn(|l| va[l] + vb[l])
            }
            TapeOp::Sub(a, b) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                let vb: [f64; LANES] = regs[lane(b)..lane(b) + LANES].try_into().unwrap();
                std::array::from_fn(|l| va[l] - vb[l])
            }
            TapeOp::Mul(a, b) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                let vb: [f64; LANES] = regs[lane(b)..lane(b) + LANES].try_into().unwrap();
                std::array::from_fn(|l| va[l] * vb[l])
            }
            TapeOp::Div(a, b) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                let vb: [f64; LANES] = regs[lane(b)..lane(b) + LANES].try_into().unwrap();
                std::array::from_fn(|l| va[l] / vb[l])
            }
            TapeOp::Neg(a) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                std::array::from_fn(|l| -va[l])
            }
            TapeOp::Sqrt(a) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                std::array::from_fn(|l| va[l].sqrt())
            }
            TapeOp::MulAdd(a, b, c) => {
                let va: [f64; LANES] = regs[lane(a)..lane(a) + LANES].try_into().unwrap();
                let vb: [f64; LANES] = regs[lane(b)..lane(b) + LANES].try_into().unwrap();
                let vc: [f64; LANES] = regs[lane(c)..lane(c) + LANES].try_into().unwrap();
                // Same `a*b + c` rounding as the scalar path, so batch and
                // single-point results are bit-identical.
                std::array::from_fn(|l| va[l] * vb[l] + vc[l])
            }
        };
        regs[db..db + LANES].copy_from_slice(&dv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExprGraph;

    fn demo_fn() -> CompiledFn {
        let mut g = ExprGraph::new(3);
        let x = g.sym(0);
        let y = g.sym(1);
        let z = g.sym(2);
        let xy = g.mul(x, y);
        let s = g.add(xy, z);
        let d = g.sub(s, y);
        let q = g.div(d, z);
        let r = g.sqrt(q);
        g.compile(&[s, d, q, r])
    }

    fn demo_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                vec![0.1 + 0.3 * t, 1.0 + 0.05 * t * t, 2.0 + (t * 0.7).sin()]
            })
            .collect()
    }

    #[test]
    fn evaluator_matches_eval() {
        let f = demo_fn();
        let ev = f.evaluator();
        assert_eq!(ev.n_inputs(), 3);
        assert_eq!(ev.n_outputs(), 4);
        for vals in [[1.0, 2.0, 3.0], [0.5, -1.5, 2.0], [4.0, 0.25, 1.0]] {
            assert_eq!(ev.eval(&vals), f.eval(&vals));
        }
    }

    #[test]
    fn eval_batch_bit_identical_to_single_point() {
        let f = demo_fn();
        let ev = f.evaluator();
        // 71 points: two full 32-point lane blocks + a 7-point remainder.
        let points = demo_points(71);
        let n_out = ev.n_outputs();
        let mut batch = vec![0.0; points.len() * n_out];
        ev.eval_batch(&points, &mut batch);
        for (i, p) in points.iter().enumerate() {
            let single = ev.eval(p);
            assert_eq!(&batch[i * n_out..(i + 1) * n_out], &single[..], "point {i}");
        }
    }

    #[test]
    fn all_lane_widths_bit_identical() {
        // Lane kernel vs per-point `eval_into` vs the SoA reference, over
        // two full blocks and a 13-point tail.
        let f = demo_fn();
        let ev = f.evaluator();
        let points = demo_points(77);
        let n_out = ev.n_outputs();
        let mut got = vec![0.0; points.len() * n_out];
        ev.eval_batch(&points, &mut got);
        let mut soa = vec![0.0; points.len() * n_out];
        ev.eval_batch_soa_ref(&points, &mut soa).unwrap();
        for (i, p) in points.iter().enumerate() {
            for (k, s) in ev.eval(p).iter().enumerate() {
                let slot = i * n_out + k;
                assert_eq!(
                    got[slot].to_bits(),
                    s.to_bits(),
                    "lane vs per-point, slot {slot}"
                );
                assert_eq!(
                    got[slot].to_bits(),
                    soa[slot].to_bits(),
                    "lane vs soa ref, slot {slot}"
                );
            }
        }
    }

    #[test]
    fn affine_tail_rows_appended() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let e = g.mul(x, y);
        let f = g.compile(&[e]);
        let tail = AffineTail::new(
            vec![10.0, -1.0],
            vec![vec![1.0, 0.0], vec![2.0, -3.0]],
            vec![1.0, 1.0],
        );
        let ev = f.evaluator_with_tail(tail);
        assert_eq!(ev.n_outputs(), 3);
        let out = ev.eval(&[2.0, 5.0]);
        assert_eq!(out[0], 10.0); // x·y
        assert_eq!(out[1], 11.0); // 10 + 1·(2−1)
        assert_eq!(out[2], -11.0); // −1 + 2·(2−1) − 3·(5−1)
                                   // Batch path agrees, including tail rows
                                   // (37 points: one full lane block + tail).
        let points: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let mut batch = vec![0.0; points.len() * 3];
        ev.eval_batch(&points, &mut batch);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(&batch[i * 3..i * 3 + 3], &ev.eval(p)[..]);
        }
    }

    #[test]
    fn eval_columns_matches_single_point_on_strided_ranges() {
        let f = demo_fn();
        let tail = AffineTail::new(
            vec![0.5, -2.0],
            vec![vec![1.0, -0.25, 3.0], vec![0.0, 2.0, -1.5]],
            vec![1.0, 1.0, 2.0],
        );
        for ev in [f.evaluator(), f.evaluator_with_tail(tail)] {
            let (n_in, n_out) = (ev.n_inputs(), ev.n_outputs());
            let points = demo_points(101);
            let n = points.len();
            let cols: Vec<f64> = (0..n_in)
                .flat_map(|s| points.iter().map(move |p| p[s]))
                .collect();
            // Sub-ranges of the batch in place, in stride-sized calls that
            // reuse one register file, plus a scalar tail at the end.
            let mut out = vec![f64::NAN; n_out * n];
            for (start, len) in [(0, 32), (32, 32), (64, 37)] {
                ev.eval_columns(&cols[start..], n, len, &mut out[start..], n)
                    .unwrap();
            }
            for (i, p) in points.iter().enumerate() {
                let want = ev.eval(p);
                for (k, w) in want.iter().enumerate() {
                    assert_eq!(out[k * n + i].to_bits(), w.to_bits(), "point {i} out {k}");
                }
            }
            // Short slices and strides are typed errors.
            let mut short = vec![0.0; n_out * n - 1];
            assert!(matches!(
                ev.eval_columns(&cols, n, n, &mut short, n),
                Err(BatchShapeError::OutputLen { .. })
            ));
            assert!(matches!(
                ev.eval_columns(&cols, n - 1, n, &mut out, n),
                Err(BatchShapeError::InputLen { .. })
            ));
        }
    }

    #[test]
    fn constant_only_outputs_survive_lane_hoisting() {
        // Outputs whose reaching definition is a hoisted Const/Sym load
        // must still be extracted correctly (their slots point into the
        // const pool / input region, not a runtime register).
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let c = g.constant(42.5);
        let m = g.mul(x, x);
        let f = g.compile(&[c, x, m]);
        let ev = f.evaluator();
        let points: Vec<Vec<f64>> = (0..40).map(|i| vec![1.0 + i as f64]).collect();
        let mut batch = vec![0.0; points.len() * 3];
        ev.eval_batch(&points, &mut batch);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(&batch[i * 3..i * 3 + 3], &ev.eval(p)[..], "point {i}");
        }
    }

    #[test]
    fn try_eval_batch_reports_shape_errors() {
        let f = demo_fn();
        let ev = f.evaluator();
        let n_out = ev.n_outputs();
        let good = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let mut out = vec![0.0; good.len() * n_out];
        ev.eval_batch_soa_ref(&good, &mut out).unwrap();

        // A short point is named by index, and out is untouched.
        let bad = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0]];
        let mut scratch = vec![-7.0; bad.len() * n_out];
        let e = ev.eval_batch_soa_ref(&bad, &mut scratch).unwrap_err();
        assert_eq!(
            e,
            BatchShapeError::PointArity {
                index: 1,
                got: 2,
                expected: 3
            }
        );
        assert!(e.to_string().contains("point 1"), "{e}");
        assert!(scratch.iter().all(|&x| x == -7.0));

        // Wrong output length is its own variant.
        let mut short = vec![0.0; 1];
        let e = ev.eval_batch_soa_ref(&good, &mut short).unwrap_err();
        assert!(
            matches!(e, BatchShapeError::OutputLen { got: 1, .. }),
            "{e}"
        );

        // The column-major entry names short input and output columns,
        // and evaluates nothing on error.
        let cols = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut out = vec![-7.0; good.len() * n_out];
        let e = ev.eval_columns(&cols[..5], 2, 2, &mut out, 2).unwrap_err();
        assert_eq!(
            e,
            BatchShapeError::InputLen {
                got: 5,
                expected: 6
            }
        );
        assert!(e.to_string().contains("input columns hold 5"), "{e}");
        let e = ev.eval_columns(&cols, 2, 2, &mut out[..7], 2).unwrap_err();
        assert_eq!(
            e,
            BatchShapeError::OutputLen {
                got: 7,
                expected: 8
            }
        );
        assert!(out.iter().all(|&x| x == -7.0));
        ev.eval_columns(&cols, 2, 2, &mut out, 2).unwrap();
        for (i, p) in good.iter().enumerate() {
            for (k, w) in ev.eval(p).iter().enumerate() {
                assert_eq!(out[k * 2 + i].to_bits(), w.to_bits(), "point {i} out {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "point 0 has 1 values")]
    fn eval_batch_wrong_arity_panics() {
        let f = demo_fn();
        let ev = f.evaluator();
        let mut out = vec![0.0; ev.n_outputs()];
        ev.eval_batch(&[vec![1.0]], &mut out);
    }

    #[test]
    #[should_panic(expected = "value vector length mismatch")]
    fn wrong_arity_panics() {
        let f = demo_fn();
        let ev = f.evaluator();
        let mut out = vec![0.0; ev.n_outputs()];
        ev.eval_into(&[1.0], &mut out);
    }

    #[test]
    fn send_across_threads() {
        let f = demo_fn();
        std::thread::scope(|s| {
            s.spawn(|| {
                let ev = f.evaluator();
                assert_eq!(ev.eval(&[1.0, 2.0, 3.0]), f.eval(&[1.0, 2.0, 3.0]));
            });
        });
    }
}
