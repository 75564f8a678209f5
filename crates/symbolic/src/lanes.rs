//! The vectorized lane backend for tape evaluation.
//!
//! The batch entry points of [`Evaluator`](crate::Evaluator) lower an
//! optimized tape into a `LanePlan` — a dense arithmetic instruction
//! stream over a *slotted* lane register file — and replay it over blocks
//! of [`MAX_BLOCK_POINTS`] points. Each slot is one block's worth of
//! contiguous `f64` lanes, and every instruction is a fixed-size array
//! map that LLVM autovectorizes to SSE/AVX/NEON without any nightly
//! `std::simd` dependency; a block spans several vector registers, so
//! each dispatched instruction's cost is shared by all of them.
//!
//! ## What the plan precomputes
//!
//! A straight tape replay spends a large fraction of its dispatched ops on
//! `Const` and `Sym` loads: of the ops in the three optimized
//! `tape_bench` tapes (46, 86 and 118), 20, 32 and 44 are `Const` and 2
//! each are `Sym`, ≈ 38 % + 2 % of the mix. A replay re-splats the same
//! constants and re-copies the same input columns every block. The plan
//! removes both from the steady-state stream by a single
//! reaching-definitions pass over the (register-reusing) tape:
//!
//! - every distinct constant gets one slot in a **const pool**, splatted
//!   into the lane register file once per batch;
//! - every symbol gets an **input-region** slot, filled by the block
//!   loader; operands whose reaching definition is a `Const`/`Sym` op are
//!   rewritten to read the pool/input slot directly, so the load ops
//!   themselves vanish from the per-block instruction stream.
//!
//! ## Double-buffered input columns
//!
//! The register file carries *two* input regions (ping/pong), in the
//! spirit of kubecl's multi-stage matmul pipeline: while block `k` replays
//! out of one region, block `k + 1`'s point rows have already been
//! transposed into the other, so the gather loads of the next block are in
//! flight (from the out-of-order window's perspective) behind the current
//! block's arithmetic chain instead of serialized after it.
//!
//! Only a call of two or more blocks uses the second region and its
//! instruction stream: row-major `eval_batch` and the timing engine's
//! Monte Carlo blocks. The serve engine evaluates in 32-point deadline
//! strides, so each of its `eval_columns` calls is one block and always
//! replays in phase `Ping`. A prototype with a single input region, on
//! the cross-talk model (per-run minima of 400 repetitions, medians over
//! 20 alternating runs), gave bit-identical outputs and the same
//! column-major speed (6.38 ns per point on 4096-point calls both ways;
//! 7.03 against 7.05 ns on 32-point strides), while row-major
//! `eval_batch` slowed from 9.14 to 9.73 ns per point, in 19 of the 20
//! runs. So the regions pay on multi-block calls, not on the served path.
//!
//! ## Numeric contract
//!
//! Every tape op is evaluated **elementwise** — lane `l` of a block only
//! ever combines lane `l` of its operands, there are no cross-lane
//! reductions, and `MulAdd` keeps the scalar replay's intermediate
//! rounding — so block grouping never changes results: the kernel is
//! bit-identical to per-point
//! [`Evaluator::eval_into`](crate::Evaluator::eval_into), and so is the
//! scalar tail. The `lane_parity` suite pins this in debug and release.
//!
//! ## One plan per compiled function
//!
//! The plan depends only on the tape, so it lives on the
//! [`CompiledFn`](crate::CompiledFn): the first batch call through any of
//! its evaluators builds it, and every later evaluator — every pool worker,
//! every request — reuses it. [`lane_plan_builds`] counts the builds
//! process-wide.

use crate::{Tape, TapeOp};
use awesym_obs::Counter;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Points per lane-kernel block. One dispatched instruction (the `match`
/// on the op kind and the operand slot loads' address arithmetic) covers
/// the whole block, several vector registers wide.
/// Callers that split batches into independently-evaluated chunks (the
/// serve worker pool and its deadline strides) align to this so only the
/// final chunk pays a scalar tail.
pub const MAX_BLOCK_POINTS: usize = 32;

/// Lanes per register-file slot: one block.
pub(crate) const B: usize = MAX_BLOCK_POINTS;

/// Which input region the current block reads from (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Ping,
    Pong,
}

impl Phase {
    pub(crate) fn other(self) -> Phase {
        match self {
            Phase::Ping => Phase::Pong,
            Phase::Pong => Phase::Ping,
        }
    }
}

/// Arithmetic-only instruction kinds (the load ops are hoisted away).
#[derive(Debug, Clone, Copy)]
enum LaneOp {
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Sqrt,
    MulAdd,
}

/// One planned instruction: operand/destination *slots* into the lane
/// register file (operands already resolved through the const pool and
/// input regions; unused operand slots are 0).
#[derive(Debug, Clone, Copy)]
struct LaneInsn {
    op: LaneOp,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// A phase-independent operand reference, materialized into a slot once
/// the const pool is final.
#[derive(Debug, Clone, Copy)]
enum SlotRef {
    /// A runtime register (an arithmetic op's destination, or an operand
    /// with no reaching definition — kept for malformed/deserialized
    /// tapes; those slots read as 0.0, matching the old batch kernel's
    /// fresh register file).
    Reg(u32),
    /// Entry `i` of the const pool.
    Const(u32),
    /// Symbol `s` of the active input region.
    Input(u32),
}

/// The reaching definition of a register at some point of the tape walk.
#[derive(Debug, Clone, Copy)]
enum Def {
    None,
    Const(u32),
    Sym(u32),
    Op,
}

/// Lane plans built by this process.
static LANE_PLAN_BUILDS: Counter = Counter::new();

/// Lane plans built by this process so far: one per compiled function
/// that has run a batch, however many evaluators and requests share it.
pub fn lane_plan_builds() -> u64 {
    LANE_PLAN_BUILDS.get()
}

/// A compiled function's [`LanePlan`] slot: empty until the first batch
/// call, then shared by every evaluator of the function. Clones carry a
/// built plan along; equality ignores the slot, since the plan is a pure
/// function of the tape.
#[derive(Clone, Default)]
pub(crate) struct PlanCell(OnceLock<LanePlan>);

impl PlanCell {
    /// The plan, built by `build` on first use and counted.
    pub(crate) fn get_or_build(&self, build: impl FnOnce() -> LanePlan) -> &LanePlan {
        self.0.get_or_init(|| {
            LANE_PLAN_BUILDS.inc();
            build()
        })
    }
}

impl PartialEq for PlanCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for PlanCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.0.get().is_some() {
            "built"
        } else {
            "empty"
        };
        write!(f, "PlanCell({state})")
    }
}

/// A tape lowered for the lane kernel: the dense arithmetic stream (one
/// variant per input phase), the const pool, and the resolved output
/// slots.
///
/// Slot layout of the lane register file (each slot is one block of
/// contiguous `f64` lanes): `[0, n_regs)` runtime registers, then the
/// const pool, then the ping input region (`n_syms` slots), then the
/// pong region.
#[derive(Debug, Clone)]
pub(crate) struct LanePlan {
    insns_ping: Vec<LaneInsn>,
    insns_pong: Vec<LaneInsn>,
    consts: Vec<f64>,
    outputs_ping: Vec<u32>,
    outputs_pong: Vec<u32>,
    n_regs: usize,
    n_syms: usize,
}

impl LanePlan {
    /// Lowers `tape` (with its output registers) for lane replay.
    pub(crate) fn new(tape: &Tape, output_regs: &[u32], n_syms: usize) -> Self {
        let n_regs = tape.n_regs();
        let mut def: Vec<Def> = vec![Def::None; n_regs.max(1)];
        let mut consts: Vec<f64> = Vec::new();
        let mut const_ix: HashMap<u64, u32> = HashMap::new();
        let mut proto: Vec<(LaneOp, u32, SlotRef, SlotRef, SlotRef)> = Vec::new();

        let resolve = |r: u32, def: &[Def]| -> SlotRef {
            match def[r as usize] {
                Def::Const(i) => SlotRef::Const(i),
                Def::Sym(s) => SlotRef::Input(s),
                Def::None | Def::Op => SlotRef::Reg(r),
            }
        };
        let zero = SlotRef::Reg(0);
        for (op, &d) in tape.ops().iter().zip(tape.dst()) {
            match *op {
                TapeOp::Const(c) => {
                    let i = *const_ix.entry(c.to_bits()).or_insert_with(|| {
                        consts.push(c);
                        consts.len() as u32 - 1
                    });
                    def[d as usize] = Def::Const(i);
                }
                TapeOp::Sym(s) => def[d as usize] = Def::Sym(s),
                TapeOp::Add(a, b) => {
                    proto.push((LaneOp::Add, d, resolve(a, &def), resolve(b, &def), zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::Sub(a, b) => {
                    proto.push((LaneOp::Sub, d, resolve(a, &def), resolve(b, &def), zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::Mul(a, b) => {
                    proto.push((LaneOp::Mul, d, resolve(a, &def), resolve(b, &def), zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::Div(a, b) => {
                    proto.push((LaneOp::Div, d, resolve(a, &def), resolve(b, &def), zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::Neg(a) => {
                    proto.push((LaneOp::Neg, d, resolve(a, &def), zero, zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::Sqrt(a) => {
                    proto.push((LaneOp::Sqrt, d, resolve(a, &def), zero, zero));
                    def[d as usize] = Def::Op;
                }
                TapeOp::MulAdd(a, b, c) => {
                    proto.push((
                        LaneOp::MulAdd,
                        d,
                        resolve(a, &def),
                        resolve(b, &def),
                        resolve(c, &def),
                    ));
                    def[d as usize] = Def::Op;
                }
            }
        }
        let out_refs: Vec<SlotRef> = output_regs.iter().map(|&r| resolve(r, &def)).collect();

        let const_base = n_regs as u32;
        let in_base = const_base + consts.len() as u32;
        let slot = |s: SlotRef, phase_syms: u32| match s {
            SlotRef::Reg(r) => r,
            SlotRef::Const(i) => const_base + i,
            SlotRef::Input(sy) => in_base + phase_syms + sy,
        };
        let materialize = |phase_syms: u32| -> Vec<LaneInsn> {
            proto
                .iter()
                .map(|&(op, dst, a, b, c)| LaneInsn {
                    op,
                    dst,
                    a: slot(a, phase_syms),
                    b: slot(b, phase_syms),
                    c: slot(c, phase_syms),
                })
                .collect()
        };
        let pong_off = n_syms as u32;
        LanePlan {
            insns_ping: materialize(0),
            insns_pong: materialize(pong_off),
            outputs_ping: out_refs.iter().map(|&r| slot(r, 0)).collect(),
            outputs_pong: out_refs.iter().map(|&r| slot(r, pong_off)).collect(),
            consts,
            n_regs,
            n_syms,
        }
    }

    /// Total slots in the lane register file (runtime registers + const
    /// pool + both input regions). Always ≥ 1 so `SlotRef::Reg(0)`
    /// placeholders stay in bounds even for an empty tape.
    pub(crate) fn n_slots(&self) -> usize {
        (self.n_regs + self.consts.len() + 2 * self.n_syms).max(1)
    }

    /// Arithmetic instructions per block replay (the hoisting win shows
    /// as `insn_count() < tape.len()`).
    #[cfg(test)]
    pub(crate) fn insn_count(&self) -> usize {
        self.insns_ping.len()
    }

    /// Distinct constants hoisted into the once-per-batch pool.
    #[cfg(test)]
    pub(crate) fn const_pool_len(&self) -> usize {
        self.consts.len()
    }

    /// Splats the const pool into `regs`. Once per batch.
    pub(crate) fn init_consts(&self, regs: &mut [f64]) {
        for (i, &c) in self.consts.iter().enumerate() {
            let o = (self.n_regs + i) * B;
            regs[o..o + B].fill(c);
        }
    }

    /// Slot range of `phase`'s input region: symbol `s`'s lanes live in
    /// slot `start + s`.
    pub(crate) fn input_slots(&self, phase: Phase) -> std::ops::Range<usize> {
        let base = self.n_regs
            + self.consts.len()
            + match phase {
                Phase::Ping => 0,
                Phase::Pong => self.n_syms,
            };
        base..base + self.n_syms
    }

    /// Transposes a full block of point rows into `phase`'s input
    /// region (column-major: symbol `s`, lane `l` at `in_base + s` slot,
    /// offset `l`).
    pub(crate) fn load_inputs(&self, phase: Phase, points: &[Vec<f64>], regs: &mut [f64]) {
        debug_assert_eq!(points.len(), B);
        let base = self.input_slots(phase).start;
        for (l, p) in points.iter().enumerate() {
            for (s, &x) in p.iter().enumerate() {
                regs[(base + s) * B + l] = x;
            }
        }
    }

    /// Resolved output slots for a block replayed in `phase`.
    pub(crate) fn outputs(&self, phase: Phase) -> &[u32] {
        match phase {
            Phase::Ping => &self.outputs_ping,
            Phase::Pong => &self.outputs_pong,
        }
    }

    /// Replays the arithmetic stream over one block. Each instruction
    /// loads its operand slots into block-wide tiles and writes its
    /// destination tile back — straight-line, bounds-check-free maps over
    /// fixed-size arrays that LLVM lowers to a few vector ops per tile.
    pub(crate) fn replay(&self, phase: Phase, regs: &mut [f64]) {
        let insns = match phase {
            Phase::Ping => &self.insns_ping,
            Phase::Pong => &self.insns_pong,
        };
        #[inline(always)]
        fn tile(regs: &[f64], slot: u32) -> [f64; B] {
            let o = slot as usize * B;
            regs[o..o + B].try_into().unwrap()
        }
        for insn in insns {
            let dv: [f64; B] = match insn.op {
                LaneOp::Add => {
                    let a = tile(regs, insn.a);
                    let b = tile(regs, insn.b);
                    std::array::from_fn(|l| a[l] + b[l])
                }
                LaneOp::Sub => {
                    let a = tile(regs, insn.a);
                    let b = tile(regs, insn.b);
                    std::array::from_fn(|l| a[l] - b[l])
                }
                LaneOp::Mul => {
                    let a = tile(regs, insn.a);
                    let b = tile(regs, insn.b);
                    std::array::from_fn(|l| a[l] * b[l])
                }
                LaneOp::Div => {
                    let a = tile(regs, insn.a);
                    let b = tile(regs, insn.b);
                    std::array::from_fn(|l| a[l] / b[l])
                }
                LaneOp::Neg => {
                    let a = tile(regs, insn.a);
                    std::array::from_fn(|l| -a[l])
                }
                LaneOp::Sqrt => {
                    let a = tile(regs, insn.a);
                    std::array::from_fn(|l| a[l].sqrt())
                }
                LaneOp::MulAdd => {
                    let a = tile(regs, insn.a);
                    let b = tile(regs, insn.b);
                    let c = tile(regs, insn.c);
                    // Same `a*b + c` rounding as the scalar replay, so
                    // batch results are bit-identical.
                    std::array::from_fn(|l| a[l] * b[l] + c[l])
                }
            };
            let db = insn.dst as usize * B;
            regs[db..db + B].copy_from_slice(&dv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExprGraph;

    #[test]
    fn plan_hoists_const_and_sym_loads() {
        // (x + 2) * (y + 2) / 3 — two distinct constants (one shared),
        // two symbols, four arithmetic ops.
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let two = g.constant(2.0);
        let three = g.constant(3.0);
        let a = g.add(x, two);
        let b = g.add(y, two);
        let p = g.mul(a, b);
        let q = g.div(p, three);
        let f = g.compile(&[q]);
        let plan = LanePlan::new(f.tape(), f.output_regs(), f.n_syms());
        // Every Const/Sym op is hoisted out of the per-block stream.
        assert!(
            plan.insn_count() < f.op_count(),
            "stream {} vs tape {}",
            plan.insn_count(),
            f.op_count()
        );
        assert_eq!(plan.const_pool_len(), 2); // 2.0 deduplicated, 3.0
        assert_eq!(plan.insn_count(), 4); // add, add, mul, div only
    }

    #[test]
    fn ping_pong_streams_differ_only_in_input_slots() {
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let e = g.mul(x, x);
        let f = g.compile(&[e]);
        let plan = LanePlan::new(f.tape(), &[0], f.n_syms());
        assert_eq!(plan.insns_ping.len(), plan.insns_pong.len());
        for (a, b) in plan.insns_ping.iter().zip(&plan.insns_pong) {
            assert_eq!(a.dst, b.dst);
        }
        // The single mul reads the input region, which moves with phase.
        assert_ne!(plan.insns_ping[0].a, plan.insns_pong[0].a);
        assert_eq!(
            plan.insns_pong[0].a - plan.insns_ping[0].a,
            f.n_syms() as u32
        );
    }

    #[test]
    fn replay_matches_scalar_semantics() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let s = g.add(x, y);
        let d = g.sub(s, y);
        let m = g.mul(s, d);
        let q = g.div(m, y);
        let n = g.neg(q);
        let r = g.sqrt(s);
        let f = g.compile(&[m, q, n, r]);
        let ev = f.evaluator();
        let points: Vec<Vec<f64>> = (0..B)
            .map(|i| vec![0.3 + i as f64, 1.5 + 0.25 * i as f64])
            .collect();
        let plan = LanePlan::new(f.tape(), f.output_regs(), f.n_syms());
        let mut regs = vec![0.0; plan.n_slots() * B];
        plan.init_consts(&mut regs);
        plan.load_inputs(Phase::Pong, &points, &mut regs);
        plan.replay(Phase::Pong, &mut regs);
        let outs = plan.outputs(Phase::Pong);
        for (l, p) in points.iter().enumerate() {
            let want = ev.eval(p);
            for (k, &slot) in outs.iter().enumerate() {
                let got = regs[slot as usize * B + l];
                assert_eq!(got.to_bits(), want[k].to_bits(), "lane {l} out {k}");
            }
        }
    }
}
