//! Always-compiled, sampled profile of tape evaluation.
//!
//! Every [`Evaluator`](crate::Evaluator) call passes a cheap
//! [`Sampler`] guard (one relaxed atomic increment); one call in
//! [`SAMPLE_EVERY`] additionally pays for two clock reads and a single
//! walk of the tape's instruction list to tally per-op-kind counts. No
//! feature gate: the profile you read is from the same binary that
//! served the traffic, and the steady-state overhead is one uncontended
//! `fetch_add` per call.
//!
//! The counters are process-global (tape evaluation happens on many
//! short-lived worker evaluators, so per-instance counters would vanish
//! with their workers). [`snapshot`] reads them; [`reset`] zeroes them
//! between bench phases.
//!
//! One unsampled counter rides along: every lane-plan build (one per
//! compiled function that ever runs a batch; see [`crate::lanes`]) bumps
//! [`EvalProfile::lane_plan_builds`], a process-lifetime total that
//! [`reset`] leaves alone.

use crate::{Tape, TapeOp};
use awesym_obs::{Counter, Sampler};
use std::time::Duration;

/// One profiled call per this many evaluator calls.
pub const SAMPLE_EVERY: u64 = 64;

/// Names of the tape op kinds, in `kind_index` order.
pub const OP_KINDS: [&str; 9] = [
    "const", "sym", "add", "sub", "mul", "div", "neg", "sqrt", "muladd",
];

pub(crate) static SAMPLER: Sampler = Sampler::new(SAMPLE_EVERY);

static SAMPLED_CALLS: Counter = Counter::new();
static POINTS: Counter = Counter::new();
static TAPE_OPS: Counter = Counter::new();
static NANOS: Counter = Counter::new();
/// Lane plans built (unsampled; bumped by `lanes::PlanCell`).
pub(crate) static LANE_PLAN_BUILDS: Counter = Counter::new();
static BY_KIND: [Counter; 9] = [
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
];

fn kind_index(op: &TapeOp) -> usize {
    match op {
        TapeOp::Const(_) => 0,
        TapeOp::Sym(_) => 1,
        TapeOp::Add(..) => 2,
        TapeOp::Sub(..) => 3,
        TapeOp::Mul(..) => 4,
        TapeOp::Div(..) => 5,
        TapeOp::Neg(_) => 6,
        TapeOp::Sqrt(_) => 7,
        TapeOp::MulAdd(..) => 8,
    }
}

/// Folds one sampled call into the profile: `points` tape replays of
/// `tape` took `elapsed`. One pass over the instruction list, scaled by
/// the point count — never a per-point cost.
pub(crate) fn record(tape: &Tape, points: usize, elapsed: Duration) {
    let points = points as u64;
    let mut kind_counts = [0u64; 9];
    for op in tape.ops() {
        kind_counts[kind_index(op)] += 1;
    }
    for (counter, count) in BY_KIND.iter().zip(kind_counts) {
        counter.add(count * points);
    }
    SAMPLED_CALLS.inc();
    POINTS.add(points);
    TAPE_OPS.add(tape.len() as u64 * points);
    NANOS.add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
}

/// Point-in-time view of the sampled evaluation profile.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalProfile {
    /// Calls that were admitted by the sampler and timed.
    pub sampled_calls: u64,
    /// Points evaluated across the sampled calls.
    pub points: u64,
    /// Tape instructions executed across the sampled calls.
    pub tape_ops: u64,
    /// Wall-clock nanoseconds across the sampled calls.
    pub nanos: u64,
    /// Executed-instruction tally per op kind (same order as
    /// [`OP_KINDS`]).
    pub ops_by_kind: [(&'static str, u64); 9],
    /// Lane plans built since the process started (unsampled; not
    /// zeroed by [`reset`]).
    pub lane_plan_builds: u64,
}

impl EvalProfile {
    /// Tape instructions per second over the sampled calls (0 when no
    /// time was recorded).
    pub fn ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.tape_ops as f64 * 1e9 / self.nanos as f64
        }
    }

    /// Points per second over the sampled calls (0 when no time was
    /// recorded).
    pub fn points_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.points as f64 * 1e9 / self.nanos as f64
        }
    }
}

/// Reads the global profile.
pub fn snapshot() -> EvalProfile {
    let mut ops_by_kind = [("", 0u64); 9];
    for (slot, (name, counter)) in ops_by_kind.iter_mut().zip(OP_KINDS.iter().zip(&BY_KIND)) {
        *slot = (name, counter.get());
    }
    EvalProfile {
        sampled_calls: SAMPLED_CALLS.get(),
        points: POINTS.get(),
        tape_ops: TAPE_OPS.get(),
        nanos: NANOS.get(),
        ops_by_kind,
        lane_plan_builds: LANE_PLAN_BUILDS.get(),
    }
}

/// Zeroes the sampled profile (bench phase boundaries); the lane-plan
/// build total is kept.
pub fn reset() {
    SAMPLED_CALLS.take();
    POINTS.take();
    TAPE_OPS.take();
    NANOS.take();
    for c in &BY_KIND {
        c.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExprGraph;

    #[test]
    fn record_tallies_ops_points_and_kinds() {
        // Exactness is asserted through `record` directly (the counters
        // are process-global, so sampled admissions from other tests
        // running in parallel make delta equality on the public path
        // racy; inequalities cover that path below).
        let mut g = ExprGraph::new(2);
        let (x, y) = (g.sym(0), g.sym(1));
        let e = g.mul(x, y);
        let f = g.compile(&[e]);
        let before = snapshot();
        record(f.tape(), 10, Duration::from_nanos(500));
        let after = snapshot();
        assert_eq!(after.sampled_calls - before.sampled_calls, 1);
        assert_eq!(after.points - before.points, 10);
        // The tape is sym, sym, mul: 3 ops per point.
        assert_eq!(after.tape_ops - before.tape_ops, 30);
        assert_eq!(after.ops_by_kind[4].0, "mul");
        assert_eq!(after.ops_by_kind[4].1 - before.ops_by_kind[4].1, 10);
        assert_eq!(after.ops_by_kind[1].0, "sym");
        assert_eq!(after.ops_by_kind[1].1 - before.ops_by_kind[1].1, 20);
        assert!(after.nanos - before.nanos >= 500);
        assert!(after.ops_per_sec() > 0.0);
        assert!(after.points_per_sec() > 0.0);
    }

    #[test]
    fn sampler_admits_eval_batch_calls() {
        let mut g = ExprGraph::new(2);
        let (x, y) = (g.sym(0), g.sym(1));
        let e = g.mul(x, y);
        let f = g.compile(&[e]);
        let ev = f.evaluator();
        let points: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 2.0]).collect();
        let mut out = vec![0.0; points.len()];
        let before = snapshot();
        // 2·SAMPLE_EVERY calls guarantee ≥ 2 admissions no matter where
        // the shared tick currently stands (other tests tick it too).
        for _ in 0..2 * SAMPLE_EVERY {
            ev.eval_batch(&points, &mut out);
        }
        let after = snapshot();
        assert!(after.sampled_calls >= before.sampled_calls + 2);
        assert!(after.points >= before.points + 2 * 16);
        assert!(after.tape_ops >= before.tape_ops + 2 * 16 * 3);
    }
}
