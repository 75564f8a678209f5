//! The evaluator profile's sampler admits one call in `SAMPLE_EVERY`,
//! and a batch call is one call: its scalar tail takes no ticks of its
//! own.
//!
//! The profile counters are process-global, so these checks have a test
//! binary of their own, and a lock keeps its tests from ticking the
//! sampler under each other.

use awesym_symbolic::profile::{snapshot, SAMPLE_EVERY};
use awesym_symbolic::{CompiledFn, ExprGraph};
use std::sync::Mutex;

static SAMPLER_LOCK: Mutex<()> = Mutex::new(());

fn product_fn() -> CompiledFn {
    let mut g = ExprGraph::new(2);
    let (x, y) = (g.sym(0), g.sym(1));
    let e = g.mul(x, y);
    g.compile(&[e])
}

#[test]
fn sampler_admits_eval_batch_calls() {
    let _serial = SAMPLER_LOCK.lock().expect("no test panicked holding it");
    let f = product_fn();
    let ev = f.evaluator();
    let points: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 2.0]).collect();
    let mut out = vec![0.0; points.len()];
    let before = snapshot();
    // 2·SAMPLE_EVERY calls guarantee ≥ 2 admissions no matter where the
    // shared tick currently stands.
    for _ in 0..2 * SAMPLE_EVERY {
        ev.eval_batch(&points, &mut out);
    }
    let after = snapshot();
    assert!(after.sampled_calls >= before.sampled_calls + 2);
    assert!(after.points >= before.points + 2 * 16);
    assert!(after.tape_ops >= before.tape_ops + 2 * 16 * 3);
}

#[test]
fn batch_tail_points_take_no_sampler_ticks() {
    let _serial = SAMPLER_LOCK.lock().expect("no test panicked holding it");
    let f = product_fn();
    let ev = f.evaluator();
    // 31 points: one short of a lane block, so every point is tail.
    const N: usize = 31;
    let cols: Vec<f64> = (0..2 * N).map(|i| 0.5 + i as f64).collect();
    let mut out = vec![0.0; N];
    let calls = 64 * SAMPLE_EVERY;
    let before = snapshot();
    for _ in 0..calls {
        ev.eval_columns(&cols, N, N, &mut out, N).unwrap();
    }
    let after = snapshot();
    let sampled = after.sampled_calls - before.sampled_calls;
    let want = calls / SAMPLE_EVERY;
    assert!(
        (want - 1..=want + 1).contains(&sampled),
        "{calls} batch calls were sampled {sampled} times, want {want} ± 1"
    );
    assert_eq!(
        after.points - before.points,
        N as u64 * sampled,
        "every sampled call should be a whole {N}-point batch"
    );
}
