//! Scalar-tail boundary parity gates for the vectorized batch kernel
//! (`crate::lanes`).
//!
//! The contract under test (docs/tape.md §7): batch evaluation is
//! **bit-identical** to per-point `eval_into` — including the scalar
//! tail, the empty batch, and outputs whose reaching definition is a
//! hoisted const/sym load. CI runs this suite in debug and in release,
//! where LLVM vectorizes the kernel.

use awesym_symbolic::{
    AffineTail, CompileOptions, CompiledFn, Evaluator, ExprGraph, ExprId, OptLevel, TapeOp,
    MAX_BLOCK_POINTS,
};
use proptest::prelude::*;

/// A mixed-op compiled function: products, sums, quotients, sqrt, and —
/// at `OptLevel::Full` — fused `MulAdd` ops.
fn mixed_fn(level: OptLevel) -> CompiledFn {
    let mut g = ExprGraph::new(4);
    let syms: Vec<ExprId> = (0..4).map(|i| g.sym(i)).collect();
    let half = g.constant(0.5);
    let mut acc = g.constant(1.25);
    for (i, &s) in syms.iter().enumerate() {
        let scaled = g.mul(s, half);
        let prod = g.mul(acc, scaled);
        acc = g.add(prod, s);
        if i % 2 == 0 {
            let num = g.sub(acc, scaled);
            acc = g.div(num, s);
        }
    }
    let root = g.sqrt(acc);
    let neg = g.neg(acc);
    g.compile_with(&[acc, root, neg], &CompileOptions::new().opt_level(level))
}

fn points_for(f: &CompiledFn, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..f.n_syms())
                .map(|s| 0.75 + 0.37 * i as f64 + 0.11 * s as f64)
                .collect()
        })
        .collect()
}

/// Per-point `eval_into` over `points`, row-major.
fn per_point(ev: &Evaluator<'_>, points: &[Vec<f64>]) -> Vec<f64> {
    let n_out = ev.n_outputs();
    let mut out = vec![0.0; points.len() * n_out];
    for (p, row) in points.iter().zip(out.chunks_exact_mut(n_out)) {
        ev.eval_into(p, row);
    }
    out
}

/// Asserts batch output is bit-identical to per-point `eval_into` for
/// every boundary batch size around `k` blocks.
fn assert_boundary_parity(f: &CompiledFn) {
    let ev = f.evaluator();
    let n_out = ev.n_outputs();
    let block = MAX_BLOCK_POINTS;
    let mut sizes = vec![0];
    for k in 1..=3 {
        sizes.extend([k * block - 1, k * block, k * block + 1]);
    }
    for n in sizes {
        let pts = points_for(f, n);
        let mut batch = vec![0.0; n * n_out];
        ev.eval_batch(&pts, &mut batch);
        for (slot, (&b, &s)) in batch.iter().zip(&per_point(&ev, &pts)).enumerate() {
            let (i, j) = (slot / n_out, slot % n_out);
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "batch size {n}, point {i}, output {j}: {b} != {s}"
            );
        }
    }
}

#[test]
fn scalar_tail_boundaries_bit_identical_fused_tape() {
    let f = mixed_fn(OptLevel::Full);
    assert!(
        f.tape()
            .ops()
            .iter()
            .any(|op| matches!(op, TapeOp::MulAdd(..))),
        "Full opt should produce MulAdd ops for this workload"
    );
    assert_boundary_parity(&f);
}

#[test]
fn scalar_tail_boundaries_bit_identical_fusion_free_tape() {
    let f = mixed_fn(OptLevel::Basic);
    assert!(
        !f.tape()
            .ops()
            .iter()
            .any(|op| matches!(op, TapeOp::MulAdd(..))),
        "Basic opt must not fuse"
    );
    assert_boundary_parity(&f);
}

#[test]
fn empty_batch_is_a_no_op_at_every_width() {
    let f = mixed_fn(OptLevel::Full);
    let ev = f.evaluator();
    let mut out: Vec<f64> = Vec::new();
    ev.eval_batch(&[], &mut out);
    assert!(out.is_empty());
}

#[test]
fn affine_tail_parity_across_widths_and_boundaries() {
    let mut g = ExprGraph::new(2);
    let x = g.sym(0);
    let y = g.sym(1);
    let e = g.mul(x, y);
    let f = g.compile(&[e]);
    let tail = AffineTail::new(
        vec![3.0, -0.5],
        vec![vec![0.25, -1.0], vec![2.0, 0.125]],
        vec![1.0, 2.0],
    );
    let ev = f.evaluator_with_tail(tail);
    let n_out = ev.n_outputs();
    let block = MAX_BLOCK_POINTS;
    for n in [block - 1, block, block + 1] {
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![0.5 + i as f64, 1.5 - 0.25 * i as f64])
            .collect();
        let mut batch = vec![0.0; n * n_out];
        ev.eval_batch(&pts, &mut batch);
        for (i, p) in pts.iter().enumerate() {
            let single = ev.eval(p);
            assert_eq!(
                batch[i * n_out..(i + 1) * n_out]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "size {n}, point {i}"
            );
        }
    }
}

proptest! {
    // Block grouping never changes healthy-point outputs on fusion-free
    // tapes: the lane kernel and per-point `eval_into` agree bitwise on
    // random batch sizes and inputs (all ops are elementwise, so
    // grouping is irrelevant — this pins that no cross-lane op sneaks
    // in).
    #[test]
    fn lane_width_invariant_on_fusion_free_tapes(
        n in 0usize..90,
        seed in 0.2f64..5.0,
        stride in 0.01f64..0.9,
    ) {
        let f = mixed_fn(OptLevel::Basic);
        let ev = f.evaluator();
        let n_out = ev.n_outputs();
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..f.n_syms())
                    .map(|s| seed + stride * (i as f64 + 0.3 * s as f64))
                    .collect()
            })
            .collect();
        let mut got = vec![0.0; n * n_out];
        ev.eval_batch(&pts, &mut got);
        for (i, (&g, &s)) in got.iter().zip(&per_point(&ev, &pts)).enumerate() {
            prop_assert_eq!(g.to_bits(), s.to_bits(), "slot {}", i);
        }
    }
}
