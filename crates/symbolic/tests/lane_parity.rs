//! Scalar-tail boundary and lane-width parity gates for the vectorized
//! batch kernel (`crate::lanes`).
//!
//! The contract under test (docs/tape.md §7): at any lane width, batch
//! evaluation is **bit-identical** to per-point
//! `eval_into` — including the scalar tail, the empty batch, and outputs
//! whose reaching definition is a hoisted const/sym load. The CI
//! `simd-parity` job additionally runs this whole suite with
//! `AWESYM_LANES` pinned to 1, 4, and 8 so the *configured* dispatch path
//! is exercised at every width, not just the explicit-width API.

use awesym_symbolic::{
    AffineTail, CompileOptions, CompiledFn, ExprGraph, ExprId, LaneWidth, OptLevel, TapeOp,
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

/// Asserts batch output at `width` is bit-identical to per-point
/// `eval_into` for every boundary batch size around `k` blocks.
fn assert_boundary_parity(f: &CompiledFn, width: LaneWidth) {
    let ev = f.evaluator();
    let n_out = ev.n_outputs();
    let block = width.points_per_block();
    let mut sizes = vec![0];
    for k in 1..=3 {
        sizes.extend([k * block - 1, k * block, k * block + 1]);
    }
    for n in sizes {
        let pts = points_for(f, n);
        let mut batch = vec![0.0; n * n_out];
        ev.eval_batch_lanes(&pts, &mut batch, width).unwrap();
        for (i, p) in pts.iter().enumerate() {
            let single = ev.eval(p);
            for (j, (&b, &s)) in batch[i * n_out..(i + 1) * n_out]
                .iter()
                .zip(&single)
                .enumerate()
            {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "width {width}, batch size {n}, point {i}, output {j}: {b} != {s}"
                );
            }
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
    for width in [LaneWidth::Scalar, LaneWidth::W4, LaneWidth::W8] {
        assert_boundary_parity(&f, width);
    }
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
    for width in [LaneWidth::Scalar, LaneWidth::W4, LaneWidth::W8] {
        assert_boundary_parity(&f, width);
    }
}

#[test]
fn empty_batch_is_a_no_op_at_every_width() {
    let f = mixed_fn(OptLevel::Full);
    let ev = f.evaluator();
    for width in [LaneWidth::Scalar, LaneWidth::W4, LaneWidth::W8] {
        let mut out: Vec<f64> = Vec::new();
        ev.eval_batch_lanes(&[], &mut out, width).unwrap();
        assert!(out.is_empty());
    }
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
    for width in [LaneWidth::W4, LaneWidth::W8] {
        let block = width.points_per_block();
        for n in [block - 1, block, block + 1] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![0.5 + i as f64, 1.5 - 0.25 * i as f64])
                .collect();
            let mut batch = vec![0.0; n * n_out];
            ev.eval_batch_lanes(&pts, &mut batch, width).unwrap();
            for (i, p) in pts.iter().enumerate() {
                let single = ev.eval(p);
                assert_eq!(
                    batch[i * n_out..(i + 1) * n_out]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "width {width}, size {n}, point {i}"
                );
            }
        }
    }
}

proptest! {
    // Lane-width choice never changes healthy-point outputs on
    // fusion-free tapes: Scalar, W4, and W8 agree bitwise on random
    // batch sizes and inputs (all ops are elementwise, so grouping is
    // irrelevant — this pins that no cross-lane op sneaks in).
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
        let mut scalar = vec![0.0; n * n_out];
        ev.eval_batch_lanes(&pts, &mut scalar, LaneWidth::Scalar).unwrap();
        for width in [LaneWidth::W4, LaneWidth::W8] {
            let mut got = vec![0.0; n * n_out];
            ev.eval_batch_lanes(&pts, &mut got, width).unwrap();
            for (i, (&g, &s)) in got.iter().zip(&scalar).enumerate() {
                prop_assert_eq!(g.to_bits(), s.to_bits(), "width {} slot {}", width, i);
            }
        }
    }
}
