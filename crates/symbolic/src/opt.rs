//! Optimizing pass pipeline over the evaluation tape.
//!
//! [`ExprGraph::compile`](crate::ExprGraph::compile) lowers the expression
//! DAG to SSA tape ops (instruction `i` defines value `i`) and hands them
//! here. The pipeline runs, in order:
//!
//! 1. **simplify** — constant folding, algebraic identities (`x+0`,
//!    `x·1`, `x·0`, `x/1`, `−(−x)`), and value-numbering CSE with
//!    canonical operand order for commutative ops;
//! 2. **fuse** — `a + (−b) → a − b` ([`TapeOp::Sub`]) and
//!    `a·b + c → MulAdd(a,b,c)` ([`TapeOp::MulAdd`]) when every consumer
//!    of the product is such a sum;
//! 3. **dce** — drop ops unreachable from the outputs and compact;
//! 4. **regalloc** — linear-scan register reuse from last-use liveness,
//!    shrinking the register file well below the instruction count.
//!
//! Identities that change IEEE-754 semantics on non-finite inputs
//! (e.g. `x − x → 0`) are deliberately *not* applied.

use crate::{Tape, TapeOp};
use std::collections::HashMap;

/// How aggressively the tape optimizer rewrites the tape.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum OptLevel {
    /// Emit the raw lowering unchanged (destinations are SSA: `dst[i] = i`).
    None,
    /// simplify + dce + regalloc.
    Basic,
    /// [`OptLevel::Basic`] plus neg/sub and mul-add fusion.
    #[default]
    Full,
}

impl OptLevel {
    /// Stable lowercase name (`none` / `basic` / `full`).
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Basic => "basic",
            OptLevel::Full => "full",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" | "0" => Ok(OptLevel::None),
            "basic" | "1" => Ok(OptLevel::Basic),
            "full" | "2" => Ok(OptLevel::Full),
            other => Err(format!(
                "unknown opt level `{other}` (expected none|basic|full)"
            )),
        }
    }
}

/// Compilation knobs for [`ExprGraph::compile_with`](crate::ExprGraph::compile_with).
///
/// `#[non_exhaustive]` so future knobs don't break callers; construct with
/// [`CompileOptions::new`] and chain setters.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Pass-pipeline aggressiveness (default [`OptLevel::Full`]).
    pub opt_level: OptLevel,
}

impl CompileOptions {
    /// Default options: [`OptLevel::Full`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the optimization level.
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }
}

/// Runs the pipeline at `level` over SSA ops; returns the final tape and
/// the register index of each output.
pub(crate) fn optimize(ops: Vec<TapeOp>, outs: Vec<u32>, level: OptLevel) -> (Tape, Vec<u32>) {
    match level {
        OptLevel::None => {
            let n = ops.len() as u32;
            let dst: Vec<u32> = (0..n).collect();
            (Tape::from_parts(ops, dst, n), outs)
        }
        OptLevel::Basic => {
            let (ops, outs) = simplify(ops, outs);
            let (ops, outs) = dce(ops, outs);
            regalloc(ops, outs)
        }
        OptLevel::Full => {
            let (ops, outs) = simplify(ops, outs);
            let ops = fuse(ops, &outs);
            let (ops, outs) = dce(ops, outs);
            regalloc(ops, outs)
        }
    }
}

/// Value-numbering key: structurally identical ops get one definition.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Vn {
    Const(u64),
    Sym(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Neg(u32),
    Sqrt(u32),
}

struct Simplifier {
    ops: Vec<TapeOp>,
    cse: HashMap<Vn, u32>,
}

impl Simplifier {
    fn emit(&mut self, key: Vn, op: TapeOp) -> u32 {
        if let Some(&v) = self.cse.get(&key) {
            return v;
        }
        let v = self.ops.len() as u32;
        self.ops.push(op);
        self.cse.insert(key, v);
        v
    }

    fn constant(&mut self, c: f64) -> u32 {
        self.emit(Vn::Const(c.to_bits()), TapeOp::Const(c))
    }

    fn const_of(&self, v: u32) -> Option<f64> {
        match self.ops[v as usize] {
            TapeOp::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// Constant folding, algebraic identities, and CSE. Input is SSA
/// (operand `a` refers to op `a`); output is SSA over a fresh op vector.
fn simplify(ops: Vec<TapeOp>, outs: Vec<u32>) -> (Vec<TapeOp>, Vec<u32>) {
    let mut s = Simplifier {
        ops: Vec::with_capacity(ops.len()),
        cse: HashMap::new(),
    };
    // repr[i] = value in the new program computing old op i.
    let mut repr = vec![0u32; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let v = match *op {
            TapeOp::Const(c) => s.constant(c),
            TapeOp::Sym(sym) => s.emit(Vn::Sym(sym), TapeOp::Sym(sym)),
            TapeOp::Add(a, b) => {
                let (a, b) = (repr[a as usize], repr[b as usize]);
                match (s.const_of(a), s.const_of(b)) {
                    (Some(x), Some(y)) => s.constant(x + y),
                    (Some(0.0), _) => b,
                    (_, Some(0.0)) => a,
                    _ => {
                        let (a, b) = if a <= b { (a, b) } else { (b, a) };
                        s.emit(Vn::Add(a, b), TapeOp::Add(a, b))
                    }
                }
            }
            TapeOp::Sub(a, b) => {
                // Raw lowering never emits Sub, but stay closed under the IR.
                let (a, b) = (repr[a as usize], repr[b as usize]);
                match (s.const_of(a), s.const_of(b)) {
                    (Some(x), Some(y)) => s.constant(x - y),
                    (_, Some(0.0)) => a,
                    _ => s.emit(Vn::Sub(a, b), TapeOp::Sub(a, b)),
                }
            }
            TapeOp::Mul(a, b) => {
                let (a, b) = (repr[a as usize], repr[b as usize]);
                match (s.const_of(a), s.const_of(b)) {
                    (Some(x), Some(y)) => s.constant(x * y),
                    (Some(0.0), _) | (_, Some(0.0)) => s.constant(0.0),
                    (Some(1.0), _) => b,
                    (_, Some(1.0)) => a,
                    _ => {
                        let (a, b) = if a <= b { (a, b) } else { (b, a) };
                        s.emit(Vn::Mul(a, b), TapeOp::Mul(a, b))
                    }
                }
            }
            TapeOp::Div(a, b) => {
                let (a, b) = (repr[a as usize], repr[b as usize]);
                match (s.const_of(a), s.const_of(b)) {
                    (Some(x), Some(y)) => s.constant(x / y),
                    (_, Some(1.0)) => a,
                    _ => s.emit(Vn::Div(a, b), TapeOp::Div(a, b)),
                }
            }
            TapeOp::Neg(a) => {
                let a = repr[a as usize];
                if let Some(x) = s.const_of(a) {
                    s.constant(-x)
                } else if let TapeOp::Neg(inner) = s.ops[a as usize] {
                    inner
                } else {
                    s.emit(Vn::Neg(a), TapeOp::Neg(a))
                }
            }
            TapeOp::Sqrt(a) => {
                let a = repr[a as usize];
                match s.const_of(a) {
                    Some(x) if x >= 0.0 => s.constant(x.sqrt()),
                    _ => s.emit(Vn::Sqrt(a), TapeOp::Sqrt(a)),
                }
            }
            TapeOp::MulAdd(a, b, c) => {
                // Closed under the IR; no folding beyond remapping.
                let (a, b, c) = (repr[a as usize], repr[b as usize], repr[c as usize]);
                let v = s.ops.len() as u32;
                s.ops.push(TapeOp::MulAdd(a, b, c));
                v
            }
        };
        repr[i] = v;
    }
    let outs = outs.iter().map(|&o| repr[o as usize]).collect();
    (s.ops, outs)
}

/// Use count of each SSA value (operand references plus output references).
fn use_counts(ops: &[TapeOp], outs: &[u32]) -> Vec<u32> {
    let mut uses = vec![0u32; ops.len()];
    let mut touch = |v: u32| uses[v as usize] += 1;
    for op in ops {
        match *op {
            TapeOp::Const(_) | TapeOp::Sym(_) => {}
            TapeOp::Neg(a) | TapeOp::Sqrt(a) => touch(a),
            TapeOp::Add(a, b) | TapeOp::Sub(a, b) | TapeOp::Mul(a, b) | TapeOp::Div(a, b) => {
                touch(a);
                touch(b);
            }
            TapeOp::MulAdd(a, b, c) => {
                touch(a);
                touch(b);
                touch(c);
            }
        }
    }
    for &o in outs {
        touch(o);
    }
    uses
}

/// Neg/sub and mul-add fusion. Rewrites `Add` ops in place; the bypassed
/// `Neg`/`Mul` definitions go dead and fall to the subsequent DCE pass.
fn fuse(mut ops: Vec<TapeOp>, outs: &[u32]) -> Vec<TapeOp> {
    let uses = use_counts(&ops, outs);
    let mut add_uses = vec![0u32; ops.len()];
    for op in &ops {
        if let TapeOp::Add(a, b) = *op {
            add_uses[a as usize] += 1;
            add_uses[b as usize] += 1;
        }
    }
    // Prefer mul-add: it retires the whole product op. Fuse a product
    // only when every use of it is a sum, so that it goes dead; one that
    // is also an output or another op's operand is computed anyway. A
    // `MulAdd` rounds `a·b` before the sum, as the product did, so each
    // fused use reads the same value.
    let fusable = |v: u32| uses[v as usize] == add_uses[v as usize];
    for i in 0..ops.len() {
        let TapeOp::Add(a, b) = ops[i] else { continue };
        if let TapeOp::Mul(x, y) = ops[a as usize] {
            if fusable(a) {
                ops[i] = TapeOp::MulAdd(x, y, b);
                continue;
            }
        }
        if let TapeOp::Mul(x, y) = ops[b as usize] {
            if fusable(b) {
                ops[i] = TapeOp::MulAdd(x, y, a);
                continue;
            }
        }
        // a + (−c) → a − c. The negation stays only if shared.
        if let TapeOp::Neg(c) = ops[b as usize] {
            ops[i] = TapeOp::Sub(a, c);
            continue;
        }
        if let TapeOp::Neg(c) = ops[a as usize] {
            ops[i] = TapeOp::Sub(b, c);
        }
    }
    ops
}

/// Drops ops unreachable from the outputs and compacts, remapping
/// operands and outputs.
fn dce(ops: Vec<TapeOp>, outs: Vec<u32>) -> (Vec<TapeOp>, Vec<u32>) {
    let mut live = vec![false; ops.len()];
    let mut stack: Vec<u32> = outs.clone();
    while let Some(v) = stack.pop() {
        let i = v as usize;
        if live[i] {
            continue;
        }
        live[i] = true;
        match ops[i] {
            TapeOp::Const(_) | TapeOp::Sym(_) => {}
            TapeOp::Neg(a) | TapeOp::Sqrt(a) => stack.push(a),
            TapeOp::Add(a, b) | TapeOp::Sub(a, b) | TapeOp::Mul(a, b) | TapeOp::Div(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            TapeOp::MulAdd(a, b, c) => {
                stack.push(a);
                stack.push(b);
                stack.push(c);
            }
        }
    }
    let mut remap = vec![u32::MAX; ops.len()];
    let mut compact = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        if !live[i] {
            continue;
        }
        remap[i] = compact.len() as u32;
        let r = |v: u32| remap[v as usize];
        compact.push(match op {
            TapeOp::Const(_) | TapeOp::Sym(_) => op,
            TapeOp::Neg(a) => TapeOp::Neg(r(a)),
            TapeOp::Sqrt(a) => TapeOp::Sqrt(r(a)),
            TapeOp::Add(a, b) => TapeOp::Add(r(a), r(b)),
            TapeOp::Sub(a, b) => TapeOp::Sub(r(a), r(b)),
            TapeOp::Mul(a, b) => TapeOp::Mul(r(a), r(b)),
            TapeOp::Div(a, b) => TapeOp::Div(r(a), r(b)),
            TapeOp::MulAdd(a, b, c) => TapeOp::MulAdd(r(a), r(b), r(c)),
        });
    }
    let outs = outs.iter().map(|&o| remap[o as usize]).collect();
    (compact, outs)
}

/// Linear-scan register allocation from last-use liveness. Operand
/// registers are freed at their last use *before* the destination is
/// allocated, so an instruction may write over one of its own operands —
/// safe because every op reads its operands before writing.
fn regalloc(ops: Vec<TapeOp>, outs: Vec<u32>) -> (Tape, Vec<u32>) {
    let n = ops.len();
    let mut last_use = vec![0usize; n];
    for (i, op) in ops.iter().enumerate() {
        let mut touch = |v: u32| last_use[v as usize] = i;
        match *op {
            TapeOp::Const(_) | TapeOp::Sym(_) => {}
            TapeOp::Neg(a) | TapeOp::Sqrt(a) => touch(a),
            TapeOp::Add(a, b) | TapeOp::Sub(a, b) | TapeOp::Mul(a, b) | TapeOp::Div(a, b) => {
                touch(a);
                touch(b);
            }
            TapeOp::MulAdd(a, b, c) => {
                touch(a);
                touch(b);
                touch(c);
            }
        }
    }
    // Outputs stay live past the end of the program.
    for &o in &outs {
        last_use[o as usize] = usize::MAX;
    }

    let mut reg_of = vec![u32::MAX; n];
    let mut free: Vec<u32> = Vec::new();
    let mut n_regs = 0u32;
    let mut final_ops = Vec::with_capacity(n);
    let mut dst = Vec::with_capacity(n);
    for (i, op) in ops.iter().enumerate() {
        let mut operands = [u32::MAX; 3];
        let (vals, rewritten): (&[u32], _) = match *op {
            TapeOp::Const(c) => (&[], TapeOp::Const(c)),
            TapeOp::Sym(s) => (&[], TapeOp::Sym(s)),
            TapeOp::Neg(a) => {
                operands[0] = a;
                (&operands[..1], TapeOp::Neg(reg_of[a as usize]))
            }
            TapeOp::Sqrt(a) => {
                operands[0] = a;
                (&operands[..1], TapeOp::Sqrt(reg_of[a as usize]))
            }
            TapeOp::Add(a, b) => {
                operands[0] = a;
                operands[1] = b;
                (
                    &operands[..2],
                    TapeOp::Add(reg_of[a as usize], reg_of[b as usize]),
                )
            }
            TapeOp::Sub(a, b) => {
                operands[0] = a;
                operands[1] = b;
                (
                    &operands[..2],
                    TapeOp::Sub(reg_of[a as usize], reg_of[b as usize]),
                )
            }
            TapeOp::Mul(a, b) => {
                operands[0] = a;
                operands[1] = b;
                (
                    &operands[..2],
                    TapeOp::Mul(reg_of[a as usize], reg_of[b as usize]),
                )
            }
            TapeOp::Div(a, b) => {
                operands[0] = a;
                operands[1] = b;
                (
                    &operands[..2],
                    TapeOp::Div(reg_of[a as usize], reg_of[b as usize]),
                )
            }
            TapeOp::MulAdd(a, b, c) => {
                operands[0] = a;
                operands[1] = b;
                operands[2] = c;
                (
                    &operands[..3],
                    TapeOp::MulAdd(reg_of[a as usize], reg_of[b as usize], reg_of[c as usize]),
                )
            }
        };
        // Free operand registers dying here (each value at most once,
        // even when it appears as several operands of this op).
        for (k, &v) in vals.iter().enumerate() {
            if last_use[v as usize] == i && !vals[..k].contains(&v) {
                free.push(reg_of[v as usize]);
            }
        }
        let d = free.pop().unwrap_or_else(|| {
            let d = n_regs;
            n_regs += 1;
            d
        });
        reg_of[i] = d;
        final_ops.push(rewritten);
        dst.push(d);
    }
    let out_regs = outs.iter().map(|&o| reg_of[o as usize]).collect();
    (Tape::from_parts(final_ops, dst, n_regs), out_regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExprGraph;

    fn kinds(tape: &Tape) -> Vec<&'static str> {
        tape.ops()
            .iter()
            .map(|op| match op {
                TapeOp::Const(_) => "const",
                TapeOp::Sym(_) => "sym",
                TapeOp::Add(..) => "add",
                TapeOp::Sub(..) => "sub",
                TapeOp::Mul(..) => "mul",
                TapeOp::Div(..) => "div",
                TapeOp::Neg(..) => "neg",
                TapeOp::Sqrt(..) => "sqrt",
                TapeOp::MulAdd(..) => "muladd",
            })
            .collect()
    }

    #[test]
    fn opt_level_round_trips_strings() {
        for l in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            assert_eq!(l.as_str().parse::<OptLevel>().unwrap(), l);
        }
        assert_eq!("1".parse::<OptLevel>().unwrap(), OptLevel::Basic);
        assert!("aggressive".parse::<OptLevel>().is_err());
    }

    #[test]
    fn sub_fusion() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let d = g.sub(x, y);
        let f = g.compile(&[d]);
        assert_eq!(kinds(f.tape()), vec!["sym", "sym", "sub"]);
        assert_eq!(f.eval(&[5.0, 3.0])[0], 2.0);
    }

    #[test]
    fn muladd_fusion_single_use_only() {
        let mut g = ExprGraph::new(3);
        let x = g.sym(0);
        let y = g.sym(1);
        let z = g.sym(2);
        let xy = g.mul(x, y);
        let e = g.add(xy, z);
        let f = g.compile(&[e]);
        assert_eq!(kinds(f.tape()), vec!["sym", "sym", "sym", "muladd"]);
        assert_eq!(f.eval(&[2.0, 3.0, 4.0])[0], 10.0);

        // Shared product: the mul must survive, no fusion.
        let shared = g.add(xy, z);
        let also = g.mul(xy, z);
        let f2 = g.compile(&[shared, also]);
        assert!(kinds(f2.tape()).contains(&"mul"));
        assert!(!kinds(f2.tape()).contains(&"muladd"));
        let out = f2.eval(&[2.0, 3.0, 4.0]);
        assert_eq!(out[0], 10.0);
        assert_eq!(out[1], 24.0);
    }

    #[test]
    fn a_product_read_only_by_sums_fuses_into_each() {
        let mut g = ExprGraph::new(3);
        let x = g.sym(0);
        let y = g.sym(1);
        let z = g.sym(2);
        let xy = g.mul(x, y);
        let a = g.add(xy, z);
        let b = g.add(xy, x);
        let f = g.compile(&[a, b]);
        assert_eq!(
            kinds(f.tape()),
            vec!["sym", "sym", "sym", "muladd", "muladd"]
        );
        let raw = g.compile_with(&[a, b], &CompileOptions::new().opt_level(OptLevel::None));
        for vals in [[2.0, 3.0, 4.0], [0.1, 0.7, -1e-3]] {
            let (got, want) = (f.eval(&vals), raw.eval(&vals));
            assert_eq!(got[0].to_bits(), want[0].to_bits());
            assert_eq!(got[1].to_bits(), want[1].to_bits());
        }
    }

    #[test]
    fn cse_across_lowering() {
        // The graph hash-conses, but re-lowered polynomials can still
        // produce structurally equal ops; drive CSE through the tape by
        // building duplicates the graph cannot see as equal.
        let ops = vec![
            TapeOp::Sym(0),
            TapeOp::Sym(0),
            TapeOp::Mul(0, 0),
            TapeOp::Mul(1, 1),
            TapeOp::Add(2, 3),
        ];
        let (tape, outs) = optimize(ops, vec![4], OptLevel::Basic);
        // Sym(0) dedups, the two squares dedup, x²+x² stays one add.
        assert_eq!(tape.len(), 3);
        let mut regs = vec![0.0; tape.n_regs()];
        tape.replay(&[3.0], &mut regs);
        assert_eq!(regs[outs[0] as usize], 18.0);
    }

    #[test]
    fn constant_folding_through_tape() {
        let ops = vec![
            TapeOp::Const(2.0),
            TapeOp::Const(3.0),
            TapeOp::Add(0, 1),
            TapeOp::Sym(0),
            TapeOp::Mul(2, 3),
        ];
        let (tape, outs) = optimize(ops, vec![4], OptLevel::Full);
        // Folds to Const(5)·x.
        assert_eq!(tape.len(), 3);
        let mut regs = vec![0.0; tape.n_regs()];
        tape.replay(&[4.0], &mut regs);
        assert_eq!(regs[outs[0] as usize], 20.0);
    }

    #[test]
    fn regalloc_shrinks_register_file() {
        // A long chain: x + x + x + … reuses registers aggressively.
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let mut acc = x;
        for _ in 0..32 {
            let sq = g.mul(acc, acc);
            let c = g.constant(0.5);
            acc = g.mul(sq, c);
            acc = g.add(acc, x);
        }
        let f = g.compile(&[acc]);
        assert!(
            f.tape().n_regs() < f.op_count() / 4,
            "n_regs {} vs ops {}",
            f.tape().n_regs(),
            f.op_count()
        );
        // And the optimized program still matches the reference.
        let direct = g.eval(acc, &[0.3]);
        assert!((f.eval(&[0.3])[0] - direct).abs() < 1e-12);
    }

    #[test]
    fn regalloc_write_over_operand_is_safe() {
        // d = a / b where a dies at this op: dst may reuse a's register.
        let ops = vec![
            TapeOp::Sym(0),
            TapeOp::Sym(1),
            TapeOp::Div(0, 1),
            TapeOp::Neg(2),
        ];
        let (tape, outs) = optimize(ops, vec![3], OptLevel::Full);
        let mut regs = vec![0.0; tape.n_regs()];
        tape.replay(&[6.0, 3.0], &mut regs);
        assert_eq!(regs[outs[0] as usize], -2.0);
        assert!(tape.n_regs() <= 3);
    }

    #[test]
    fn dce_drops_bypassed_ops() {
        // After sub fusion the Neg is bypassed and must disappear.
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let d = g.sub(x, y);
        let f = g.compile(&[d]);
        assert!(!kinds(f.tape()).contains(&"neg"));
    }

    #[test]
    fn empty_outputs() {
        let g = ExprGraph::new(1);
        let f = g.compile(&[]);
        assert_eq!(f.op_count(), 0);
        assert!(f.eval(&[1.0]).is_empty());
    }
}
