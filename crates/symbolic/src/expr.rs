//! Hash-consed expression DAG and the compiled evaluation tape.
//!
//! This is the "compilation" in *AWEsymbolic: Compiled Analysis…*: symbolic
//! moments (polynomials and quotients in the symbols) are lowered once into
//! a flat register program; each subsequent evaluation at concrete symbol
//! values replays the tape — a handful of multiply-adds instead of a full
//! circuit analysis.
//!
//! Compilation runs the [`crate::opt`] pass pipeline by default (constant
//! folding, CSE, neg/sub and mul-add fusion, dead-op elimination, and
//! liveness-based register reuse); [`CompileOptions`] is the escape hatch
//! for inspecting the raw lowering.

use crate::lanes::{LanePlan, PlanCell};
use crate::opt::{self, CompileOptions, OptLevel};
use crate::{AffineTail, Evaluator, MPoly};
use std::collections::HashMap;

/// Handle to a node of an [`ExprGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Const(f64),
    Sym(u32),
    Add(ExprId, ExprId),
    Mul(ExprId, ExprId),
    Div(ExprId, ExprId),
    Neg(ExprId),
    Sqrt(ExprId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(u64),
    Sym(u32),
    Add(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Neg(u32),
    Sqrt(u32),
}

/// A hash-consed expression DAG with constant folding.
///
/// Structurally identical subexpressions share one node (common-
/// subexpression elimination by construction), so compiling several
/// symbolic moments that share the determinant `D` and its powers costs
/// each shared piece once.
///
/// # Example
///
/// ```
/// use awesym_symbolic::ExprGraph;
///
/// let mut g = ExprGraph::new(2);
/// let x = g.sym(0);
/// let y = g.sym(1);
/// let xy = g.mul(x, y);
/// let e = g.add(xy, xy); // shares the xy node
/// let f = g.compile(&[e]);
/// assert_eq!(f.eval(&[3.0, 4.0])[0], 24.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprGraph {
    nodes: Vec<Node>,
    cache: HashMap<Key, ExprId>,
    n_syms: usize,
}

impl ExprGraph {
    /// Creates a graph over `n_syms` symbols.
    pub fn new(n_syms: usize) -> Self {
        ExprGraph {
            nodes: Vec::new(),
            cache: HashMap::new(),
            n_syms,
        }
    }

    /// Number of nodes currently in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn intern(&mut self, key: Key, node: Node) -> ExprId {
        if let Some(&id) = self.cache.get(&key) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.cache.insert(key, id);
        id
    }

    /// A constant node.
    pub fn constant(&mut self, c: f64) -> ExprId {
        self.intern(Key::Const(c.to_bits()), Node::Const(c))
    }

    /// A symbol node.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn sym(&mut self, i: u32) -> ExprId {
        assert!((i as usize) < self.n_syms, "symbol index out of range");
        self.intern(Key::Sym(i), Node::Sym(i))
    }

    fn const_of(&self, id: ExprId) -> Option<f64> {
        match self.nodes[id.0 as usize] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Sum with folding (`0 + x = x`, const + const folds).
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(x), Some(y)) => return self.constant(x + y),
            (Some(0.0), None) => return b,
            (None, Some(0.0)) => return a,
            _ => {}
        }
        // Canonical operand order for better sharing.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.intern(Key::Add(a.0, b.0), Node::Add(a, b))
    }

    /// Difference (`a + (−b)`).
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let nb = self.neg(b);
        self.add(a, nb)
    }

    /// Product with folding (`0·x = 0`, `1·x = x`, const·const folds).
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(x), Some(y)) => return self.constant(x * y),
            (Some(0.0), None) | (None, Some(0.0)) => return self.constant(0.0),
            (Some(1.0), None) => return b,
            (None, Some(1.0)) => return a,
            _ => {}
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.intern(Key::Mul(a.0, b.0), Node::Mul(a, b))
    }

    /// Quotient with folding.
    pub fn div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(x), Some(y)) => return self.constant(x / y),
            (None, Some(1.0)) => return a,
            _ => {}
        }
        self.intern(Key::Div(a.0, b.0), Node::Div(a, b))
    }

    /// Negation with folding (`−(−x) = x`).
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        if let Some(c) = self.const_of(a) {
            return self.constant(-c);
        }
        if let Node::Neg(inner) = self.nodes[a.0 as usize] {
            return inner;
        }
        self.intern(Key::Neg(a.0), Node::Neg(a))
    }

    /// Square root.
    pub fn sqrt(&mut self, a: ExprId) -> ExprId {
        if let Some(c) = self.const_of(a) {
            if c >= 0.0 {
                return self.constant(c.sqrt());
            }
        }
        self.intern(Key::Sqrt(a.0), Node::Sqrt(a))
    }

    /// Integer power by binary decomposition (shares squarings).
    pub fn powi(&mut self, a: ExprId, mut n: u32) -> ExprId {
        if n == 0 {
            return self.constant(1.0);
        }
        let mut base = a;
        let mut acc: Option<ExprId> = None;
        while n > 0 {
            if n & 1 == 1 {
                acc = Some(match acc {
                    None => base,
                    Some(x) => self.mul(x, base),
                });
            }
            n >>= 1;
            if n > 0 {
                base = self.mul(base, base);
            }
        }
        acc.expect("n > 0")
    }

    /// Lowers a polynomial into the graph term by term, `Σ c·Π s_i^{e_i}`:
    /// the naive reference lowering.
    ///
    /// # Panics
    ///
    /// Panics when the polynomial ranges over a different symbol count.
    pub fn poly(&mut self, p: &MPoly) -> ExprId {
        assert_eq!(p.nvars(), self.n_syms, "nvars mismatch");
        let mut acc = self.constant(0.0);
        for (exps, coeff) in p.terms() {
            let mut term = self.constant(coeff);
            for (i, &e) in exps.iter().enumerate() {
                if e > 0 {
                    let s = self.sym(i as u32);
                    let pw = self.powi(s, e as u32);
                    term = self.mul(term, pw);
                }
            }
            acc = self.add(acc, term);
        }
        acc
    }

    /// Lowers a polynomial in nested (multivariate Horner) form. The terms
    /// are split by the powers of one symbol `s`,
    /// `P = (…(C_e·s + C_{e−1})·s + …)·s + C_0`, and each coefficient
    /// polynomial `C_i` is nested the same way in the other symbols. Each
    /// step is one multiply-add once the tape optimizer fuses it, where
    /// [`ExprGraph::poly`] spends a product chain on every term. Every term
    /// is kept.
    ///
    /// At each level the split symbol is the one whose nesting costs the
    /// fewest steps, searched over every order while at most four symbols
    /// remain; beyond that it is the symbol that occurs in the most terms.
    /// Ties go to the lower index.
    ///
    /// # Panics
    ///
    /// Panics when the polynomial ranges over a different symbol count.
    pub fn poly_nested(&mut self, p: &MPoly) -> ExprId {
        assert_eq!(p.nvars(), self.n_syms, "nvars mismatch");
        let mut terms: Vec<(&[u8], f64)> = p.terms().collect();
        let syms: Vec<usize> = (0..self.n_syms)
            .filter(|&s| terms.iter().any(|(e, _)| e[s] > 0))
            .collect();
        self.nest(&mut terms, &syms)
    }

    /// The nested form of `terms`, whose exponents are zero outside `syms`.
    fn nest(&mut self, terms: &mut [(&[u8], f64)], syms: &[usize]) -> ExprId {
        if terms.is_empty() {
            return self.constant(0.0);
        }
        if syms.is_empty() {
            // Exponent vectors are unique, so one constant term is left.
            debug_assert_eq!(terms.len(), 1);
            return self.constant(terms[0].1);
        }
        let v = split_symbol(terms, syms);
        let rest = without(syms, v);
        sort_by_power(terms, v);
        let s = self.sym(v as u32);
        let mut groups = terms.chunk_by_mut(|a, b| a.0[v] == b.0[v]);
        let top = groups.next().expect("terms are not empty");
        let mut deg = top[0].0[v];
        let mut acc = self.nest(top, &rest);
        for group in groups {
            let e = group[0].0[v];
            while deg > e {
                acc = self.mul(acc, s);
                deg -= 1;
            }
            let c = self.nest(group, &rest);
            acc = self.add(acc, c);
        }
        for _ in 0..deg {
            acc = self.mul(acc, s);
        }
        acc
    }

    /// Number of ops the raw lowering of `outputs` emits: the length of
    /// their [`OptLevel::None`] tape.
    pub fn raw_op_count(&self, outputs: &[ExprId]) -> usize {
        self.reachable(outputs).iter().filter(|&&r| r).count()
    }

    /// Marks the nodes reachable from `outputs`.
    fn reachable(&self, outputs: &[ExprId]) -> Vec<bool> {
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = outputs.to_vec();
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if needed[i] {
                continue;
            }
            needed[i] = true;
            match self.nodes[i] {
                Node::Add(a, b) | Node::Mul(a, b) | Node::Div(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Node::Neg(a) | Node::Sqrt(a) => stack.push(a),
                _ => {}
            }
        }
        needed
    }

    /// Direct recursive evaluation (reference implementation for tests;
    /// prefer [`ExprGraph::compile`] + [`CompiledFn::eval`] in hot paths).
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the graph's symbol count.
    pub fn eval(&self, id: ExprId, vals: &[f64]) -> f64 {
        assert_eq!(vals.len(), self.n_syms, "value vector length mismatch");
        let mut memo = vec![f64::NAN; self.nodes.len()];
        self.eval_rec(id, vals, &mut memo)
    }

    fn eval_rec(&self, id: ExprId, vals: &[f64], memo: &mut [f64]) -> f64 {
        let i = id.0 as usize;
        if !memo[i].is_nan() {
            return memo[i];
        }
        let v = match self.nodes[i] {
            Node::Const(c) => c,
            Node::Sym(s) => vals[s as usize],
            Node::Add(a, b) => self.eval_rec(a, vals, memo) + self.eval_rec(b, vals, memo),
            Node::Mul(a, b) => self.eval_rec(a, vals, memo) * self.eval_rec(b, vals, memo),
            Node::Div(a, b) => self.eval_rec(a, vals, memo) / self.eval_rec(b, vals, memo),
            Node::Neg(a) => -self.eval_rec(a, vals, memo),
            Node::Sqrt(a) => self.eval_rec(a, vals, memo).sqrt(),
        };
        memo[i] = v;
        v
    }

    /// Compiles the subgraph reachable from `outputs` into a flat tape,
    /// running the full optimizing pass pipeline ([`OptLevel::Full`]).
    pub fn compile(&self, outputs: &[ExprId]) -> CompiledFn {
        self.compile_with(outputs, &CompileOptions::new())
    }

    /// Compiles with explicit [`CompileOptions`] — the escape hatch for
    /// inspecting the raw lowering or ablating individual pass levels.
    pub fn compile_with(&self, outputs: &[ExprId], options: &CompileOptions) -> CompiledFn {
        let (ops, outs) = self.lower(outputs);
        let raw_ops = ops.len();
        let (tape, outs) = opt::optimize(ops, outs, options.opt_level);
        CompiledFn {
            tape,
            outputs: outs,
            n_syms: self.n_syms,
            raw_ops,
            opt_level: options.opt_level,
            plan: PlanCell::default(),
        }
    }

    /// Lowers the subgraph reachable from `outputs` into SSA tape ops
    /// (each op's destination is its own index).
    fn lower(&self, outputs: &[ExprId]) -> (Vec<TapeOp>, Vec<u32>) {
        let needed = self.reachable(outputs);
        // Emit in index order (children always have smaller indices than
        // parents because nodes are appended after their operands).
        let mut reg_of = vec![u32::MAX; self.nodes.len()];
        let mut ops = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            let reg = ops.len() as u32;
            reg_of[i] = reg;
            let op = match *node {
                Node::Const(c) => TapeOp::Const(c),
                Node::Sym(s) => TapeOp::Sym(s),
                Node::Add(a, b) => TapeOp::Add(reg_of[a.0 as usize], reg_of[b.0 as usize]),
                Node::Mul(a, b) => TapeOp::Mul(reg_of[a.0 as usize], reg_of[b.0 as usize]),
                Node::Div(a, b) => TapeOp::Div(reg_of[a.0 as usize], reg_of[b.0 as usize]),
                Node::Neg(a) => TapeOp::Neg(reg_of[a.0 as usize]),
                Node::Sqrt(a) => TapeOp::Sqrt(reg_of[a.0 as usize]),
            };
            ops.push(op);
        }
        let outs = outputs.iter().map(|o| reg_of[o.0 as usize]).collect();
        (ops, outs)
    }
}

/// Symbols up to which [`ExprGraph::poly_nested`] searches every nesting
/// order (4! = 24 orders); with more it splits greedily.
const EXHAUSTIVE_NEST_SYMS: usize = 4;

/// The symbol [`ExprGraph::poly_nested`] splits `terms` on first.
fn split_symbol(terms: &mut [(&[u8], f64)], syms: &[usize]) -> usize {
    if syms.len() > EXHAUSTIVE_NEST_SYMS {
        let occurrences = |v: usize| terms.iter().filter(|(e, _)| e[v] > 0).count();
        // `max_by_key` keeps the last maximum; scan high to low so ties
        // go to the lower index.
        return *syms
            .iter()
            .rev()
            .max_by_key(|&&v| occurrences(v))
            .expect("syms is not empty");
    }
    *syms
        .iter()
        .min_by_key(|&&v| split_cost(terms, syms, v))
        .expect("syms is not empty")
}

/// Horner steps of the cheapest nesting of `terms` over `syms` (at most
/// [`EXHAUSTIVE_NEST_SYMS`] of them).
fn nest_cost(terms: &mut [(&[u8], f64)], syms: &[usize]) -> usize {
    syms.iter()
        .map(|&v| split_cost(terms, syms, v))
        .min()
        .unwrap_or(0)
}

/// Horner steps of nesting `terms` by the powers of `v` first: one per
/// power below the top, plus the cheapest nesting of each coefficient
/// polynomial in the other symbols.
fn split_cost(terms: &mut [(&[u8], f64)], syms: &[usize], v: usize) -> usize {
    let rest = without(syms, v);
    sort_by_power(terms, v);
    let top = terms.first().map_or(0, |t| usize::from(t.0[v]));
    top + terms
        .chunk_by_mut(|a, b| a.0[v] == b.0[v])
        .map(|group| nest_cost(group, &rest))
        .sum::<usize>()
}

/// Orders `terms` by falling power of symbol `v` (stable).
fn sort_by_power(terms: &mut [(&[u8], f64)], v: usize) {
    terms.sort_by_key(|t| std::cmp::Reverse(t.0[v]));
}

/// `syms` without `v`.
fn without(syms: &[usize], v: usize) -> Vec<usize> {
    syms.iter().copied().filter(|&s| s != v).collect()
}

/// One instruction of a compiled tape; operands are register indices.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TapeOp {
    /// Load a constant.
    Const(f64),
    /// Load symbol `i` from the input slice.
    Sym(u32),
    /// `r[a] + r[b]`.
    Add(u32, u32),
    /// `r[a] − r[b]` (neg/sub fusion).
    Sub(u32, u32),
    /// `r[a] · r[b]`.
    Mul(u32, u32),
    /// `r[a] / r[b]`.
    Div(u32, u32),
    /// `−r[a]`.
    Neg(u32),
    /// `√r[a]`.
    Sqrt(u32),
    /// `r[a] · r[b] + r[c]` (mul-add fusion).
    MulAdd(u32, u32, u32),
}

/// A flat register program.
///
/// Instruction `i` writes register `dst[i]`; liveness-based register
/// allocation lets destinations be reused, so the register file
/// (`n_regs`) is typically much smaller than the instruction count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tape {
    ops: Vec<TapeOp>,
    dst: Vec<u32>,
    n_regs: u32,
}

impl Tape {
    /// Assembles a tape from parts (crate-internal; used by the pass
    /// pipeline).
    pub(crate) fn from_parts(ops: Vec<TapeOp>, dst: Vec<u32>, n_regs: u32) -> Self {
        debug_assert_eq!(ops.len(), dst.len());
        Tape { ops, dst, n_regs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The instructions.
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Destination register of each instruction.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Size of the register file the tape runs in.
    pub fn n_regs(&self) -> usize {
        self.n_regs as usize
    }

    /// Replays the tape over a register file (`regs.len() >= n_regs`).
    #[inline]
    pub(crate) fn replay(&self, vals: &[f64], regs: &mut [f64]) {
        for (op, &d) in self.ops.iter().zip(&self.dst) {
            regs[d as usize] = match *op {
                TapeOp::Const(c) => c,
                TapeOp::Sym(s) => vals[s as usize],
                TapeOp::Add(a, b) => regs[a as usize] + regs[b as usize],
                TapeOp::Sub(a, b) => regs[a as usize] - regs[b as usize],
                TapeOp::Mul(a, b) => regs[a as usize] * regs[b as usize],
                TapeOp::Div(a, b) => regs[a as usize] / regs[b as usize],
                TapeOp::Neg(a) => -regs[a as usize],
                TapeOp::Sqrt(a) => regs[a as usize].sqrt(),
                TapeOp::MulAdd(a, b, c) => regs[a as usize] * regs[b as usize] + regs[c as usize],
            };
        }
    }
}

// Hand-written serde: pre-optimizer artifacts carry only `ops` (with the
// implicit destination `dst[i] = i`), and the vendored serde derive has no
// `#[serde(default)]`, so missing `dst`/`n_regs` fields must fall back
// here for backward-compatible loading.
impl serde::Serialize for Tape {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("ops".to_string(), self.ops.to_content()),
            ("dst".to_string(), self.dst.to_content()),
            ("n_regs".to_string(), self.n_regs.to_content()),
        ])
    }
}

impl serde::Deserialize for Tape {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        let m = c
            .as_map_slice()
            .ok_or_else(|| serde::Error::custom("expected map for struct Tape"))?;
        let ops: Vec<TapeOp> = serde::de_field(m, "ops")?;
        let dst: Vec<u32> = match c.get("dst") {
            Some(v) => serde::Deserialize::from_content(v)?,
            None => (0..ops.len() as u32).collect(),
        };
        if dst.len() != ops.len() {
            return Err(serde::Error::custom("tape dst/ops length mismatch"));
        }
        let n_regs: u32 = match c.get("n_regs") {
            Some(v) => serde::Deserialize::from_content(v)?,
            None => ops.len() as u32,
        };
        // The compiler allocates at most one register per op; a larger
        // claim would size every evaluator's register file from the file.
        if n_regs as usize > ops.len() {
            return Err(serde::Error::custom(format!(
                "tape claims {n_regs} registers for {} ops",
                ops.len()
            )));
        }
        if dst.iter().any(|&d| d >= n_regs) {
            return Err(serde::Error::custom("tape dst out of register range"));
        }
        let reg = |r: u32| r < n_regs;
        let operands_in_range = |op: &TapeOp| match *op {
            TapeOp::Const(_) | TapeOp::Sym(_) => true,
            TapeOp::Neg(a) | TapeOp::Sqrt(a) => reg(a),
            TapeOp::Add(a, b) | TapeOp::Sub(a, b) | TapeOp::Mul(a, b) | TapeOp::Div(a, b) => {
                reg(a) && reg(b)
            }
            TapeOp::MulAdd(a, b, c) => reg(a) && reg(b) && reg(c),
        };
        if let Some(i) = ops.iter().position(|op| !operands_in_range(op)) {
            return Err(serde::Error::custom(format!(
                "tape op {i} reads a register out of range ({n_regs} registers)"
            )));
        }
        Ok(Tape { ops, dst, n_regs })
    }
}

/// A compiled multi-output function of the symbols.
///
/// Produced by [`ExprGraph::compile`]; serializable with serde so compiled
/// models can be stored and reloaded.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFn {
    tape: Tape,
    outputs: Vec<u32>,
    n_syms: usize,
    raw_ops: usize,
    opt_level: OptLevel,
    /// The tape's lane lowering, built by the first batch call through any
    /// evaluator and shared by all of them.
    plan: PlanCell,
}

impl CompiledFn {
    /// Number of input symbols.
    pub fn n_syms(&self) -> usize {
        self.n_syms
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of tape instructions after optimization (the paper's
    /// "reduced set of operations").
    pub fn op_count(&self) -> usize {
        self.tape.len()
    }

    /// Number of tape instructions the raw lowering emitted, before the
    /// pass pipeline ran.
    pub fn raw_op_count(&self) -> usize {
        self.raw_ops
    }

    /// The optimization level the tape was compiled at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Records `raw_ops` as [`CompiledFn::raw_op_count`]: for a tape built
    /// from another lowering of the same function than the reference one,
    /// the reference's [`OptLevel::None`] length (see
    /// [`ExprGraph::raw_op_count`]).
    pub fn with_raw_op_count(mut self, raw_ops: usize) -> Self {
        self.raw_ops = raw_ops;
        self
    }

    /// The underlying tape.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Registers holding each output after a replay.
    pub(crate) fn output_regs(&self) -> &[u32] {
        &self.outputs
    }

    /// The lane plan, built (and counted in
    /// [`lane_plan_builds`](crate::lanes::lane_plan_builds)) on first use.
    pub(crate) fn lane_plan(&self) -> &LanePlan {
        self.plan
            .get_or_build(|| LanePlan::new(&self.tape, &self.outputs, self.n_syms))
    }

    /// An [`Evaluator`] with its own scratch space — the preferred
    /// evaluation API.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(self, None)
    }

    /// An [`Evaluator`] that appends affine tail outputs (e.g. the
    /// partial-Padé Taylor extension) after the tape outputs.
    pub fn evaluator_with_tail(&self, tail: AffineTail) -> Evaluator<'_> {
        Evaluator::new(self, Some(tail))
    }

    /// Evaluates the tape, allocating the result vector.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len() != self.n_syms()`.
    pub fn eval(&self, vals: &[f64]) -> Vec<f64> {
        assert_eq!(vals.len(), self.n_syms, "value vector length mismatch");
        let mut regs = vec![0.0; self.tape.n_regs()];
        self.tape.replay(vals, &mut regs);
        self.outputs.iter().map(|&r| regs[r as usize]).collect()
    }
}

// Hand-written serde: `raw_ops` and `opt_level` are absent from
// pre-optimizer payloads and default to the unoptimized reading.
impl serde::Serialize for CompiledFn {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("tape".to_string(), self.tape.to_content()),
            ("outputs".to_string(), self.outputs.to_content()),
            ("n_syms".to_string(), self.n_syms.to_content()),
            ("raw_ops".to_string(), self.raw_ops.to_content()),
            ("opt_level".to_string(), self.opt_level.to_content()),
        ])
    }
}

impl serde::Deserialize for CompiledFn {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        let m = c
            .as_map_slice()
            .ok_or_else(|| serde::Error::custom("expected map for struct CompiledFn"))?;
        let tape: Tape = serde::de_field(m, "tape")?;
        let outputs: Vec<u32> = serde::de_field(m, "outputs")?;
        let n_syms: usize = serde::de_field(m, "n_syms")?;
        if outputs.iter().any(|&r| (r as usize) >= tape.n_regs()) {
            return Err(serde::Error::custom("output register out of range"));
        }
        let sym_in_range = |op: &TapeOp| !matches!(*op, TapeOp::Sym(s) if s as usize >= n_syms);
        if let Some(i) = tape.ops().iter().position(|op| !sym_in_range(op)) {
            return Err(serde::Error::custom(format!(
                "tape op {i} reads a symbol out of range ({n_syms} symbols)"
            )));
        }
        let raw_ops: usize = match c.get("raw_ops") {
            Some(v) => serde::Deserialize::from_content(v)?,
            None => tape.len(),
        };
        let opt_level: OptLevel = match c.get("opt_level") {
            Some(v) => serde::Deserialize::from_content(v)?,
            None => OptLevel::None,
        };
        Ok(CompiledFn {
            tape,
            outputs,
            n_syms,
            raw_ops,
            opt_level,
            plan: PlanCell::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolSet;

    #[test]
    fn folding_rules() {
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let zero = g.constant(0.0);
        let one = g.constant(1.0);
        assert_eq!(g.add(zero, x), x);
        assert_eq!(g.add(x, zero), x);
        assert_eq!(g.mul(one, x), x);
        assert_eq!(g.mul(x, zero), zero);
        let two = g.constant(2.0);
        let three = g.constant(3.0);
        let six = g.mul(two, three);
        assert_eq!(g.eval(six, &[0.0]), 6.0);
        let nx = g.neg(x);
        assert_eq!(g.neg(nx), x);
        let half = g.div(one, two);
        assert_eq!(g.eval(half, &[0.0]), 0.5);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let a = g.mul(x, y);
        let b = g.mul(y, x); // canonical order → same node
        assert_eq!(a, b);
        let before = g.node_count();
        let _c = g.mul(x, y);
        assert_eq!(g.node_count(), before);
    }

    #[test]
    fn poly_lowering_matches_eval() {
        let mut s = SymbolSet::new();
        let x = s.intern("x");
        let y = s.intern("y");
        let p = MPoly::var(&s, x)
            .pow(3)
            .scale(2.0)
            .add(&MPoly::var(&s, y).mul(&MPoly::var(&s, x)))
            .sub(&MPoly::constant(2, 7.0));
        let mut g = ExprGraph::new(2);
        let id = g.poly(&p);
        for point in [[1.0, 2.0], [-0.5, 3.0], [2.2, -1.1]] {
            assert!((g.eval(id, &point) - p.eval(&point)).abs() < 1e-12);
        }
    }

    #[test]
    fn nested_lowering_matches_eval_in_fewer_ops() {
        // x³y + 2x·z² − 7 + 3y: a gap in the powers of x, and terms without
        // some symbols. Over 3 symbols every nesting order is searched; over
        // 6 the split symbols are chosen greedily.
        for n in [3, 6] {
            let mut s = SymbolSet::new();
            let syms: Vec<_> = (0..n).map(|i| s.intern(&format!("s{i}"))).collect();
            let v = |i: usize| MPoly::var(&s, syms[i]);
            let p = v(0)
                .pow(3)
                .mul(&v(1))
                .add(&v(0).mul(&v(2).pow(2)).scale(2.0))
                .sub(&MPoly::constant(n, 7.0))
                .add(&v(1).scale(3.0));
            let mut g = ExprGraph::new(n);
            let nested = g.poly_nested(&p);
            let naive = g.poly(&p);
            for t in [0.3, -1.7, 2.5] {
                let point: Vec<f64> = (0..n).map(|i| t + 0.25 * i as f64).collect();
                let want = p.eval(&point);
                assert!((g.eval(nested, &point) - want).abs() < 1e-12 * want.abs());
            }
            let (f_nested, f_naive) = (g.compile(&[nested]), g.compile(&[naive]));
            assert!(
                f_nested.op_count() < f_naive.op_count(),
                "{n} symbols: nested {} vs naive {}",
                f_nested.op_count(),
                f_naive.op_count()
            );
        }
        let mut g = ExprGraph::new(2);
        let zero = g.poly_nested(&MPoly::zero(2));
        let seven = g.poly_nested(&MPoly::constant(2, 7.0));
        assert_eq!(g.eval(zero, &[1.0, 2.0]), 0.0);
        assert_eq!(g.eval(seven, &[1.0, 2.0]), 7.0);
    }

    #[test]
    fn compile_matches_graph_eval() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let xy = g.mul(x, y);
        let s = g.add(xy, x);
        let q = g.div(s, y);
        let r = g.sqrt(q);
        let f = g.compile(&[s, q, r]);
        assert_eq!(f.n_outputs(), 3);
        let vals = [2.0, 8.0];
        let out = f.eval(&vals);
        assert_eq!(out[0], 18.0);
        assert_eq!(out[1], 2.25);
        assert_eq!(out[2], 1.5);
        assert_eq!(out[0], g.eval(s, &vals));
    }

    #[test]
    fn compile_prunes_unreachable_nodes() {
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let _unused = g.mul(x, x);
        let used = g.add(x, x);
        let f = g.compile(&[used]);
        // Only Sym + Add should remain.
        assert_eq!(f.op_count(), 2);
    }

    #[test]
    fn powi_shares_squarings() {
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let p8 = g.powi(x, 8);
        // x² , x⁴ , x⁸ → 3 muls + sym.
        let f = g.compile(&[p8]);
        assert_eq!(f.op_count(), 4);
        assert_eq!(f.eval(&[2.0])[0], 256.0);
        let p1 = g.powi(x, 1);
        assert_eq!(p1, x);
        let p0 = g.powi(x, 0);
        assert_eq!(g.eval(p0, &[5.0]), 1.0);
    }

    #[test]
    fn compile_with_levels_agree() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let xy = g.mul(x, y);
        let nxy = g.neg(xy);
        let s = g.add(nxy, y);
        let q = g.div(s, x);
        for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
            let f = g.compile_with(&[s, q], &CompileOptions::new().opt_level(level));
            assert_eq!(f.opt_level(), level);
            let out = f.eval(&[2.0, 3.0]);
            assert_eq!(out[0], -3.0);
            assert_eq!(out[1], -1.5);
        }
        let raw = g.compile_with(&[s, q], &CompileOptions::new().opt_level(OptLevel::None));
        let full = g.compile(&[s, q]);
        assert_eq!(full.raw_op_count(), raw.op_count());
        assert!(full.op_count() <= raw.op_count());
    }

    #[test]
    fn eval_into_wrapper_still_works() {
        let mut g = ExprGraph::new(1);
        let x = g.sym(0);
        let e = g.mul(x, x);
        let f = g.compile(&[e]);
        let ev = f.evaluator();
        let mut out = vec![0.0; 1];
        ev.eval_into(&[3.0], &mut out);
        assert_eq!(out[0], 9.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = ExprGraph::new(2);
        let x = g.sym(0);
        let y = g.sym(1);
        let e = g.div(x, y);
        let f = g.compile(&[e]);
        let json = serde_json::to_string(&f).unwrap();
        let back: CompiledFn = serde_json::from_str(&json).unwrap();
        assert_eq!(back.eval(&[6.0, 3.0])[0], 2.0);
        assert_eq!(back, f);
    }

    #[test]
    fn serde_reads_pre_optimizer_payloads() {
        // The legacy encoding: no dst / n_regs / raw_ops / opt_level —
        // destinations are implicit (`dst[i] = i`).
        let legacy =
            r#"{"tape":{"ops":[{"Sym":0},{"Sym":1},{"Div":[0,1]}]},"outputs":[2],"n_syms":2}"#;
        let f: CompiledFn = serde_json::from_str(legacy).unwrap();
        assert_eq!(f.eval(&[6.0, 3.0])[0], 2.0);
        assert_eq!(f.op_count(), 3);
        assert_eq!(f.raw_op_count(), 3);
        assert_eq!(f.opt_level(), OptLevel::None);
    }

    #[test]
    fn serde_rejects_out_of_range_registers_and_symbols() {
        // Each payload would load and then panic on every evaluation, or
        // (the last) size every evaluator's register file from the file.
        for (payload, why) in [
            (
                r#"{"tape":{"ops":[{"Sym":0},{"Mul":[0,9]}],"dst":[0,1],"n_regs":2},"outputs":[1],"n_syms":1}"#,
                "register out of range",
            ),
            (
                r#"{"tape":{"ops":[{"Sym":1}],"dst":[0],"n_regs":1},"outputs":[0],"n_syms":1}"#,
                "symbol out of range",
            ),
            (
                r#"{"tape":{"ops":[{"Const":1.0}],"dst":[0],"n_regs":0},"outputs":[0],"n_syms":0}"#,
                "dst out of register range",
            ),
            (
                r#"{"tape":{"ops":[],"dst":[],"n_regs":0},"outputs":[0],"n_syms":0}"#,
                "output register out of range",
            ),
            (
                r#"{"tape":{"ops":[{"Sym":0}],"dst":[0],"n_regs":4000000000},"outputs":[0],"n_syms":1}"#,
                "registers for 1 ops",
            ),
        ] {
            let e = serde_json::from_str::<CompiledFn>(payload).unwrap_err();
            assert!(e.to_string().contains(why), "{payload}: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "symbol index out of range")]
    fn sym_out_of_range_panics() {
        let mut g = ExprGraph::new(1);
        let _ = g.sym(1);
    }
}
