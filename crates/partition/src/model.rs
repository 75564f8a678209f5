//! The compiled symbolic AWE model — the paper's end product.

use crate::{PartitionError, SymbolBinding, SymbolicMoments, SymbolicSystem, MAX_ORDER};
use awesym_awe::{pade_rom, Rom};
use awesym_circuit::{Circuit, ElementId, Node};
use awesym_linalg::Complex64;
use awesym_symbolic::{
    AffineTail, CompileOptions, CompiledFn, Evaluator, ExprGraph, OptLevel, SymbolSet, Tape,
};

/// Options for [`CompiledModel::build_with_options`].
///
/// `#[non_exhaustive]` so future knobs don't break callers: construct
/// with [`ModelOptions::order`] and chain `with_*` setters.
///
/// ```
/// use awesym_partition::{ModelOptions, OptLevel};
///
/// let opts = ModelOptions::order(3)
///     .with_symbolic_moments(2)
///     .with_opt_level(OptLevel::Full);
/// assert_eq!(opts.order, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ModelOptions {
    /// Approximation order `q` (the model matches `2q` moments).
    pub order: usize,
    /// Number of moments carried *symbolically*. Moments beyond this are
    /// extended by a first-order Taylor tail in the symbols around the
    /// nominal point — the paper's "partial Padé approximation, using
    /// derivatives", which trades far-from-nominal accuracy for a much
    /// cheaper symbolic computation. `None` keeps all `2q` symbolic.
    pub symbolic_moments: Option<usize>,
    /// Tape-optimization level for the compiled moment function
    /// (default [`OptLevel::Full`]).
    pub opt_level: OptLevel,
}

impl ModelOptions {
    /// Full symbolic model of the given order, full tape optimization.
    pub fn order(order: usize) -> Self {
        ModelOptions {
            order,
            symbolic_moments: None,
            opt_level: OptLevel::Full,
        }
    }

    /// Carries only the first `k` moments symbolically; the rest ride a
    /// first-order Taylor tail.
    pub fn with_symbolic_moments(mut self, k: usize) -> Self {
        self.symbolic_moments = Some(k);
        self
    }

    /// Sets the tape-optimization level.
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The number of moments carried symbolically: `symbolic_moments`,
    /// or all `2q`. Checks the order first, so nothing is sized by an
    /// order outside `1..=`[`MAX_ORDER`].
    ///
    /// # Errors
    ///
    /// [`PartitionError::OrderOutOfRange`] for such an order;
    /// [`PartitionError::BadBinding`] when `symbolic_moments` is zero or
    /// exceeds `2q`.
    pub fn symbolic_count(&self) -> Result<usize, PartitionError> {
        if !(1..=MAX_ORDER).contains(&self.order) {
            return Err(PartitionError::OrderOutOfRange {
                order: self.order,
                max: MAX_ORDER,
            });
        }
        let total = 2 * self.order;
        let k_sym = self.symbolic_moments.unwrap_or(total);
        if k_sym == 0 || k_sym > total {
            return Err(PartitionError::BadBinding {
                what: format!("symbolic_moments must be in 1..={total}"),
            });
        }
        Ok(k_sym)
    }
}

/// Record of a numeric-health fallback taken while building a ROM: the
/// requested order was rejected (unstable poles, singular Hankel solve,
/// non-finite fit) and a lower order was served instead. Serialized into
/// responses so clients can tell a degraded answer from a healthy one.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Degradation {
    /// The order the model was built for.
    pub from_order: usize,
    /// The order actually served.
    pub to_order: usize,
    /// Why the requested order was rejected.
    pub reason: String,
}

/// First-order Taylor extension of the trailing moments, the ones after
/// the tape's outputs, about the model's nominal point.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct TaylorTail {
    /// Moment values at the nominal point.
    base: Vec<f64>,
    /// `jac[i][s] = ∂m_{k+i}/∂σ_s` at nominal, where `k` is the tape's
    /// output count.
    jac: Vec<Vec<f64>>,
}

/// Compiles the moments `m_k = P_k / D^{k+1}` of `sm` into one tape.
///
/// Below [`OptLevel::Full`] the lowering is the naive reference: each
/// polynomial term by term ([`ExprGraph::poly`]) and one division by a
/// power of `D` per moment. At [`OptLevel::Full`] each polynomial is
/// nested ([`ExprGraph::poly_nested`]) and the moments share one
/// reciprocal, `m_k = P_k · r^{k+1}` with `r = 1/D`: one division per
/// point. Its [`CompiledFn::raw_op_count`] stays the length of the naive
/// lowering's [`OptLevel::None`] tape, the reference the optimizer is
/// measured against; both lowerings share one graph, and only the
/// outputs compiled decide which ops the tape holds.
fn moment_tape(sm: &SymbolicMoments, nsym: usize, level: OptLevel) -> CompiledFn {
    let mut g = ExprGraph::new(nsym);
    let nested = (level == OptLevel::Full).then(|| {
        let d = g.poly_nested(&sm.d);
        let one = g.constant(1.0);
        let r = g.div(one, d);
        let mut r_pow = r;
        let mut outputs = Vec::with_capacity(sm.p.len());
        for (k, pk) in sm.p.iter().enumerate() {
            if k > 0 {
                r_pow = g.mul(r_pow, r);
            }
            let p = g.poly_nested(pk);
            outputs.push(g.mul(p, r_pow));
        }
        outputs
    });
    let d = g.poly(&sm.d);
    let mut naive = Vec::with_capacity(sm.p.len());
    let mut d_pow = d;
    for (k, pk) in sm.p.iter().enumerate() {
        if k > 0 {
            d_pow = g.mul(d_pow, d);
        }
        let p = g.poly(pk);
        naive.push(g.div(p, d_pow));
    }
    let options = CompileOptions::new().opt_level(level);
    match nested {
        None => g.compile_with(&naive, &options),
        Some(outputs) => g
            .compile_with(&outputs, &options)
            .with_raw_op_count(g.raw_op_count(&naive)),
    }
}

/// A compiled reduced-order symbolic model.
///
/// Built once (the expensive symbolic analysis); evaluated many times at
/// concrete symbol values — each evaluation replays a flat tape and runs a
/// tiny `q×q` Padé solve, which is the orders-of-magnitude-cheaper
/// "incremental cost" the paper reports. Serializable with serde for use
/// as a stored timing model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompiledModel {
    symbols: SymbolSet,
    nominal: Vec<f64>,
    fun: CompiledFn,
    order: usize,
    taylor: Option<TaylorTail>,
}

impl CompiledModel {
    /// Builds a full symbolic model of order `q` for the given circuit,
    /// input source, output node and symbol bindings.
    ///
    /// # Errors
    ///
    /// [`PartitionError::OrderOutOfRange`] for an `order` outside
    /// `1..=`[`MAX_ORDER`]; otherwise propagates assembly and
    /// symbolic-recursion failures, see [`SymbolicSystem::assemble`] and
    /// [`SymbolicMoments::compute`].
    pub fn build(
        circuit: &Circuit,
        input: ElementId,
        output: Node,
        bindings: &[SymbolBinding],
        order: usize,
    ) -> Result<Self, PartitionError> {
        Self::build_with_options(circuit, input, output, bindings, ModelOptions::order(order))
    }

    /// Builds with explicit [`ModelOptions`].
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::build`]; additionally the option errors of
    /// [`ModelOptions::symbolic_count`], checked before any work starts.
    pub fn build_with_options(
        circuit: &Circuit,
        input: ElementId,
        output: Node,
        bindings: &[SymbolBinding],
        opts: ModelOptions,
    ) -> Result<Self, PartitionError> {
        Self::build_probe(
            circuit,
            input,
            &awesym_mna::Probe::NodeVoltage(output),
            bindings,
            opts,
        )
    }

    /// Builds a model observing an arbitrary probe (branch current or
    /// differential voltage) — e.g. a compiled transfer-admittance model.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::build_with_options`].
    pub fn build_probe(
        circuit: &Circuit,
        input: ElementId,
        probe: &awesym_mna::Probe,
        bindings: &[SymbolBinding],
        opts: ModelOptions,
    ) -> Result<Self, PartitionError> {
        Ok(
            Self::build_multi(circuit, input, std::slice::from_ref(probe), bindings, opts)?
                .remove(0),
        )
    }

    /// Builds one model per probe while sharing the expensive work (the
    /// numeric partition reduction and the symbolic moment recursion) —
    /// the natural form for multi-output timing models such as the
    /// coupled-line direct/cross-talk pair.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::build_with_options`]; `probes` must be
    /// non-empty.
    pub fn build_multi(
        circuit: &Circuit,
        input: ElementId,
        probes: &[awesym_mna::Probe],
        bindings: &[SymbolBinding],
        opts: ModelOptions,
    ) -> Result<Vec<Self>, PartitionError> {
        let k_sym = opts.symbolic_count()?;
        let q = opts.order;
        let total = 2 * q;
        let sys = SymbolicSystem::assemble_multi(circuit, input, probes, bindings, k_sym)?;
        let sms = SymbolicMoments::compute_multi(&sys, k_sym)?;

        let nsym = sys.symbols().len();
        let mut models = Vec::with_capacity(sms.len());
        for (idx, sm) in sms.into_iter().enumerate() {
            let fun = moment_tape(&sm, nsym, opts.opt_level);
            let taylor = if k_sym < total {
                let base_all = sys.reference_moments_for(idx, sys.nominal(), total)?;
                let jac_all = sys.moment_jacobian_for(idx, sys.nominal(), total)?;
                Some(TaylorTail {
                    base: base_all[k_sym..].to_vec(),
                    jac: jac_all[k_sym..].to_vec(),
                })
            } else {
                None
            };

            models.push(CompiledModel {
                symbols: sys.symbols().clone(),
                nominal: sys.nominal().to_vec(),
                fun,
                order: q,
                taylor,
            });
        }
        Ok(models)
    }

    /// The symbols, in evaluation order.
    pub fn symbols(&self) -> &SymbolSet {
        &self.symbols
    }

    /// Nominal symbol values taken from the circuit.
    pub fn nominal(&self) -> &[f64] {
        &self.nominal
    }

    /// Approximation order `q`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of tape instructions (the compiled "reduced set of
    /// operations") after optimization.
    pub fn op_count(&self) -> usize {
        self.fun.op_count()
    }

    /// Number of tape instructions the raw lowering emitted, before the
    /// pass pipeline ran.
    pub fn raw_op_count(&self) -> usize {
        self.fun.raw_op_count()
    }

    /// The optimization level the tape was compiled at.
    pub fn opt_level(&self) -> OptLevel {
        self.fun.opt_level()
    }

    /// The compiled moment tape.
    pub fn tape(&self) -> &Tape {
        self.fun.tape()
    }

    /// Checks every numeric quantity baked into the model — nominal
    /// values, tape constants, and the Taylor tail — for NaN/Inf. A model
    /// deserialized from a corrupted artifact can carry non-finite
    /// coefficients (JSON renders NaN as `null`, which round-trips back to
    /// NaN) that would poison every evaluation; loaders call this to
    /// reject such models up front.
    ///
    /// # Errors
    ///
    /// Describes the first non-finite quantity found.
    pub fn validate_numerics(&self) -> Result<(), String> {
        let check = |vals: &[f64], what: &str| -> Result<(), String> {
            match vals.iter().position(|v| !v.is_finite()) {
                Some(i) => Err(format!("non-finite {what} at index {i}")),
                None => Ok(()),
            }
        };
        check(&self.nominal, "nominal value")?;
        for (i, op) in self.tape().ops().iter().enumerate() {
            if let awesym_symbolic::TapeOp::Const(c) = op {
                if !c.is_finite() {
                    return Err(format!("non-finite tape constant at op {i}"));
                }
            }
        }
        if let Some(t) = &self.taylor {
            check(&t.base, "taylor base moment")?;
            for row in &t.jac {
                check(row, "taylor jacobian entry")?;
            }
        }
        Ok(())
    }

    /// Checks every width baked into the model against its tape: the
    /// symbol names, the nominal point and the Taylor tail's Jacobian
    /// rows must each hold one entry per tape symbol, and the tape
    /// outputs plus the tail rows must be the `2q` moments.
    /// Evaluation asserts these, so a model deserialized from a tampered
    /// artifact that breaks one would load and then fail every request;
    /// loaders call this to reject it up front.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch found.
    pub fn validate_shapes(&self) -> Result<(), String> {
        let n = self.fun.n_syms();
        let width = |got: usize, what: &str| {
            if got == n {
                Ok(())
            } else {
                Err(format!(
                    "{what} has {got} entries, the tape takes {n} symbols"
                ))
            }
        };
        width(self.symbols.len(), "symbol list")?;
        width(self.nominal.len(), "nominal point")?;
        let mut moments = self.fun.n_outputs();
        if let Some(t) = &self.taylor {
            for row in &t.jac {
                width(row.len(), "taylor jacobian row")?;
            }
            if t.jac.len() != t.base.len() {
                return Err(format!(
                    "taylor tail has {} rows and {} jacobian rows",
                    t.base.len(),
                    t.jac.len()
                ));
            }
            moments += t.base.len();
        }
        if moments != 2 * self.order {
            return Err(format!(
                "model carries {moments} moments, order {} needs {}",
                self.order,
                2 * self.order
            ));
        }
        Ok(())
    }

    /// An [`Evaluator`] over this model's tape (and Taylor tail, when the
    /// model is partial-Padé) — the preferred evaluation API. Each call
    /// builds a fresh evaluator with its own scratch; create one per
    /// worker thread and reuse it across points. Its outputs are the `2q`
    /// moments, identical to [`CompiledModel::eval_moments`].
    pub fn evaluator(&self) -> Evaluator<'_> {
        match &self.taylor {
            None => self.fun.evaluator(),
            Some(t) => self.fun.evaluator_with_tail(AffineTail::new(
                t.base.clone(),
                t.jac.clone(),
                self.nominal.clone(),
            )),
        }
    }

    /// Evaluates the `2q` moments at the given symbol values.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the symbol count.
    pub fn eval_moments(&self, vals: &[f64]) -> Vec<f64> {
        self.evaluator().eval(vals)
    }

    /// Full reduced-order model at the given symbol values (the final AWE
    /// approximation: tape replay + `q×q` Padé). Falls back to lower
    /// orders / residue refits when the exact order is unstable, matching
    /// plain AWE's behavior.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::Awe`] when no stable model exists at any
    /// order down to 1.
    pub fn rom(&self, vals: &[f64]) -> Result<Rom, PartitionError> {
        self.rom_from_moments(&self.eval_moments(vals))
    }

    /// As [`CompiledModel::rom`], but from already-evaluated moments —
    /// lets batch paths that need both moments and a ROM replay the tape
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::Awe`] when no stable model exists at any
    /// order down to 1.
    ///
    /// # Panics
    ///
    /// Panics when `m.len() < 2 * self.order()`.
    pub fn rom_from_moments(&self, m: &[f64]) -> Result<Rom, PartitionError> {
        self.rom_degraded_from_moments(m).map(|(rom, _)| rom)
    }

    /// As [`CompiledModel::rom_from_moments`], but additionally reports
    /// *which* numeric-health fallback fired: when the exact-order Padé is
    /// rejected (unstable poles, a singular/near-singular Hankel solve, a
    /// non-finite fit) and a lower order q−1, q−2, … is served instead,
    /// the returned [`Degradation`] names the requested order, the served
    /// order, and the reason. A healthy exact-order fit returns `None`.
    ///
    /// Non-finite input moments cannot be repaired by dropping order and
    /// are a typed [`awesym_awe::AweError::NonFinite`] error.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::Awe`] when no stable model exists at any
    /// order down to 1.
    ///
    /// # Panics
    ///
    /// Panics when `m.len() < 2 * self.order()`.
    pub fn rom_degraded_from_moments(
        &self,
        m: &[f64],
    ) -> Result<(Rom, Option<Degradation>), PartitionError> {
        assert!(m.len() >= 2 * self.order, "need 2q moments");
        if m.iter().any(|v| !v.is_finite()) {
            return Err(PartitionError::Awe(awesym_awe::AweError::NonFinite {
                what: "moments",
            }));
        }
        let mut last = None;
        // Why the highest-order attempt was rejected — the reason a client
        // sees when a lower order ends up being served.
        let mut reason: Option<String> = None;
        for q in (1..=self.order).rev() {
            match pade_rom(&m[..2 * q], q, true) {
                Ok(r) => {
                    if r.is_stable() {
                        let deg = (q < self.order).then(|| Degradation {
                            from_order: self.order,
                            to_order: q,
                            reason: reason
                                .clone()
                                .unwrap_or_else(|| "lower order preferred".into()),
                        });
                        return Ok((r, deg));
                    }
                    if let Some(f) = r.stabilized() {
                        let why = reason
                            .clone()
                            .unwrap_or_else(|| format!("order {q} fit has unstable poles"));
                        let to_order = f.order();
                        return Ok((
                            f,
                            Some(Degradation {
                                from_order: self.order,
                                to_order,
                                reason: format!("{why}; unstable poles discarded, residues refit"),
                            }),
                        ));
                    }
                    reason.get_or_insert_with(|| format!("order {q} fit has unstable poles"));
                }
                Err(e) => {
                    reason.get_or_insert_with(|| format!("order {q} fit failed: {e}"));
                    last = Some(e);
                }
            }
        }
        Err(PartitionError::Awe(
            last.unwrap_or(awesym_awe::AweError::ZeroResponse),
        ))
    }

    /// Reduced-order model at exactly the built order, without stability
    /// fallbacks (what a raw Padé produces).
    ///
    /// # Errors
    ///
    /// Propagates Padé failures.
    pub fn rom_exact_order(&self, vals: &[f64]) -> Result<Rom, PartitionError> {
        let m = self.eval_moments(vals);
        Ok(pade_rom(&m, self.order, true)?)
    }

    /// DC gain at the given symbol values.
    pub fn dc_gain(&self, vals: &[f64]) -> f64 {
        // m0 is the first tape output; avoid the full Padé.
        self.eval_moments(vals)[0]
    }

    /// Dominant pole at the given symbol values.
    ///
    /// # Errors
    ///
    /// Propagates ROM construction failures.
    pub fn dominant_pole(&self, vals: &[f64]) -> Result<Complex64, PartitionError> {
        let rom = self.rom(vals)?;
        rom.dominant_pole()
            .ok_or(PartitionError::Awe(awesym_awe::AweError::ZeroResponse))
    }

    /// Unity-gain frequency (Hz) at the given symbol values, when the gain
    /// crosses 1.
    ///
    /// # Errors
    ///
    /// Propagates ROM construction failures.
    pub fn unity_gain_freq(&self, vals: &[f64]) -> Result<Option<f64>, PartitionError> {
        let rom = self.rom(vals)?;
        Ok(rom
            .unity_gain_omega()
            .map(|w| w / (2.0 * std::f64::consts::PI)))
    }

    /// Phase margin (degrees) at the given symbol values.
    ///
    /// # Errors
    ///
    /// Propagates ROM construction failures.
    pub fn phase_margin(&self, vals: &[f64]) -> Result<Option<f64>, PartitionError> {
        Ok(self.rom(vals)?.phase_margin_deg())
    }

    /// Unit-step response sampled at `times`, at the given symbol values.
    ///
    /// # Errors
    ///
    /// Propagates ROM construction failures.
    pub fn step_response(&self, vals: &[f64], times: &[f64]) -> Result<Vec<f64>, PartitionError> {
        Ok(self.rom(vals)?.step_response_series(times))
    }

    /// Moment-based delay metric family (Elmore, ln2·Elmore, D2M,
    /// two-pole) at the given symbol values — the closed-form estimates a
    /// physical-design timer consumes, each far cheaper than the full
    /// pole/residue path.
    ///
    /// # Errors
    ///
    /// Propagates [`awesym_awe::delay_estimates`] failures.
    pub fn delay_estimates(
        &self,
        vals: &[f64],
    ) -> Result<awesym_awe::DelayEstimates, PartitionError> {
        Ok(awesym_awe::delay_estimates(&self.eval_moments(vals))?)
    }

    /// Validates the compiled model over a symbol-space range, as §2.3 of
    /// the paper recommends ("it may be necessary to validate the choice
    /// of symbolic elements over the range spanned by the symbolic
    /// elements… the cost of validation is low").
    ///
    /// Every corner and the center of the hyper-box
    /// `[nominal/span, nominal·span]^n` is checked against a full
    /// (non-partitioned) re-analysis of the circuit with the values
    /// substituted. Returns the largest relative moment error observed.
    ///
    /// For full-symbolic models this measures floating-point agreement
    /// (≈1e-12); for partial-Padé models it measures the Taylor tail's
    /// range of validity — the intended use.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures at any validation point.
    ///
    /// # Panics
    ///
    /// Panics when `bindings` does not match the model's symbols or
    /// `span <= 0`.
    pub fn validate_over_range(
        &self,
        circuit: &Circuit,
        input: ElementId,
        output: Node,
        bindings: &[SymbolBinding],
        span: f64,
    ) -> Result<f64, PartitionError> {
        assert!(span > 0.0, "span must be positive");
        assert_eq!(
            bindings.len(),
            self.symbols.len(),
            "binding/symbol mismatch"
        );
        let n = bindings.len();
        let nominal = self.nominal.clone();
        let mut worst = 0.0f64;
        // Corners (2^n) plus center.
        let total = 1usize << n;
        for corner in 0..=total {
            let vals: Vec<f64> = (0..n)
                .map(|i| {
                    if corner == total {
                        nominal[i]
                    } else if corner & (1 << i) != 0 {
                        nominal[i] * span
                    } else {
                        nominal[i] / span
                    }
                })
                .collect();
            let m_model = self.eval_moments(&vals);
            let subst = crate::binding::apply_symbol_values(circuit, bindings, &vals);
            let awe = awesym_awe::AweAnalysis::new(&subst, input, output)?;
            let m_ref = awe.moments(m_model.len())?.m;
            for (a, b) in m_model.iter().zip(m_ref.iter()) {
                let scale = b.abs().max(1e-300);
                worst = worst.max((a - b).abs() / scale);
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;

    fn fig1_bindings(c: &Circuit) -> [SymbolBinding; 2] {
        [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ]
    }

    fn fig1_model(order: usize) -> (awesym_circuit::generators::Workload, CompiledModel) {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let bindings = fig1_bindings(&w.circuit);
        let model = CompiledModel::build(&w.circuit, w.input, w.output, &bindings, order).unwrap();
        (w, model)
    }

    /// The symbolic moments `fig1_model(order)` lowers to its tape.
    fn fig1_moments(order: usize) -> SymbolicMoments {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let bindings = fig1_bindings(&w.circuit);
        let sys =
            SymbolicSystem::assemble(&w.circuit, w.input, w.output, &bindings, 2 * order).unwrap();
        SymbolicMoments::compute(&sys, 2 * order).unwrap()
    }

    #[test]
    fn compiled_model_matches_full_awe_everywhere() {
        let (w, model) = fig1_model(2);
        let c = &w.circuit;
        for point in [[1e-9, 500.0], [4e-9, 3e3], [0.1e-9, 100.0]] {
            // Substitute values into a fresh circuit and run plain AWE.
            let mut c2 = c.clone();
            c2.set_value(c.find("C1").unwrap(), point[0]);
            c2.set_value(c.find("R2").unwrap(), point[1]);
            let awe = awesym_awe::AweAnalysis::new(&c2, w.input, w.output).unwrap();
            let rom_ref = awe.rom(2).unwrap();
            let rom_sym = model.rom_exact_order(&point).unwrap();
            let mut pref: Vec<f64> = rom_ref.poles().iter().map(|p| p.re).collect();
            let mut psym: Vec<f64> = rom_sym.poles().iter().map(|p| p.re).collect();
            pref.sort_by(f64::total_cmp);
            psym.sort_by(f64::total_cmp);
            for (a, b) in pref.iter().zip(psym.iter()) {
                assert!(
                    (a - b).abs() < 1e-6 * b.abs(),
                    "poles {a} vs {b} at {point:?}"
                );
            }
        }
    }

    #[test]
    fn moment_evaluation_paths_agree() {
        let (_, model) = fig1_model(2);
        let vals = [2e-9, 750.0];
        let m1 = model.eval_moments(&vals);
        let ev = model.evaluator();
        let mut out = vec![0.0; ev.n_outputs()];
        ev.eval_into(&vals, &mut out);
        assert_eq!(m1, out);
        assert_eq!(m1.len(), 4);
        // Batch agrees with per-point, tail rows included.
        let points = vec![vec![2e-9, 750.0], vec![1e-9, 2e3], vec![3e-9, 500.0]];
        let mut batch = vec![0.0; points.len() * 4];
        ev.eval_batch(&points, &mut batch);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(&batch[i * 4..(i + 1) * 4], &model.eval_moments(p)[..]);
        }
    }

    #[test]
    fn rom_from_moments_matches_rom() {
        let (_, model) = fig1_model(2);
        let vals = [2e-9, 750.0];
        let m = model.eval_moments(&vals);
        let a = model.rom(&vals).unwrap();
        let b = model.rom_from_moments(&m).unwrap();
        assert_eq!(a.poles(), b.poles());
        // A healthy exact-order fit reports no degradation.
        let (c, deg) = model.rom_degraded_from_moments(&m).unwrap();
        assert_eq!(a.poles(), c.poles());
        assert!(deg.is_none(), "{deg:?}");
    }

    /// Moments of `H(s) = Σ k_i/(s − p_i)`: `m_j = −Σ k_i/p_i^{j+1}`.
    fn moments_of(poles: &[f64], residues: &[f64], count: usize) -> Vec<f64> {
        (0..count)
            .map(|j| {
                -poles
                    .iter()
                    .zip(residues)
                    .map(|(&p, &k)| k / p.powi(j as i32 + 1))
                    .sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn overfit_moments_degrade_to_lower_order() {
        // A 2-pole model fed moments of a single-pole response: the order-2
        // Hankel system is singular, so the ladder drops to order 1 and says
        // so.
        let (_, model) = fig1_model(2);
        let m = moments_of(&[-1e6], &[2e6], 4);
        let (rom, deg) = model.rom_degraded_from_moments(&m).unwrap();
        assert_eq!(rom.order(), 1);
        let deg = deg.unwrap();
        assert_eq!((deg.from_order, deg.to_order), (2, 1));
        assert!(deg.reason.contains("order 2"), "{}", deg.reason);
        assert!((rom.poles()[0].re + 1e6).abs() < 1.0, "{:?}", rom.poles());
    }

    #[test]
    fn unstable_moments_degrade_with_reason() {
        // Moments of a pole pair with one RHP pole: the exact-order fit
        // recovers the unstable pole, gets rejected, and the stabilized
        // refit is reported as a degradation instead of served silently.
        let (_, model) = fig1_model(2);
        let m = moments_of(&[-1.0, 2.0], &[1.0, 0.5], 4);
        let (rom, deg) = model.rom_degraded_from_moments(&m).unwrap();
        assert!(rom.is_stable());
        assert!(rom.poles().iter().all(|p| p.re.is_finite()));
        let deg = deg.unwrap();
        assert_eq!(deg.from_order, 2);
        assert!(deg.to_order < 2);
        assert!(deg.reason.contains("unstable"), "{}", deg.reason);
    }

    #[test]
    fn non_finite_moments_are_a_typed_error() {
        let (_, model) = fig1_model(2);
        let m = [1.0, f64::NAN, 1.0, -1.0];
        let e = model.rom_degraded_from_moments(&m).unwrap_err();
        assert!(
            matches!(
                e,
                PartitionError::Awe(awesym_awe::AweError::NonFinite { .. })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn validate_numerics_accepts_healthy_and_rejects_corrupt() {
        let (_, model) = fig1_model(2);
        model.validate_numerics().unwrap();
        // Round-trip through JSON with a nominal value replaced by null
        // (how NaN survives serialization) — validation must catch it.
        let json = serde_json::to_string(&model).unwrap();
        let v0 = model.nominal()[0];
        let needle = serde_json::to_string(&v0).unwrap();
        let corrupt = json.replacen(&needle, "null", 1);
        assert_ne!(json, corrupt, "nominal value not found in payload");
        let bad: CompiledModel = serde_json::from_str(&corrupt).unwrap();
        let e = bad.validate_numerics().unwrap_err();
        assert!(e.contains("non-finite"), "{e}");
    }

    #[test]
    fn validate_shapes_rejects_widths_that_disagree_with_the_tape() {
        // A partial-Padé model (one symbol, Taylor tail) round-tripped
        // through JSON with one width edited at a time.
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        let partial = CompiledModel::build_with_options(
            c,
            w.input,
            w.output,
            &bindings,
            ModelOptions::order(2).with_symbolic_moments(2),
        )
        .unwrap();
        partial.validate_shapes().unwrap();
        let json = serde_json::to_string(&partial).unwrap();
        let tail = json.find("\"taylor\":").expect("partial model has a tail");
        let field = "\"jac\":[[";
        let at = tail + json[tail..].find(field).unwrap() + field.len();
        let wider = format!("{}0.5,{}", &json[..at], &json[at..]);
        let bad: CompiledModel = serde_json::from_str(&wider).unwrap();
        let e = bad.validate_shapes().unwrap_err();
        assert!(e.contains("taylor"), "{field}: {e}");
        let deeper = json.replacen("\"order\":2", "\"order\":3", 1);
        let bad: CompiledModel = serde_json::from_str(&deeper).unwrap();
        let e = bad.validate_shapes().unwrap_err();
        assert!(e.contains("order 3 needs 6"), "{e}");
    }

    #[test]
    fn opt_level_none_agrees_with_full() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        let full = CompiledModel::build_with_options(
            c,
            w.input,
            w.output,
            &bindings,
            ModelOptions::order(2),
        )
        .unwrap();
        let raw = CompiledModel::build_with_options(
            c,
            w.input,
            w.output,
            &bindings,
            ModelOptions::order(2).with_opt_level(OptLevel::None),
        )
        .unwrap();
        assert_eq!(raw.opt_level(), OptLevel::None);
        assert_eq!(full.opt_level(), OptLevel::Full);
        assert_eq!(raw.op_count(), full.raw_op_count());
        assert!(full.op_count() < raw.op_count());
        for vals in [[1e-9, 500.0], [4e-9, 3e3], [0.1e-9, 100.0]] {
            let a = full.eval_moments(&vals);
            let b = raw.eval_moments(&vals);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-12 * y.abs().max(1e-300), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn symbolic_forms_are_consistent() {
        let (_, model) = fig1_model(2);
        let forms = fig1_moments(2);
        let vals = [2e-9, 1234.0];
        let m = model.eval_moments(&vals);
        assert!((forms.dc_gain().eval(&vals) - m[0]).abs() < 1e-12 * m[0].abs());
        // First-order pole = m0/m1.
        let p1 = forms.first_order_pole().eval(&vals);
        assert!((p1 - m[0] / m[1]).abs() < 1e-9 * p1.abs());
        assert!(forms.moment_text(0).starts_with("m0"));
    }

    #[test]
    fn order2_symbolic_denominator_matches_hankel() {
        let (_, model) = fig1_model(2);
        let (b1, b2) = fig1_moments(2).denominator_coeffs_order2();
        for vals in [[1e-9, 2e3], [3e-9, 700.0], [0.5e-9, 5e3]] {
            let m = model.eval_moments(&vals);
            // Numeric Hankel solve on the same moments.
            let b = awesym_linalg::solve_hankel(&m, 2).unwrap();
            let (v1, v2) = (b1.eval(&vals), b2.eval(&vals));
            assert!((v1 - b[0]).abs() < 1e-6 * b[0].abs(), "{v1} vs {}", b[0]);
            assert!((v2 - b[1]).abs() < 1e-6 * b[1].abs(), "{v2} vs {}", b[1]);
            // And the quadratic roots equal the ROM poles.
            let (r1, r2) = awesym_linalg::quadratic_roots(1.0, v1, v2);
            let rom = model.rom_exact_order(&vals).unwrap();
            for truth in rom.poles() {
                let best = [(r1 - *truth).abs(), (r2 - *truth).abs()]
                    .into_iter()
                    .fold(f64::MAX, f64::min);
                assert!(best < 1e-6 * truth.abs(), "pole {truth} at {vals:?}");
            }
        }
    }

    #[test]
    fn taylor_tail_model_is_exact_at_nominal_and_close_nearby() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        let full = CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap();
        let partial = CompiledModel::build_with_options(
            c,
            w.input,
            w.output,
            &bindings,
            ModelOptions::order(2).with_symbolic_moments(2),
        )
        .unwrap();
        let nominal = [1e-9];
        let m_f = full.eval_moments(&nominal);
        let m_p = partial.eval_moments(&nominal);
        for (a, b) in m_f.iter().zip(m_p.iter()) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1e-30), "{a} vs {b}");
        }
        // 5% off nominal: tail is first-order accurate, so within ~1%.
        let near = [1.05e-9];
        let m_f = full.eval_moments(&near);
        let m_p = partial.eval_moments(&near);
        for (k, (a, b)) in m_f.iter().zip(m_p.iter()).enumerate() {
            assert!(
                (a - b).abs() < 2e-2 * a.abs(),
                "m{k}: full {a} vs partial {b}"
            );
        }
    }

    #[test]
    fn bad_options_rejected() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        for bad in [0usize, 5] {
            let r = CompiledModel::build_with_options(
                c,
                w.input,
                w.output,
                &bindings,
                ModelOptions::order(2).with_symbolic_moments(bad),
            );
            assert!(matches!(r, Err(PartitionError::BadBinding { .. })), "{bad}");
        }
    }

    #[test]
    fn out_of_range_orders_are_refused_before_any_work() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        for order in [0, MAX_ORDER + 1, 100_000, 1 << 32, usize::MAX] {
            let r = CompiledModel::build(c, w.input, w.output, &bindings, order);
            assert_eq!(
                r.unwrap_err(),
                PartitionError::OrderOutOfRange {
                    order,
                    max: MAX_ORDER
                }
            );
        }
        let m = CompiledModel::build(c, w.input, w.output, &bindings, MAX_ORDER).unwrap();
        assert_eq!(m.eval_moments(&[1e-9]).len(), 2 * MAX_ORDER);
    }

    #[test]
    fn range_validation_full_vs_partial() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        let full = CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap();
        let err_full = full
            .validate_over_range(c, w.input, w.output, &bindings, 4.0)
            .unwrap();
        assert!(
            err_full < 1e-9,
            "full model should validate exactly: {err_full}"
        );
        let partial = CompiledModel::build_with_options(
            c,
            w.input,
            w.output,
            &bindings,
            ModelOptions::order(2).with_symbolic_moments(2),
        )
        .unwrap();
        let err_tight = partial
            .validate_over_range(c, w.input, w.output, &bindings, 1.05)
            .unwrap();
        let err_wide = partial
            .validate_over_range(c, w.input, w.output, &bindings, 4.0)
            .unwrap();
        // The Taylor tail degrades with range — exactly what the paper's
        // validation step is meant to expose.
        assert!(err_tight < 0.02, "near nominal: {err_tight}");
        assert!(err_wide > err_tight * 5.0, "{err_wide} vs {err_tight}");
    }

    #[test]
    fn serde_round_trip_preserves_evaluation() {
        let (_, model) = fig1_model(2);
        let json = serde_json::to_string(&model).unwrap();
        let back: CompiledModel = serde_json::from_str(&json).unwrap();
        let vals = [2.5e-9, 800.0];
        assert_eq!(back.eval_moments(&vals), model.eval_moments(&vals));
        assert_eq!(back.op_count(), model.op_count());
    }

    #[test]
    fn metrics_run() {
        let (_, model) = fig1_model(2);
        let vals = [1e-9, 1e3];
        let dc = model.dc_gain(&vals);
        assert!((dc - 1.0).abs() < 1e-9);
        let p = model.dominant_pole(&vals).unwrap();
        assert!(p.re < 0.0);
        // A unity-DC-gain low-pass never exceeds |H| = 1, so if the search
        // does report a crossover it can only come from rounding at DC.
        if let Some(f) = model.unity_gain_freq(&vals).unwrap() {
            assert!(f > 0.0);
        }
        // Sample well past the dominant time constant: settles to H(0)=1.
        let tau = 1.0 / p.re.abs();
        let times: Vec<f64> = (0..10).map(|i| i as f64 * tau).collect();
        let resp = model.step_response(&vals, &times).unwrap();
        assert!(resp[9] > 0.9, "final {}", resp[9]);
    }
}
