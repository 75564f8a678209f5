//! Moment computation by recursive DC solves.

use crate::AweError;
use awesym_circuit::{ElementId, Node};
use awesym_mna::Mna;
use awesym_sparse::{LuOptions, SparseLu};

/// Computed moments of a transfer function together with the moment vectors
/// needed by sensitivity analysis.
#[derive(Debug, Clone)]
pub struct Moments {
    /// Output moments `m_k = lᵀ X_k`.
    pub m: Vec<f64>,
    /// Moment vectors `X_k` (state-space moments of the whole circuit).
    pub x: Vec<Vec<f64>>,
}

/// Factors `G` once and produces moments on demand.
///
/// The moment recursion is `G X_0 = b`, `G X_k = −C X_{k−1}`; each
/// additional moment costs one sparse matrix-vector product and one
/// forward/backward substitution — this is why AWE is more than an order of
/// magnitude cheaper than transient simulation.
#[derive(Debug)]
pub struct MomentEngine {
    lu: SparseLu<f64>,
    mna: Mna,
    b: Vec<f64>,
    l: Vec<f64>,
}

impl MomentEngine {
    /// Builds the engine: formulates the circuit (if not already done) and
    /// factors `G`.
    ///
    /// # Errors
    ///
    /// Returns [`AweError::Mna`] when `G` is singular or the input is not an
    /// independent source.
    pub fn new(mna: Mna, input: ElementId, output: Node) -> Result<Self, AweError> {
        Self::with_probe(mna, input, &awesym_mna::Probe::NodeVoltage(output))
    }

    /// Builds the engine for an arbitrary probe (node voltage, branch
    /// current, or differential voltage).
    ///
    /// # Errors
    ///
    /// As [`MomentEngine::new`], plus [`AweError::Mna`] for a probe that
    /// names a branch without an explicit current.
    pub fn with_probe(
        mna: Mna,
        input: ElementId,
        probe: &awesym_mna::Probe,
    ) -> Result<Self, AweError> {
        let b = mna.unit_source_vector(input)?;
        let l = mna.probe_selector(probe)?;
        let lu =
            SparseLu::factor(mna.g(), LuOptions::default()).map_err(awesym_mna::MnaError::from)?;
        Ok(MomentEngine { lu, mna, b, l })
    }

    /// The underlying MNA system.
    pub fn mna(&self) -> &Mna {
        &self.mna
    }

    /// The factored `G` (shared with sensitivity analysis, which needs
    /// transposed solves on the same factors).
    pub fn lu(&self) -> &SparseLu<f64> {
        &self.lu
    }

    /// Output selector `l`.
    pub fn selector(&self) -> &[f64] {
        &self.l
    }

    /// Computes the first `count` moments (`m_0 … m_{count−1}`).
    ///
    /// # Errors
    ///
    /// Returns [`AweError::ZeroResponse`] when every computed moment is
    /// exactly zero.
    pub fn compute(&self, count: usize) -> Result<Moments, AweError> {
        let mut x = Vec::with_capacity(count);
        let mut m = Vec::with_capacity(count);
        let mut current = self.lu.solve(&self.b);
        for _ in 0..count {
            m.push(dot(&self.l, &current));
            x.push(current.clone());
            let rhs: Vec<f64> = self.mna.c().mul_vec(&current).iter().map(|v| -v).collect();
            current = self.lu.solve(&rhs);
        }
        if m.iter().all(|v| *v == 0.0) {
            return Err(AweError::ZeroResponse);
        }
        Ok(Moments { m, x })
    }

    /// Moments of the expansion about a *shifted* point `s₀` (real axis):
    /// `H(s) = Σ_k m_k^{(s₀)}·(s − s₀)^k`, computed from
    /// `(G + s₀C) X_0 = b`, `(G + s₀C) X_k = −C X_{k−1}`.
    ///
    /// Shifted expansions (frequency hops) are the classical AWE remedy
    /// when the `s = 0` Maclaurin series converges too slowly to resolve
    /// high-frequency poles; the Padé poles come out relative to `s₀`.
    ///
    /// # Errors
    ///
    /// Returns [`AweError::Mna`] when `G + s₀C` is singular (i.e. `s₀` is
    /// a natural frequency of the circuit) and [`AweError::ZeroResponse`]
    /// for an all-zero sequence.
    pub fn compute_shifted(&self, s0: f64, count: usize) -> Result<Moments, AweError> {
        let a = self.mna.g().linear_combination(1.0, self.mna.c(), s0);
        let lu = SparseLu::factor(&a, LuOptions::default()).map_err(awesym_mna::MnaError::from)?;
        let mut x = Vec::with_capacity(count);
        let mut m = Vec::with_capacity(count);
        let mut current = lu.solve(&self.b);
        for _ in 0..count {
            m.push(dot(&self.l, &current));
            x.push(current.clone());
            let rhs: Vec<f64> = self.mna.c().mul_vec(&current).iter().map(|v| -v).collect();
            current = lu.solve(&rhs);
        }
        if m.iter().all(|v| *v == 0.0) {
            return Err(AweError::ZeroResponse);
        }
        Ok(Moments { m, x })
    }

    /// Adjoint moment vectors `Y_0 = G⁻ᵀ l`, `Y_{j+1} = −G⁻ᵀ Cᵀ Y_j`,
    /// used by the sensitivity chain rule.
    pub fn adjoint_vectors(&self, count: usize) -> Vec<Vec<f64>> {
        let mut ys = Vec::with_capacity(count);
        let mut current = self.lu.solve_transposed(&self.l);
        for _ in 0..count {
            ys.push(current.clone());
            let rhs: Vec<f64> = self
                .mna
                .c()
                .mul_vec_transposed(&current)
                .iter()
                .map(|v| -v)
                .collect();
            current = self.lu.solve_transposed(&rhs);
        }
        ys
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::{Circuit, Element};

    /// Single-pole RC: H(s) = 1/(1 + sRC), m_k = (−RC)^k.
    fn single_rc(r: f64, c: f64) -> (Circuit, ElementId, Node) {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("1");
        let n2 = ckt.node("2");
        let v = ckt.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        ckt.add(Element::resistor("R1", n1, n2, r));
        ckt.add(Element::capacitor("C1", n2, Circuit::GROUND, c));
        (ckt, v, n2)
    }

    #[test]
    fn single_pole_moments_analytic() {
        let (ckt, v, out) = single_rc(1e3, 1e-9);
        let mna = Mna::build(&ckt).unwrap();
        let eng = MomentEngine::new(mna, v, out).unwrap();
        let mom = eng.compute(5).unwrap();
        let tau: f64 = 1e3 * 1e-9;
        for (k, &mk) in mom.m.iter().enumerate() {
            let truth = (-tau).powi(k as i32);
            assert!(
                (mk - truth).abs() < 1e-12 * truth.abs().max(1.0),
                "m{k} = {mk}, expected {truth}"
            );
        }
    }

    #[test]
    fn fig1_moments_match_series_expansion() {
        // Fig. 1 circuit: H = G1G2 / (C1C2 s² + (G2C1+G2C2+G1C2) s + G1G2).
        let (g1, g2, c1, c2) = (1e-3, 2e-3, 1e-9, 3e-9);
        let w = awesym_circuit::generators::fig1_rc(g1, g2, c1, c2);
        let mna = Mna::build(&w.circuit).unwrap();
        let eng = MomentEngine::new(mna, w.input, w.output).unwrap();
        let mom = eng.compute(4).unwrap();
        // Series of 1/(1 + a1 s + a2 s²): m0=1, m1=−a1, m2=a1²−a2,
        // m3=−a1³+2a1a2.
        let a1 = (g2 * c1 + g2 * c2 + g1 * c2) / (g1 * g2);
        let a2 = c1 * c2 / (g1 * g2);
        let truth = [1.0, -a1, a1 * a1 - a2, -a1 * a1 * a1 + 2.0 * a1 * a2];
        for (k, (&mk, &tk)) in mom.m.iter().zip(truth.iter()).enumerate() {
            assert!((mk - tk).abs() < 1e-12 * tk.abs().max(1.0), "m{k}");
        }
    }

    #[test]
    fn adjoint_consistency() {
        // Y_jᵀ b must equal m_j (both equal lᵀ (−G⁻¹C)^j G⁻¹ b).
        let (ckt, v, out) = single_rc(2e3, 1e-9);
        let mna = Mna::build(&ckt).unwrap();
        let eng = MomentEngine::new(mna, v, out).unwrap();
        let mom = eng.compute(4).unwrap();
        let ys = eng.adjoint_vectors(4);
        let b = eng.b.clone();
        for (j, y) in ys.iter().enumerate().take(4) {
            let yb = dot(y, &b);
            assert!((yb - mom.m[j]).abs() < 1e-12 * mom.m[j].abs().max(1.0));
        }
    }

    #[test]
    fn zero_response_detected() {
        // Output node disconnected from the input path (separate island with
        // its own ground return so G stays nonsingular).
        let mut ckt = Circuit::new();
        let n1 = ckt.node("1");
        let n2 = ckt.node("2");
        let v = ckt.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        ckt.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        ckt.add(Element::resistor("R2", n2, Circuit::GROUND, 1.0));
        let mna = Mna::build(&ckt).unwrap();
        let eng = MomentEngine::new(mna, v, n2).unwrap();
        assert!(matches!(eng.compute(4), Err(AweError::ZeroResponse)));
    }

    #[test]
    fn ladder_m1_is_minus_elmore_delay() {
        // For an RC ladder driven by a voltage source, −m1 at the far end is
        // the Elmore delay Σ_i R_path(i)·C_i.
        let w = awesym_circuit::generators::rc_ladder(4, 100.0, 1e-12);
        let mna = Mna::build(&w.circuit).unwrap();
        let eng = MomentEngine::new(mna, w.input, w.output).unwrap();
        let mom = eng.compute(2).unwrap();
        let elmore: f64 = (1..=4).map(|i| (i as f64) * 100.0 * 1e-12).sum();
        assert!((mom.m[0] - 1.0).abs() < 1e-12);
        assert!((-mom.m[1] - elmore).abs() < 1e-15);
    }
}
