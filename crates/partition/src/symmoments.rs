//! The symbolic moment recursion on the partitioned global system.

use crate::{PartitionError, SymbolicSystem};
use awesym_symbolic::{MPoly, Ratio, SMat, SymbolSet};

/// Transfer-function moments in symbolic form:
/// `m_k(σ) = P_k(σ) / D(σ)^{k+1}` with `D = det(Ŷ_0)`.
///
/// This fraction-free representation keeps every intermediate a polynomial;
/// the recursion
///
/// ```text
/// N_k = adj(Ŷ_0) · Σ_{j=1..k} ( −Ŷ_j · N_{k−j} · D^{j−1} )
/// ```
///
/// follows directly from `Ŷ_0·V_k = −Σ_j Ŷ_j·V_{k−j}` with
/// `V_k = N_k / D^{k+1}`.
///
/// A [`crate::CompiledModel`] lowers these forms to its tape and keeps
/// only the tape. The closed forms below are what the paper prints as
/// eqs. (14)–(17): the DC gain, the first-order pole and the moment
/// numerators, ratios of (multilinear, for first order) polynomials.
#[derive(Debug, Clone)]
pub struct SymbolicMoments {
    /// Determinant of the symbolic DC matrix `Ŷ_0`.
    pub d: MPoly,
    /// Numerators `P_k`; `m_k = P_k / d^{k+1}`.
    pub p: Vec<MPoly>,
    /// The symbols, in evaluation order.
    pub symbols: SymbolSet,
}

impl SymbolicMoments {
    /// Runs the symbolic recursion for `count` moments.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::SingularSymbolicSystem`] when `det(Ŷ_0)`
    /// is identically zero and propagates assembly errors.
    pub fn compute(sys: &SymbolicSystem, count: usize) -> Result<Self, PartitionError> {
        Ok(Self::compute_multi(sys, count)?.remove(0))
    }

    /// Runs the recursion once and projects the shared moment vectors onto
    /// *every* probe selector of the system, returning one symbolic moment
    /// set per output. The `N_k` recursion dominates the cost and does not
    /// depend on the selector, so observing additional outputs is nearly
    /// free.
    ///
    /// # Errors
    ///
    /// As [`SymbolicMoments::compute`].
    pub fn compute_multi(sys: &SymbolicSystem, count: usize) -> Result<Vec<Self>, PartitionError> {
        let nsym = sys.symbols().len();
        let np = sys.num_ports();
        let ys = sys.port_moments();
        assert!(
            ys.len() >= count,
            "system was assembled with too few port moments"
        );

        // Global symbolic matrices Ŷ_k.
        let mut yhat: Vec<SMat> = Vec::with_capacity(count);
        for (k, yk) in ys.iter().take(count).enumerate() {
            let mut m = SMat::zeros(np, np, nsym);
            for i in 0..np {
                for j in 0..np {
                    let v = yk[(i, j)];
                    if v != 0.0 {
                        m.set(i, j, MPoly::constant(nsym, v));
                    }
                }
            }
            let stamps = match k {
                0 => Some(sys.stamps_g()),
                1 => Some(sys.stamps_c()),
                _ => None,
            };
            if let Some(stamps) = stamps {
                for (s, entries) in stamps.iter().enumerate() {
                    for &(r, c, v) in entries {
                        let mono = MPoly::monomial(nsym, &unit_exp(nsym, s), v);
                        m.add_to(r, c, &mono);
                    }
                }
            }
            yhat.push(m);
        }

        // NOTE: no coefficient pruning here. Monomials carry different
        // physical units (a coefficient of c1·c2 multiplies values ~1e-18),
        // so magnitude-relative pruning is exactly the unreliable heuristic
        // the paper warns about — it silently corrupts evaluations at
        // extreme symbol values.
        let d = yhat[0].det();
        if d.is_zero() {
            return Err(PartitionError::SingularSymbolicSystem);
        }
        let adj = yhat[0].adjugate();

        // RHS and selector as polynomials.
        let j_vec: Vec<MPoly> = sys
            .rhs()
            .iter()
            .map(|&v| MPoly::constant(nsym, v))
            .collect();

        // N_0 = adj · J.
        let mut n: Vec<Vec<MPoly>> = Vec::with_capacity(count);
        n.push(adj.mul_vec(&j_vec));

        // Powers of D shared across the recursion.
        let mut d_pow: Vec<MPoly> = vec![MPoly::one(nsym)];
        for k in 1..count {
            // rhs_k = Σ_{j=1..k} −Ŷ_j · N_{k−j} · D^{j−1}
            let mut rhs = vec![MPoly::zero(nsym); np];
            for j in 1..=k {
                while d_pow.len() < j {
                    let next = d_pow.last().unwrap().mul(&d);
                    d_pow.push(next);
                }
                let term = yhat[j].mul_vec(&n[k - j]);
                for (acc, t) in rhs.iter_mut().zip(term.iter()) {
                    if !t.is_zero() {
                        *acc = acc.sub(&t.mul(&d_pow[j - 1]));
                    }
                }
            }
            n.push(adj.mul_vec(&rhs));
        }

        // Project the shared moment vectors onto every output selector.
        let out = sys
            .selectors()
            .iter()
            .map(|sel| {
                let p: Vec<MPoly> = n
                    .iter()
                    .map(|nk| {
                        let mut acc = MPoly::zero(nsym);
                        for (poly, &lv) in nk.iter().zip(sel.iter()) {
                            if lv != 0.0 {
                                acc = acc.add(&poly.scale(lv));
                            }
                        }
                        acc
                    })
                    .collect();
                SymbolicMoments {
                    d: d.clone(),
                    p,
                    symbols: sys.symbols().clone(),
                }
            })
            .collect();
        Ok(out)
    }

    /// Number of moments.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when no moments were computed.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// DC gain `A₀(σ) = m₀ = P₀/D` as a rational form.
    pub fn dc_gain(&self) -> Ratio {
        Ratio::new(self.p[0].clone(), self.d.clone())
    }

    /// First-order dominant pole `p₁(σ) = m₀/m₁ = P₀·D / P₁`
    /// (negative-real for passive circuits).
    ///
    /// # Panics
    ///
    /// Panics when fewer than two moments were computed.
    pub fn first_order_pole(&self) -> Ratio {
        assert!(self.p.len() >= 2, "need two moments for a first-order pole");
        Ratio::new(self.p[0].mul(&self.d), self.p[1].clone())
    }

    /// Closed-form denominator coefficients of the *second-order* Padé
    /// model, `1 + b₁s + b₂s²`, as rational symbolic forms:
    ///
    /// ```text
    /// b₁ = (P₀P₃ − P₁P₂) / (D·(P₁² − P₀P₂))
    /// b₂ = (P₂² − P₁P₃) / (D²·(P₁² − P₀P₂))
    /// ```
    ///
    /// The poles then follow from the quadratic formula — this is the
    /// "factoring of the symbolic forms" the paper performs for its
    /// second-order op-amp model. Evaluating these ratios at symbol values
    /// agrees exactly with the numeric Hankel solve.
    ///
    /// # Panics
    ///
    /// Panics when fewer than four moments were computed.
    pub fn denominator_coeffs_order2(&self) -> (Ratio, Ratio) {
        assert!(
            self.p.len() >= 4,
            "need four moments for a second-order form"
        );
        let (p0, p1, p2, p3) = (&self.p[0], &self.p[1], &self.p[2], &self.p[3]);
        let disc = p1.mul(p1).sub(&p0.mul(p2));
        let b1 = Ratio::new(p0.mul(p3).sub(&p1.mul(p2)), self.d.mul(&disc));
        let b2 = Ratio::new(p2.mul(p2).sub(&p1.mul(p3)), self.d.mul(&self.d).mul(&disc));
        (b1, b2)
    }

    /// Renders moment `k` as `P_k / D^{k+1}` text.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn moment_text(&self, k: usize) -> String {
        format!(
            "m{} = ({}) / ({})^{}",
            k,
            self.p[k].display(&self.symbols),
            self.d.display(&self.symbols),
            k + 1
        )
    }

    /// Evaluates all moments at the given symbol values.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the symbol count.
    pub fn eval(&self, vals: &[f64]) -> Vec<f64> {
        let d = self.d.eval(vals);
        let mut dp = d;
        self.p
            .iter()
            .map(|pk| {
                let v = pk.eval(vals) / dp;
                dp *= d;
                v
            })
            .collect()
    }
}

fn unit_exp(nvars: usize, i: usize) -> Vec<u8> {
    let mut e = vec![0u8; nvars];
    e[i] = 1;
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolBinding;
    use awesym_circuit::generators::fig1_rc;

    /// The critical correctness property: symbolic moments evaluated at any
    /// symbol values equal a full (non-partitioned) AWE moment run with the
    /// values substituted — the paper's "results are identical" claim.
    #[test]
    fn symbolic_moments_match_reference_at_many_points() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        let sys = SymbolicSystem::assemble(c, w.input, w.output, &bindings, 4).unwrap();
        let sm = SymbolicMoments::compute(&sys, 4).unwrap();
        for point in [[1e-9, 500.0], [5e-9, 2e3], [0.2e-9, 10e3], [3e-9, 50.0]] {
            let sym = sm.eval(&point);
            let reference = sys.reference_moments(&point, 4).unwrap();
            for (k, (a, b)) in sym.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1e-30),
                    "point {point:?} m{k}: symbolic {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn first_moments_multilinear_in_symbols() {
        // The paper: coefficients are multilinear in the symbols, and a
        // first-order form stays multilinear. D = det(Ŷ0) must have degree
        // ≤ 1 in each conductance/resistance symbol.
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::conductance("g1", vec![c.find("R1").unwrap()]),
            SymbolBinding::capacitance("c2", vec![c.find("C2").unwrap()]),
        ];
        let sys = SymbolicSystem::assemble(c, w.input, w.output, &bindings, 2).unwrap();
        let sm = SymbolicMoments::compute(&sys, 2).unwrap();
        for s in 0..2 {
            assert!(sm.d.degree_in(awesym_symbolic::Sym(s)) <= 1, "D degree");
            assert!(sm.p[0].degree_in(awesym_symbolic::Sym(s)) <= 1, "P0 degree");
        }
    }

    #[test]
    fn dc_gain_of_fig1_is_unity_for_any_symbols() {
        // Voltage divider at DC: H(0) = 1 regardless of element values.
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::resistance("r1", vec![c.find("R1").unwrap()])];
        let sys = SymbolicSystem::assemble(c, w.input, w.output, &bindings, 2).unwrap();
        let sm = SymbolicMoments::compute(&sys, 2).unwrap();
        for r in [10.0, 1e3, 1e6] {
            let m = sm.eval(&[r]);
            assert!((m[0] - 1.0).abs() < 1e-9, "r={r}: m0={}", m[0]);
        }
    }
}
