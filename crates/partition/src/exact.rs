//! Exact symbolic MNA analysis for small circuits.
//!
//! This is what classic symbolic simulators (ISAAC, Sspice, …) compute and
//! what the paper's eqs. (5)/(6) show for Fig. 1: the *exact* transfer
//! function `H(s, σ)` as a quotient of polynomials in the frequency
//! variable and the symbols. It is exponential in circuit size — the very
//! scaling problem AWEsymbolic avoids — and doubles here as ground truth
//! for the reduced models.

use crate::{PartitionError, SymbolBinding, SymbolicSystem};
use awesym_circuit::{Circuit, ElementId, Node};
use awesym_symbolic::{MPoly, SMat, Sym, SymbolSet};

/// Largest supported MNA dimension for the exact analysis.
pub const MAX_EXACT_DIM: usize = 11;

/// The exact symbolic transfer function `H(s, σ) = num/den`, where the
/// frequency variable `s` is the *last* symbol of [`ExactTransfer::symbols`].
#[derive(Debug, Clone)]
pub struct ExactTransfer {
    /// Symbols: the bound element symbols followed by `s`.
    pub symbols: SymbolSet,
    /// The frequency variable.
    pub s: Sym,
    /// Numerator polynomial in `(σ…, s)`.
    pub num: MPoly,
    /// Denominator polynomial in `(σ…, s)`.
    pub den: MPoly,
}

impl ExactTransfer {
    /// Evaluates `H` at symbol values `vals` (element symbols only) and a
    /// complex-free frequency point `s` (real axis; use the series/moment
    /// machinery for jω evaluation).
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the number of element symbols.
    pub fn eval(&self, vals: &[f64], s: f64) -> f64 {
        let mut v = vals.to_vec();
        assert_eq!(v.len() + 1, self.symbols.len(), "symbol value count");
        v.push(s);
        self.num.eval(&v) / self.den.eval(&v)
    }

    /// Evaluates `H(jω)` at the given element-symbol values by Horner on
    /// the `s`-coefficient polynomials.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the number of element symbols.
    pub fn eval_jw(&self, vals: &[f64], omega: f64) -> awesym_linalg::Complex64 {
        use awesym_linalg::Complex64;
        let s = Complex64::new(0.0, omega);
        let horner = |coeffs: &[MPoly]| {
            coeffs.iter().rev().fold(Complex64::ZERO, |acc, p| {
                acc * s + Complex64::from_re(p.eval(vals))
            })
        };
        let n = horner(&self.coeffs_in_s(&self.num));
        let d = horner(&self.coeffs_in_s(&self.den));
        n / d
    }

    /// Coefficients of `s^k` in a polynomial, as polynomials in the element
    /// symbols only (the trailing `s` exponent is stripped).
    pub fn coeffs_in_s(&self, poly: &MPoly) -> Vec<MPoly> {
        let s_idx = self.s.0 as usize;
        let nsym = self.symbols.len() - 1;
        let max_deg = poly.degree_in(self.s) as usize;
        let mut out = vec![MPoly::zero(nsym); max_deg + 1];
        for (exps, coeff) in poly.terms() {
            let k = exps[s_idx] as usize;
            let mut e = exps.to_vec();
            e.remove(s_idx);
            out[k] = out[k].add(&MPoly::monomial(nsym, &e, coeff));
        }
        out
    }

    /// Maclaurin moments `m_0 … m_{count−1}` of `H` about `s = 0` at the
    /// given element-symbol values (long division of the power series).
    ///
    /// # Panics
    ///
    /// Panics when the denominator's constant term vanishes at `vals`.
    pub fn moments(&self, vals: &[f64], count: usize) -> Vec<f64> {
        let num_c: Vec<f64> = self
            .coeffs_in_s(&self.num)
            .iter()
            .map(|p| p.eval(vals))
            .collect();
        let den_c: Vec<f64> = self
            .coeffs_in_s(&self.den)
            .iter()
            .map(|p| p.eval(vals))
            .collect();
        let d0 = den_c[0];
        assert!(d0 != 0.0, "denominator constant term vanishes");
        let mut m = vec![0.0; count];
        for k in 0..count {
            let mut v = num_c.get(k).copied().unwrap_or(0.0);
            for j in 1..=k {
                v -= den_c.get(j).copied().unwrap_or(0.0) * m[k - j];
            }
            m[k] = v / d0;
        }
        m
    }
}

impl std::fmt::Display for ExactTransfer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Element symbols only (drop the trailing `s`).
        let mut syms = SymbolSet::new();
        for name in self.symbols.iter().take(self.symbols.len() - 1) {
            syms.intern(name);
        }
        writeln!(f, "H(s) = N(s)/D(s) with")?;
        writeln!(f, "  N(s):")?;
        for (k, p) in self.coeffs_in_s(&self.num).iter().enumerate() {
            if !p.is_zero() {
                writeln!(f, "    s^{k}: {}", p.display(&syms))?;
            }
        }
        writeln!(f, "  D(s):")?;
        for (k, p) in self.coeffs_in_s(&self.den).iter().enumerate() {
            if !p.is_zero() {
                writeln!(f, "    s^{k}: {}", p.display(&syms))?;
            }
        }
        Ok(())
    }
}

impl ExactTransfer {
    /// Fixes one element symbol to a numeric value, producing the mixed
    /// numeric-symbolic form — exactly the paper's step from eq. (5) to
    /// eq. (6). The symbol stays in the symbol table (its slot is inert).
    ///
    /// # Panics
    ///
    /// Panics when `sym` is the frequency variable.
    pub fn substitute(&self, sym: Sym, value: f64) -> ExactTransfer {
        assert_ne!(sym, self.s, "cannot substitute the frequency variable");
        ExactTransfer {
            symbols: self.symbols.clone(),
            s: self.s,
            num: self.num.substitute(sym, value),
            den: self.den.substitute(sym, value),
        }
    }
}

/// Computes the exact symbolic transfer function of a small circuit, with
/// the bound elements symbolic and everything else numeric.
///
/// # Errors
///
/// - [`PartitionError::TooManyPorts`] when the MNA dimension exceeds
///   [`MAX_EXACT_DIM`];
/// - binding and formulation errors as in
///   [`SymbolicSystem::assemble`].
pub fn exact_transfer(
    circuit: &Circuit,
    input: ElementId,
    output: Node,
    bindings: &[SymbolBinding],
) -> Result<ExactTransfer, PartitionError> {
    // Reuse the assembly path with *every* unknown promoted to a port, so
    // Y_0/Y_1 are exactly the full G/C with symbols excluded and the stamps
    // give the symbolic parts. The cleanest way: assemble with a dimension
    // check, then build (G + sC) symbolically.
    //
    // Assemble with 2 port-moment matrices (Y_0 = G_pp, Y_1 = C_pp when the
    // internal set is empty).
    // Validate bindings and formulation through the standard assembly path.
    let _probe = SymbolicSystem::assemble(circuit, input, output, bindings, 2)?;
    let mna = crate::assemble::skeleton_mna(circuit, bindings)?;
    let dim = mna.dim();
    if dim > MAX_EXACT_DIM {
        return Err(PartitionError::TooManyPorts {
            ports: dim,
            max: MAX_EXACT_DIM,
        });
    }
    let mut symbols = SymbolSet::new();
    for b in bindings {
        symbols.intern(&b.name);
    }
    let s = symbols.intern("s");
    let nv = symbols.len();
    let s_idx = nv - 1;

    // A(s, σ) = G + s·C with symbol stamps.
    let mut a = SMat::zeros(dim, dim, nv);
    for col in 0..dim {
        for (row, v) in mna.g().col_iter(col) {
            a.add_to(row, col, &MPoly::constant(nv, v));
        }
        for (row, v) in mna.c().col_iter(col) {
            let mut e = vec![0u8; nv];
            e[s_idx] = 1;
            a.add_to(row, col, &MPoly::monomial(nv, &e, v));
        }
    }
    for (bi, b) in bindings.iter().enumerate() {
        let mut sg = Vec::new();
        let mut sc = Vec::new();
        for &eid in &b.elements {
            crate::assemble::stamp_symbol(&mna, circuit.element(eid), b.role, &mut sg, &mut sc);
        }
        for &(r, c, v) in &sg {
            let mut e = vec![0u8; nv];
            e[bi] = 1;
            a.add_to(r, c, &MPoly::monomial(nv, &e, v));
        }
        for &(r, c, v) in &sc {
            let mut e = vec![0u8; nv];
            e[bi] = 1;
            e[s_idx] = 1;
            a.add_to(r, c, &MPoly::monomial(nv, &e, v));
        }
    }

    let b_vec = mna.unit_source_vector(input)?;
    let l_vec = mna.output_selector(output);
    let b_poly: Vec<MPoly> = b_vec.iter().map(|&v| MPoly::constant(nv, v)).collect();
    let (n, d) = a.cramer_solve(&b_poly);
    if d.is_zero() {
        return Err(PartitionError::SingularSymbolicSystem);
    }
    let mut num = MPoly::zero(nv);
    for (p, &lv) in n.iter().zip(l_vec.iter()) {
        if lv != 0.0 {
            num = num.add(&p.scale(lv));
        }
    }
    Ok(ExactTransfer {
        symbols,
        s,
        // Coefficients are kept unpruned — see the unit-mismatch note in
        // `symmoments` — so structural (degree) queries on noisy forms
        // should prune a copy first.
        num,
        den: d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolBinding;
    use awesym_circuit::generators::fig1_rc;

    /// Reproduces the paper's eq. (5): the full symbolic transfer function
    /// of the Fig. 1 circuit with all four elements symbolic.
    #[test]
    fn fig1_full_symbolic_matches_eq5() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::conductance("g1", vec![c.find("R1").unwrap()]),
            SymbolBinding::conductance("g2", vec![c.find("R2").unwrap()]),
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::capacitance("c2", vec![c.find("C2").unwrap()]),
        ];
        let h = exact_transfer(c, w.input, w.output, &bindings).unwrap();
        // Compare against eq. (5) at sample points:
        // H = g1 g2 / (c1 c2 s² + (g2 c1 + g2 c2 + g1 c2) s + g1 g2)
        for (g1, g2, c1, c2, s) in [
            (1e-3, 2e-3, 1e-9, 3e-9, -1e5),
            (5e-4, 5e-4, 2e-9, 2e-9, -3e6),
            (1.0, 2.0, 0.5, 0.25, -0.5),
        ] {
            let truth = g1 * g2 / (c1 * c2 * s * s + (g2 * c1 + g2 * c2 + g1 * c2) * s + g1 * g2);
            let got = h.eval(&[g1, g2, c1, c2], s);
            assert!(
                (got - truth).abs() < 1e-9 * truth.abs(),
                "H({s}) = {got}, expected {truth}"
            );
        }
        // Structure: denominator quadratic in s, numerator constant in s,
        // every polynomial multilinear in each element symbol.
        assert_eq!(h.den.degree_in(h.s), 2);
        assert_eq!(h.num.degree_in(h.s), 0);
        for i in 0..4 {
            assert!(h.num.degree_in(Sym(i)) <= 1);
            assert!(h.den.degree_in(Sym(i)) <= 1);
        }
    }

    /// Eq. (6): mixed numeric-symbolic form with G1 fixed.
    #[test]
    fn fig1_mixed_symbolic_matches_eq6() {
        let g1 = 5.0;
        let w = fig1_rc(g1, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::conductance("g2", vec![c.find("R2").unwrap()]),
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::capacitance("c2", vec![c.find("C2").unwrap()]),
        ];
        let h = exact_transfer(c, w.input, w.output, &bindings).unwrap();
        for (g2, c1, c2, s) in [(2.0, 1.0, 3.0, -0.25), (0.5, 0.1, 0.2, -2.0)] {
            let truth =
                5.0 * g2 / (c1 * c2 * s * s + (g2 * c1 + g2 * c2 + 5.0 * c2) * s + 5.0 * g2);
            let got = h.eval(&[g2, c1, c2], s);
            assert!((got - truth).abs() < 1e-9 * truth.abs());
        }
    }

    #[test]
    fn moments_from_exact_match_partitioned() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        let h = exact_transfer(c, w.input, w.output, &bindings).unwrap();
        let sys = SymbolicSystem::assemble(c, w.input, w.output, &bindings, 4).unwrap();
        for c1 in [0.5e-9, 1e-9, 4e-9] {
            let m_exact = h.moments(&[c1], 4);
            let m_ref = sys.reference_moments(&[c1], 4).unwrap();
            for (a, b) in m_exact.iter().zip(m_ref.iter()) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1e-30), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn substitute_reproduces_eq6_from_eq5() {
        // Start from the fully symbolic eq. (5) and fix G1 = 5 — the
        // result must equal the independently derived eq. (6) circuit.
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::conductance("g1", vec![c.find("R1").unwrap()]),
            SymbolBinding::conductance("g2", vec![c.find("R2").unwrap()]),
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::capacitance("c2", vec![c.find("C2").unwrap()]),
        ];
        let h5 = exact_transfer(c, w.input, w.output, &bindings).unwrap();
        let h6 = h5.substitute(Sym(0), 5.0);
        for (g2, c1, c2, s) in [(2.0, 1.0, 3.0, -0.25), (0.5, 0.1, 0.2, -2.0)] {
            let truth =
                5.0 * g2 / (c1 * c2 * s * s + (g2 * c1 + g2 * c2 + 5.0 * c2) * s + 5.0 * g2);
            // g1's slot is inert; any value there is ignored.
            let got = h6.eval(&[99.0, g2, c1, c2], s);
            assert!((got - truth).abs() < 1e-9 * truth.abs());
        }
        // Display renders both numerator and denominator.
        let text = h5.to_string();
        assert!(text.contains("N(s)") && text.contains("D(s)"), "{text}");
        assert!(text.contains("g1"), "{text}");
    }

    #[test]
    fn eval_jw_matches_ac_analysis() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        let h = exact_transfer(c, w.input, w.output, &bindings).unwrap();
        let mna = awesym_mna::Mna::build(c).unwrap();
        for omega in [1e4, 1e6, 1e8] {
            let truth = mna.ac_transfer(w.input, w.output, &[omega]).unwrap()[0];
            let got = h.eval_jw(&[1e-9], omega);
            assert!((got - truth).abs() < 1e-9 * truth.abs(), "ω={omega}");
        }
    }

    #[test]
    fn dimension_guard() {
        let w = awesym_circuit::generators::rc_ladder(20, 10.0, 1e-12);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        assert!(matches!(
            exact_transfer(c, w.input, w.output, &bindings),
            Err(PartitionError::TooManyPorts { .. })
        ));
    }
}
