//! Multivariate polynomials with `f64` coefficients.

use crate::{Sym, SymbolSet};
use std::collections::BTreeMap;
use std::fmt;

/// A multivariate polynomial over a fixed number of symbols, stored as a
/// sorted sparse list of `(exponent vector, coefficient)` terms.
///
/// The paper shows network-function coefficients are multilinear in the
/// symbolic elements, so term counts stay small; this representation is
/// exact in structure while using floating coefficients for speed.
#[derive(Debug, Clone, PartialEq)]
pub struct MPoly {
    nvars: usize,
    /// Sorted by exponent vector (lexicographic); no zero coefficients.
    terms: Vec<(Vec<u8>, f64)>,
}

impl MPoly {
    /// The zero polynomial over `nvars` symbols.
    pub fn zero(nvars: usize) -> Self {
        MPoly {
            nvars,
            terms: Vec::new(),
        }
    }

    /// A constant polynomial.
    pub fn constant(nvars: usize, c: f64) -> Self {
        if c == 0.0 {
            return Self::zero(nvars);
        }
        MPoly {
            nvars,
            terms: vec![(vec![0; nvars], c)],
        }
    }

    /// The polynomial `1`.
    pub fn one(nvars: usize) -> Self {
        Self::constant(nvars, 1.0)
    }

    /// The symbol `s` as a polynomial.
    ///
    /// # Panics
    ///
    /// Panics when `s` is not a member of `syms`.
    pub fn var(syms: &SymbolSet, s: Sym) -> Self {
        assert!((s.0 as usize) < syms.len(), "symbol out of range");
        let mut e = vec![0u8; syms.len()];
        e[s.0 as usize] = 1;
        MPoly {
            nvars: syms.len(),
            terms: vec![(e, 1.0)],
        }
    }

    /// Builds a monomial `c·Π s_i^{e_i}` directly.
    ///
    /// # Panics
    ///
    /// Panics when `exps.len() != nvars`.
    pub fn monomial(nvars: usize, exps: &[u8], c: f64) -> Self {
        assert_eq!(exps.len(), nvars, "exponent vector length mismatch");
        if c == 0.0 {
            return Self::zero(nvars);
        }
        MPoly {
            nvars,
            terms: vec![(exps.to_vec(), c)],
        }
    }

    /// Number of symbols this polynomial ranges over.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Number of (nonzero) terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// True when the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty() || (self.terms.len() == 1 && self.terms[0].0.iter().all(|&e| e == 0))
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.terms
            .iter()
            .find(|(e, _)| e.iter().all(|&x| x == 0))
            .map_or(0.0, |(_, c)| *c)
    }

    /// Iterates over `(exponents, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (&[u8], f64)> {
        self.terms.iter().map(|(e, c)| (e.as_slice(), *c))
    }

    /// Highest degree of symbol `s` across all terms.
    pub fn degree_in(&self, s: Sym) -> u8 {
        self.terms
            .iter()
            .map(|(e, _)| e[s.0 as usize])
            .max()
            .unwrap_or(0)
    }

    /// Total degree (max over terms of the exponent sum).
    pub fn total_degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(e, _)| e.iter().map(|&x| x as u32).sum())
            .max()
            .unwrap_or(0)
    }

    /// Sum.
    ///
    /// # Panics
    ///
    /// Panics when the operands range over different symbol counts.
    pub fn add(&self, rhs: &MPoly) -> MPoly {
        assert_eq!(self.nvars, rhs.nvars, "nvars mismatch");
        let mut map: BTreeMap<Vec<u8>, f64> = BTreeMap::new();
        for (e, c) in self.terms.iter().chain(rhs.terms.iter()) {
            *map.entry(e.clone()).or_insert(0.0) += c;
        }
        Self::from_map(self.nvars, map)
    }

    /// Difference.
    pub fn sub(&self, rhs: &MPoly) -> MPoly {
        self.add(&rhs.neg())
    }

    /// Negation.
    pub fn neg(&self) -> MPoly {
        MPoly {
            nvars: self.nvars,
            terms: self.terms.iter().map(|(e, c)| (e.clone(), -c)).collect(),
        }
    }

    /// Product.
    ///
    /// # Panics
    ///
    /// Panics when the operands range over different symbol counts, or when
    /// an exponent exceeds 255.
    pub fn mul(&self, rhs: &MPoly) -> MPoly {
        assert_eq!(self.nvars, rhs.nvars, "nvars mismatch");
        let mut map: BTreeMap<Vec<u8>, f64> = BTreeMap::new();
        for (ea, ca) in &self.terms {
            for (eb, cb) in &rhs.terms {
                let e: Vec<u8> = ea
                    .iter()
                    .zip(eb.iter())
                    .map(|(&x, &y)| x.checked_add(y).expect("exponent overflow"))
                    .collect();
                *map.entry(e).or_insert(0.0) += ca * cb;
            }
        }
        Self::from_map(self.nvars, map)
    }

    /// Scales all coefficients by `k`.
    pub fn scale(&self, k: f64) -> MPoly {
        if k == 0.0 {
            return Self::zero(self.nvars);
        }
        MPoly {
            nvars: self.nvars,
            terms: self.terms.iter().map(|(e, c)| (e.clone(), c * k)).collect(),
        }
    }

    /// Integer power by repeated squaring.
    pub fn pow(&self, mut n: u32) -> MPoly {
        let mut base = self.clone();
        let mut acc = MPoly::one(self.nvars);
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul(&base);
            }
            n >>= 1;
            if n > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Evaluates at a point.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len() != self.nvars()`.
    pub fn eval(&self, vals: &[f64]) -> f64 {
        assert_eq!(vals.len(), self.nvars, "value vector length mismatch");
        let mut acc = 0.0;
        for (e, c) in &self.terms {
            let mut t = *c;
            for (i, &exp) in e.iter().enumerate() {
                for _ in 0..exp {
                    t *= vals[i];
                }
            }
            acc += t;
        }
        acc
    }

    /// Drops terms whose coefficient magnitude is below `tol` times the
    /// largest coefficient magnitude (numerical hygiene after long
    /// cancellation chains).
    pub fn prune(&self, tol: f64) -> MPoly {
        let max = self
            .terms
            .iter()
            .map(|(_, c)| c.abs())
            .fold(0.0_f64, f64::max);
        if max == 0.0 {
            return Self::zero(self.nvars);
        }
        MPoly {
            nvars: self.nvars,
            terms: self
                .terms
                .iter()
                .filter(|(_, c)| c.abs() >= tol * max)
                .cloned()
                .collect(),
        }
    }

    /// Substitutes a numeric value for symbol `s`, producing the mixed
    /// numeric-symbolic form (the paper's eq. (6) operation: fixing `G1 = 5`
    /// inside a fully symbolic expression). The symbol keeps its slot (its
    /// exponent becomes 0 everywhere), so symbol indices stay stable.
    pub fn substitute(&self, s: Sym, value: f64) -> MPoly {
        let i = s.0 as usize;
        let mut map: BTreeMap<Vec<u8>, f64> = BTreeMap::new();
        for (e, c) in &self.terms {
            let mut e2 = e.clone();
            let k = e2[i];
            e2[i] = 0;
            let mut coeff = *c;
            for _ in 0..k {
                coeff *= value;
            }
            *map.entry(e2).or_insert(0.0) += coeff;
        }
        Self::from_map(self.nvars, map)
    }

    /// Partial derivative with respect to symbol `s`.
    pub fn derivative(&self, s: Sym) -> MPoly {
        let i = s.0 as usize;
        let mut map: BTreeMap<Vec<u8>, f64> = BTreeMap::new();
        for (e, c) in &self.terms {
            if e[i] > 0 {
                let mut e2 = e.clone();
                e2[i] -= 1;
                *map.entry(e2).or_insert(0.0) += c * e[i] as f64;
            }
        }
        Self::from_map(self.nvars, map)
    }

    /// Renders with the given symbol names.
    pub fn display<'a>(&'a self, syms: &'a SymbolSet) -> impl fmt::Display + 'a {
        DisplayPoly { poly: self, syms }
    }

    fn from_map(nvars: usize, map: BTreeMap<Vec<u8>, f64>) -> MPoly {
        MPoly {
            nvars,
            terms: map.into_iter().filter(|(_, c)| *c != 0.0).collect(),
        }
    }
}

struct DisplayPoly<'a> {
    poly: &'a MPoly,
    syms: &'a SymbolSet,
}

impl fmt::Display for DisplayPoly<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.poly.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (e, c) in &self.poly.terms {
            if !first {
                write!(f, " {} ", if *c < 0.0 { "-" } else { "+" })?;
            } else if *c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            let has_vars = e.iter().any(|&x| x > 0);
            if !has_vars || (a - 1.0).abs() > 1e-15 {
                write!(f, "{a:.6e}")?;
                if has_vars {
                    write!(f, "*")?;
                }
            }
            let mut first_var = true;
            for (i, &exp) in e.iter().enumerate() {
                if exp == 0 {
                    continue;
                }
                if !first_var {
                    write!(f, "*")?;
                }
                write!(f, "{}", self.syms.name(Sym(i as u32)))?;
                if exp > 1 {
                    write!(f, "^{exp}")?;
                }
                first_var = false;
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SymbolSet, MPoly, MPoly) {
        let mut s = SymbolSet::new();
        let x = s.intern("x");
        let y = s.intern("y");
        let px = MPoly::var(&s, x);
        let py = MPoly::var(&s, y);
        (s, px, py)
    }

    #[test]
    fn ring_axioms_on_samples() {
        let (_, x, y) = setup();
        let a = x.mul(&y).add(&MPoly::constant(2, 3.0)); // xy + 3
        let b = x.add(&y); // x + y
                           // Commutativity.
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        // Distributivity.
        let lhs = a.mul(&b.add(&x));
        let rhs = a.mul(&b).add(&a.mul(&x));
        assert_eq!(lhs, rhs);
        // Additive inverse.
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn eval_matches_structure() {
        let (_, x, y) = setup();
        // p = 2x²y − 3y + 1
        let p = x
            .pow(2)
            .mul(&y)
            .scale(2.0)
            .add(&y.scale(-3.0))
            .add(&MPoly::one(2));
        let (vx, vy) = (1.5, -2.0);
        assert_eq!(p.eval(&[vx, vy]), 2.0 * vx * vx * vy - 3.0 * vy + 1.0);
        assert_eq!(p.total_degree(), 3);
        assert_eq!(p.degree_in(Sym(0)), 2);
        assert_eq!(p.degree_in(Sym(1)), 1);
        assert_eq!(p.num_terms(), 3);
    }

    #[test]
    fn mul_eval_homomorphism() {
        let (_, x, y) = setup();
        let a = x.add(&MPoly::constant(2, 1.0));
        let b = y.sub(&x.scale(2.0));
        let p = [0.7, -1.3];
        assert!((a.mul(&b).eval(&p) - a.eval(&p) * b.eval(&p)).abs() < 1e-12);
        assert!((a.add(&b).eval(&p) - (a.eval(&p) + b.eval(&p))).abs() < 1e-12);
    }

    #[test]
    fn constants_and_zero() {
        let z = MPoly::zero(3);
        assert!(z.is_zero() && z.is_constant());
        assert_eq!(z.eval(&[1.0, 2.0, 3.0]), 0.0);
        let c = MPoly::constant(3, 4.5);
        assert!(c.is_constant());
        assert_eq!(c.constant_term(), 4.5);
        assert_eq!(MPoly::constant(3, 0.0), z);
        assert_eq!(c.pow(0), MPoly::one(3));
    }

    #[test]
    fn derivative_rules() {
        let (_, x, y) = setup();
        // d/dx (x²y + x) = 2xy + 1
        let p = x.pow(2).mul(&y).add(&x);
        let d = p.derivative(Sym(0));
        let expected = x.mul(&y).scale(2.0).add(&MPoly::one(2));
        assert_eq!(d, expected);
        assert!(MPoly::constant(2, 5.0).derivative(Sym(0)).is_zero());
    }

    #[test]
    fn substitute_fixes_a_symbol() {
        let (_, x, y) = setup();
        // p = 2x²y + x − 3
        let p = x
            .pow(2)
            .mul(&y)
            .scale(2.0)
            .add(&x)
            .sub(&MPoly::constant(2, 3.0));
        let q = p.substitute(Sym(0), 2.0); // x ← 2
        assert_eq!(q.degree_in(Sym(0)), 0);
        // q = 8y + 2 − 3 = 8y − 1
        assert_eq!(q, y.scale(8.0).sub(&MPoly::one(2)));
        // Evaluation consistency at arbitrary points.
        for yv in [0.3, -1.7] {
            assert!((q.eval(&[123.0, yv]) - p.eval(&[2.0, yv])).abs() < 1e-12);
        }
    }

    #[test]
    fn prune_drops_noise() {
        let (_, x, _) = setup();
        let p = x.add(&MPoly::constant(2, 1e-20));
        let q = p.prune(1e-12);
        assert_eq!(q, x);
        assert!(MPoly::zero(2).prune(1e-12).is_zero());
    }

    #[test]
    fn display_is_readable() {
        let (s, x, y) = setup();
        let p = x.pow(2).scale(2.0).sub(&y);
        let txt = format!("{}", p.display(&s));
        assert!(txt.contains("x^2"), "{txt}");
        assert!(txt.contains("y"), "{txt}");
        assert_eq!(format!("{}", MPoly::zero(2).display(&s)), "0");
    }

    #[test]
    fn monomial_constructor() {
        let m = MPoly::monomial(2, &[1, 2], 3.0);
        assert_eq!(m.eval(&[2.0, 3.0]), 3.0 * 2.0 * 9.0);
        assert!(MPoly::monomial(2, &[1, 0], 0.0).is_zero());
    }

    #[test]
    #[should_panic(expected = "nvars mismatch")]
    fn mismatched_nvars_panics() {
        let a = MPoly::zero(2);
        let b = MPoly::zero(3);
        let _ = a.add(&b);
    }
}
