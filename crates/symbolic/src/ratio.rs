//! Rational functions: quotients of multivariate polynomials.

use crate::{MPoly, SymbolSet};
use std::fmt;

/// A rational function `num/den` over a shared symbol set.
///
/// Normalization is light-weight (no multivariate GCD): zero numerators
/// collapse the denominator, shared *monomial* content cancels, and the
/// denominator's leading coefficient is scaled to 1 so structurally equal
/// quotients compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    num: MPoly,
    den: MPoly,
}

impl Ratio {
    /// Creates `num/den`.
    ///
    /// # Panics
    ///
    /// Panics when `den` is identically zero or when the operands range
    /// over different symbol counts.
    pub fn new(num: MPoly, den: MPoly) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        assert_eq!(num.nvars(), den.nvars(), "nvars mismatch");
        let mut r = Ratio { num, den };
        r.normalize();
        r
    }

    /// A polynomial as a ratio with denominator 1.
    pub fn from_poly(p: MPoly) -> Self {
        let n = p.nvars();
        Ratio {
            num: p,
            den: MPoly::one(n),
        }
    }

    /// A constant.
    pub fn constant(nvars: usize, c: f64) -> Self {
        Ratio::from_poly(MPoly::constant(nvars, c))
    }

    /// Numerator.
    pub fn num(&self) -> &MPoly {
        &self.num
    }

    /// Denominator.
    pub fn den(&self) -> &MPoly {
        &self.den
    }

    /// True when the numerator is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Sum (over the common denominator).
    pub fn add(&self, rhs: &Ratio) -> Ratio {
        if self.den == rhs.den {
            return Ratio::new(self.num.add(&rhs.num), self.den.clone());
        }
        Ratio::new(
            self.num.mul(&rhs.den).add(&rhs.num.mul(&self.den)),
            self.den.mul(&rhs.den),
        )
    }

    /// Difference.
    pub fn sub(&self, rhs: &Ratio) -> Ratio {
        self.add(&rhs.neg())
    }

    /// Negation.
    pub fn neg(&self) -> Ratio {
        Ratio {
            num: self.num.neg(),
            den: self.den.clone(),
        }
    }

    /// Product.
    pub fn mul(&self, rhs: &Ratio) -> Ratio {
        Ratio::new(self.num.mul(&rhs.num), self.den.mul(&rhs.den))
    }

    /// Quotient.
    ///
    /// # Panics
    ///
    /// Panics when `rhs` is zero.
    pub fn div(&self, rhs: &Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "division by zero ratio");
        Ratio::new(self.num.mul(&rhs.den), self.den.mul(&rhs.num))
    }

    /// Evaluates at a point.
    ///
    /// # Panics
    ///
    /// Panics when `vals` has the wrong length.
    pub fn eval(&self, vals: &[f64]) -> f64 {
        self.num.eval(vals) / self.den.eval(vals)
    }

    /// Renders with symbol names as `(num)/(den)`.
    pub fn display<'a>(&'a self, syms: &'a SymbolSet) -> impl fmt::Display + 'a {
        DisplayRatio { r: self, syms }
    }

    fn normalize(&mut self) {
        if self.num.is_zero() {
            self.den = MPoly::one(self.den.nvars());
            return;
        }
        // Cancel the common monomial content (g.c.d. of monomials).
        let content = |p: &MPoly| -> Vec<u8> {
            let mut it = p.terms();
            let mut acc: Vec<u8> = it.next().map(|(e, _)| e.to_vec()).unwrap_or_default();
            for (e, _) in it {
                for (a, &b) in acc.iter_mut().zip(e.iter()) {
                    *a = (*a).min(b);
                }
            }
            acc
        };
        let cn = content(&self.num);
        let cd = content(&self.den);
        let shared: Vec<u8> = cn.iter().zip(cd.iter()).map(|(&a, &b)| a.min(b)).collect();
        if shared.iter().any(|&e| e > 0) {
            self.num = divide_monomial(&self.num, &shared);
            self.den = divide_monomial(&self.den, &shared);
        }
        // Scale so the denominator's first (lexicographically smallest
        // exponent) coefficient is 1.
        let lead = self.den.terms().next().map(|(_, c)| c);
        if let Some(c) = lead {
            if c != 0.0 && c != 1.0 {
                let inv = 1.0 / c;
                self.num = self.num.scale(inv);
                self.den = self.den.scale(inv);
            }
        }
    }
}

fn divide_monomial(p: &MPoly, m: &[u8]) -> MPoly {
    let nv = p.nvars();
    let mut out = MPoly::zero(nv);
    for (e, c) in p.terms() {
        let e2: Vec<u8> = e.iter().zip(m.iter()).map(|(&a, &b)| a - b).collect();
        out = out.add(&MPoly::monomial(nv, &e2, c));
    }
    out
}

struct DisplayRatio<'a> {
    r: &'a Ratio,
    syms: &'a SymbolSet,
}

impl fmt::Display for DisplayRatio<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.r.den.is_constant() && (self.r.den.constant_term() - 1.0).abs() < 1e-15 {
            write!(f, "{}", self.r.num.display(self.syms))
        } else {
            write!(
                f,
                "({}) / ({})",
                self.r.num.display(self.syms),
                self.r.den.display(self.syms)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolSet;

    fn xy() -> (SymbolSet, MPoly, MPoly) {
        let mut s = SymbolSet::new();
        let x = s.intern("x");
        let y = s.intern("y");
        (s.clone(), MPoly::var(&s, x), MPoly::var(&s, y))
    }

    #[test]
    fn field_identities_at_points() {
        let (_, x, y) = xy();
        let a = Ratio::new(x.clone(), y.add(&MPoly::one(2)));
        let b = Ratio::new(y.clone(), x.add(&MPoly::constant(2, 2.0)));
        let p = [1.3, 0.7];
        let check = |r: &Ratio, v: f64| assert!((r.eval(&p) - v).abs() < 1e-12);
        check(&a.add(&b), a.eval(&p) + b.eval(&p));
        check(&a.sub(&b), a.eval(&p) - b.eval(&p));
        check(&a.mul(&b), a.eval(&p) * b.eval(&p));
        check(&a.div(&b), a.eval(&p) / b.eval(&p));
    }

    #[test]
    fn same_denominator_addition_stays_small() {
        let (_, x, y) = xy();
        let d = x.add(&y);
        let a = Ratio::new(x.clone(), d.clone());
        let b = Ratio::new(y.clone(), d.clone());
        let s = a.add(&b);
        // (x+y)/(x+y) → monomial content won't cancel this (needs real GCD),
        // but the denominator must not square.
        assert_eq!(s.den(), &d);
    }

    #[test]
    fn monomial_content_cancels() {
        let (_, x, y) = xy();
        // (x²y)/(xy) → x/1
        let r = Ratio::new(x.pow(2).mul(&y), x.mul(&y));
        assert_eq!(r.num(), &x);
        assert!(r.den().is_constant());
    }

    #[test]
    fn zero_numerator_collapses() {
        let (_, x, y) = xy();
        let r = Ratio::new(MPoly::zero(2), x.mul(&y));
        assert!(r.is_zero());
        assert!(r.den().is_constant());
    }

    #[test]
    fn normalized_leading_one_makes_equality_structural() {
        let (_, x, y) = xy();
        let a = Ratio::new(x.scale(2.0), y.scale(2.0));
        let b = Ratio::new(x.clone(), y.clone());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let (_, x, _) = xy();
        let _ = Ratio::new(x, MPoly::zero(2));
    }

    #[test]
    fn display_forms() {
        let (s, x, y) = xy();
        let poly = Ratio::from_poly(x.clone());
        assert_eq!(format!("{}", poly.display(&s)), "x");
        let frac = Ratio::new(x, y);
        assert_eq!(format!("{}", frac.display(&s)), "(x) / (y)");
    }
}
