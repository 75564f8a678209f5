//! The moment-matching (Padé) step: moments → poles and residues.

use crate::{AweError, Rom};
use awesym_linalg::{solve_hankel, solve_vandermonde_complex, Complex64, Poly};

/// Builds a `q`-pole reduced-order model from at least `2q` moments.
///
/// The moments are rescaled by the dominant time constant `τ = |m₁/m₀|`
/// before the Hankel solve so that the system stays well-conditioned even
/// when the circuit time constants are nanoseconds (raw moments then span
/// tens of orders of magnitude). Poles and residues are unscaled on the way
/// out. Set `scale: false` to disable (exposed for the ablation benchmark).
///
/// # Errors
///
/// - [`AweError::NotEnoughMoments`] when fewer than `2q` moments are given;
/// - [`AweError::Pade`] when the Hankel system is singular (fewer than `q`
///   observable poles) or root finding fails;
/// - [`AweError::ZeroResponse`] for an all-zero moment sequence.
///
/// # Example
///
/// ```
/// use awesym_awe::pade_rom;
///
/// // H(s) = 1/(1+s): moments 1, −1, 1, −1.
/// let rom = pade_rom(&[1.0, -1.0, 1.0, -1.0], 1, true)?;
/// assert!((rom.poles()[0].re + 1.0).abs() < 1e-9);
/// # Ok::<(), awesym_awe::AweError>(())
/// ```
pub fn pade_rom(moments: &[f64], q: usize, scale: bool) -> Result<Rom, AweError> {
    if moments.len() < 2 * q {
        return Err(AweError::NotEnoughMoments {
            needed: 2 * q,
            got: moments.len(),
        });
    }
    if moments.iter().any(|m| !m.is_finite()) {
        return Err(AweError::NonFinite { what: "moments" });
    }
    if moments.iter().all(|&m| m == 0.0) {
        return Err(AweError::ZeroResponse);
    }
    if q == 0 {
        return Err(AweError::Pade {
            order: 0,
            source: awesym_linalg::LinalgError::DegeneratePolynomial,
        });
    }
    // Frequency scaling: s' = τ·s with τ the dominant time constant,
    // estimated from the first consecutive pair of nonzero moments (m₀ can
    // legitimately be zero, e.g. purely capacitive cross-coupling).
    let tau = if scale {
        moments
            .windows(2)
            .find(|w| w[0] != 0.0 && w[1] != 0.0)
            .map_or(1.0, |w| (w[1] / w[0]).abs())
    } else {
        1.0
    };
    let scaled: Vec<f64> = moments
        .iter()
        .enumerate()
        .map(|(k, &m)| m / tau.powi(k as i32))
        .collect();

    let b = solve_hankel(&scaled, q).map_err(|source| AweError::Pade { order: q, source })?;
    // Denominator 1 + b₁ s' + … + b_q s'^q.
    let mut den = vec![1.0];
    den.extend_from_slice(&b);
    let poly = Poly::new(den);
    let scaled_poles = poly
        .roots()
        .map_err(|source| AweError::Pade { order: q, source })?;
    // Residues from the scaled moments/poles, then unscale both.
    let scaled_res = solve_vandermonde_complex(&scaled_poles, &scaled[..q.min(scaled.len())])
        .map_err(|source| AweError::Pade { order: q, source })?;
    let poles: Vec<Complex64> = scaled_poles.iter().map(|&p| p / tau).collect();
    let residues: Vec<Complex64> = scaled_res.iter().map(|&k| k / tau).collect();
    // A near-singular Hankel/Vandermonde solve that slips past the exact
    // singularity checks surfaces as Inf/NaN here; reject it as a typed
    // health failure rather than returning a poisoned model.
    if poles.iter().any(|p| !p.re.is_finite() || !p.im.is_finite()) {
        return Err(AweError::NonFinite { what: "poles" });
    }
    if residues
        .iter()
        .any(|k| !k.re.is_finite() || !k.im.is_finite())
    {
        return Err(AweError::NonFinite { what: "residues" });
    }
    Ok(Rom::from_parts(poles, residues, moments.to_vec(), tau))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments_of(poles: &[f64], residues: &[f64], count: usize) -> Vec<f64> {
        // m_j = −Σ k_i / p_i^{j+1}
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
    fn recovers_two_real_poles() {
        let poles = [-1e6, -5e7];
        let res = [2e6, -3e7];
        let m = moments_of(&poles, &res, 4);
        let rom = pade_rom(&m, 2, true).unwrap();
        let mut got: Vec<f64> = rom.poles().iter().map(|p| p.re).collect();
        got.sort_by(f64::total_cmp);
        assert!((got[0] + 5e7).abs() / 5e7 < 1e-9, "{got:?}");
        assert!((got[1] + 1e6).abs() / 1e6 < 1e-9);
        assert!(rom.is_stable());
    }

    #[test]
    fn recovers_widely_separated_poles_with_scaling() {
        // Raw moments for these poles span ~40 orders of magnitude at q=3;
        // without scaling the Hankel solve is garbage.
        let poles = [-1e3, -1e6, -1e9];
        let res = [1e3, 1e6, 1e9];
        let m = moments_of(&poles, &res, 6);
        let rom = pade_rom(&m, 3, true).unwrap();
        let mut got: Vec<f64> = rom.poles().iter().map(|p| p.re).collect();
        got.sort_by(f64::total_cmp);
        assert!((got[2] + 1e3).abs() / 1e3 < 1e-6, "{got:?}");
        assert!((got[1] + 1e6).abs() / 1e6 < 1e-3, "{got:?}");
    }

    #[test]
    fn moment_scaling_matters() {
        // Document the conditioning benefit: with scaling the dominant pole
        // error is tiny; unscaled it is visibly worse (or fails outright).
        let poles = [-1e4, -1e7, -1e10];
        let res = [1.0, 10.0, 100.0];
        let m = moments_of(&poles, &res, 6);
        let dom_err = |rom: &Rom| {
            rom.poles()
                .iter()
                .map(|p| ((p.re + 1e4) / 1e4).abs())
                .fold(f64::MAX, f64::min)
        };
        let scaled = pade_rom(&m, 3, true).unwrap();
        let e_scaled = dom_err(&scaled);
        // outright failure of the unscaled solve is the expected alternative
        if let Ok(unscaled) = pade_rom(&m, 3, false) {
            assert!(e_scaled <= dom_err(&unscaled) * 10.0);
        }
        assert!(e_scaled < 1e-6);
    }

    #[test]
    fn too_few_moments_is_an_error() {
        assert!(matches!(
            pade_rom(&[1.0, -1.0], 2, true),
            Err(AweError::NotEnoughMoments { needed: 4, got: 2 })
        ));
    }

    #[test]
    fn non_finite_moments_are_an_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                pade_rom(&[1.0, bad, 1.0, -1.0], 2, true),
                Err(AweError::NonFinite { what: "moments" })
            ));
        }
    }

    #[test]
    fn zero_moments_is_an_error() {
        assert!(matches!(
            pade_rom(&[0.0, 0.0], 1, true),
            Err(AweError::ZeroResponse)
        ));
    }

    #[test]
    fn order_zero_is_an_error() {
        assert!(pade_rom(&[1.0, -1.0], 0, true).is_err());
    }

    #[test]
    fn overfitting_single_pole_fails_cleanly() {
        let m = [2.0, -6.0, 18.0, -54.0]; // single pole at −1/3… (τ=3)
        assert!(matches!(pade_rom(&m, 2, true), Err(AweError::Pade { .. })));
        let rom = pade_rom(&m, 1, true).unwrap();
        assert!((rom.poles()[0].re + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn complex_pole_pair() {
        // H with poles −1 ± 5i (underdamped), residues conjugate.
        let p = Complex64::new(-1.0, 5.0);
        let k = Complex64::new(0.5, -1.5);
        let m: Vec<f64> = (0..4)
            .map(|j| {
                let mut num = Complex64::ZERO;
                for (pp, kk) in [(p, k), (p.conj(), k.conj())] {
                    let mut d = Complex64::ONE;
                    for _ in 0..=j {
                        d *= pp;
                    }
                    num += kk / d;
                }
                -num.re
            })
            .collect();
        let rom = pade_rom(&m, 2, true).unwrap();
        let got = rom.poles();
        assert!((got[0].im.abs() - 5.0).abs() < 1e-6);
        assert!((got[0].re + 1.0).abs() < 1e-6);
        assert!((got[0] - got[1].conj()).abs() < 1e-6);
    }
}
