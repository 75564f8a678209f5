//! The reduced-order model produced by AWE and its performance metrics.

use awesym_linalg::{solve_vandermonde_complex, Complex64};

/// A pole-residue reduced-order model
/// `H(s) ≈ Σ_i k_i / (s − p_i)`.
///
/// Produced by [`crate::pade_rom`]; evaluates frequency responses, time
/// responses, and the circuit performance metrics plotted in the paper.
#[derive(Debug, Clone)]
pub struct Rom {
    poles: Vec<Complex64>,
    residues: Vec<Complex64>,
    moments: Vec<f64>,
    tau: f64,
}

impl Rom {
    /// Assembles a model from parts (used by the Padé step and by the
    /// compiled symbolic models).
    pub fn from_parts(
        poles: Vec<Complex64>,
        residues: Vec<Complex64>,
        moments: Vec<f64>,
        tau: f64,
    ) -> Self {
        Rom {
            poles,
            residues,
            moments,
            tau,
        }
    }

    /// Approximation order (number of poles).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// The model poles.
    pub fn poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// The model residues, ordered like [`Rom::poles`].
    pub fn residues(&self) -> &[Complex64] {
        &self.residues
    }

    /// The moments the model was built from.
    pub fn moments(&self) -> &[f64] {
        &self.moments
    }

    /// The frequency-scaling time constant used during construction.
    pub fn time_scale(&self) -> f64 {
        self.tau
    }

    /// DC gain `H(0) = m₀`.
    pub fn dc_gain(&self) -> f64 {
        self.moments.first().copied().unwrap_or(0.0)
    }

    /// The dominant pole (smallest magnitude).
    pub fn dominant_pole(&self) -> Option<Complex64> {
        self.poles
            .iter()
            .copied()
            .min_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap())
    }

    /// True when every pole lies strictly in the left half plane.
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re < 0.0)
    }

    /// Returns a model with right-half-plane poles discarded and the
    /// remaining residues refit against the leading moments — the standard
    /// AWE remedy for unstable Padé artifacts. Returns `None` when no
    /// stable pole remains or the refit fails.
    pub fn stabilized(&self) -> Option<Rom> {
        if self.is_stable() {
            return Some(self.clone());
        }
        let stable: Vec<Complex64> = self.poles.iter().copied().filter(|p| p.re < 0.0).collect();
        if stable.is_empty() || self.moments.len() < stable.len() {
            return None;
        }
        let res = solve_vandermonde_complex(&stable, &self.moments[..stable.len()]).ok()?;
        Some(Rom {
            poles: stable,
            residues: res,
            moments: self.moments.clone(),
            tau: self.tau,
        })
    }

    /// Frequency response `H(jω)`.
    pub fn eval_jw(&self, omega: f64) -> Complex64 {
        let s = Complex64::new(0.0, omega);
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &k)| k / (s - p))
            .fold(Complex64::ZERO, |a, b| a + b)
    }

    /// Impulse response `h(t) = Σ k_i e^{p_i t}` for `t ≥ 0`.
    pub fn impulse_response(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &k)| (k * (p * t).exp()).re)
            .sum()
    }

    /// Unit-step response `y(t) = Σ (k_i/p_i)(e^{p_i t} − 1)` for `t ≥ 0`.
    pub fn step_response(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &k)| {
                let e = (p * t).exp();
                (k / p * (e - Complex64::ONE)).re
            })
            .sum()
    }

    /// Step response sampled at many time points.
    pub fn step_response_series(&self, times: &[f64]) -> Vec<f64> {
        times.iter().map(|&t| self.step_response(t)).collect()
    }

    /// Time at which the step response first crosses `fraction` of its
    /// final value (`H(0)`), found by scan plus bisection. Returns `None`
    /// for unstable models or when no crossing exists within
    /// `10·τ_dominant`.
    pub fn delay_to_fraction(&self, fraction: f64) -> Option<f64> {
        if !self.is_stable() {
            return None;
        }
        let target = fraction * self.dc_gain();
        let p_dom = self.dominant_pole()?;
        let t_max = 10.0 / p_dom.re.abs().max(f64::MIN_POSITIVE);
        let rising = self.dc_gain() >= 0.0;
        let crossed = |v: f64| if rising { v >= target } else { v <= target };
        // The scan and bisection evaluate the step response a few hundred
        // times: hoist each pole's `k/p`, and skip `cos`/`sin` where the
        // exponent is real. Bit-identical to `step_response`.
        let terms: Vec<(Complex64, Complex64)> = self
            .poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &k)| (p, k / p))
            .collect();
        let step = |t: f64| -> f64 {
            terms
                .iter()
                .map(|&(p, kp)| {
                    let z = p * t;
                    let r = z.re.exp();
                    // cos(±0) = 1 and sin(±0) = ±0 exactly.
                    let (cos, sin) = if z.im == 0.0 {
                        (1.0, z.im)
                    } else {
                        (z.im.cos(), z.im.sin())
                    };
                    // The real part of `kp * (e^z − 1)`.
                    kp.re * (r * cos - 1.0) - kp.im * (r * sin)
                })
                .sum()
        };
        let n = 2000;
        let mut prev_t = 0.0;
        if crossed(step(0.0)) {
            return Some(0.0);
        }
        for i in 1..=n {
            let t = t_max * i as f64 / n as f64;
            if crossed(step(t)) {
                // Bisect between prev_t and t. Once `mid` lands on an
                // end, every later step would too: stopping is exact.
                let (mut lo, mut hi) = (prev_t, t);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if mid == lo || mid == hi {
                        break;
                    }
                    if crossed(step(mid)) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                return Some(0.5 * (lo + hi));
            }
            prev_t = t;
        }
        None
    }

    /// The 50 % delay of the step response.
    pub fn delay_50(&self) -> Option<f64> {
        self.delay_to_fraction(0.5)
    }

    /// Peak absolute value of the step response within `10·τ_dominant`
    /// (used for cross-talk amplitude). Returns `(time, value)`.
    pub fn step_peak(&self) -> Option<(f64, f64)> {
        let p_dom = self.dominant_pole()?;
        if !self.is_stable() {
            return None;
        }
        let t_max = 10.0 / p_dom.re.abs().max(f64::MIN_POSITIVE);
        let n = 4000;
        let mut best = (0.0, 0.0f64);
        for i in 0..=n {
            let t = t_max * i as f64 / n as f64;
            let v = self.step_response(t);
            if v.abs() > best.1.abs() {
                best = (t, v);
            }
        }
        Some(best)
    }

    /// Zeros of the reduced model: roots of the numerator
    /// `N(s) = Σ_i k_i·Π_{j≠i}(s − p_j)`.
    ///
    /// The paper uses pole *and* zero symbolic forms for the op-amp plots;
    /// zeros also drive the zero-sensitivity ranking.
    ///
    /// # Errors
    ///
    /// Returns root-finding failures for degenerate numerators (e.g. an
    /// all-pole model of order 1 has no zeros — that returns an empty
    /// vector, not an error).
    pub fn zeros(&self) -> Result<Vec<Complex64>, awesym_linalg::LinalgError> {
        let n = self.poles.len();
        if n <= 1 {
            return Ok(Vec::new());
        }
        // Accumulate N(s) = Σ_i k_i Π_{j≠i} (s − p_j) in coefficient form.
        let mut num = vec![Complex64::ZERO; n]; // degree ≤ n−1
        for i in 0..n {
            // Build Π_{j≠i} (s − p_j).
            let mut prod = vec![Complex64::ZERO; n];
            prod[0] = Complex64::ONE;
            let mut deg = 0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                // prod *= (s − p_j)
                for k in (0..=deg).rev() {
                    let c = prod[k];
                    prod[k + 1] += c;
                    prod[k] = -self.poles[j] * c;
                }
                deg += 1;
            }
            for k in 0..n {
                num[k] += self.residues[i] * prod[k];
            }
        }
        // Trim trailing ~zero coefficients (all-pole responses).
        let scale = num.iter().map(|c| c.abs()).fold(0.0, f64::max);
        while matches!(num.last(), Some(c) if c.abs() <= 1e-12 * scale) {
            num.pop();
        }
        if num.len() <= 1 {
            return Ok(Vec::new());
        }
        awesym_linalg::roots_aberth(&num)
    }

    /// Gain margin in dB: `−20·log₁₀|H(jω₁₈₀)|` at the lowest frequency
    /// where the phase crosses −180°. `None` when the phase never reaches
    /// −180° in the scanned range (then the margin is effectively
    /// infinite).
    pub fn gain_margin_db(&self) -> Option<f64> {
        let p_min = self.poles.iter().map(|p| p.abs()).fold(f64::MAX, f64::min);
        let p_max = self.poles.iter().map(|p| p.abs()).fold(0.0, f64::max);
        if !(p_min.is_finite() && p_max > 0.0) {
            return None;
        }
        let lo = p_min * 1e-4;
        let hi = p_max * 1e4;
        let n = 800;
        // Track unwrapped phase relative to the DC phase.
        let base = self.eval_jw(lo).arg();
        let mut prev_w = lo;
        let mut prev_phase = 0.0f64;
        let mut last = self.eval_jw(lo).arg();
        for i in 1..=n {
            let w = lo * (hi / lo).powf(i as f64 / n as f64);
            let raw = self.eval_jw(w).arg();
            let mut d = raw - last;
            while d > std::f64::consts::PI {
                d -= 2.0 * std::f64::consts::PI;
            }
            while d < -std::f64::consts::PI {
                d += 2.0 * std::f64::consts::PI;
            }
            let phase = prev_phase + d;
            last = raw;
            if phase <= -std::f64::consts::PI && prev_phase > -std::f64::consts::PI {
                // Bisect in log-ω for the crossing.
                let (mut a, mut b) = (prev_w, w);
                for _ in 0..60 {
                    let mid = (a * b).sqrt();
                    // Re-derive unwrapped phase at mid by linear blend of
                    // the bracket (adequate over a tiny interval).
                    let fa = prev_phase;
                    let fb = phase;
                    let t = (mid.ln() - a.ln()) / (b.ln() - a.ln());
                    if fa + t * (fb - fa) > -std::f64::consts::PI {
                        a = mid;
                    } else {
                        b = mid;
                    }
                }
                let w180 = (a * b).sqrt();
                let mag = self.eval_jw(w180).abs();
                let _ = base;
                return Some(-20.0 * mag.log10());
            }
            prev_w = w;
            prev_phase = phase;
        }
        None
    }

    /// Unit-ramp response `y(t) = Σ (k_i/p_i²)(e^{p_i t} − 1) − Σ (k_i/p_i)·t`
    /// for `t ≥ 0` (integral of the step response) — the ramp-input delay
    /// models of the interconnect literature build on this.
    pub fn ramp_response(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &k)| {
                let e = (p * t).exp();
                let a = k / (p * p) * (e - Complex64::ONE);
                let b = k / p * t;
                (a - b).re
            })
            .sum()
    }

    /// Magnitude/phase pairs over a frequency list (a Bode table).
    pub fn bode(&self, omegas: &[f64]) -> Vec<(f64, f64)> {
        omegas
            .iter()
            .map(|&w| {
                let h = self.eval_jw(w);
                (h.abs(), h.arg().to_degrees())
            })
            .collect()
    }

    /// Human-readable closed form of the impulse response,
    /// `h(t) = Σ k_i·e^{p_i t}` — the paper's "transient response …
    /// expressed symbolically".
    pub fn impulse_expression(&self) -> String {
        let mut out = String::from("h(t) =");
        for (i, (p, k)) in self.poles.iter().zip(&self.residues).enumerate() {
            if i > 0 {
                out.push_str(" +");
            }
            if p.im == 0.0 && k.im == 0.0 {
                out.push_str(&format!(" {:.6e}*exp({:.6e}*t)", k.re, p.re));
            } else {
                out.push_str(&format!(
                    " ({:.6e}{:+.6e}i)*exp(({:.6e}{:+.6e}i)*t)",
                    k.re, k.im, p.re, p.im
                ));
            }
        }
        out
    }

    /// Unity-gain (0 dB crossover) angular frequency: the lowest `ω` where
    /// `|H(jω)| = 1`, found by log-spaced scan plus bisection. `None` when
    /// `|H|` never crosses 1 in the scanned range.
    pub fn unity_gain_omega(&self) -> Option<f64> {
        let p_min = self.poles.iter().map(|p| p.abs()).fold(f64::MAX, f64::min);
        let p_max = self.poles.iter().map(|p| p.abs()).fold(0.0, f64::max);
        if !(p_min.is_finite() && p_max > 0.0) {
            return None;
        }
        let lo = p_min * 1e-4;
        let hi = p_max * 1e4;
        let n = 600;
        let mut prev_w = lo;
        let mut prev_above = self.eval_jw(lo).abs() > 1.0;
        if !prev_above {
            return None; // already below unity at DC-ish frequency
        }
        for i in 1..=n {
            let w = lo * (hi / lo).powf(i as f64 / n as f64);
            let above = self.eval_jw(w).abs() > 1.0;
            if above != prev_above {
                let (mut a, mut b) = (prev_w, w);
                for _ in 0..80 {
                    let mid = (a * b).sqrt();
                    if (self.eval_jw(mid).abs() > 1.0) == prev_above {
                        a = mid;
                    } else {
                        b = mid;
                    }
                }
                return Some((a * b).sqrt());
            }
            prev_w = w;
            prev_above = above;
        }
        None
    }

    /// Phase margin in degrees: `180° + ∠H(jω_u)` at the unity-gain
    /// frequency. `None` when there is no crossover.
    pub fn phase_margin_deg(&self) -> Option<f64> {
        let wu = self.unity_gain_omega()?;
        let phase = self.eval_jw(wu).arg().to_degrees();
        Some(180.0 + phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole(p: f64, k: f64) -> Rom {
        Rom::from_parts(
            vec![Complex64::from_re(p)],
            vec![Complex64::from_re(k)],
            vec![-k / p, -k / (p * p)],
            1.0,
        )
    }

    #[test]
    fn single_pole_responses() {
        // H(s) = 1/(1+s) → pole −1, residue 1.
        let rom = single_pole(-1.0, 1.0);
        assert!((rom.dc_gain() - 1.0).abs() < 1e-12);
        assert!((rom.eval_jw(0.0).re - 1.0).abs() < 1e-12);
        assert!((rom.eval_jw(1.0).abs() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((rom.impulse_response(0.0) - 1.0).abs() < 1e-12);
        assert!((rom.step_response(1.0) - (1.0 - (-1.0_f64).exp())).abs() < 1e-12);
        assert_eq!(rom.step_response(-1.0), 0.0);
        assert!(rom.is_stable());
        assert_eq!(rom.order(), 1);
    }

    #[test]
    fn delay_of_single_pole() {
        let rom = single_pole(-1.0, 1.0);
        // 50% delay of 1−e^{−t} is ln 2.
        let d = rom.delay_50().unwrap();
        assert!((d - std::f64::consts::LN_2).abs() < 1e-6);
        // 0-fraction crossing is immediate.
        assert_eq!(rom.delay_to_fraction(0.0), Some(0.0));
    }

    #[test]
    fn unity_gain_and_phase_margin_single_pole() {
        // H(s) = A/(1 + s/p): with A=1000, p=1 → ω_u ≈ A·p, PM ≈ 90°.
        let a = 1000.0;
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0)],
            vec![Complex64::from_re(a)],
            vec![a, -a],
            1.0,
        );
        let wu = rom.unity_gain_omega().unwrap();
        assert!((wu - (a * a - 1.0).sqrt()).abs() / a < 1e-6);
        let pm = rom.phase_margin_deg().unwrap();
        assert!((pm - 90.0).abs() < 0.2, "pm {pm}");
    }

    #[test]
    fn two_pole_phase_margin_lower() {
        // Second pole at the crossover reduces PM toward 45°.
        let a = 1000.0;
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0), Complex64::from_re(-1000.0)],
            vec![Complex64::from_re(a), Complex64::from_re(0.0)],
            vec![a, -a],
            1.0,
        );
        // H = a/(s+1) exactly (zero residue on second pole) — now couple it:
        let rom2 = Rom::from_parts(
            rom.poles().to_vec(),
            vec![Complex64::from_re(a * 0.999), Complex64::from_re(-800.0)],
            vec![a, -a],
            1.0,
        );
        let pm2 = rom2.phase_margin_deg();
        if let (Some(p1), Some(p2)) = (rom.phase_margin_deg(), pm2) {
            assert!(p2 < p1 + 1.0);
        }
    }

    #[test]
    fn stabilized_drops_rhp_pole() {
        // One good pole, one spurious RHP pole.
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0), Complex64::from_re(2.0)],
            vec![Complex64::from_re(1.0), Complex64::from_re(0.001)],
            vec![1.0, -1.0],
            1.0,
        );
        assert!(!rom.is_stable());
        let fixed = rom.stabilized().unwrap();
        assert!(fixed.is_stable());
        assert_eq!(fixed.order(), 1);
        // Refit keeps the DC gain: m0 preserved by residue solve.
        assert!((fixed.dc_gain() - 1.0).abs() < 1e-12);
        let h0 = fixed.eval_jw(0.0).re;
        assert!((h0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stabilized_with_no_stable_pole_is_none() {
        let rom = Rom::from_parts(
            vec![Complex64::from_re(2.0)],
            vec![Complex64::from_re(1.0)],
            vec![1.0],
            1.0,
        );
        assert!(rom.stabilized().is_none());
    }

    #[test]
    fn step_peak_sees_overshoot() {
        // Underdamped pair: peak > DC gain.
        let p = Complex64::new(-0.2, 2.0);
        let k = Complex64::new(-0.1, -1.01); // ≈ −H0·p/2 style residue
        let m0 = -2.0 * (k / p).re;
        let rom = Rom::from_parts(vec![p, p.conj()], vec![k, k.conj()], vec![m0, 0.0], 1.0);
        let (tp, vp) = rom.step_peak().unwrap();
        assert!(tp > 0.0);
        assert!(vp > m0, "peak {vp} vs dc {m0}");
    }

    #[test]
    fn zeros_of_known_two_pole_one_zero() {
        // H(s) = (s+3)/((s+1)(s+2)) = 2/(s+1) − 1/(s+2).
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0), Complex64::from_re(-2.0)],
            vec![Complex64::from_re(2.0), Complex64::from_re(-1.0)],
            vec![1.5, -1.75],
            1.0,
        );
        let z = rom.zeros().unwrap();
        assert_eq!(z.len(), 1);
        assert!((z[0].re + 3.0).abs() < 1e-9, "{z:?}");
        assert!(z[0].im.abs() < 1e-9);
    }

    #[test]
    fn all_pole_model_has_no_zeros() {
        // H(s) = 1/((s+1)(s+2)) = 1/(s+1) − 1/(s+2): numerator constant.
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0), Complex64::from_re(-2.0)],
            vec![Complex64::from_re(1.0), Complex64::from_re(-1.0)],
            vec![0.5],
            1.0,
        );
        assert!(rom.zeros().unwrap().is_empty());
        assert!(single_pole(-1.0, 1.0).zeros().unwrap().is_empty());
    }

    #[test]
    fn ramp_response_is_integral_of_step() {
        let rom = single_pole(-2.0, 3.0);
        // Numeric integral of step vs ramp_response.
        let t_end = 2.0;
        let n = 20000;
        let dt = t_end / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let t = (i as f64 + 0.5) * dt;
            acc += rom.step_response(t) * dt;
        }
        let r = rom.ramp_response(t_end);
        assert!((acc - r).abs() < 1e-4 * r.abs().max(1.0), "{acc} vs {r}");
        assert_eq!(rom.ramp_response(-1.0), 0.0);
    }

    #[test]
    fn gain_margin_of_three_pole_loop() {
        // Three coincident poles: phase hits −180° well before the gain
        // runs out when A0 is large → finite positive gain margin; a
        // single pole never reaches −180° → None.
        let a = 100.0;
        let rom3 = {
            // (a)/((s+1)^3) expanded in partial fractions has repeated
            // poles; approximate with slightly split poles.
            let p = [-1.0, -1.01, -0.99];
            let poles: Vec<Complex64> = p.iter().map(|&x| Complex64::from_re(x)).collect();
            // Residues for H = Π a/(s−p_i): use Vandermonde vs moments of
            // the true function a/((s+1)(s+1.01)(s+0.99)).
            let m: Vec<f64> = (0..3)
                .map(|j| {
                    // moments of product form via series: crude numeric
                    // differentiation of H at 0.
                    let h = |s: f64| a / ((s + 1.0) * (s + 1.01) * (s + 0.99));
                    match j {
                        0 => h(0.0),
                        1 => (h(1e-5) - h(-1e-5)) / 2e-5,
                        _ => (h(1e-4) - 2.0 * h(0.0) + h(-1e-4)) / 1e-8 / 2.0,
                    }
                })
                .collect();
            let res = awesym_linalg::solve_vandermonde_complex(&poles, &m).unwrap();
            Rom::from_parts(poles, res, m, 1.0)
        };
        let gm = rom3.gain_margin_db().unwrap();
        // |H| at w180 (= √3 rad/s for a triple pole) is a/8 = 12.5 →
        // gm = −20·log10(12.5) ≈ −21.9 dB (unstable in closed loop).
        assert!((gm + 21.9).abs() < 1.5, "gm {gm}");
        assert!(single_pole(-1.0, 100.0).gain_margin_db().is_none());
    }

    #[test]
    fn bode_table_and_expression() {
        let rom = single_pole(-1.0, 1.0);
        let table = rom.bode(&[0.0, 1.0]);
        assert!((table[0].0 - 1.0).abs() < 1e-12);
        assert!((table[1].1 + 45.0).abs() < 1e-9);
        let text = rom.impulse_expression();
        assert!(text.starts_with("h(t) ="), "{text}");
        assert!(text.contains("exp"), "{text}");
    }

    #[test]
    fn zeros_of_complex_pole_model() {
        // H(s) = (s + 4) / (s² + 2s + 5): poles −1 ± 2i,
        // residues k = (p + 4)/(p − p̄) at each pole.
        let p = Complex64::new(-1.0, 2.0);
        let k1 = (p + 4.0) / (p - p.conj());
        let rom = Rom::from_parts(
            vec![p, p.conj()],
            vec![k1, k1.conj()],
            vec![0.8, -0.12],
            1.0,
        );
        let z = rom.zeros().unwrap();
        assert_eq!(z.len(), 1);
        assert!((z[0].re + 4.0).abs() < 1e-9, "{z:?}");
        assert!(z[0].im.abs() < 1e-9);
        // Sanity: H(0) = 4/5.
        assert!((rom.eval_jw(0.0).re - 0.8).abs() < 1e-12);
    }

    #[test]
    fn time_scale_is_retained() {
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-1.0)],
            vec![Complex64::from_re(1.0)],
            vec![1.0, -1.0],
            2.5,
        );
        assert_eq!(rom.time_scale(), 2.5);
        assert_eq!(rom.moments(), &[1.0, -1.0]);
        assert_eq!(rom.residues().len(), 1);
    }

    #[test]
    fn dominant_pole_selection() {
        let rom = Rom::from_parts(
            vec![Complex64::from_re(-100.0), Complex64::from_re(-1.0)],
            vec![Complex64::ONE, Complex64::ONE],
            vec![1.01, -1.0001],
            1.0,
        );
        assert_eq!(rom.dominant_pole().unwrap().re, -1.0);
    }
}
