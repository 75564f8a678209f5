//! `Rom::delay_to_fraction` hoists each pole's `k/p`, skips `cos`/`sin`
//! for real exponents and stops its bisection once the midpoint lands on
//! an end. None of that may change a bit of the answer: every case here
//! is checked against a copy of the straightforward scan-and-bisect,
//! which evaluates the public `Rom::step_response` at every step.

use awesym_awe::{AweAnalysis, Rom};
use awesym_circuit::generators::{opamp741, rlc_line};
use awesym_linalg::Complex64;

/// The reference: scan 2000 samples up to `10·τ_dominant`, then bisect
/// the first bracketing interval 60 times.
fn reference_delay(rom: &Rom, fraction: f64) -> Option<f64> {
    if !rom.is_stable() {
        return None;
    }
    let target = fraction * rom.dc_gain();
    let p_dom = rom.dominant_pole()?;
    let t_max = 10.0 / p_dom.re.abs().max(f64::MIN_POSITIVE);
    let rising = rom.dc_gain() >= 0.0;
    let crossed = |v: f64| if rising { v >= target } else { v <= target };
    let n = 2000;
    let mut prev_t = 0.0;
    if crossed(rom.step_response(0.0)) {
        return Some(0.0);
    }
    for i in 1..=n {
        let t = t_max * i as f64 / n as f64;
        if crossed(rom.step_response(t)) {
            let (mut lo, mut hi) = (prev_t, t);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if crossed(rom.step_response(mid)) {
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

/// A small seeded generator (SplitMix64) for value spreads.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `0.5×..2×` of `nominal`.
    fn around(&mut self, nominal: f64) -> f64 {
        nominal * (2.0 * self.next_f64() - 1.0).exp2()
    }
}

/// The same model with its response negated: a falling step response.
fn falling(rom: &Rom) -> Rom {
    let neg = |v: &[Complex64]| v.iter().map(|&z| -z).collect();
    Rom::from_parts(
        rom.poles().to_vec(),
        neg(rom.residues()),
        rom.moments().iter().map(|m| -m).collect(),
        rom.time_scale(),
    )
}

const FRACTIONS: [f64; 5] = [0.1, 0.5, 0.9, 0.999, 1.5];

/// Checks every fraction on `rom` and its falling twin; returns how many
/// answers were crossings (not `None`).
fn check(rom: &Rom, label: &str) -> usize {
    let mut crossings = 0;
    for r in [rom.clone(), falling(rom)] {
        for f in FRACTIONS {
            let want = reference_delay(&r, f);
            let got = r.delay_to_fraction(f);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{label}, fraction {f}: {got:?} vs {want:?}"
            );
            crossings += usize::from(got.is_some());
        }
    }
    crossings
}

#[test]
fn opamp_roms_with_real_poles_are_bit_identical() {
    let amp = opamp741();
    let mut rng = Rng(1);
    let mut crossings = 0;
    for i in 0..24 {
        let mut c = amp.circuit.clone();
        let ro = c.element(amp.ro_q14).value;
        let cc = c.element(amp.c_comp).value;
        c.set_value(amp.ro_q14, rng.around(ro));
        c.set_value(amp.c_comp, rng.around(cc));
        let rom = AweAnalysis::new(&c, amp.input, amp.output)
            .unwrap()
            .rom_stable(2)
            .unwrap();
        assert!(rom.poles().iter().all(|p| p.im == 0.0), "real poles");
        crossings += check(&rom, &format!("opamp {i}"));
    }
    assert!(crossings > 24 * 4, "{crossings} crossings");
}

#[test]
fn rlc_line_roms_with_complex_poles_are_bit_identical() {
    let mut rng = Rng(4242);
    let mut complex = 0;
    let mut crossings = 0;
    for i in 0..24 {
        let w = rlc_line(
            8,
            rng.around(20.0),
            rng.around(10e-9),
            rng.around(2e-12),
            rng.around(25.0),
            rng.around(0.2e-12),
        );
        let rom = AweAnalysis::new(&w.circuit, w.input, w.output)
            .unwrap()
            .rom_stable(4)
            .unwrap();
        complex += usize::from(rom.poles().iter().any(|p| p.im != 0.0));
        crossings += check(&rom, &format!("rlc_line {i}"));
    }
    assert!(complex > 12, "{complex} of 24 ROMs have complex poles");
    assert!(crossings > 24 * 4, "{crossings} crossings");
}

#[test]
fn unstable_and_uncrossed_models_answer_none_on_both() {
    let stable = Rom::from_parts(
        vec![Complex64::new(-1e6, 0.0), Complex64::new(-5e6, 0.0)],
        vec![Complex64::new(1.25e6, 0.0), Complex64::new(-0.25e6, 0.0)],
        vec![1.0, -1.2e-6],
        1e-6,
    );
    let unstable = Rom::from_parts(
        vec![Complex64::new(-1e6, 0.0), Complex64::new(2e6, 0.0)],
        vec![Complex64::new(1e6, 0.0), Complex64::new(1e6, 0.0)],
        vec![1.0, -1e-6],
        1e-6,
    );
    // A pole so slow that `10·τ` overflows: the scan times are infinite.
    let glacial = Rom::from_parts(
        vec![Complex64::new(-1e-320, 0.0)],
        vec![Complex64::new(1e-320, 0.0)],
        vec![1.0],
        1.0,
    );
    for (rom, label) in [
        (&stable, "stable"),
        (&unstable, "unstable"),
        (&glacial, "glacial"),
    ] {
        check(rom, label);
    }
    assert_eq!(unstable.delay_to_fraction(0.5), None);
    assert_eq!(stable.delay_to_fraction(1.5), None, "never reaches 150%");
    assert!(stable.delay_to_fraction(0.5).is_some());
}
