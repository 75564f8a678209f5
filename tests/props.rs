//! Property-based tests over the core data structures and the AWEsymbolic
//! invariants.

use awesymbolic::prelude::*;
use awesymbolic::{MPoly, ModelOptions, OptLevel, Poly, SymbolSet};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every bundled example netlist compiled at [`OptLevel::None`] and
/// [`OptLevel::Full`], built once and shared across property cases.
fn optimizer_pairs() -> &'static [(&'static str, CompiledModel, CompiledModel)] {
    static PAIRS: OnceLock<Vec<(&'static str, CompiledModel, CompiledModel)>> = OnceLock::new();
    PAIRS.get_or_init(|| {
        let mut pairs = Vec::new();

        let w = generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let bindings = [
            SymbolBinding::capacitance("c1", vec![w.circuit.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![w.circuit.find("R2").unwrap()]),
        ];
        let build = |level| {
            CompiledModel::build_with_options(
                &w.circuit,
                w.input,
                w.output,
                &bindings,
                ModelOptions::order(2).with_opt_level(level),
            )
            .unwrap()
        };
        pairs.push(("fig1_rc", build(OptLevel::None), build(OptLevel::Full)));

        let amp = generators::opamp741();
        let bindings = [
            SymbolBinding::conductance("g_out_q14", vec![amp.ro_q14]),
            SymbolBinding::capacitance("c_comp", vec![amp.c_comp]),
        ];
        let build = |level| {
            CompiledModel::build_with_options(
                &amp.circuit,
                amp.input,
                amp.output,
                &bindings,
                ModelOptions::order(2).with_opt_level(level),
            )
            .unwrap()
        };
        pairs.push(("opamp741", build(OptLevel::None), build(OptLevel::Full)));

        let spec = generators::CoupledLineSpec {
            segments: 40,
            ..Default::default()
        };
        let lines = generators::coupled_lines(&spec);
        let bindings = [
            SymbolBinding::resistance("rdrv", lines.rdrv.to_vec()),
            SymbolBinding::capacitance("cload", lines.cload.to_vec()),
        ];
        let build = |level| {
            CompiledModel::build_with_options(
                &lines.circuit,
                lines.input,
                lines.victim_out,
                &bindings,
                ModelOptions::order(2).with_opt_level(level),
            )
            .unwrap()
        };
        pairs.push((
            "coupled_lines_40seg",
            build(OptLevel::None),
            build(OptLevel::Full),
        ));

        pairs
    })
}

/// Golden op counts for the bundled netlists: the raw (unoptimized) tape
/// size of the naive lowering, and the size of the `Full` tape (the
/// nested lowering behind one reciprocal, then the full pass pipeline).
/// These pin the optimizer's output — an unintentional regression in
/// the lowering, folding, CSE, fusion, or DCE changes one of these
/// numbers.
#[test]
fn golden_op_counts() {
    let expected = [
        ("fig1_rc", 62, 38),
        ("opamp741", 113, 70),
        ("coupled_lines_40seg", 157, 93),
    ];
    for ((name, raw, opt), (ename, eraw, eopt)) in optimizer_pairs().iter().zip(expected) {
        assert_eq!(*name, ename);
        assert_eq!(raw.op_count(), eraw, "{name}: raw op count drifted");
        assert_eq!(opt.op_count(), eopt, "{name}: optimized op count drifted");
        assert_eq!(opt.raw_op_count(), eraw, "{name}: raw_op_count mismatch");
        let reduction = 1.0 - eopt as f64 / eraw as f64;
        assert!(
            reduction >= 0.20,
            "{name}: optimizer cut only {:.1}% (< 20%)",
            100.0 * reduction
        );
    }
}

fn small_coeffs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, 1..6)
}

proptest! {
    /// Polynomial (de)composition: building from roots and solving back
    /// recovers the roots.
    #[test]
    fn poly_roots_round_trip(roots in prop::collection::vec(-50.0..-0.5f64, 1..6)) {
        let p = Poly::from_roots(
            &roots.iter().map(|&r| awesymbolic::Complex64::from_re(r)).collect::<Vec<_>>(),
        );
        let found = p.roots().unwrap();
        for r in &roots {
            let best = found.iter().map(|f| (f.re - r).abs() / r.abs()).fold(f64::MAX, f64::min);
            prop_assert!(best < 1e-4, "root {r} missing: {found:?}");
        }
    }

    /// Horner evaluation is linear in the coefficients.
    #[test]
    fn poly_eval_linearity(a in small_coeffs(), b in small_coeffs(), x in -3.0..3.0f64) {
        let pa = Poly::new(a.clone());
        let pb = Poly::new(b.clone());
        let sum = pa.add(&pb);
        prop_assert!((sum.eval(x) - (pa.eval(x) + pb.eval(x))).abs() < 1e-9);
    }

    /// Multivariate polynomial ring laws, checked by evaluation.
    #[test]
    fn mpoly_ring_laws(
        ca in -5.0..5.0f64,
        cb in -5.0..5.0f64,
        x in -2.0..2.0f64,
        y in -2.0..2.0f64,
    ) {
        let mut s = SymbolSet::new();
        let sx = s.intern("x");
        let sy = s.intern("y");
        let a = MPoly::var(&s, sx).scale(ca).add(&MPoly::var(&s, sy));
        let b = MPoly::var(&s, sy).scale(cb).add(&MPoly::one(2));
        let p = [x, y];
        prop_assert!((a.mul(&b).eval(&p) - a.eval(&p) * b.eval(&p)).abs() < 1e-9);
        prop_assert!((a.add(&b).eval(&p) - (a.eval(&p) + b.eval(&p))).abs() < 1e-9);
        prop_assert!(a.sub(&a).is_zero());
    }

    /// The compiled tape computes exactly what the polynomial does.
    #[test]
    fn tape_matches_polynomial(
        coeffs in prop::collection::vec(-3.0..3.0f64, 1..5),
        x in -2.0..2.0f64,
        y in -2.0..2.0f64,
    ) {
        let mut s = SymbolSet::new();
        let sx = s.intern("x");
        let sy = s.intern("y");
        // p = Σ_k c_k · x^k · y^(k mod 2)
        let mut p = MPoly::zero(2);
        for (k, &ck) in coeffs.iter().enumerate() {
            let term = MPoly::var(&s, sx)
                .pow(k as u32)
                .mul(&MPoly::var(&s, sy).pow((k % 2) as u32))
                .scale(ck);
            p = p.add(&term);
        }
        let mut g = awesymbolic::ExprGraph::new(2);
        let id = g.poly(&p);
        let f = g.compile(&[id]);
        let direct = p.eval(&[x, y]);
        let taped = f.eval(&[x, y])[0];
        prop_assert!((direct - taped).abs() < 1e-9 * (1.0 + direct.abs()));
    }

    /// AWE invariant: the moments of an RC ladder alternate in sign and
    /// m0 = 1 (unit DC transfer), for any positive R/C values.
    #[test]
    fn ladder_moment_signs(r in 1.0..500.0f64, c in 0.1e-12..10e-12f64, n in 2usize..20) {
        let w = generators::rc_ladder(n, r, c);
        let awe = AweAnalysis::new(&w.circuit, w.input, w.output).unwrap();
        let m = awe.moments(6).unwrap().m;
        prop_assert!((m[0] - 1.0).abs() < 1e-9);
        for (k, &mk) in m.iter().enumerate().skip(1) {
            let expected_sign = if k % 2 == 1 { -1.0 } else { 1.0 };
            prop_assert!(mk * expected_sign > 0.0, "m{k} = {mk}");
        }
    }

    /// AWEsymbolic invariant: the compiled model equals the full analysis
    /// at random symbol values (paper: "results are identical").
    #[test]
    fn compiled_equals_reference(
        c1_scale in 0.2..5.0f64,
        r2_scale in 0.2..5.0f64,
    ) {
        let w = generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let c1 = c.find("C1").unwrap();
        let r2 = c.find("R2").unwrap();
        let model = CompiledModel::build(
            c,
            w.input,
            w.output,
            &[
                SymbolBinding::capacitance("c1", vec![c1]),
                SymbolBinding::resistance("r2", vec![r2]),
            ],
            2,
        )
        .unwrap();
        let vals = [1e-9 * c1_scale, 2e3 * r2_scale];
        let mut c2 = c.clone();
        c2.set_value(c1, vals[0]);
        c2.set_value(r2, vals[1]);
        let m_ref = AweAnalysis::new(&c2, w.input, w.output)
            .unwrap()
            .moments(4)
            .unwrap()
            .m;
        let m_sym = model.eval_moments(&vals);
        for (a, b) in m_sym.iter().zip(m_ref.iter()) {
            prop_assert!((a - b).abs() < 1e-8 * b.abs().max(1e-30), "{a} vs {b}");
        }
    }

    /// Optimizer soundness: on every bundled example netlist, the fully
    /// optimized tape and the unoptimized tape agree to 1e-12 relative at
    /// random symbol values. The pass pipeline only applies IEEE-safe
    /// rewrites, so the paths should in fact be bit-close; 1e-12 leaves
    /// headroom for the one reassociation fusion performs (a·b then +c).
    #[test]
    fn optimized_tape_matches_unoptimized(s0 in 0.2..5.0f64, s1 in 0.2..5.0f64) {
        for (name, raw, opt) in optimizer_pairs() {
            let vals: Vec<f64> = raw
                .nominal()
                .iter()
                .zip([s0, s1])
                .map(|(&n, s)| n * s)
                .collect();
            let a = raw.eval_moments(&vals);
            let b = opt.eval_moments(&vals);
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-12 * x.abs().max(1e-300),
                    "{name} m{k}: {x} vs {y}"
                );
            }
        }
    }

    /// Stability invariant: passive RC ladders always yield stable ROMs.
    #[test]
    fn rc_ladder_roms_are_stable(r in 1.0..1e3f64, c in 0.1e-12..5e-12f64, q in 1usize..5) {
        let w = generators::rc_ladder(25, r, c);
        let awe = AweAnalysis::new(&w.circuit, w.input, w.output).unwrap();
        let rom = awe.rom_stable(q).unwrap();
        prop_assert!(rom.is_stable());
        for p in rom.poles() {
            prop_assert!(p.re < 0.0);
        }
        // The *dominant* pole of an RC circuit is real (higher Padé poles
        // may pair up as complex approximation artifacts).
        let dom = rom.dominant_pole().unwrap();
        prop_assert!(dom.im.abs() < 1e-3 * dom.re.abs(), "dominant {dom}");
    }

    /// Netlist value parser accepts what the writer produces.
    #[test]
    fn value_format_round_trip(v in 1e-15..1e6f64) {
        let text = format!("{v:e}");
        let parsed = awesymbolic::parse_value(&text).unwrap();
        prop_assert!((parsed - v).abs() <= 1e-12 * v);
    }

    /// Sparse LU agrees with dense LU on random diagonally-bumped sparse
    /// matrices of random pattern.
    #[test]
    fn sparse_lu_matches_dense(
        n in 3usize..12,
        seed in 0u64..1000,
        density in 0.15..0.6f64,
    ) {
        use awesym_sparse::{SparseLu, LuOptions, Triplets};
        // xorshift PRNG so the case is reproducible from `seed`.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 2.0 + rnd());
            for j in 0..n {
                if i != j && rnd() < density {
                    t.push(i, j, rnd() - 0.5);
                }
            }
        }
        let a = t.to_csc();
        let dense = awesym_linalg::Mat::from_fn(n, n, |i, j| a.get(i, j));
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let b = a.mul_vec(&x_true);
        let xs = SparseLu::factor(&a, LuOptions::default()).unwrap().solve(&b);
        let xd = dense.solve(&b).unwrap();
        for (p, q) in xs.iter().zip(xd.iter()) {
            prop_assert!((p - q).abs() < 1e-7 * (1.0 + q.abs()), "{p} vs {q}");
        }
    }

    /// Compiled tapes survive JSON serialization bit-exactly.
    #[test]
    fn tape_serde_round_trip(
        coeffs in prop::collection::vec(-5.0..5.0f64, 1..6),
        x in -2.0..2.0f64,
    ) {
        let mut g = awesymbolic::ExprGraph::new(1);
        let sym = g.sym(0);
        let mut acc = g.constant(0.0);
        for (k, &ck) in coeffs.iter().enumerate() {
            let c = g.constant(ck);
            let p = g.powi(sym, k as u32 + 1);
            let term = g.mul(c, p);
            acc = g.add(acc, term);
        }
        let f = g.compile(&[acc]);
        let json = serde_json::to_string(&f).unwrap();
        let back: awesymbolic::CompiledFn = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(f.eval(&[x])[0].to_bits(), back.eval(&[x])[0].to_bits());
    }

    /// Transient simulation of an RC ladder always settles monotonically
    /// toward the DC value for a step input (diffusive network, no L).
    #[test]
    fn ladder_transient_settles(r in 5.0..200.0f64, c in 0.1e-12..2e-12f64) {
        use awesymbolic::{transient, IntegrationMethod, Mna, TransientOptions, Waveform};
        let w = generators::rc_ladder(10, r, c);
        let mna = Mna::build(&w.circuit).unwrap();
        let tau = 10.0 * 10.0 * r * c; // ≥ Elmore horizon
        let res = transient(
            &mna,
            w.input,
            &Waveform::Step { amplitude: 1.0 },
            &TransientOptions {
                t_stop: 10.0 * tau,
                dt: tau / 100.0,
                method: IntegrationMethod::Trapezoidal,
            },
            &[w.output],
        )
        .unwrap();
        let last = *res.traces[0].last().unwrap();
        prop_assert!((last - 1.0).abs() < 1e-3, "settled at {last}");
        // Never exceeds the final value by more than integration wiggle.
        for v in &res.traces[0] {
            prop_assert!(*v < 1.0 + 1e-6);
        }
    }
}
