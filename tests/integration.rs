//! Cross-crate integration tests: the full AWEsymbolic pipeline against
//! every independent reference implementation in the workspace (exact
//! symbolic algebra, direct AC analysis, transient simulation).

use awesymbolic::prelude::*;
use awesymbolic::{exact, transient, IntegrationMethod, Mna, TransientOptions, Waveform};

/// Compiled symbolic model vs exact symbolic algebra vs direct AC analysis
/// on the Fig. 1 circuit — three fully independent code paths.
#[test]
fn three_way_agreement_on_fig1() {
    let w = generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let c = &w.circuit;
    let bindings = [
        SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
        SymbolBinding::capacitance("c2", vec![c.find("C2").unwrap()]),
    ];
    let model = CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap();
    let h_exact = exact::exact_transfer(c, w.input, w.output, &bindings).unwrap();

    for vals in [[1e-9, 3e-9], [0.4e-9, 0.8e-9], [5e-9, 1e-9]] {
        // Moments: compiled vs exact series.
        let m_model = model.eval_moments(&vals);
        let m_exact = h_exact.moments(&vals, 4);
        for (a, b) in m_model.iter().zip(m_exact.iter()) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1e-30), "{a} vs {b}");
        }
        // Frequency response: ROM vs direct AC on a substituted circuit.
        let mut c2 = c.clone();
        c2.set_value(c.find("C1").unwrap(), vals[0]);
        c2.set_value(c.find("C2").unwrap(), vals[1]);
        let mna = Mna::build(&c2).unwrap();
        let rom = model.rom(&vals).unwrap();
        let wc = rom.dominant_pole().unwrap().abs();
        let omegas = [0.1 * wc, wc, 3.0 * wc];
        let truth = mna.ac_transfer(w.input, w.output, &omegas).unwrap();
        for (o, t) in omegas.iter().zip(truth.iter()) {
            let h = rom.eval_jw(*o);
            // Order-2 model of an order-2 circuit: exact.
            assert!((h - *t).abs() < 1e-6 * t.abs(), "ω={o}: {h} vs {t}");
        }
    }
}

/// Compiled model step response vs trapezoidal transient simulation on an
/// RC ladder with a symbolic driver section.
#[test]
fn compiled_step_response_matches_transient() {
    let w = generators::rc_ladder(40, 50.0, 1e-12);
    let c = &w.circuit;
    let r1 = c.find("R1").unwrap();
    let model = CompiledModel::build(
        c,
        w.input,
        w.output,
        &[SymbolBinding::resistance("r1", vec![r1])],
        3,
    )
    .unwrap();

    for r in [25.0, 50.0, 200.0] {
        let rom = model.rom(&[r]).unwrap();
        let tau = 1.0 / rom.dominant_pole().unwrap().abs();
        let mut c2 = c.clone();
        c2.set_value(r1, r);
        let mna = Mna::build(&c2).unwrap();
        let res = transient(
            &mna,
            w.input,
            &Waveform::Step { amplitude: 1.0 },
            &TransientOptions {
                t_stop: 5.0 * tau,
                dt: tau / 500.0,
                method: IntegrationMethod::Trapezoidal,
            },
            &[w.output],
        )
        .unwrap();
        for (t, v) in res.times.iter().zip(res.traces[0].iter()).step_by(100) {
            let vr = rom.step_response(*t);
            assert!((vr - v).abs() < 0.02, "r={r} t={t}: {vr} vs {v}");
        }
    }
}

/// The paper's headline property at system scale: on the 741, the compiled
/// model's reduced-order poles equal a full AWE analysis' poles at every
/// probed point of the symbol plane.
#[test]
fn opamp_poles_identical_to_full_awe_over_plane() {
    let amp = generators::opamp741();
    let c = &amp.circuit;
    let model = SymbolicAwe::new(c, amp.input, amp.output)
        .order(2)
        .symbol_named("g_out_q14", "ro_q14", SymbolRole::Conductance)
        .unwrap()
        .symbol_named("c_comp", "c_comp", SymbolRole::Capacitance)
        .unwrap()
        .compile()
        .unwrap();
    let g0 = model.nominal()[0];
    let c0 = model.nominal()[1];
    for (gs, cs) in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.7)] {
        let vals = [g0 * gs, c0 * cs];
        let rom_sym = model.rom_exact_order(&vals).unwrap();
        let mut c2 = c.clone();
        c2.set_value(amp.ro_q14, 1.0 / vals[0]);
        c2.set_value(amp.c_comp, vals[1]);
        let rom_ref = AweAnalysis::new(&c2, amp.input, amp.output)
            .unwrap()
            .rom(2)
            .unwrap();
        let mut a: Vec<f64> = rom_sym.poles().iter().map(|p| p.re).collect();
        let mut b: Vec<f64> = rom_ref.poles().iter().map(|p| p.re).collect();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5 * y.abs(), "{x} vs {y} at {vals:?}");
        }
    }
}

/// Netlist round trip on every generator: each element reads back with
/// its kind, value, terminals and position, and parse → analyze equals
/// generate → analyze.
#[test]
fn spice_round_trip_preserves_analysis() {
    let workload = |w: generators::Workload| (w.circuit, w.input, w.output);
    let lines = generators::coupled_lines(&generators::CoupledLineSpec {
        segments: 20,
        ..Default::default()
    });
    let amp = generators::opamp741();
    let cases = [
        (
            "fig1_rc",
            workload(generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9)),
        ),
        (
            "rc_ladder",
            workload(generators::rc_ladder(10, 100.0, 1e-12)),
        ),
        ("rc_tree", workload(generators::rc_tree(3, 50.0, 0.2e-12))),
        (
            "coupled_lines",
            (lines.circuit, lines.input, lines.victim_out),
        ),
        ("opamp741", (amp.circuit, amp.input, amp.output)),
        (
            "rc_mesh",
            workload(generators::rc_mesh(4, 4, 20.0, 0.5e-12)),
        ),
        (
            "h_tree",
            workload(generators::h_tree(3, 100.0, 1e-12, 5e-13)),
        ),
        (
            "gate_stage",
            workload(generators::gate_stage(120.0, 4, 80.0, 0.4e-12, 5e-15)),
        ),
        (
            "rlc_line",
            workload(generators::rlc_line(5, 10.0, 1e-9, 1e-12, 50.0, 1e-13)),
        ),
    ];
    for (label, (circuit, input, output)) in cases {
        let text = circuit.to_spice();
        let parsed = awesymbolic::parse_spice(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(parsed.num_elements(), circuit.num_elements(), "{label}");
        for (a, b) in circuit.elements().iter().zip(parsed.elements()) {
            assert_eq!(a.kind, b.kind, "{label}: {}", a.name);
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{label}: {}", a.name);
            for (x, y) in [(a.p, b.p), (a.n, b.n), (a.cp, b.cp), (a.cn, b.cn)] {
                assert_eq!(
                    circuit.node_name(x),
                    parsed.node_name(y),
                    "{label}: {}",
                    a.name
                );
            }
            assert_eq!(
                circuit.find(&a.ctrl_branch),
                parsed.find(&b.ctrl_branch),
                "{label}: {}",
                a.name
            );
        }
        // Elements read back in order, so the source keeps its id.
        let out = parsed.find_node(circuit.node_name(output)).unwrap();
        let a1 = AweAnalysis::new(&circuit, input, output).unwrap();
        let a2 = AweAnalysis::new(&parsed, input, out).unwrap();
        let m1 = a1.moments(6).unwrap().m;
        let m2 = a2.moments(6).unwrap().m;
        // The parsed netlist numbers its nodes in the order they first
        // appear, so the MNA solve runs in another order. The op-amp's
        // open-loop gain of ~1e5 magnifies that rounding.
        let tol = if label == "opamp741" { 1e-10 } else { 1e-12 };
        for (x, y) in m1.iter().zip(m2.iter()) {
            assert!((x - y).abs() <= tol * y.abs(), "{label}: {x} vs {y}");
        }
    }
}

/// Serialized model reloads and evaluates identically (the "stored timing
/// model" use case).
#[test]
fn model_serialization_round_trip() {
    let w = generators::rc_tree(4, 20.0, 0.2e-12);
    let c = &w.circuit;
    let rdrv = c.find("Rdrv").unwrap();
    let model = CompiledModel::build(
        c,
        w.input,
        w.output,
        &[SymbolBinding::resistance("rdrv", vec![rdrv])],
        2,
    )
    .unwrap();
    let json = serde_json::to_string(&model).unwrap();
    let back: CompiledModel = serde_json::from_str(&json).unwrap();
    for r in [5.0, 20.0, 500.0] {
        assert_eq!(model.eval_moments(&[r]), back.eval_moments(&[r]));
    }
}

/// AWEsensitivity → auto symbols → compile, end to end on the op-amp.
#[test]
fn auto_symbol_pipeline_on_opamp() {
    let amp = generators::opamp741();
    let model = SymbolicAwe::new(&amp.circuit, amp.input, amp.output)
        .order(2)
        .auto_symbols(2)
        .unwrap()
        .compile()
        .unwrap();
    assert_eq!(model.symbols().len(), 2);
    let rom = model.rom(model.nominal()).unwrap();
    assert!(rom.dc_gain().abs() > 1e3);
    // The auto-selected model still matches a full analysis at nominal.
    let awe = AweAnalysis::new(&amp.circuit, amp.input, amp.output).unwrap();
    let m_ref = awe.moments(4).unwrap().m;
    let m_sym = model.eval_moments(model.nominal());
    for (a, b) in m_sym.iter().zip(m_ref.iter()) {
        assert!((a - b).abs() < 1e-6 * b.abs());
    }
}
