//! Paper-reproduction harness: regenerates every table and figure of
//! Lee & Rohrer, "AWEsymbolic" (DAC 1992).
//!
//! ```text
//! cargo run --release -p awesym-bench --bin paper            # everything
//! cargo run --release -p awesym-bench --bin paper -- table1  # one experiment
//! ```
//!
//! CSV data lands in `results/`; the console output mirrors the paper's
//! tables. Absolute times belong to this host, not a 1992 DECstation — the
//! *shape* (who wins, by what order of magnitude, where crossovers sit) is
//! the reproduction target; see `EXPERIMENTS.md`.

use awesym_bench::{
    full_awe_moments, lines_workload, log_grid, opamp_workload, time_median, write_series_csv,
    write_surface_csv, LinesWorkload, OpAmpWorkload,
};
use awesymbolic::prelude::*;
use awesymbolic::{
    exact, transient, IntegrationMethod, Mna, SymbolicMoments, TransientOptions, Waveform,
};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exp = args.first().map(String::as_str).unwrap_or("all");
    let all = exp == "all";
    let results = Path::new("results");

    let opamp = opamp_workload(2).expect("op-amp workload");
    let lines = lines_workload(1000).expect("lines workload");

    if all || exp == "eq5" {
        eq5();
    }
    if all || exp == "eq14" {
        eq14(&opamp);
    }
    if all || exp == "fig4" {
        fig4(&opamp, results);
    }
    if all || exp == "fig5" {
        fig5(&opamp, results);
    }
    if all || exp == "table1" {
        table1(&opamp);
    }
    if all || exp == "fig6" {
        fig6(&opamp, results);
    }
    if all || exp == "fig7" {
        fig7(&opamp, results);
    }
    if all || exp == "eq16" {
        eq16(&lines);
    }
    if all || exp == "fig9" {
        fig9(&lines, results);
    }
    if all || exp == "fig10" {
        fig10(&lines, results);
    }
    if all || exp == "timings" {
        timings(&opamp, &lines);
    }
    if all || exp == "awevsspice" {
        awe_vs_spice();
    }
    if all || exp == "validate" {
        validate(&opamp);
    }
    if !all
        && ![
            "eq5",
            "eq14",
            "fig4",
            "fig5",
            "table1",
            "fig6",
            "fig7",
            "eq16",
            "fig9",
            "fig10",
            "timings",
            "awevsspice",
            "validate",
        ]
        .contains(&exp)
    {
        eprintln!("unknown experiment '{exp}'");
        std::process::exit(2);
    }
}

/// §2.3: validating the symbol choice over the range spanned by the
/// symbols — "once the symbolic functions have been compiled, the cost of
/// validation is low".
fn validate(opamp: &OpAmpWorkload) {
    banner("§2.3 validation: compiled model vs full re-analysis over the range");
    use awesymbolic::SymbolBinding;
    let bindings = [
        SymbolBinding::conductance(
            "g_out_q14",
            vec![opamp.circuit.find("ro_q14").expect("ro_q14")],
        ),
        SymbolBinding::capacitance(
            "c_comp",
            vec![opamp.circuit.find("c_comp").expect("c_comp")],
        ),
    ];
    for span in [2.0, 5.0, 25.0] {
        let t0 = std::time::Instant::now();
        let err = opamp
            .model
            .validate_over_range(&opamp.circuit, opamp.input, opamp.output, &bindings, span)
            .expect("validation");
        println!(
            "  span {span:>5}x : max relative moment error {err:.3e}  ({:.1} ms)",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
}

fn banner(s: &str) {
    println!("\n=== {s} ===");
}

/// Eq. (5)/(6): exact symbolic transfer function of the Fig. 1 circuit.
fn eq5() {
    banner("eq. (5)/(6): exact symbolic forms of the Fig. 1 RC circuit");
    let w = generators::fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
    let c = &w.circuit;
    let all = [
        SymbolBinding::conductance("G1", vec![c.find("R1").unwrap()]),
        SymbolBinding::conductance("G2", vec![c.find("R2").unwrap()]),
        SymbolBinding::capacitance("C1", vec![c.find("C1").unwrap()]),
        SymbolBinding::capacitance("C2", vec![c.find("C2").unwrap()]),
    ];
    let h = exact::exact_transfer(c, w.input, w.output, &all).expect("exact");
    print_exact("full symbolic (eq. 5)", &h, &["G1", "G2", "C1", "C2"]);

    // Eq. 6: G1 fixed at 5 S.
    let w6 = generators::fig1_rc(5.0, 1e-3, 1e-9, 1e-9);
    let c6 = &w6.circuit;
    let mixed = [
        SymbolBinding::conductance("G2", vec![c6.find("R2").unwrap()]),
        SymbolBinding::capacitance("C1", vec![c6.find("C1").unwrap()]),
        SymbolBinding::capacitance("C2", vec![c6.find("C2").unwrap()]),
    ];
    let h6 = exact::exact_transfer(c6, w6.input, w6.output, &mixed).expect("exact");
    print_exact(
        "mixed numeric-symbolic, G1 = 5 (eq. 6)",
        &h6,
        &["G2", "C1", "C2"],
    );
}

fn print_exact(title: &str, h: &exact::ExactTransfer, names: &[&str]) {
    println!("-- {title} --");
    let mut syms = awesymbolic::SymbolSet::new();
    for n in names {
        syms.intern(n);
    }
    println!("  numerator coefficients of s^k:");
    for (k, p) in h.coeffs_in_s(&h.num).iter().enumerate() {
        println!("    s^{k}: {}", p.display(&syms));
    }
    println!("  denominator coefficients of s^k:");
    for (k, p) in h.coeffs_in_s(&h.den).iter().enumerate() {
        println!("    s^{k}: {}", p.display(&syms));
    }
}

/// The symbolic moments of the 741 at order `q` over `[g_out_q14,
/// c_comp]`: what an order-`q` model of [`OpAmpWorkload`] lowers to its
/// tape.
fn opamp_moments(opamp: &OpAmpWorkload, q: usize) -> SymbolicMoments {
    SymbolicAwe::new(&opamp.circuit, opamp.input, opamp.output)
        .order(q)
        .symbol_named("g_out_q14", "ro_q14", SymbolRole::Conductance)
        .unwrap()
        .symbol_named("c_comp", "c_comp", SymbolRole::Capacitance)
        .unwrap()
        .moments()
        .expect("op-amp symbolic moments")
}

/// Eq. (14)/(15): first- and second-order symbolic forms of the 741.
fn eq14(opamp: &OpAmpWorkload) {
    banner("eq. (14)/(15): symbolic forms of the 741 (symbols g_out_q14, c_comp)");
    let f = opamp_moments(opamp, 1);
    println!("first order (eq. 14):");
    println!("  A0  = {}", f.dc_gain().display(&f.symbols));
    println!("  p1  = {}", f.first_order_pole().display(&f.symbols));
    // Second order: the paper prints P(x^i, y^j) shorthand; we print the
    // moment quotients the Padé consumes.
    println!("second order (eq. 15): moment quotients m_k = P_k / D^(k+1)");
    let f2 = opamp_moments(opamp, 2);
    for (k, pk) in f2.p.iter().enumerate() {
        println!(
            "  P{k}: {} terms, degrees (g, c) = ({}, {})",
            pk.num_terms(),
            pk.degree_in(awesym_symbolic::Sym(0)),
            pk.degree_in(awesym_symbolic::Sym(1))
        );
    }
    println!(
        "  D : {} terms; {}",
        f2.d.num_terms(),
        f2.d.display(&f2.symbols)
    );
    println!("  m0 text: {}", f2.moment_text(0));
}

fn opamp_grid(opamp: &OpAmpWorkload, n: usize) -> (Vec<f64>, Vec<f64>) {
    let g0 = opamp.model.nominal()[0];
    let c0 = opamp.model.nominal()[1];
    (log_grid(g0, 5.0, n), log_grid(c0, 5.0, n))
}

/// Fig. 4: first pole vs (g_out_q14, Ccomp) from the first-order form.
fn fig4(opamp: &OpAmpWorkload, results: &Path) {
    banner("Fig. 4: p1(g_out_q14, Ccomp) from the first-order symbolic form");
    let pole = opamp_moments(opamp, 1).first_order_pole();
    let (gs, cs) = opamp_grid(opamp, 21);
    write_surface_csv(
        &results.join("fig4_p1.csv"),
        "g_out_q14,c_comp,p1_rad_s",
        &gs,
        &cs,
        |g, c| pole.eval(&[g, c]),
    )
    .expect("csv");
    // Console sample: corners + center.
    for &g in [gs[0], gs[10], gs[20]].iter() {
        for &c in [cs[0], cs[10], cs[20]].iter() {
            println!(
                "  g={g:.3e} c={c:.3e}  p1 = {:.4e} rad/s",
                pole.eval(&[g, c])
            );
        }
    }
    println!("  -> results/fig4_p1.csv (21x21 surface)");
}

/// Fig. 5: DC gain vs symbols from the first-order form.
fn fig5(opamp: &OpAmpWorkload, results: &Path) {
    banner("Fig. 5: DC gain(g_out_q14, Ccomp) from the symbolic form");
    let a0 = opamp_moments(opamp, 2).dc_gain();
    let (gs, cs) = opamp_grid(opamp, 21);
    write_surface_csv(
        &results.join("fig5_dcgain.csv"),
        "g_out_q14,c_comp,a0",
        &gs,
        &cs,
        |g, c| a0.eval(&[g, c]),
    )
    .expect("csv");
    for &g in [gs[0], gs[20]].iter() {
        for &c in [cs[0], cs[20]].iter() {
            println!(
                "  g={g:.3e} c={c:.3e}  A0 = {:.2} dB",
                20.0 * a0.eval(&[g, c]).abs().log10()
            );
        }
    }
    println!("  -> results/fig5_dcgain.csv");
}

/// Table 1: run time for multiple datapoints, AWE vs AWEsymbolic.
fn table1(opamp: &OpAmpWorkload) {
    banner("Table 1: multi-datapoint run times (741, symbols g_out_q14/Ccomp)");
    let g0 = opamp.model.nominal()[0];
    let c0 = opamp.model.nominal()[1];
    let points = |n: usize| -> Vec<[f64; 2]> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n.max(2) as f64;
                [g0 * (0.5 + t), c0 * (0.5 + t)]
            })
            .collect()
    };
    // Incremental (per-iteration) costs.
    let ev = opamp.model.evaluator();
    let mut out = vec![0.0; ev.n_outputs()];
    let t_eval = time_median(5, || {
        for p in points(1000) {
            ev.eval_into(&p, &mut out);
        }
    }) / 1000.0;
    let t_awe = time_median(3, || {
        full_awe_moments(
            &opamp.circuit,
            &[(opamp.ro_q14, 1.0 / g0), (opamp.c_comp, c0)],
            opamp.input,
            opamp.output,
            4,
        )
    });
    let compile = opamp.compile_time.as_secs_f64();
    println!(
        "  per-iteration: AWE {:.3} ms, AWEsymbolic {:.3} µs  (ratio {:.0}x)",
        t_awe * 1e3,
        t_eval * 1e6,
        t_awe / t_eval
    );
    println!(
        "\n  {:>10} {:>14} {:>16}",
        "datapoints", "AWE (s)", "AWEsymbolic (s)"
    );
    for n in [10usize, 100, 1000] {
        let awe_total = t_awe * n as f64;
        let sym_total = compile + t_eval * n as f64;
        println!("  {n:>10} {awe_total:>14.4} {sym_total:>16.4}");
    }
    println!(
        "  (AWEsymbolic column includes the one-time {:.3} s compile)",
        compile
    );
}

/// Fig. 6: unity-gain frequency surface from the second-order model.
fn fig6(opamp: &OpAmpWorkload, results: &Path) {
    banner("Fig. 6: unity-gain frequency(g_out_q14, Ccomp), 2nd-order model");
    let (gs, cs) = opamp_grid(opamp, 15);
    write_surface_csv(
        &results.join("fig6_fu.csv"),
        "g_out_q14,c_comp,fu_hz",
        &gs,
        &cs,
        |g, c| {
            opamp
                .model
                .unity_gain_freq(&[g, c])
                .ok()
                .flatten()
                .unwrap_or(f64::NAN)
        },
    )
    .expect("csv");
    for &c in [cs[0], cs[7], cs[14]].iter() {
        let fu = opamp
            .model
            .unity_gain_freq(&[gs[7], c])
            .unwrap()
            .unwrap_or(f64::NAN);
        println!("  c_comp={c:.3e}  fu = {fu:.4e} Hz");
    }
    println!("  -> results/fig6_fu.csv");
}

/// Fig. 7: phase margin surface from the second-order model.
fn fig7(opamp: &OpAmpWorkload, results: &Path) {
    banner("Fig. 7: phase margin(g_out_q14, Ccomp), 2nd-order model");
    let (gs, cs) = opamp_grid(opamp, 15);
    write_surface_csv(
        &results.join("fig7_pm.csv"),
        "g_out_q14,c_comp,pm_deg",
        &gs,
        &cs,
        |g, c| {
            opamp
                .model
                .phase_margin(&[g, c])
                .ok()
                .flatten()
                .unwrap_or(f64::NAN)
        },
    )
    .expect("csv");
    for &c in [cs[0], cs[7], cs[14]].iter() {
        let pm = opamp
            .model
            .phase_margin(&[gs[7], c])
            .unwrap()
            .unwrap_or(f64::NAN);
        println!("  c_comp={c:.3e}  PM = {pm:.1} deg");
    }
    println!("  -> results/fig7_pm.csv");
}

/// Eq. (16)/(17): symbolic forms of the coupled-line models.
fn eq16(lines: &LinesWorkload) {
    banner("eq. (16)/(17): coupled-line symbolic forms (symbols rdrv, cload)");
    // The moments `lines.direct` and `lines.crosstalk` lowered to tapes.
    let moments = |output, q| {
        SymbolicAwe::new(&lines.circuit, lines.input, output)
            .order(q)
            .symbol(SymbolBinding::resistance("rdrv", lines.rdrv.to_vec()))
            .symbol(SymbolBinding::capacitance("cload", lines.cload.to_vec()))
            .moments()
            .expect("coupled-line symbolic moments")
    };
    let fd = moments(lines.aggressor_out, 1);
    println!("direct transmission, first order (eq. 16):");
    println!("  A0 = {}", fd.dc_gain().display(&fd.symbols));
    println!("  p1 = {}", fd.first_order_pole().display(&fd.symbols));
    let fx = moments(lines.victim_out, 2);
    println!("cross-coupling, second order (eq. 17): m_k = P_k / D^(k+1)");
    for k in 0..fx.p.len() {
        println!("  P{k}: {} terms", fx.p[k].num_terms());
    }
    println!("  D : {} terms", fx.d.num_terms());
}

/// Fig. 9: cross-talk step response as the driver resistance varies.
fn fig9(lines: &LinesWorkload, results: &Path) {
    banner("Fig. 9: cross-talk transient as Rdriver varies (Cload nominal)");
    let r0 = lines.spec.rdrv;
    let c0 = lines.spec.cload;
    let rset: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0].iter().map(|s| s * r0).collect();
    let ts: Vec<f64> = (0..200).map(|i| i as f64 * 2e-11).collect();
    let mut series = Vec::new();
    for &r in &rset {
        series.push(lines.crosstalk.step_response(&[r, c0], &ts).expect("step"));
    }
    write_series_csv(
        &results.join("fig9_xtalk_vs_rdrv.csv"),
        "t_s,r0.25x,r0.5x,r1x,r2x,r4x",
        &ts,
        &series,
    )
    .expect("csv");
    for (r, s) in rset.iter().zip(series.iter()) {
        let peak = s
            .iter()
            .cloned()
            .fold(0.0f64, |a, b| if b.abs() > a.abs() { b } else { a });
        println!("  Rdrv = {r:>6.1} Ω  peak cross-talk = {peak:+.4e} V");
    }
    println!("  -> results/fig9_xtalk_vs_rdrv.csv");
}

/// Fig. 10: cross-talk step response as the load capacitance varies.
fn fig10(lines: &LinesWorkload, results: &Path) {
    banner("Fig. 10: cross-talk transient as Cload varies (Rdrv nominal)");
    let r0 = lines.spec.rdrv;
    let c0 = lines.spec.cload;
    let cset: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0].iter().map(|s| s * c0).collect();
    let ts: Vec<f64> = (0..200).map(|i| i as f64 * 2e-11).collect();
    let mut series = Vec::new();
    for &c in &cset {
        series.push(lines.crosstalk.step_response(&[r0, c], &ts).expect("step"));
    }
    write_series_csv(
        &results.join("fig10_xtalk_vs_cload.csv"),
        "t_s,c0.25x,c0.5x,c1x,c2x,c4x",
        &ts,
        &series,
    )
    .expect("csv");
    for (c, s) in cset.iter().zip(series.iter()) {
        let peak = s
            .iter()
            .cloned()
            .fold(0.0f64, |a, b| if b.abs() > a.abs() { b } else { a });
        println!("  Cload = {c:>9.3e} F  peak cross-talk = {peak:+.4e} V");
    }
    println!("  -> results/fig10_xtalk_vs_cload.csv");
}

/// §3.1/§3.2 text timings.
fn timings(opamp: &OpAmpWorkload, lines: &LinesWorkload) {
    banner("text timings (§3.1 op-amp, §3.2 coupled lines)");
    // Op-amp.
    let g0 = opamp.model.nominal()[0];
    let c0 = opamp.model.nominal()[1];
    let ev = opamp.model.evaluator();
    let mut out = vec![0.0; ev.n_outputs()];
    let t_eval = time_median(5, || {
        for i in 0..1000 {
            let f = 0.5 + i as f64 / 1000.0;
            ev.eval_into(&[g0 * f, c0 * f], &mut out);
        }
    }) / 1000.0;
    let t_awe = time_median(3, || {
        full_awe_moments(
            &opamp.circuit,
            &[(opamp.ro_q14, 1.0 / g0)],
            opamp.input,
            opamp.output,
            4,
        )
    });
    println!("op-amp (paper: compile 3.03 s, eval 0.37 µs, AWE 80.4 ms):");
    println!(
        "  compile {:.4} s | eval {:.3} µs | full AWE {:.2} ms | per-iter ratio {:.0}x",
        opamp.compile_time.as_secs_f64(),
        t_eval * 1e6,
        t_awe * 1e3,
        t_awe / t_eval
    );

    // Lines.
    let r0 = lines.spec.rdrv;
    let cl0 = lines.spec.cload;
    let ev_l = lines.crosstalk.evaluator();
    let mut out_l = vec![0.0; ev_l.n_outputs()];
    let t_eval_l = time_median(3, || {
        for i in 0..200 {
            let f = 0.5 + i as f64 / 200.0;
            ev_l.eval_into(&[r0 * f, cl0 * f], &mut out_l);
        }
    }) / 200.0;
    let t_awe_l = time_median(3, || {
        full_awe_moments(
            &lines.circuit,
            &[(lines.rdrv[0], r0 * 1.1), (lines.rdrv[1], r0 * 1.1)],
            lines.input,
            lines.victim_out,
            4,
        )
    });
    println!("coupled lines (paper: AWE 1.12 s, compile 5.41 s, incremental 0.11 ms):");
    println!(
        "  compile {:.3} s | eval {:.3} µs | full AWE {:.1} ms | per-iter ratio {:.0}x",
        lines.compile_time.as_secs_f64(),
        t_eval_l * 1e6,
        t_awe_l * 1e3,
        t_awe_l / t_eval_l
    );
}

/// The AWE-vs-traditional-simulation claim (§1: AWE is more than an order
/// of magnitude faster than SPICE-class transient analysis).
fn awe_vs_spice() {
    banner("AWE vs transient baseline (paper: AWE >= 10x faster than SPICE)");
    for n in [100usize, 400, 1000] {
        let w = generators::rc_ladder(n, 10.0, 0.1e-12);
        let mna = Mna::build(&w.circuit).expect("mna");
        let awe = AweAnalysis::new(&w.circuit, w.input, w.output).expect("awe");
        let rom = awe.rom_stable(3).expect("rom");
        let tau = 1.0 / rom.dominant_pole().unwrap().abs();
        let t_awe = time_median(3, || {
            let a = AweAnalysis::new(&w.circuit, w.input, w.output).unwrap();
            a.rom_stable(3).unwrap()
        });
        let t_tran = time_median(1, || {
            transient(
                &mna,
                w.input,
                &Waveform::Step { amplitude: 1.0 },
                &TransientOptions {
                    t_stop: 5.0 * tau,
                    dt: tau / 200.0,
                    method: IntegrationMethod::Trapezoidal,
                },
                &[w.output],
            )
            .unwrap()
        });
        println!(
            "  ladder n={n:>5}: AWE {:.3} ms | transient {:.3} ms | ratio {:.1}x",
            t_awe * 1e3,
            t_tran * 1e3,
            t_tran / t_awe
        );
    }
}
