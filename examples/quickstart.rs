//! Quickstart: the paper's Fig. 1 RC circuit.
//!
//! Reproduces eq. (5) (full symbolic transfer function) and eq. (6)
//! (mixed numeric-symbolic form), then compiles an AWEsymbolic model and
//! shows that evaluating it anywhere in the symbol space matches a fresh
//! full analysis.
//!
//! Run with: `cargo run --example quickstart`

use awesymbolic::prelude::*;
use awesymbolic::{exact, PartitionError};

fn main() -> Result<(), PartitionError> {
    // Fig. 1: vin —R1— n1 —R2— n2, C1 at n1, C2 at n2, output v(n2).
    let w = generators::fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
    let c = &w.circuit;

    println!("== Exact symbolic analysis (paper eq. 5) ==");
    let bindings = [
        SymbolBinding::conductance("G1", vec![c.find("R1").unwrap()]),
        SymbolBinding::conductance("G2", vec![c.find("R2").unwrap()]),
        SymbolBinding::capacitance("C1", vec![c.find("C1").unwrap()]),
        SymbolBinding::capacitance("C2", vec![c.find("C2").unwrap()]),
    ];
    let h = exact::exact_transfer(c, w.input, w.output, &bindings)?;
    let num_c = h.coeffs_in_s(&h.num);
    let den_c = h.coeffs_in_s(&h.den);
    let elem_syms = {
        // Element symbols only (drop the trailing `s`).
        let mut s = awesymbolic::SymbolSet::new();
        for name in ["G1", "G2", "C1", "C2"] {
            s.intern(name);
        }
        s
    };
    println!("H(s) numerator:");
    for (k, p) in num_c.iter().enumerate() {
        println!("  s^{k}: {}", p.display(&elem_syms));
    }
    println!("H(s) denominator:");
    for (k, p) in den_c.iter().enumerate() {
        println!("  s^{k}: {}", p.display(&elem_syms));
    }

    println!("\n== Compiled AWEsymbolic model (C1, R2 symbolic) ==");
    let awe = SymbolicAwe::new(c, w.input, w.output)
        .order(2)
        .symbol_named("c1", "C1", SymbolRole::Capacitance)?
        .symbol_named("r2", "R2", SymbolRole::Resistance)?;
    // The compiled model keeps only its tape; the closed forms come from
    // the symbolic moments that tape was lowered from.
    let forms = awe.moments()?;
    let model = awe.compile()?;
    println!(
        "compiled: {} symbols, order {}, {} tape ops",
        model.symbols().len(),
        model.order(),
        model.op_count()
    );
    println!("DC gain  : {}", forms.dc_gain().display(&forms.symbols));
    println!(
        "1st-order pole: {}",
        forms.first_order_pole().display(&forms.symbols)
    );

    println!("\nEvaluating the compiled model across the symbol space:");
    println!(
        "{:>12} {:>12} {:>16} {:>16}",
        "C1 (F)", "R2 (Ω)", "pole 1 (rad/s)", "pole 2 (rad/s)"
    );
    for c1 in [0.5e-9, 1e-9, 2e-9] {
        for r2 in [500.0, 1e3, 2e3] {
            let rom = model.rom(&[c1, r2])?;
            let mut poles: Vec<f64> = rom.poles().iter().map(|p| p.re).collect();
            poles.sort_by(f64::total_cmp);
            println!(
                "{c1:>12.2e} {r2:>12.0} {:>16.4e} {:>16.4e}",
                poles[1], poles[0]
            );
        }
    }
    Ok(())
}
