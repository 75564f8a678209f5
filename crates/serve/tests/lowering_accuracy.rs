//! The nested moment lowering against full numeric AWE.
//!
//! At `OptLevel::Full` a model's tape nests each moment polynomial and
//! shares one reciprocal of `D` across the moments; `OptLevel::None`
//! keeps the term-by-term lowering with one division per moment. Both
//! round differently. Every bundled and fleet model is compiled both
//! ways and evaluated at seeded interior points of its ±2x symbol box,
//! and each moment is compared with a full numeric AWE analysis of the
//! circuit with the symbol values substituted (`apply_symbol_values` +
//! `AweAnalysis::moments`). Per model and moment, the nested tape's worst
//! relative error must be no worse than the naive tape's; a moment whose
//! reference is zero is compared absolutely.
//!
//! A release build checks 10^4 points per model (`scripts/ci.sh` runs it
//! so); a debug build checks fewer, to keep the debug suite quick.

mod common;

use awesym_awe::AweAnalysis;
use awesym_circuit::generators;
use awesym_partition::{apply_symbol_values, CompiledModel, OptLevel, SymbolBinding};
use common::{compiles, Compile, Parsed};

/// Points per model.
const POINTS: usize = if cfg!(debug_assertions) { 100 } else { 10_000 };

/// How far the nested tape's worst error may exceed the naive tape's: a
/// few units of rounding. The two tapes agree to about 1e-15 relative,
/// while the reference's own error reaches 1e-13 on some models, so a
/// worst error the reference sets can tip either way by that much; a
/// lowering that lost accuracy would miss by orders of magnitude more.
const SLACK: f64 = 4.0 * f64::EPSILON;

/// Seeded uniform draws in `[0, 1)` (splitmix64).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The error of `got` against the reference `want`: relative, or absolute
/// when the reference is zero.
fn error(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        got.abs()
    } else {
        ((got - want) / want).abs()
    }
}

/// Worst error per moment of the naive and the nested tape of one model.
fn worst_errors(name: &str, p: &Parsed, order: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let build = |level| {
        let opts = awesym_partition::ModelOptions::order(order).with_opt_level(level);
        CompiledModel::build_with_options(&p.circuit, p.input, p.output, &p.bindings, opts).unwrap()
    };
    let (naive, nested) = (build(OptLevel::None), build(OptLevel::Full));
    let nominal = nested.nominal().to_vec();
    let mut draws = Draws(seed);
    let (mut worst_naive, mut worst_nested) = (vec![0.0f64; 2 * order], vec![0.0f64; 2 * order]);
    for _ in 0..POINTS {
        // Log-uniform in the open box [nominal / 2, 2 · nominal].
        let vals: Vec<f64> = nominal
            .iter()
            .map(|&v| v * 2f64.powf(2.0 * draws.next() - 1.0))
            .collect();
        let circuit = apply_symbol_values(&p.circuit, &p.bindings, &vals);
        let reference = AweAnalysis::new(&circuit, p.input, p.output)
            .and_then(|awe| awe.moments(2 * order))
            .unwrap_or_else(|e| panic!("{name}: numeric AWE at {vals:?}: {e}"))
            .m;
        for (worst, model) in [(&mut worst_naive, &naive), (&mut worst_nested, &nested)] {
            for ((w, got), want) in worst
                .iter_mut()
                .zip(model.eval_moments(&vals))
                .zip(&reference)
            {
                *w = w.max(error(got, *want));
            }
        }
    }
    (worst_naive, worst_nested)
}

/// The bundled example circuits, with the symbols `tests/props.rs` gives
/// them, as fleet-style compiles.
fn bundled() -> Vec<(&'static str, Parsed, usize)> {
    let w = generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let fig1 = vec![
        SymbolBinding::capacitance("c1", vec![w.circuit.find("C1").unwrap()]),
        SymbolBinding::resistance("r2", vec![w.circuit.find("R2").unwrap()]),
    ];
    let amp = generators::opamp741();
    let opamp = vec![
        SymbolBinding::conductance("g_out_q14", vec![amp.ro_q14]),
        SymbolBinding::capacitance("c_comp", vec![amp.c_comp]),
    ];
    let lines = generators::coupled_lines(&generators::CoupledLineSpec {
        segments: 40,
        ..Default::default()
    });
    let coupled = vec![
        SymbolBinding::resistance("rdrv", lines.rdrv.to_vec()),
        SymbolBinding::capacitance("cload", lines.cload.to_vec()),
    ];
    let parsed = |circuit, input, output, bindings| Parsed {
        circuit,
        input,
        output,
        bindings,
    };
    vec![
        ("fig1_rc", parsed(w.circuit, w.input, w.output, fig1), 2),
        (
            "opamp741",
            parsed(amp.circuit, amp.input, amp.output, opamp),
            2,
        ),
        (
            "coupled_lines_40seg",
            parsed(lines.circuit, lines.input, lines.victim_out, coupled),
            2,
        ),
    ]
}

#[test]
fn nested_lowering_is_no_less_accurate_than_the_naive_one() {
    let fleet = compiles()
        .into_iter()
        .map(|c: Compile| (c.name, c.parse(), c.order));
    let mut worse = Vec::new();
    for (seed, (name, parsed, order)) in bundled().into_iter().chain(fleet).enumerate() {
        let (naive, nested) = worst_errors(name, &parsed, order, seed as u64 + 1);
        let show = |w: &[f64]| {
            w.iter()
                .map(|e| format!("{e:.1e}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{name}: {POINTS} points, worst error per moment, naive [{}], nested [{}]",
            show(&naive),
            show(&nested)
        );
        for (k, (a, b)) in naive.iter().zip(&nested).enumerate() {
            if b > &(a + SLACK) {
                worse.push(format!("{name} m{k}: nested {b:e} > naive {a:e}"));
            }
        }
    }
    assert!(worse.is_empty(), "{worse:#?}");
}
