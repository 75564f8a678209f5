//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! - moment-level partitioning vs exact symbolic analysis (compile cost);
//! - full symbolic moments vs the derivative-based partial Padé;
//! - moment scaling on/off in the Padé step (robustness, measured as cost
//!   of the extra work);
//! - minimum-degree vs natural ordering in the sparse LU.

use awesym_circuit::generators::{fig1_rc, rc_ladder, rc_mesh};
use awesym_mna::Mna;
use awesym_partition::{exact, CompiledModel, ModelOptions, SymbolBinding};
use awesym_sparse::{LuOptions, Ordering, SparseLu};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_partitioned_vs_exact(c: &mut Criterion) {
    // On a circuit small enough for the exact path, compare the cost of
    // compiling the partitioned model against deriving the exact symbolic
    // transfer function.
    let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let ckt = w.circuit.clone();
    let bindings = [
        SymbolBinding::capacitance("c1", vec![ckt.find("C1").unwrap()]),
        SymbolBinding::capacitance("c2", vec![ckt.find("C2").unwrap()]),
    ];
    let mut group = c.benchmark_group("symbolic_analysis_cost");
    group.bench_function("partitioned_compile_order2", |b| {
        b.iter(|| black_box(CompiledModel::build(&ckt, w.input, w.output, &bindings, 2).unwrap()))
    });
    group.bench_function("exact_symbolic_transfer", |b| {
        b.iter(|| black_box(exact::exact_transfer(&ckt, w.input, w.output, &bindings).unwrap()))
    });
    group.finish();
}

fn bench_partial_pade(c: &mut Criterion) {
    let amp = awesym_circuit::generators::opamp741();
    let bindings = [
        SymbolBinding::conductance("g", vec![amp.ro_q14]),
        SymbolBinding::capacitance("c", vec![amp.c_comp]),
    ];
    let mut group = c.benchmark_group("partial_pade_compile");
    group.sample_size(20);
    for k_sym in [2usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k_sym), &k_sym, |b, &k| {
            b.iter(|| {
                black_box(
                    CompiledModel::build_with_options(
                        &amp.circuit,
                        amp.input,
                        amp.output,
                        &bindings,
                        ModelOptions::order(2).with_symbolic_moments(k),
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_pade_scaling(c: &mut Criterion) {
    let poles = [-1e4, -1e7, -1e10];
    let res = [1.0, 10.0, 100.0];
    let moments: Vec<f64> = (0..6)
        .map(|j| {
            -poles
                .iter()
                .zip(res.iter())
                .map(|(&p, &k): (&f64, &f64)| k / p.powi(j + 1))
                .sum::<f64>()
        })
        .collect();
    let mut group = c.benchmark_group("pade_moment_scaling");
    group.bench_function("scaled", |b| {
        b.iter(|| black_box(awesym_awe::pade_rom(black_box(&moments), 3, true)))
    });
    group.bench_function("unscaled", |b| {
        b.iter(|| black_box(awesym_awe::pade_rom(black_box(&moments), 3, false)))
    });
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    // A ladder is fill-free in natural order; a mesh fills in, and there
    // the ordering's clique updates dominate its cost.
    let graphs = [
        ("ladder2000", rc_ladder(2000, 10.0, 1e-12)),
        ("mesh30x30", rc_mesh(30, 30, 10.0, 1e-15)),
    ];
    let mut group = c.benchmark_group("lu_ordering");
    group.sample_size(20);
    for (graph, w) in &graphs {
        let mna = Mna::build(&w.circuit).unwrap();
        for (name, ord) in [
            ("min_degree", Ordering::MinDegree),
            ("natural", Ordering::Natural),
        ] {
            group.bench_function(BenchmarkId::new(graph, name), |b| {
                b.iter(|| {
                    black_box(
                        SparseLu::factor(
                            mna.g(),
                            LuOptions {
                                ordering: ord,
                                ..Default::default()
                            },
                        )
                        .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_multi_output_sharing(c: &mut Criterion) {
    // One shared assembly for both coupled-line outputs vs two separate
    // builds: the shared path should approach half the cost.
    use awesym_circuit::generators::{coupled_lines, CoupledLineSpec};
    use awesym_mna::Probe;
    let spec = CoupledLineSpec {
        segments: 300,
        ..Default::default()
    };
    let lines = coupled_lines(&spec);
    let bindings = [
        SymbolBinding::resistance("rdrv", lines.rdrv.to_vec()),
        SymbolBinding::capacitance("cload", lines.cload.to_vec()),
    ];
    let probes = [
        Probe::NodeVoltage(lines.aggressor_out),
        Probe::NodeVoltage(lines.victim_out),
    ];
    let mut group = c.benchmark_group("multi_output_compile");
    group.sample_size(10);
    group.bench_function("shared_two_outputs", |b| {
        b.iter(|| {
            black_box(
                CompiledModel::build_multi(
                    &lines.circuit,
                    lines.input,
                    &probes,
                    &bindings,
                    ModelOptions::order(2),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("separate_two_builds", |b| {
        b.iter(|| {
            let a = CompiledModel::build(
                &lines.circuit,
                lines.input,
                lines.aggressor_out,
                &bindings,
                2,
            )
            .unwrap();
            let v =
                CompiledModel::build(&lines.circuit, lines.input, lines.victim_out, &bindings, 2)
                    .unwrap();
            black_box((a, v))
        })
    });
    group.finish();
}

fn bench_newton(c: &mut Criterion) {
    use awesym_circuit::{Circuit, Element};
    use awesym_nonlinear::{BjtParams, Device, NonlinearCircuit};
    // A chain of N common-emitter stages — Newton cost vs device count.
    let mut group = c.benchmark_group("newton_dc");
    group.sample_size(20);
    for n in [2usize, 8, 32] {
        let mut lin = Circuit::new();
        let vcc = lin.node("vcc");
        lin.add(Element::vsource("VCC", vcc, Circuit::GROUND, 10.0));
        let vb = lin.node("vb");
        lin.add(Element::vsource("VB", vb, Circuit::GROUND, 1.0));
        let mut ckt_devices = Vec::new();
        for i in 0..n {
            let b = lin.node(&format!("b{i}"));
            let col = lin.node(&format!("c{i}"));
            let e = lin.node(&format!("e{i}"));
            lin.add(Element::resistor(&format!("rb{i}"), vb, b, 100.0));
            lin.add(Element::resistor(&format!("rc{i}"), vcc, col, 2e3));
            lin.add(Element::resistor(
                &format!("re{i}"),
                e,
                Circuit::GROUND,
                330.0,
            ));
            ckt_devices.push((format!("q{i}"), b, col, e));
        }
        let mut ckt = NonlinearCircuit::new(lin);
        for (name, b, col, e) in ckt_devices {
            ckt.add(Device::npn(&name, b, col, e, BjtParams::default()));
        }
        group.bench_with_input(criterion::BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(ckt.dc_operating_point().unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioned_vs_exact,
    bench_partial_pade,
    bench_pade_scaling,
    bench_ordering,
    bench_multi_output_sharing,
    bench_newton
);
criterion_main!(benches);
