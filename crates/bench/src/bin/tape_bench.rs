//! Tape-optimizer benchmark: op counts before/after the pass pipeline,
//! single-point latency, SoA batch throughput, and the vectorized lane
//! kernel (`simd` section) on the bundled example netlists (fig. 1 RC,
//! §3.1 op-amp, §3.2 coupled lines).
//!
//! Emits `results/BENCH_tape.json` and exits non-zero when any gate
//! fails: ≥ 20 % op-count reduction, optimized/unoptimized agreement to
//! 1e-12 relative, batch throughput ≥ 1.3× the pre-optimizer
//! single-point path, and — on the op-heaviest case — the lane kernel
//! ≥ 1.5× over the scalar SoA reference (`eval_batch_soa_ref`), with
//! lane outputs asserted bit-identical to the reference.
//!
//! ```sh
//! cargo run --release -p awesym-bench --bin tape_bench [-- --smoke]
//! ```

use awesym_bench::time_min;
use awesymbolic::prelude::*;
use awesymbolic::{ModelOptions, OptLevel, SymbolRole};
use std::fmt::Write as _;
use std::path::Path;

const MIN_REDUCTION_PCT: f64 = 20.0;
const MIN_BATCH_SPEEDUP: f64 = 1.3;
/// Lane-kernel floor over the scalar SoA reference, enforced on the
/// op-heaviest case (where the hoisted-load/tiling win is largest).
const MIN_SIMD_SPEEDUP: f64 = 1.5;
const TOL: f64 = 1e-12;

struct Case {
    name: String,
    /// Compiled at [`OptLevel::None`] — the pre-optimizer tape.
    raw: CompiledModel,
    /// Compiled at [`OptLevel::Full`].
    opt: CompiledModel,
}

struct CaseResult {
    name: String,
    raw_ops: usize,
    opt_ops: usize,
    reduction_pct: f64,
    max_rel_err: f64,
    pre_ns: f64,
    eval_ns: f64,
    batch_ns: f64,
    batch_speedup: f64,
    pass: bool,
    failures: Vec<String>,
}

fn build_cases(segments: usize) -> Vec<Case> {
    let mut cases = Vec::new();

    // Fig. 1 RC network, two symbols.
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
        .expect("fig1_rc model")
    };
    cases.push(Case {
        name: "fig1_rc_order2".into(),
        raw: build(OptLevel::None),
        opt: build(OptLevel::Full),
    });

    // §3.1 linearized 741, two symbols.
    let amp = generators::opamp741();
    let build = |level| {
        SymbolicAwe::new(&amp.circuit, amp.input, amp.output)
            .order(2)
            .opt_level(level)
            .symbol_named("g_out_q14", "ro_q14", SymbolRole::Conductance)
            .and_then(|b| b.symbol_named("c_comp", "c_comp", SymbolRole::Capacitance))
            .and_then(SymbolicAwe::compile)
            .expect("opamp model")
    };
    cases.push(Case {
        name: "opamp741_order2".into(),
        raw: build(OptLevel::None),
        opt: build(OptLevel::Full),
    });

    // §3.2 coupled lines, cross-talk output, two symbols.
    let spec = generators::CoupledLineSpec {
        segments,
        ..Default::default()
    };
    let lines = generators::coupled_lines(&spec);
    let build = |level| {
        SymbolicAwe::new(&lines.circuit, lines.input, lines.victim_out)
            .order(2)
            .opt_level(level)
            .symbol(SymbolBinding::resistance("rdrv", lines.rdrv.to_vec()))
            .symbol(SymbolBinding::capacitance("cload", lines.cload.to_vec()))
            .compile()
            .expect("lines model")
    };
    cases.push(Case {
        name: format!("coupled_lines_{segments}seg_crosstalk"),
        raw: build(OptLevel::None),
        opt: build(OptLevel::Full),
    });

    cases
}

struct SimdResult {
    name: String,
    opt_ops: usize,
    /// Whether this case carries the ≥ 1.5x gate (the op-heaviest one).
    gated: bool,
    soa_ns: f64,
    lanes_ns: f64,
    speedup: f64,
    pass: bool,
    failures: Vec<String>,
}

/// Times the scalar SoA reference against the lane kernel and asserts
/// the lane outputs bit-identical to the reference. The
/// ≥ [`MIN_SIMD_SPEEDUP`] floor applies on the gated case only.
fn run_simd_case(case: &Case, n_points: usize, reps: usize, gated: bool) -> SimdResult {
    let pts = make_points(&case.opt, n_points);
    let n = pts.len() as f64;
    let ev = case.opt.evaluator();
    let n_out = ev.n_outputs();
    let mut flat = vec![0.0; pts.len() * n_out];

    // Min-of-reps: the gate below is a ratio of two measurements, and
    // median-of-reps left enough independent noise on each side to swing
    // the quotient across the floor run to run on a shared host.
    let t_soa = time_min(reps, || {
        ev.eval_batch_soa_ref(&pts, &mut flat).expect("soa shapes");
        flat[0]
    }) / n;
    let reference = flat.clone();

    let t_lanes = time_min(reps, || {
        ev.eval_batch(&pts, &mut flat);
        flat[0]
    }) / n;
    let mut failures = Vec::new();
    let diverged = flat
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    if diverged > 0 {
        failures.push(format!(
            "lane kernel diverged from the SoA reference in {diverged} output slots"
        ));
    }
    let speedup = t_soa / t_lanes;
    if gated && speedup < MIN_SIMD_SPEEDUP {
        failures.push(format!(
            "lane speedup {speedup:.2}x < {MIN_SIMD_SPEEDUP}x over the SoA reference"
        ));
    }
    SimdResult {
        name: case.name.clone(),
        opt_ops: case.opt.op_count(),
        gated,
        soa_ns: t_soa * 1e9,
        lanes_ns: t_lanes * 1e9,
        speedup,
        pass: failures.is_empty(),
        failures,
    }
}

/// Deterministic evaluation points spread log-style around nominal.
fn make_points(model: &CompiledModel, n: usize) -> Vec<Vec<f64>> {
    let nominal = model.nominal().to_vec();
    (0..n)
        .map(|i| {
            let t = i as f64 / n.max(2) as f64;
            nominal
                .iter()
                .enumerate()
                .map(|(s, &v)| v * 0.5 * 4.0_f64.powf((t + 0.13 * s as f64) % 1.0))
                .collect()
        })
        .collect()
}

/// The pre-optimizer single-point path: the unoptimized tape evaluated
/// one point at a time, with a fresh evaluator (and its scratch) built
/// for every point.
fn time_pre_pr(raw: &CompiledModel, points: &[Vec<f64>], reps: usize) -> f64 {
    let mut out = vec![0.0; 2 * raw.order()];
    time_min(reps, || {
        for p in points {
            raw.evaluator().eval_into(p, &mut out);
        }
        out[0]
    })
}

fn run_case(case: &Case, points: usize, reps: usize) -> CaseResult {
    let raw_ops = case.raw.op_count();
    let opt_ops = case.opt.op_count();
    assert_eq!(
        case.opt.raw_op_count(),
        raw_ops,
        "raw_op_count must match the OptLevel::None tape"
    );
    let reduction_pct = 100.0 * (1.0 - opt_ops as f64 / raw_ops as f64);

    // Agreement gate: optimized vs unoptimized moments, relative.
    let mut max_rel_err = 0.0f64;
    for p in make_points(&case.opt, 64) {
        let a = case.raw.eval_moments(&p);
        let b = case.opt.eval_moments(&p);
        for (x, y) in a.iter().zip(&b) {
            max_rel_err = max_rel_err.max((x - y).abs() / x.abs().max(1e-300));
        }
    }

    // Timings.
    let pts = make_points(&case.opt, points);
    let n = pts.len() as f64;
    let t_pre = time_pre_pr(&case.raw, &pts, reps) / n;
    let ev = case.opt.evaluator();
    let mut out = vec![0.0; ev.n_outputs()];
    let t_eval = time_min(reps, || {
        for p in &pts {
            ev.eval_into(p, &mut out);
        }
        out[0]
    }) / n;
    let mut flat = vec![0.0; pts.len() * ev.n_outputs()];
    let t_batch = time_min(reps, || {
        ev.eval_batch(&pts, &mut flat);
        flat[0]
    }) / n;
    let batch_speedup = t_pre / t_batch;

    let mut failures = Vec::new();
    if reduction_pct < MIN_REDUCTION_PCT {
        failures.push(format!(
            "op-count reduction {reduction_pct:.1}% < {MIN_REDUCTION_PCT}%"
        ));
    }
    if max_rel_err > TOL {
        failures.push(format!("max relative error {max_rel_err:.3e} > {TOL:e}"));
    }
    if batch_speedup < MIN_BATCH_SPEEDUP {
        failures.push(format!(
            "batch speedup {batch_speedup:.2}x < {MIN_BATCH_SPEEDUP}x"
        ));
    }

    CaseResult {
        name: case.name.clone(),
        raw_ops,
        opt_ops,
        reduction_pct,
        max_rel_err,
        pre_ns: t_pre * 1e9,
        eval_ns: t_eval * 1e9,
        batch_ns: t_batch * 1e9,
        batch_speedup,
        pass: failures.is_empty(),
        failures,
    }
}

/// The evaluator's own sampled profile (see `awesym_symbolic::profile`)
/// as a JSON object: ops/sec plus the per-op-kind mix, the evidence
/// behind the batch throughput number.
fn profile_json(indent: &str) -> String {
    let p = awesym_symbolic::profile::snapshot();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "{indent}  \"sampled_calls\": {},", p.sampled_calls);
    let _ = writeln!(s, "{indent}  \"sampled_points\": {},", p.points);
    let _ = writeln!(s, "{indent}  \"sampled_tape_ops\": {},", p.tape_ops);
    let _ = writeln!(s, "{indent}  \"sampled_nanos\": {},", p.nanos);
    let _ = writeln!(s, "{indent}  \"ops_per_sec\": {:e},", p.ops_per_sec());
    let _ = writeln!(s, "{indent}  \"points_per_sec\": {:e},", p.points_per_sec());
    s.push_str(indent);
    s.push_str("  \"ops_by_kind\": {");
    let mut first = true;
    for (kind, n) in p.ops_by_kind {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "\"{kind}\": {n}");
    }
    s.push_str("}\n");
    s.push_str(indent);
    s.push('}');
    s
}

fn simd_json(simd: &[SimdResult]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "    \"gates\": {{\"min_simd_speedup\": {MIN_SIMD_SPEEDUP}, \"reference\": \"eval_batch_soa_ref\"}},"
    );
    let _ = writeln!(s, "    \"pass\": {},", simd.iter().all(|r| r.pass));
    s.push_str("    \"cases\": [\n");
    for (i, r) in simd.iter().enumerate() {
        s.push_str("      {\n");
        let _ = writeln!(s, "        \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "        \"ops\": {},", r.opt_ops);
        let _ = writeln!(s, "        \"gated\": {},", r.gated);
        let _ = writeln!(s, "        \"soa_ns_per_point\": {:.1},", r.soa_ns);
        let _ = writeln!(s, "        \"lanes_ns_per_point\": {:.1},", r.lanes_ns);
        // The drift-tracked metric; its name predates the single block
        // size, and the committed baseline carries it.
        let _ = writeln!(
            s,
            "        \"lanes_best_points_per_sec\": {:e},",
            1e9 / r.lanes_ns
        );
        let _ = writeln!(s, "        \"speedup_lanes\": {:.3},", r.speedup);
        let _ = writeln!(s, "        \"pass\": {}", r.pass);
        let comma = if i + 1 < simd.len() { "," } else { "" };
        let _ = writeln!(s, "      }}{comma}");
    }
    s.push_str("    ]\n  }");
    s
}

fn json_report(points: usize, reps: usize, results: &[CaseResult], simd: &[SimdResult]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"tape\",");
    let _ = writeln!(s, "  \"points\": {points},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"evaluator_profile\": {},", profile_json("  "));
    let _ = writeln!(s, "  \"simd\": {},", simd_json(simd));
    let _ = writeln!(
        s,
        "  \"gates\": {{\"min_reduction_pct\": {MIN_REDUCTION_PCT}, \"min_batch_speedup\": {MIN_BATCH_SPEEDUP}, \"tolerance\": {TOL:e}}},"
    );
    let _ = writeln!(
        s,
        "  \"pass\": {},",
        results.iter().all(|r| r.pass) && simd.iter().all(|r| r.pass)
    );
    s.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"ops_before\": {},", r.raw_ops);
        let _ = writeln!(s, "      \"ops_after\": {},", r.opt_ops);
        let _ = writeln!(s, "      \"reduction_pct\": {:.2},", r.reduction_pct);
        let _ = writeln!(s, "      \"max_rel_err\": {:e},", r.max_rel_err);
        let _ = writeln!(s, "      \"single_point_ns_pre\": {:.1},", r.pre_ns);
        let _ = writeln!(s, "      \"single_point_ns_evaluator\": {:.1},", r.eval_ns);
        let _ = writeln!(s, "      \"batch_ns_per_point\": {:.1},", r.batch_ns);
        let _ = writeln!(s, "      \"batch_points_per_sec\": {:e},", 1e9 / r.batch_ns);
        let _ = writeln!(s, "      \"batch_speedup_vs_pre\": {:.3},", r.batch_speedup);
        let _ = writeln!(s, "      \"pass\": {}", r.pass);
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {}
            "--out" => {
                out_path = Some(
                    it.next()
                        .unwrap_or_else(|| panic!("--out needs a path"))
                        .clone(),
                )
            }
            bad => panic!("unknown argument '{bad}' (--smoke, --out PATH)"),
        }
    }
    // Full mode takes the min of 40 reps: each timed pass is only
    // ~100 µs, so reps are nearly free next to the workload compiles.
    // Every number here feeds a ratio (the in-run speedup gates, the
    // bench_gate ±15% drift comparison), and the median left enough
    // run-to-run scheduler noise to swing those quotients; the min is
    // the estimator closest to the true cost (see `bench::time_min`),
    // and it needs enough reps that the ~2 ms timed window spans at
    // least one quiet scheduler interval on a shared host.
    let (segments, points, reps) = if smoke { (60, 512, 3) } else { (200, 4096, 40) };

    println!("compiling workloads at opt levels none/full…");
    let cases = build_cases(segments);
    // Scope the evaluator profile to the case runs (not compilation).
    awesym_symbolic::profile::reset();
    let results: Vec<CaseResult> = cases.iter().map(|c| run_case(c, points, reps)).collect();
    // The ≥1.5x lane gate rides on the op-heaviest optimized tape.
    let gated_ops = cases.iter().map(|c| c.opt.op_count()).max().unwrap_or(0);
    let simd: Vec<SimdResult> = cases
        .iter()
        .map(|c| run_simd_case(c, points, reps, c.opt.op_count() == gated_ops))
        .collect();

    println!(
        "\n{:<32} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "case", "ops", "opt", "cut%", "pre ns/pt", "eval ns", "batch ns", "speedup"
    );
    for r in &results {
        println!(
            "{:<32} {:>8} {:>8} {:>7.1}% {:>10.1} {:>10.1} {:>10.1} {:>8.2}x",
            r.name,
            r.raw_ops,
            r.opt_ops,
            r.reduction_pct,
            r.pre_ns,
            r.eval_ns,
            r.batch_ns,
            r.batch_speedup
        );
        for f in &r.failures {
            println!("  FAIL: {f}");
        }
    }

    println!(
        "\n{:<32} {:>8} {:>10} {:>10} {:>9}",
        "simd", "ops", "soa ns", "lanes ns", "speedup"
    );
    for r in &simd {
        println!(
            "{:<32} {:>8} {:>10.1} {:>10.1} {:>8.2}x{}",
            r.name,
            r.opt_ops,
            r.soa_ns,
            r.lanes_ns,
            r.speedup,
            if r.gated { "  [gated]" } else { "" }
        );
        for f in &r.failures {
            println!("  FAIL: {f}");
        }
    }

    let out = out_path.map_or_else(
        || Path::new("results").join("BENCH_tape.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json_report(points, reps, &results, &simd)).expect("write report");
    println!("\nwrote {}", out.display());

    if results.iter().any(|r| !r.pass) || simd.iter().any(|r| !r.pass) {
        eprintln!("tape_bench: gates failed");
        std::process::exit(1);
    }
}
