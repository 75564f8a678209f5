//! Benchmark regression gate: compares fresh `tape_bench`/`serve_bench`
//! reports against the committed baselines in `results/` and fails when
//! any tracked throughput metric regresses by more than the threshold
//! (default 25 %, `--max-regression-pct` or `BENCH_GATE_MAX_REGRESSION_PCT`
//! to override). The default is sized to the measured noise envelope of
//! a shared 1-core CI host: a fresh run late in the gate sequence sits
//! up to ~20 % below a fresh-host baseline from sustained-load clock
//! droop alone, while the slips this gate exists to catch (a debug
//! path, a lost vector kernel, an O(n²) reintroduction) cost 40 %+.
//!
//! ```sh
//! cargo run --release -p awesym-bench --bin bench_gate -- \
//!     --fresh target/bench_fresh --baseline results [--max-regression-pct 15]
//! ```
//!
//! Tracked metrics:
//!
//! - `BENCH_tape.json`: per-case `batch_points_per_sec`, plus the lane
//!   kernel's `lanes_best_points_per_sec` per `simd` case;
//! - `BENCH_serve.json`: per-case `single_points_per_sec` and the best
//!   batch `points_per_sec` across worker counts;
//! - `BENCH_timing.json`: per-worker-count `samples_per_sec`;
//! - `BENCH_net.json`: per-shape `ndjson_points_per_sec` and
//!   `binary_points_per_sec` request-decode throughput.
//!
//! The fresh `BENCH_timing.json` additionally carries two structural
//! checks that are not baseline comparisons:
//!
//! - `deterministic_across_workers` must be `true` (bit-identical Monte
//!   Carlo summaries at every worker count);
//! - the measured multi-worker speedup must reach a core-count-aware
//!   floor, `min(4.0, 0.5 × min(8, host_cpus))`, using the `host_cpus`
//!   recorded in the report. On an 8-core host this enforces the full 4x
//!   at 8 workers; a 1-core container (where parallel speedup is
//!   physically impossible) only has to stay near flat.
//!
//! The fresh `BENCH_serve.json` carries two more structural checks: the
//! serialize-stage mean in `observability.stages` must not exceed the
//! eval-stage mean (the binary wire format keeps response encoding
//! cheaper than evaluation; see `docs/wire-format.md`), and the
//! persistent worker pool's `pool.runs` speedup must reach the same
//! core-count-aware floor as the timing bench — the steady-state fleet
//! path must not regress to negative scaling.
//!
//! The fresh `BENCH_tape.json` carries a structural check of its own:
//! the `simd` section must pass its self-reported gates (lane outputs
//! bit-identical to the scalar SoA reference), and the gated
//! (op-heaviest) case's lane speedup must reach the
//! `min_simd_speedup` floor the report declares (≥ 1.5x) — the lane
//! kernel must stay meaningfully faster than the scalar-in-registers
//! reference it replaced. Host-relative, so enforced on the fresh run.
//!
//! The fresh `BENCH_net.json` carries one structural check: the
//! `decode_speedup_min` across measured batch shapes must stay at or
//! above 2x — decoding a binary-v1 `AWSQ` request frame must remain at
//! least twice as fast as parsing the equivalent NDJSON line (see
//! `docs/networking.md`). The ratio is host-relative, so it is enforced
//! on the fresh run, not compared against a baseline.
//!
//! A fresh `BENCH_chaos.json` (written by `chaos_bench`, which needs
//! `--features fault-injection`) is checked structurally when present —
//! it is host-relative, so there is no baseline comparison:
//!
//! - `healthy_bit_identical` must be `true` (the healthy shard's results
//!   under a storm on its neighbor match the fault-free run bit for bit);
//! - `healthy_worker_deaths` must be `0`;
//! - the healthy shard's storm p99 must stay inside
//!   `baseline_p99 × 1.15 + 500 µs` and its storm throughput above
//!   `85 %` of baseline. The absolute slack term covers idle-wake
//!   scheduler noise on µs-scale requests (the storm interleave puts the
//!   serving thread to sleep, and a small host pays a wake-up penalty
//!   that is not crash leakage). The wake-up penalty does not scale with
//!   request cost, so when the x86-64-v3 build made the fault-free
//!   baseline faster the proportional term shrank and the absolute term
//!   had to grow to keep absorbing the same scheduler noise.
//!
//! Only *regressions* fail; faster-than-baseline results pass (CI hosts
//! are noisy, so the threshold is deliberately generous — the gate exists
//! to catch order-of-magnitude slips like an accidental debug-path or
//! O(n²) reintroduction, not 2 % jitter). A fresh case missing from the
//! baseline passes with a note (new benchmarks shouldn't fail their
//! introducing PR); a baseline case missing from the fresh run fails
//! (coverage must not silently shrink).

use serde::Content;
use std::path::Path;
use std::process::ExitCode;

const DEFAULT_MAX_REGRESSION_PCT: f64 = 25.0;

struct Metric {
    /// `file :: case :: metric` label for reporting.
    label: String,
    points_per_sec: f64,
}

fn load(path: &Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn case_name(case: &Content) -> String {
    case.get("name")
        .and_then(Content::as_str)
        .unwrap_or("<unnamed>")
        .to_string()
}

fn need_f64(case: &Content, key: &str, label: &str) -> Result<f64, String> {
    case.get(key)
        .and_then(Content::as_f64)
        .ok_or_else(|| format!("{label}: missing numeric '{key}'"))
}

/// Tracked metrics of one `BENCH_tape.json` report.
fn tape_metrics(report: &Content, file: &str) -> Result<Vec<Metric>, String> {
    let cases = report
        .get("cases")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'cases' array"))?;
    let mut out = Vec::new();
    for case in cases {
        let name = case_name(case);
        let label = format!("{file} :: {name} :: batch_points_per_sec");
        out.push(Metric {
            points_per_sec: need_f64(case, "batch_points_per_sec", &label)?,
            label,
        });
    }
    // Lane-kernel throughput, tracked per simd case (tolerated missing in
    // pre-lane baselines — those cases then count as new).
    if let Some(simd_cases) = report
        .get("simd")
        .and_then(|s| s.get("cases"))
        .and_then(Content::as_seq)
    {
        for case in simd_cases {
            let name = case_name(case);
            let label = format!("{file} :: {name} :: lanes_best_points_per_sec");
            out.push(Metric {
                points_per_sec: need_f64(case, "lanes_best_points_per_sec", &label)?,
                label,
            });
        }
    }
    Ok(out)
}

/// Structural checks on the fresh tape report's `simd` section: the
/// section's own pass flag (lane/SoA bit-parity plus the speedup gate
/// as evaluated by `tape_bench`) and, independently, the gated case's
/// lane speedup against the floor the report declares. Host-relative,
/// so never compared against a baseline. Returns failure lines.
fn simd_checks(report: &Content, file: &str) -> Result<Vec<String>, String> {
    let simd = report
        .get("simd")
        .ok_or_else(|| format!("{file}: missing 'simd' section"))?;
    let floor = simd
        .get("gates")
        .and_then(|g| g.get("min_simd_speedup"))
        .and_then(Content::as_f64)
        .ok_or_else(|| format!("{file}: missing 'simd.gates.min_simd_speedup'"))?;
    let pass = simd
        .get("pass")
        .and_then(Content::as_bool)
        .ok_or_else(|| format!("{file}: missing 'simd.pass'"))?;
    let cases = simd
        .get("cases")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'simd.cases' array"))?;
    let mut failures = Vec::new();
    if !pass {
        failures.push(format!(
            "{file}: simd section failed its own gates (lane/SoA bit divergence or speedup)"
        ));
    }
    let mut gated_seen = false;
    for case in cases {
        let name = case_name(case);
        let label = format!("{file} :: {name}");
        let speedup = need_f64(case, "speedup_lanes", &label)?;
        if case.get("gated").and_then(Content::as_bool) == Some(true) {
            gated_seen = true;
            println!(
                "      {file}: lane kernel {speedup:.2}x the SoA reference on {name} \
                 (floor {floor:.1}x)"
            );
            if speedup < floor {
                failures.push(format!(
                    "{file}: lane speedup {speedup:.2}x on {name} below the {floor:.1}x \
                     floor over the scalar SoA reference"
                ));
            }
        }
    }
    if !gated_seen {
        return Err(format!(
            "{file}: no gated case in the simd section — the op-heavy floor is unenforced"
        ));
    }
    Ok(failures)
}

/// Tracked metrics of one `BENCH_serve.json` report.
fn serve_metrics(report: &Content, file: &str) -> Result<Vec<Metric>, String> {
    let cases = report
        .get("cases")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'cases' array"))?;
    let mut out = Vec::new();
    for case in cases {
        let name = case_name(case);
        let label = format!("{file} :: {name} :: single_points_per_sec");
        out.push(Metric {
            points_per_sec: need_f64(case, "single_points_per_sec", &label)?,
            label,
        });
        let batches = case
            .get("batch")
            .and_then(Content::as_seq)
            .ok_or_else(|| format!("{file} :: {name}: missing 'batch' array"))?;
        let best = batches
            .iter()
            .filter_map(|b| b.get("points_per_sec").and_then(Content::as_f64))
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() {
            return Err(format!("{file} :: {name}: no batch points_per_sec"));
        }
        out.push(Metric {
            label: format!("{file} :: {name} :: best_batch_points_per_sec"),
            points_per_sec: best,
        });
    }
    Ok(out)
}

/// Tracked metrics of one `BENCH_timing.json` report.
fn timing_metrics(report: &Content, file: &str) -> Result<Vec<Metric>, String> {
    let runs = report
        .get("runs")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'runs' array"))?;
    runs.iter()
        .map(|run| {
            let workers = run
                .get("workers")
                .and_then(Content::as_f64)
                .ok_or_else(|| format!("{file}: run missing 'workers'"))?
                as u64;
            let label = format!("{file} :: workers={workers} :: samples_per_sec");
            let points_per_sec = need_f64(run, "samples_per_sec", &label)?;
            Ok(Metric {
                label,
                points_per_sec,
            })
        })
        .collect()
}

/// Tracked metrics of one `BENCH_net.json` report.
fn net_metrics(report: &Content, file: &str) -> Result<Vec<Metric>, String> {
    let cases = report
        .get("cases")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'cases' array"))?;
    let mut out = Vec::new();
    for case in cases {
        let name = case_name(case);
        for key in ["ndjson_points_per_sec", "binary_points_per_sec"] {
            let label = format!("{file} :: {name} :: {key}");
            out.push(Metric {
                points_per_sec: need_f64(case, key, &label)?,
                label,
            });
        }
    }
    Ok(out)
}

/// The binary request path must stay meaningfully cheaper than NDJSON
/// parsing, or there is no reason for the second encoding to exist.
const NET_MIN_DECODE_SPEEDUP: f64 = 2.0;

/// Structural check on the fresh net report: binary-v1 request decode
/// at least [`NET_MIN_DECODE_SPEEDUP`]x faster than NDJSON parse at
/// every measured shape. Returns failure lines.
fn net_checks(report: &Content, file: &str) -> Result<Vec<String>, String> {
    let speedup = report
        .get("decode_speedup_min")
        .and_then(Content::as_f64)
        .ok_or_else(|| format!("{file}: missing 'decode_speedup_min'"))?;
    println!(
        "      {file}: binary request decode {speedup:.2}x NDJSON parse \
         (floor {NET_MIN_DECODE_SPEEDUP:.1}x)"
    );
    let mut failures = Vec::new();
    if speedup < NET_MIN_DECODE_SPEEDUP {
        failures.push(format!(
            "{file}: binary request decode is only {speedup:.2}x NDJSON parse — \
             below the {NET_MIN_DECODE_SPEEDUP:.1}x floor the wire format promises"
        ));
    }
    Ok(failures)
}

/// Structural check on the fresh serve report: with the binary wire
/// format driving the canonical stage histograms, serializing a batch
/// must be cheaper than evaluating it. A serialize-stage mean above the
/// eval-stage mean means the encoder fell off the columnar fast path
/// (e.g. someone reintroduced a text round-trip). Returns failure lines.
fn serve_checks(report: &Content, file: &str) -> Result<Vec<String>, String> {
    let stages = report
        .get("observability")
        .and_then(|o| o.get("stages"))
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'observability.stages'"))?;
    let mean_of = |name: &str| -> Result<f64, String> {
        stages
            .iter()
            .find(|s| s.get("stage").and_then(Content::as_str) == Some(name))
            .and_then(|s| s.get("mean_ns").and_then(Content::as_f64))
            .ok_or_else(|| format!("{file}: missing '{name}' stage mean"))
    };
    let serialize = mean_of("serialize")?;
    let eval = mean_of("eval")?;
    println!(
        "      {file}: serialize mean {serialize:.0} ns vs eval mean {eval:.0} ns \
         ({:.2}x)",
        serialize / eval
    );
    let mut failures = Vec::new();
    if serialize > eval {
        failures.push(format!(
            "{file}: serialize-stage mean {serialize:.0} ns exceeds eval-stage mean \
             {eval:.0} ns — response encoding is no longer cheaper than evaluation"
        ));
    }
    // Persistent-pool scaling floor: same core-count-aware formula as the
    // timing bench, applied to the steady-state fleet path.
    let pool = report
        .get("pool")
        .ok_or_else(|| format!("{file}: missing 'pool' section"))?;
    let host_cpus = pool
        .get("host_cpus")
        .and_then(Content::as_f64)
        .ok_or_else(|| format!("{file}: missing 'pool.host_cpus'"))?;
    let required = speedup_floor(host_cpus);
    let runs = pool
        .get("runs")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'pool.runs' array"))?;
    let best_speedup = runs
        .iter()
        .filter_map(|r| r.get("speedup_vs_1").and_then(Content::as_f64))
        .fold(f64::NEG_INFINITY, f64::max);
    if !best_speedup.is_finite() {
        return Err(format!("{file}: no 'speedup_vs_1' in pool.runs"));
    }
    println!(
        "      {file}: pool best speedup {best_speedup:.2}x \
         (floor {required:.2}x at host_cpus={host_cpus})"
    );
    if best_speedup < required {
        failures.push(format!(
            "{file}: pool best worker speedup {best_speedup:.2}x below the \
             {required:.2}x floor for host_cpus={host_cpus}"
        ));
    }
    Ok(failures)
}

/// Core-count-aware worker-scaling floor: half the usable core count,
/// capped at the 4x target for 8-worker runs on ≥8-core hosts.
fn speedup_floor(host_cpus: f64) -> f64 {
    (0.5 * host_cpus.min(8.0)).min(4.0)
}

/// Slack terms of the chaos isolation envelope (see module doc).
const CHAOS_P99_RATIO: f64 = 1.15;
const CHAOS_P99_SLACK_US: f64 = 500.0;
const CHAOS_MIN_THROUGHPUT_RATIO: f64 = 0.85;

/// Structural checks on a fresh `BENCH_chaos.json`: bit-identity of the
/// healthy shard under a neighbor storm, zero collateral worker deaths,
/// and the p99/throughput isolation envelope. Host-relative, so never
/// compared against a baseline. Returns failure lines.
fn chaos_checks(report: &Content, file: &str) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let flag = |name: &str| -> Result<bool, String> {
        report
            .get(name)
            .and_then(Content::as_bool)
            .ok_or_else(|| format!("{file}: missing '{name}'"))
    };
    let num = |path: &[&str]| -> Result<f64, String> {
        path.iter()
            .try_fold(report, |c, k| c.get(k))
            .and_then(Content::as_f64)
            .ok_or_else(|| format!("{file}: missing '{}'", path.join(".")))
    };
    if !flag("healthy_bit_identical")? {
        failures.push(format!(
            "{file}: healthy shard's results drifted from the fault-free run under the storm"
        ));
    }
    let collateral = num(&["healthy_worker_deaths"])?;
    if collateral != 0.0 {
        failures.push(format!(
            "{file}: {collateral} worker death(s) on the healthy shard — the storm leaked"
        ));
    }
    let base_p99 = num(&["baseline", "p99_us"])?;
    let storm_p99 = num(&["storm", "p99_us"])?;
    let p99_limit = base_p99 * CHAOS_P99_RATIO + CHAOS_P99_SLACK_US;
    let base_tp = num(&["baseline", "points_per_sec"])?;
    let storm_tp = num(&["storm", "points_per_sec"])?;
    println!(
        "      {file}: healthy p99 {base_p99:.0} -> {storm_p99:.0} us (limit {p99_limit:.0}), \
         throughput {base_tp:.0} -> {storm_tp:.0} pts/s ({:.2}x)",
        storm_tp / base_tp
    );
    if storm_p99 > p99_limit {
        failures.push(format!(
            "{file}: healthy-shard p99 {storm_p99:.0} us under storm exceeds \
             {base_p99:.0} x {CHAOS_P99_RATIO} + {CHAOS_P99_SLACK_US} us"
        ));
    }
    if storm_tp < base_tp * CHAOS_MIN_THROUGHPUT_RATIO {
        failures.push(format!(
            "{file}: healthy-shard throughput fell to {:.2}x of baseline under storm \
             (floor {CHAOS_MIN_THROUGHPUT_RATIO})",
            storm_tp / base_tp
        ));
    }
    Ok(failures)
}

/// Structural checks on the fresh timing report: the determinism flag and
/// the core-count-aware worker-scaling floor. Returns failure lines.
fn timing_checks(report: &Content, file: &str) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let deterministic = report
        .get("deterministic_across_workers")
        .and_then(Content::as_bool)
        .ok_or_else(|| format!("{file}: missing 'deterministic_across_workers'"))?;
    if !deterministic {
        failures.push(format!(
            "{file}: Monte Carlo summaries differ across worker counts (determinism broken)"
        ));
    }
    let host_cpus = report
        .get("host_cpus")
        .and_then(Content::as_f64)
        .ok_or_else(|| format!("{file}: missing 'host_cpus'"))?;
    // Full 4x is only achievable with the cores to back it.
    let required = speedup_floor(host_cpus);
    let runs = report
        .get("runs")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{file}: missing 'runs' array"))?;
    let best_speedup = runs
        .iter()
        .filter_map(|r| r.get("speedup_vs_1").and_then(Content::as_f64))
        .fold(f64::NEG_INFINITY, f64::max);
    if !best_speedup.is_finite() {
        return Err(format!("{file}: no 'speedup_vs_1' in runs"));
    }
    println!(
        "      {file}: deterministic={deterministic}, best speedup {best_speedup:.2}x \
         (floor {required:.2}x at host_cpus={host_cpus})"
    );
    if best_speedup < required {
        failures.push(format!(
            "{file}: best worker speedup {best_speedup:.2}x below the \
             {required:.2}x floor for host_cpus={host_cpus}"
        ));
    }
    Ok(failures)
}

/// Compares fresh metrics against the baseline; returns human-readable
/// failure lines (empty = pass).
fn compare(fresh: &[Metric], baseline: &[Metric], max_regression_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(new) = fresh.iter().find(|m| m.label == base.label) else {
            failures.push(format!("{}: missing from fresh run", base.label));
            continue;
        };
        let regression_pct = 100.0 * (1.0 - new.points_per_sec / base.points_per_sec);
        let verdict = if regression_pct > max_regression_pct {
            failures.push(format!(
                "{}: {:.3e} -> {:.3e} pts/s ({regression_pct:.1}% regression > {max_regression_pct}%)",
                base.label, base.points_per_sec, new.points_per_sec
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{verdict:>4}  {}  {:.3e} -> {:.3e} pts/s ({:+.1}%)",
            base.label, base.points_per_sec, new.points_per_sec, -regression_pct
        );
    }
    for new in fresh {
        if !baseline.iter().any(|m| m.label == new.label) {
            println!(
                " new  {}  {:.3e} pts/s (no baseline)",
                new.label, new.points_per_sec
            );
        }
    }
    failures
}

/// Per-file throughput drift summary, printed after the per-metric
/// `ok`/`FAIL` lines: one row per `BENCH_*.json` with the metric count,
/// mean delta, and the worst-regressing metric. Pass/fail alone hides
/// drift that is *near* the threshold; this table makes a file sliding
/// toward its limit visible in CI logs before it trips the gate.
fn delta_table(fresh: &[Metric], baseline: &[Metric], max_regression_pct: f64) {
    let file_of = |label: &str| label.split(" :: ").next().unwrap_or("?").to_string();
    let mut files: Vec<String> = Vec::new();
    for m in baseline {
        let f = file_of(&m.label);
        if !files.contains(&f) {
            files.push(f);
        }
    }
    println!("\nper-file throughput delta vs baseline (gate at -{max_regression_pct}%):");
    println!(
        "  {:<18} {:>7} {:>8} {:>8}  worst metric",
        "file", "metrics", "mean", "worst"
    );
    for file in &files {
        let mut deltas: Vec<(f64, &str)> = Vec::new();
        for base in baseline.iter().filter(|m| &file_of(&m.label) == file) {
            if let Some(new) = fresh.iter().find(|m| m.label == base.label) {
                let pct = 100.0 * (new.points_per_sec / base.points_per_sec - 1.0);
                deltas.push((pct, base.label.as_str()));
            }
        }
        let Some((worst, worst_label)) = deltas
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|&(d, l)| (d, l))
        else {
            println!("  {file:<18} {:>7} (no comparable metrics)", 0);
            continue;
        };
        let mean = deltas.iter().map(|(d, _)| d).sum::<f64>() / deltas.len() as f64;
        let short = worst_label
            .strip_prefix(file.as_str())
            .unwrap_or(worst_label)
            .trim_start_matches(" :: ");
        println!(
            "  {:<18} {:>7} {:>+7.1}% {:>+7.1}%  {}",
            file,
            deltas.len(),
            mean,
            worst,
            short
        );
    }
}

fn gather(dir: &Path) -> Result<Vec<Metric>, String> {
    let mut metrics = tape_metrics(&load(&dir.join("BENCH_tape.json"))?, "BENCH_tape.json")?;
    metrics.extend(serve_metrics(
        &load(&dir.join("BENCH_serve.json"))?,
        "BENCH_serve.json",
    )?);
    metrics.extend(timing_metrics(
        &load(&dir.join("BENCH_timing.json"))?,
        "BENCH_timing.json",
    )?);
    metrics.extend(net_metrics(
        &load(&dir.join("BENCH_net.json"))?,
        "BENCH_net.json",
    )?);
    Ok(metrics)
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let mut fresh_dir: Option<String> = None;
    let mut baseline_dir: Option<String> = None;
    let mut max_regression_pct = std::env::var("BENCH_GATE_MAX_REGRESSION_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION_PCT);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--fresh" => fresh_dir = Some(val("--fresh")?),
            "--baseline" => baseline_dir = Some(val("--baseline")?),
            "--max-regression-pct" => {
                max_regression_pct = val("--max-regression-pct")?
                    .parse()
                    .map_err(|e| format!("bad --max-regression-pct: {e}"))?
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let fresh_dir = fresh_dir.ok_or("missing --fresh DIR")?;
    let baseline_dir = baseline_dir.ok_or("missing --baseline DIR")?;
    println!(
        "bench_gate: fresh={fresh_dir} baseline={baseline_dir} threshold={max_regression_pct}%"
    );
    let fresh = gather(Path::new(&fresh_dir))?;
    let baseline = gather(Path::new(&baseline_dir))?;
    let mut failures = timing_checks(
        &load(&Path::new(&fresh_dir).join("BENCH_timing.json"))?,
        "BENCH_timing.json",
    )?;
    failures.extend(simd_checks(
        &load(&Path::new(&fresh_dir).join("BENCH_tape.json"))?,
        "BENCH_tape.json",
    )?);
    failures.extend(serve_checks(
        &load(&Path::new(&fresh_dir).join("BENCH_serve.json"))?,
        "BENCH_serve.json",
    )?);
    failures.extend(net_checks(
        &load(&Path::new(&fresh_dir).join("BENCH_net.json"))?,
        "BENCH_net.json",
    )?);
    let chaos_path = Path::new(&fresh_dir).join("BENCH_chaos.json");
    if chaos_path.exists() {
        failures.extend(chaos_checks(&load(&chaos_path)?, "BENCH_chaos.json")?);
    } else {
        // chaos_bench needs --features fault-injection; a default bench
        // sweep legitimately omits it.
        println!("      BENCH_chaos.json: not in fresh run, chaos checks skipped");
    }
    failures.extend(compare(&fresh, &baseline, max_regression_pct));
    delta_table(&fresh, &baseline, max_regression_pct);
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(failures) if failures.is_empty() => {
            println!("bench_gate: all tracked metrics within threshold");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("bench_gate: {} metric(s) regressed:", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
