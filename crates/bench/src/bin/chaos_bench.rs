//! Cross-shard chaos benchmark: quantifies how much a seeded fault storm
//! on one shard moves its *neighbor's* latency and throughput.
//!
//! ```text
//! cargo run --release -p awesym-bench --features fault-injection --bin chaos_bench
//! ```
//!
//! Requires `--features fault-injection`. Three phases, all on a
//! two-shard server with a victim model on shard 0 and a healthy model
//! on shard 1:
//!
//! 1. **fault-free** — one reference request with no plan installed;
//!    its `results` subtree is the bit-identity reference.
//! 2. **baseline** — a *null* storm (a [`FaultPlan`] with every rate at
//!    zero, targeted at the victim shard) is installed while the healthy
//!    shard is timed. Installing any plan switches the batch engine onto
//!    its instrumented per-point path on every shard, so this phase
//!    prices that path — not the storm. The same victim request is
//!    interleaved before every timed healthy request so both phases see
//!    identical cache state.
//! 3. **storm** — the real plan (seeded 10% panics plus a deadline
//!    storm: slow faults that push the victim's requests past their
//!    `deadline_ms`), with the identical interleave. Victim requests run
//!    *serially* between the timed healthy requests: on a small host a
//!    concurrent storm would measure CPU contention, not crash
//!    isolation, and the serial interleave is deterministic on any core
//!    count.
//!
//! The storm-vs-baseline p99/throughput ratios isolate breaker and
//! crash-handling interference from the instrumentation cost, the
//! healthy shard must count no chunk crash, and every healthy response
//! in every phase must stay
//! bit-identical to the fault-free reference. `results/BENCH_chaos.json`
//! records all three phases; `bench_gate` enforces the envelope.

use awesym_serve::faults::{self, FaultPlan};
use awesym_serve::{shard_of, Server, ServerConfig};
use serde::Content;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line(name: &str) -> String {
    format!(
        r#"{{"cmd":"compile","name":"{name}","netlist":{netlist},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        netlist = serde_json::to_string(&Content::Str(NETLIST.into())).expect("netlist string")
    )
}

fn batch_line(model: &str, n: usize, extra: &str) -> String {
    let pts: Vec<String> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            format!("[{:e},{:e}]", 0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t)
        })
        .collect();
    format!(
        r#"{{"cmd":"batch","model":"{model}","points":[{}],"workers":2{extra}}}"#,
        pts.join(",")
    )
}

fn parse(server: &Server, line: &str) -> Content {
    let resp = server.handle_line(line).expect("non-empty request line");
    serde_json::from_str(resp.text()).expect("response is JSON")
}

fn ok_of(c: &Content) -> bool {
    c.get("ok").and_then(Content::as_bool).unwrap_or(false)
}

/// The `results` subtree re-serialized — the bit-identity unit (the head
/// carries wall-clock fields that legitimately vary between runs).
fn results_json(c: &Content) -> String {
    serde_json::to_string(c.get("results").expect("batch has results")).expect("serialize results")
}

/// First generated model name that [`shard_of`] places on `want`.
fn name_on_shard(shards: usize, want: usize) -> String {
    (0..)
        .map(|i| format!("chaos-{i}"))
        .find(|n| shard_of(n, shards) == want)
        .expect("some name lands on every shard")
}

struct Phase {
    p50_us: f64,
    p99_us: f64,
    points_per_sec: f64,
}

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    sorted[idx] * 1e6
}

/// Times `reps` healthy requests, calling `between` before each one
/// (the storm interleave; a no-op in the baseline phase). Every response
/// must match `reference` bit-for-bit.
fn run_phase(
    server: &Server,
    healthy_req: &str,
    reference: &str,
    reps: usize,
    points: usize,
    mut between: impl FnMut(&Server),
) -> Phase {
    // One unmeasured pass absorbs one-time costs (lazy inits, first
    // touch of the interleave path) before the timed reps.
    between(server);
    std::hint::black_box(parse(server, healthy_req));
    let mut lat: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        between(server);
        let t0 = Instant::now();
        let resp = parse(server, healthy_req);
        lat.push(t0.elapsed().as_secs_f64());
        assert!(ok_of(&resp), "healthy request failed");
        assert_eq!(
            results_json(&resp),
            reference,
            "healthy results drifted from the fault-free reference"
        );
    }
    let total: f64 = lat.iter().sum();
    lat.sort_by(f64::total_cmp);
    Phase {
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
        points_per_sec: (points * reps) as f64 / total,
    }
}

struct Report {
    points: usize,
    reps: usize,
    host_cpus: usize,
    baseline: Phase,
    storm: Phase,
    healthy_bit_identical: bool,
    victim_requests: u64,
    victim_deadline_exceeded: u64,
    healthy_chunk_crashes: u64,
}

fn json_report(r: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"chaos\",");
    let _ = writeln!(s, "  \"points\": {},", r.points);
    let _ = writeln!(s, "  \"reps\": {},", r.reps);
    let _ = writeln!(s, "  \"host_cpus\": {},", r.host_cpus);
    for (name, p) in [("baseline", &r.baseline), ("storm", &r.storm)] {
        let _ = writeln!(
            s,
            "  \"{name}\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"points_per_sec\": {:e}}},",
            p.p50_us, p.p99_us, p.points_per_sec
        );
    }
    let _ = writeln!(
        s,
        "  \"p99_ratio\": {:e},",
        r.storm.p99_us / r.baseline.p99_us
    );
    let _ = writeln!(
        s,
        "  \"throughput_ratio\": {:e},",
        r.storm.points_per_sec / r.baseline.points_per_sec
    );
    let _ = writeln!(
        s,
        "  \"healthy_bit_identical\": {},",
        r.healthy_bit_identical
    );
    let _ = writeln!(s, "  \"victim_requests\": {},", r.victim_requests);
    let _ = writeln!(
        s,
        "  \"victim_deadline_exceeded\": {},",
        r.victim_deadline_exceeded
    );
    let _ = writeln!(
        s,
        "  \"healthy_chunk_crashes\": {}",
        r.healthy_chunk_crashes
    );
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut points = 400usize;
    let mut reps = 60usize;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>, flag: &str| {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
        };
        match a.as_str() {
            "--points" => points = val(&mut it, "--points"),
            "--reps" => reps = val(&mut it, "--reps"),
            "--out" => {
                out_path = Some(
                    it.next()
                        .unwrap_or_else(|| panic!("--out needs a path"))
                        .clone(),
                )
            }
            other => panic!("unknown argument '{other}'"),
        }
    }

    // Injected panics are expected by the thousand; silence their spam.
    std::panic::set_hook(Box::new(|_| {}));

    let server = Server::with_config(ServerConfig {
        shards: 2,
        shard_workers: 2,
        ..ServerConfig::default()
    });
    let victim = name_on_shard(2, 0);
    let healthy = name_on_shard(2, 1);
    assert!(ok_of(&parse(&server, &compile_line(&victim))));
    assert!(ok_of(&parse(&server, &compile_line(&healthy))));
    let healthy_req = batch_line(&healthy, points, "");
    let victim_req = batch_line(&victim, points / 2, r#","deadline_ms":1"#);

    // Phase 1: fault-free bit-identity reference.
    faults::clear();
    let reference = results_json(&parse(&server, &healthy_req));

    // Phase 2: null storm — prices the instrumented per-point path and
    // the victim interleave's cache pollution, with no actual faults.
    faults::install(FaultPlan {
        seed: 0xBA5E,
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    let baseline = run_phase(&server, &healthy_req, &reference, reps, points, |s| {
        std::hint::black_box(parse(s, &victim_req));
    });

    // Phase 3: the real storm, interleaved serially with the timed
    // healthy requests.
    faults::install(FaultPlan {
        seed: 0xC4A05,
        panic_rate_pct: 10,
        slow_rate_pct: 30,
        slow: Duration::from_millis(2),
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    let mut victim_deadline_exceeded = 0u64;
    // The interleave fires reps + 1 victim requests (one inside the
    // phase's unmeasured warm-up pass).
    let victim_requests = (reps + 1) as u64;
    let storm = run_phase(&server, &healthy_req, &reference, reps, points, |s| {
        let v = parse(s, &victim_req);
        if v.get("deadline_exceeded").and_then(Content::as_bool) == Some(true) {
            victim_deadline_exceeded += 1;
        }
    });
    faults::clear();

    let health = parse(&server, r#"{"cmd":"health"}"#);
    let shard_field = |shard: u64, field: &str| -> u64 {
        health
            .get("shards")
            .and_then(Content::as_seq)
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("shard").and_then(Content::as_u64) == Some(shard))
                    .and_then(|r| r.get(field))
                    .and_then(Content::as_u64)
            })
            .expect("health shard field")
    };

    let report = Report {
        points,
        reps,
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        baseline,
        storm,
        // run_phase asserts identity on every response; reaching this
        // line means it held.
        healthy_bit_identical: true,
        victim_requests,
        victim_deadline_exceeded,
        healthy_chunk_crashes: shard_field(1, "chunk_crashes"),
    };

    println!(
        "chaos: healthy shard under victim storm — p99 {:.0} us -> {:.0} us ({:.2}x), throughput {:.0} -> {:.0} pts/s ({:.2}x)",
        report.baseline.p99_us,
        report.storm.p99_us,
        report.storm.p99_us / report.baseline.p99_us,
        report.baseline.points_per_sec,
        report.storm.points_per_sec,
        report.storm.points_per_sec / report.baseline.points_per_sec,
    );
    println!(
        "chaos: victim deadline_exceeded on {}/{} storm requests, healthy chunk crashes {}",
        report.victim_deadline_exceeded, report.victim_requests, report.healthy_chunk_crashes
    );

    let out = out_path.map_or_else(
        || Path::new("results").join("BENCH_chaos.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json_report(&report)).expect("write report");
    println!("wrote {}", out.display());
}
