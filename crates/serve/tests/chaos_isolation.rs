//! Cross-shard chaos harness: storms aimed at one shard must not leak
//! into its neighbors.
//!
//! Runs only with `--features fault-injection` (CI has a dedicated
//! `chaos-isolation` job). Every storm is a seeded [`FaultPlan`] with
//! `target_shard` set, so the victim's suffering is deterministic and
//! the healthy shard's responses can be compared bit-for-bit against a
//! fault-free baseline — the acceptance bar for the sharded fleet:
//!
//! - **panic/NaN storm** on the victim: the healthy shard's batch
//!   results stay bit-identical to a run with no faults installed;
//! - **deadline storm** (every victim point sleeps past its deadline):
//!   victim requests report `deadline_exceeded`, healthy requests don't
//!   even notice;
//! - **chunk-crash storm**: every victim chunk crashes outside the
//!   per-point guard, on pool threads and the submitting thread alike;
//!   the victim's per-shard `chunk_crashes` in `health` rises, while the
//!   healthy shard's stays zero and it serves zero failed responses;
//! - **crash loop**: enough consecutive crash-jobs trip the victim's
//!   circuit breaker to `open` (typed `unavailable` + `retry_after_ms`)
//!   and the shard recovers to `closed` once the storm stops.

use awesym_serve::faults::{self, FaultPlan};
use awesym_serve::{
    shard_of, BatchOutput, BreakerConfig, ServeError, Server, ServerConfig, Shard, ShardConfig,
};
use serde::Content;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fault plan is process-global state, so tests touching it must not
/// interleave. Poisoning is ignored: a failed test must not cascade.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_guard() -> std::sync::MutexGuard<'static, ()> {
    PLAN_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` with panic output silenced (injected panics would otherwise
/// spam the test log), restoring the hook afterwards.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// Points in a victim batch of a crash storm: several chunks on a
/// two-worker job, so it is published to the victim's pool threads.
const CRASH_POINTS: usize = 4 * 4096;

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line(name: &str) -> String {
    format!(
        r#"{{"cmd":"compile","name":"{name}","netlist":{netlist},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        netlist = serde_json::to_string(&Content::Str(NETLIST.into())).unwrap()
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

/// The `results` subtree re-serialized — the bit-identity comparison
/// unit (the head also carries wall-clock fields that legitimately vary
/// between runs).
fn results_json(c: &Content) -> String {
    serde_json::to_string(c.get("results").expect("batch has results")).unwrap()
}

/// First generated model name that [`shard_of`] places on `want`.
fn name_on_shard(shards: usize, want: usize) -> String {
    (0..)
        .map(|i| format!("chaos-{i}"))
        .find(|n| shard_of(n, shards) == want)
        .expect("some name lands on every shard")
}

fn health_row(server: &Server, shard: usize) -> Content {
    let h = parse(server, r#"{"cmd":"health"}"#);
    h.get("shards")
        .and_then(Content::as_seq)
        .expect("health has shards")
        .iter()
        .find(|s| s.get("shard").and_then(Content::as_u64) == Some(shard as u64))
        .cloned()
        .expect("shard row present")
}

fn sharded_server() -> (Server, String, String) {
    let server = Server::with_config(ServerConfig {
        shards: 2,
        shard_workers: 2,
        ..ServerConfig::default()
    });
    let victim = name_on_shard(2, 0);
    let healthy = name_on_shard(2, 1);
    assert!(ok_of(&parse(&server, &compile_line(&victim))));
    assert!(ok_of(&parse(&server, &compile_line(&healthy))));
    (server, victim, healthy)
}

/// Panic/NaN storm on shard 0: the victim answers every point (faulted
/// points as typed errors), and shard 1's responses stay bit-identical
/// to the fault-free baseline while the storm rages.
#[test]
fn panic_storm_on_one_shard_keeps_the_other_bit_identical() {
    let _guard = plan_guard();
    faults::clear();
    let (server, victim, healthy) = sharded_server();
    let healthy_req = batch_line(&healthy, 600, "");
    let victim_req = batch_line(&victim, 600, "");

    let baseline = parse(&server, &healthy_req);
    assert!(ok_of(&baseline), "{baseline:?}");
    let baseline_results = results_json(&baseline);

    faults::install(FaultPlan {
        seed: 0xC4A05,
        panic_rate_pct: 10,
        nan_rate_pct: 10,
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    let (victim_resp, healthy_resps) = quiet_panics(|| {
        let v = parse(&server, &victim_req);
        let h: Vec<Content> = (0..3).map(|_| parse(&server, &healthy_req)).collect();
        (v, h)
    });
    faults::clear();

    // The victim degrades, never drops: every point answered.
    assert!(ok_of(&victim_resp), "{victim_resp:?}");
    assert_eq!(
        victim_resp.get("count").and_then(Content::as_u64),
        Some(600)
    );
    let victim_ok = victim_resp
        .get("ok_count")
        .and_then(Content::as_u64)
        .unwrap();
    assert!(victim_ok < 600, "storm must fault some victim points");
    assert!(victim_ok > 300, "most victim points still healthy");

    // The healthy shard never noticed: bit-identical results mid-storm.
    for (i, resp) in healthy_resps.iter().enumerate() {
        assert!(ok_of(resp), "storm round {i}: {resp:?}");
        assert_eq!(resp.get("ok_count").and_then(Content::as_u64), Some(600));
        assert_eq!(
            results_json(resp),
            baseline_results,
            "storm round {i}: healthy shard results drifted"
        );
    }
    assert_eq!(
        health_row(&server, 1)
            .get("chunk_crashes")
            .and_then(Content::as_u64),
        Some(0)
    );
}

/// Deadline storm on shard 0: every victim point sleeps past the
/// request deadline, yet the healthy shard's undeadlined requests stay
/// bit-identical and its metrics stay clean.
#[test]
fn deadline_storm_on_one_shard_does_not_slow_the_other() {
    let _guard = plan_guard();
    faults::clear();
    let (server, victim, healthy) = sharded_server();
    let healthy_req = batch_line(&healthy, 400, "");
    let victim_req = batch_line(&victim, 64, r#","deadline_ms":10"#);

    let baseline_results = {
        let b = parse(&server, &healthy_req);
        assert!(ok_of(&b));
        results_json(&b)
    };

    faults::install(FaultPlan {
        seed: 0xD00D,
        slow_rate_pct: 100,
        slow: Duration::from_millis(25),
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    let victim_resp = parse(&server, &victim_req);
    let healthy_resp = parse(&server, &healthy_req);
    faults::clear();

    assert!(ok_of(&victim_resp), "{victim_resp:?}");
    assert_eq!(
        victim_resp
            .get("deadline_exceeded")
            .and_then(Content::as_bool),
        Some(true),
        "{victim_resp:?}"
    );
    assert!(ok_of(&healthy_resp), "{healthy_resp:?}");
    assert_eq!(results_json(&healthy_resp), baseline_results);
}

/// Chunk-crash storm on shard 0: every chunk of its jobs crashes,
/// whichever thread runs it — visible in the `health` command's
/// per-shard `chunk_crashes` — while shard 1 serves zero failed
/// responses throughout and counts no crash.
#[test]
fn chunk_crash_storm_is_counted_on_the_victim_and_other_shard_never_fails() {
    let _guard = plan_guard();
    faults::clear();
    let (server, victim, healthy) = sharded_server();
    let victim_req = batch_line(&victim, CRASH_POINTS, "");
    let healthy_req = batch_line(&healthy, 300, "");

    faults::install(FaultPlan {
        seed: 0x5110,
        chunk_crash_rate_pct: 100,
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    let victim_resps: Vec<Content> = quiet_panics(|| {
        (0..3)
            .map(|_| {
                // Interleave: every victim request is followed by a
                // healthy one while the victim's chunks crash.
                let v = parse(&server, &victim_req);
                let h = parse(&server, &healthy_req);
                assert!(ok_of(&h), "healthy shard failed mid-storm: {h:?}");
                assert_eq!(
                    h.get("ok_count").and_then(Content::as_u64),
                    Some(300),
                    "healthy shard dropped points mid-storm"
                );
                v
            })
            .collect()
    });
    faults::clear();

    // Every victim request still answered every point (crashed chunks as
    // typed internal errors, whichever thread ran them).
    for (i, v) in victim_resps.iter().enumerate() {
        assert!(ok_of(v), "round {i}: {v:?}");
        assert_eq!(
            v.get("count").and_then(Content::as_u64),
            Some(CRASH_POINTS as u64)
        );
    }

    // Three crash-jobs stay under the default breaker threshold, and no
    // thread needs bringing back, so the fleet is ready at once.
    let h = parse(&server, r#"{"cmd":"health"}"#);
    assert_eq!(
        h.get("ready").and_then(Content::as_bool),
        Some(true),
        "{h:?}"
    );
    let victim_health = health_row(&server, 0);
    assert!(
        victim_health
            .get("chunk_crashes")
            .and_then(Content::as_u64)
            .unwrap()
            > 0,
        "victim crashes must be visible: {victim_health:?}"
    );
    let healthy_health = health_row(&server, 1);
    assert_eq!(
        healthy_health
            .get("chunk_crashes")
            .and_then(Content::as_u64),
        Some(0),
        "{healthy_health:?}"
    );

    // And the victim is fully serviceable again.
    let v = parse(&server, &victim_req);
    assert!(ok_of(&v), "{v:?}");
    assert_eq!(
        v.get("ok_count").and_then(Content::as_u64),
        Some(CRASH_POINTS as u64)
    );
}

/// A sustained crash loop trips the victim shard's circuit breaker:
/// requests are refused with typed `unavailable` + `retry_after_ms`
/// instead of feeding the loop, and the breaker walks back to `closed`
/// once the crashes stop. Uses a standalone [`Shard`] with an aggressive
/// breaker so the test stays fast; the shard id is one nothing else in
/// this binary targets.
#[test]
fn crash_loop_trips_the_breaker_and_recovery_closes_it() {
    let _guard = plan_guard();
    faults::clear();
    const SHARD: usize = 4242;
    let shard = Shard::new(
        SHARD,
        ShardConfig {
            workers: 2,
            breaker: BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(40),
                max_cooldown: Duration::from_millis(200),
            },
            ..ShardConfig::default()
        },
    );
    let model = {
        let w = awesym_circuit::generators::fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            awesym_partition::SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            awesym_partition::SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        Arc::new(
            awesym_partition::CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap(),
        )
    };
    let points = Arc::new(
        (0..CRASH_POINTS)
            .map(|i| vec![0.5e-9 + 1e-11 * i as f64, 300.0 + i as f64])
            .collect::<Vec<_>>(),
    );
    let run = |shard: &Shard| {
        shard.evaluate(
            Arc::clone(&model),
            Arc::clone(&points),
            BatchOutput::Moments,
            None,
            None,
        )
    };

    faults::install(FaultPlan {
        seed: 9,
        chunk_crash_rate_pct: 100,
        target_shard: Some(SHARD),
        ..FaultPlan::default()
    });
    // Two consecutive crash-jobs trip the threshold-2 breaker. Each job
    // still completes (every crashed chunk answers its points), but its
    // crashed chunks count as breaker failures.
    let opened = quiet_panics(|| {
        for i in 0..10 {
            match run(&shard) {
                Ok(out) => assert_eq!(out.len(), CRASH_POINTS, "job {i}"),
                Err(ServeError::Unavailable {
                    shard: s,
                    reason,
                    retry_after_ms,
                }) => {
                    assert_eq!(s, SHARD as u64);
                    assert_eq!(reason, "circuit breaker open");
                    assert!(retry_after_ms >= 1, "{retry_after_ms}");
                    return true;
                }
                Err(other) => panic!("job {i}: unexpected {other:?}"),
            }
        }
        false
    });
    faults::clear();
    assert!(opened, "breaker never opened under a 100% crash loop");
    assert_eq!(shard.breaker().phase_name(), "open");
    assert!(shard.breaker().opened_total() >= 1);

    // Storm over: wait out the cooldown, and the half-open probe closes
    // the breaker.
    let mut closed = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        if let Ok(out) = run(&shard) {
            assert_eq!(out.ok_count(), out.len());
            closed = true;
            break;
        }
    }
    assert!(closed, "breaker never recovered after the storm");
    assert_eq!(shard.breaker().phase_name(), "closed");
    assert!(shard.health().chunk_crashes > 0);
}
