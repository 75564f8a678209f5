//! Loopback suite under injected faults (`--features fault-injection`).
//!
//! Two claims ride on the deterministic [`FaultPlan`] harness:
//!
//! - **bit-identity survives faults**: with the same seeded plan
//!   installed, concurrent mixed-encoding socket sessions produce
//!   responses byte-identical to the stdin path — faulted points fault
//!   identically on both transports;
//! - **breaker trips propagate mid-connection**: a chunk-crash storm
//!   opens the victim shard's circuit breaker, and the *same socket
//!   session* that was getting healthy answers starts receiving typed
//!   `unavailable` errors with a retry hint, for both request
//!   encodings, without the connection closing.

mod common;

use awesym_net::{NetConfig, RequestKind};
use awesym_serve::faults::{self, FaultPlan};
use awesym_serve::Server;
use common::*;
use serde::Content;
use std::sync::Mutex;
use std::time::Duration;

/// The fault plan is process-global, so tests touching it must not
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

/// The acceptance bar with faults raging: a seeded panic/NaN storm
/// faults the same points on both transports, so every response —
/// including the per-point typed errors — stays byte-identical to the
/// stdin path.
#[test]
fn concurrent_sessions_under_panic_and_nan_storm_match_stdin_byte_for_byte() {
    let _guard = plan_guard();
    faults::install(FaultPlan {
        seed: 0xBEEF,
        panic_rate_pct: 10,
        nan_rate_pct: 20,
        ..FaultPlan::default()
    });
    quiet_panics(|| assert_socket_matches_stdin(8, 6));
    faults::clear();
}

/// A 100% chunk-crash storm trips the
/// victim shard's breaker after enough consecutive crash-jobs, and the
/// session that was mid-conversation sees the typed `unavailable`
/// (+ `retry_after_ms`) — over NDJSON *and* over a binary request
/// frame — then recovers once the storm stops and the cooldown runs
/// out.
#[test]
fn breaker_trip_mid_connection_propagates_unavailable_with_retry_hint() {
    let _guard = plan_guard();
    faults::clear();
    // A two-worker shard and a batch spanning several chunks: every
    // chunk of a crash-job crashes, on a pool thread or on the
    // connection thread, so each job is a consecutive breaker failure.
    let h = Harness::start(
        Server::with_config(awesym_serve::ServerConfig {
            shard_workers: 2,
            ..awesym_serve::ServerConfig::default()
        }),
        NetConfig::default(),
    );
    let mut c = h.connect();
    c.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&c.read_line())));

    // Healthy conversation first: the trip must be observed on this
    // same, still-open connection.
    let spec = BatchSpec::new("m", grid(0, 0, 3 * 4096), RequestKind::Moments);
    c.send_line(&spec.json_line(None));
    assert!(ok_of(&parse_line(&c.read_line())));

    faults::install(FaultPlan {
        seed: 0x5110,
        chunk_crash_rate_pct: 100,
        target_shard: Some(0),
        ..FaultPlan::default()
    });
    // Each crash-job still answers every point (crashed chunks surface
    // as typed per-point errors) but counts as a breaker failure; the
    // default threshold is 8 consecutive, so keep hammering until it
    // opens.
    //
    // The binary frame below must land inside the same open window as
    // the refusal, or it becomes the half-open probe and gets evaluated.
    // A refusal with less than `ROOM_MS` left is not the one to follow
    // up: the next job then becomes the probe, fails, and re-opens the
    // breaker with a doubled cooldown.
    const ROOM_MS: u64 = 100;
    let tripped = quiet_panics(|| {
        for _ in 0..40 {
            c.send_line(&spec.json_line(None));
            let resp = parse_line(&c.read_line());
            let room = resp.get("retry_after_ms").and_then(Content::as_u64);
            if !ok_of(&resp) && room.is_none_or(|ms| ms >= ROOM_MS) {
                return Some(resp);
            }
        }
        None
    });
    let refusal = tripped.expect("breaker never opened under a 100% crash loop");
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("unavailable"),
        "{refusal:?}"
    );
    assert!(
        refusal
            .get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("circuit breaker open")),
        "{refusal:?}"
    );
    assert!(refusal.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));

    // While open, a binary request frame on the same connection gets
    // the same typed refusal (request-level errors fall back to the
    // NDJSON envelope regardless of negotiated encoding).
    c.send(&spec.frame());
    let refusal = parse_line(&c.read_line());
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("unavailable"),
        "{refusal:?}"
    );
    assert!(refusal.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    faults::clear();

    // Storm over: the same session keeps working once the cooldown
    // elapses and the half-open probe closes the breaker. A re-opened
    // breaker's cooldown can exceed this loop's polling, so each refusal
    // also waits out its own retry hint.
    let mut recovered = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        c.send_line(&spec.json_line(None));
        let resp = parse_line(&c.read_line());
        if ok_of(&resp) {
            recovered = true;
            break;
        }
        let hint = resp.get("retry_after_ms").and_then(Content::as_u64);
        std::thread::sleep(Duration::from_millis(hint.unwrap_or(0)));
    }
    assert!(recovered, "breaker never recovered after the storm");
}
