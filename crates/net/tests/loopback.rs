//! Loopback integration suite for the socket front end.
//!
//! The contract under test: the TCP path is a *transport*, not a
//! different server — concurrent mixed-encoding sessions produce
//! responses byte-identical to the stdin/stdout loop, and the
//! operational edges (drain, connection limit, idle timeout, protocol
//! errors, shutdown) close connections with typed answers, never
//! silently dropped requests.

mod common;

use awesym_net::{NetConfig, RequestKind};
use awesym_serve::{ErrorCode, Server, ServerConfig};
use common::*;
use serde::Content;
use std::time::{Duration, Instant};

/// The ISSUE acceptance bar: ≥8 concurrent clients, interleaved
/// NDJSON/binary sessions, every response bit-identical to the stdin
/// path (timing fields masked).
#[test]
fn eight_concurrent_mixed_sessions_match_the_stdin_path_byte_for_byte() {
    assert_socket_matches_stdin(8, 6);
}

/// Drain semantics over the socket (satellites 2 + 3):
///
/// - a client whose batch is in flight when `drain` lands still gets
///   its response before the socket closes;
/// - a request completed *after* the drain answers with a typed
///   `unavailable` (+ `retry_after_ms`) on the same connection — for
///   both request encodings — then the session closes;
/// - brand-new connections are refused with one typed `unavailable`
///   line;
/// - the accept loop itself winds down once the last session exits.
#[test]
fn drain_answers_inflight_then_closes_and_refuses_new_connections() {
    let h = Harness::start(Server::default(), NetConfig::default());

    let mut driver = h.connect();
    driver.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&driver.read_line())));

    // Two sessions parked mid-message: their half-sent requests keep
    // them open across the drain, so they can observe post-drain
    // behavior on an established connection.
    let spec = BatchSpec::new("m", grid(1, 1, 8), RequestKind::Moments);
    let straggler_line = spec.json_line(None);
    let split = straggler_line.len() / 2;
    let mut json_straggler = h.connect();
    let frame_bytes = spec.frame();
    let mut frame_straggler = h.connect();
    // A full round-trip each: the stragglers must be accepted, live
    // sessions *before* the drain, or the accept loop would refuse them
    // as newcomers.
    for straggler in [&mut json_straggler, &mut frame_straggler] {
        straggler.send_line("{\"cmd\":\"stats\"}");
        assert!(ok_of(&parse_line(&straggler.read_line())));
    }
    json_straggler.send(&straggler_line.as_bytes()[..split]);
    frame_straggler.send(&frame_bytes[..10]);
    // Let both sessions buffer their half-sent request: pending bytes
    // are what keeps a session open across the drain.
    std::thread::sleep(Duration::from_millis(100));

    // Pipeline a batch and the drain in one write: the batch is
    // buffered in flight when drain lands and must be answered first.
    let inflight = BatchSpec::new("m", grid(0, 0, 12), RequestKind::Delays);
    let mut burst = inflight.json_line(None).into_bytes();
    burst.push(b'\n');
    burst.extend_from_slice(b"{\"cmd\":\"drain\"}\n");
    driver.send(&burst);

    let batch = parse_line(&driver.read_line());
    assert!(ok_of(&batch), "in-flight batch dropped by drain: {batch:?}");
    assert_eq!(batch.get("count").and_then(Content::as_u64), Some(12));
    let drain = parse_line(&driver.read_line());
    assert_eq!(drain.get("draining").and_then(Content::as_bool), Some(true));
    // Nothing left buffered on a draining session: it closes.
    assert_eq!(driver.read_to_eof(), b"");

    // New connections are refused at the door with a typed line.
    let mut late = h.connect();
    let refusal = parse_line(&late.read_line());
    assert_eq!(refusal.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("unavailable")
    );
    assert_eq!(
        refusal.get("retry_after_ms").and_then(Content::as_u64),
        Some(ServerConfig::default().retry_after_ms)
    );
    assert_eq!(late.read_to_eof(), b"");

    // The stragglers finish their requests mid-drain: evaluation is
    // refused shard-side with the typed `unavailable` + retry hint —
    // the same error byte the wire taxonomy pins — and the NDJSON
    // fallback applies to the binary request too.
    json_straggler.send(&straggler_line.as_bytes()[split..]);
    json_straggler.send(b"\n");
    let refused = parse_line(&json_straggler.read_line());
    assert_eq!(
        refused.get("code").and_then(Content::as_str),
        Some(ErrorCode::Unavailable.as_str())
    );
    assert_eq!(ErrorCode::Unavailable.wire_byte(), 8);
    assert!(refused.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(json_straggler.read_to_eof(), b"");

    frame_straggler.send(&frame_bytes[10..]);
    let refused = parse_line(&frame_straggler.read_line());
    assert_eq!(
        refused.get("code").and_then(Content::as_str),
        Some("unavailable")
    );
    assert!(refused.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(frame_straggler.read_to_eof(), b"");

    assert_eq!(h.net.metrics().refused_draining.get(), 1);
    assert_eq!(h.net.metrics().closed_protocol.get(), 0);
    // Drain complete: the accept loop returns on its own.
    h.join().expect("accept loop exits cleanly after drain");
}

/// Past `max_conns`, newcomers get one typed `overloaded` line with the
/// adaptive retry hint and are closed; the slot frees when a session
/// ends.
#[test]
fn connection_limit_refuses_with_typed_overloaded_line() {
    let h = Harness::start(
        Server::default(),
        NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        },
    );
    let mut first = h.connect();
    // A full round-trip guarantees the first session occupies its slot.
    first.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&first.read_line())));

    let mut second = h.connect();
    let refusal = parse_line(&second.read_line());
    assert_eq!(refusal.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("overloaded")
    );
    assert!(refusal.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(second.read_to_eof(), b"");
    assert_eq!(h.net.metrics().rejected.get(), 1);

    // Closing the first session frees the slot.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    while h.net.active_connections() > 0 {
        assert!(Instant::now() < deadline, "slot never freed after close");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut retry = h.connect();
    retry.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&retry.read_line())));
}

/// A silent connection is closed once the idle timeout elapses, and the
/// close is attributed to the idle counter, not an error.
#[test]
fn idle_connections_are_closed_and_counted() {
    let h = Harness::start(
        Server::default(),
        NetConfig {
            idle_timeout: Duration::from_millis(100),
            ..NetConfig::default()
        },
    );
    let mut idle = h.connect();
    // Activity resets the clock; afterwards, silence.
    idle.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&idle.read_line())));
    let t0 = Instant::now();
    assert_eq!(idle.read_to_eof(), b"");
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(75),
        "closed too early: {elapsed:?}"
    );
    assert_eq!(h.net.metrics().closed_idle.get(), 1);
}

/// A framing error desyncs the stream: the session answers one typed
/// `bad_request` line and closes, and the close is attributed to the
/// protocol counter.
#[test]
fn bad_frame_header_gets_typed_error_then_close() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut c = h.connect();
    let mut frame = BatchSpec::new("m", grid(0, 0, 2), RequestKind::Moments).frame();
    frame[4] = 9; // bad version
    c.send(&frame);
    let err = parse_line(&c.read_line());
    assert_eq!(err.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert!(
        err.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("version")),
        "{err:?}"
    );
    assert_eq!(c.read_to_eof(), b"");
    assert_eq!(h.net.metrics().closed_protocol.get(), 1);
}

/// A message past the engine's `max_line_bytes` is a typed error and a
/// close, for both an oversized line and a frame whose header declares
/// too much.
#[test]
fn oversized_messages_get_typed_error_then_close() {
    let h = Harness::start(
        Server::with_config(ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        }),
        NetConfig::default(),
    );
    let mut c = h.connect();
    c.send(&vec![b'x'; 512]);
    let err = parse_line(&c.read_line());
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert!(
        err.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("limit")),
        "{err:?}"
    );
    assert_eq!(c.read_to_eof(), b"");

    let mut c = h.connect();
    // 4096 points × 2 symbols × 8 bytes declared: rejected from the
    // header alone, before any payload is buffered.
    c.send(&BatchSpec::new("m", grid(0, 0, 4096), RequestKind::Moments).frame()[..44]);
    let err = parse_line(&c.read_line());
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert_eq!(c.read_to_eof(), b"");
    assert_eq!(h.net.metrics().closed_protocol.get(), 2);
}

/// A `shutdown` request over any session stops the whole front end:
/// the sender gets its response, every session closes, and the accept
/// loop returns.
#[test]
fn shutdown_over_a_socket_session_stops_the_listener() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut bystander = h.connect();
    bystander.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&bystander.read_line())));

    let mut c = h.connect();
    c.send_line("{\"cmd\":\"shutdown\"}");
    let resp = parse_line(&c.read_line());
    assert_eq!(resp.get("shutdown").and_then(Content::as_bool), Some(true));
    assert_eq!(c.read_to_eof(), b"");
    // The bystander session notices the flag on its next poll.
    assert_eq!(bystander.read_to_eof(), b"");
    h.join().expect("accept loop exits after shutdown");
}

/// The accept loop blocks in `accept` instead of sleeping between
/// polls, so a new connection's first request is answered at once, not
/// after the rest of a poll period. Fastest of five fresh servers, each
/// idle for a few milliseconds before its first client connects.
#[test]
fn first_request_on_a_fresh_server_is_answered_without_an_accept_delay() {
    let fastest = (0..5)
        .map(|_| {
            let h = Harness::start(Server::default(), NetConfig::default());
            std::thread::sleep(Duration::from_millis(3));
            let t0 = Instant::now();
            let mut c = h.connect();
            c.send_line("{\"cmd\":\"health\"}");
            assert!(ok_of(&parse_line(&c.read_line())));
            t0.elapsed()
        })
        .min()
        .expect("five samples");
    assert!(
        fastest < Duration::from_millis(5),
        "first health answered after {fastest:?}"
    );
}

/// `request_shutdown` wakes an accept loop that is blocked with no
/// client in sight, and `run` returns.
#[test]
fn request_shutdown_wakes_an_idle_accept_loop() {
    let h = Harness::start(Server::default(), NetConfig::default());
    std::thread::sleep(Duration::from_millis(20));
    h.net.request_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || tx.send(h.join()));
    let ended = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("accept loop returns after request_shutdown");
    ended.expect("accept loop exits cleanly");
    joiner
        .join()
        .expect("joiner thread")
        .expect("result delivered");
}
