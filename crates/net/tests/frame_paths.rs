//! The typed binary request path against its reference.
//!
//! The socket front end decodes an `AWSQ` frame with [`decode_batch`]
//! and answers it through [`Server::handle_frame_into`] without ever
//! building a JSON tree. The reference path decodes the same frame with
//! [`decode_request`] into the request tree the equivalent JSON line
//! parses to and answers it through [`Server::handle_decoded_into`].
//! For every frame the reference accepts, both must answer with the same
//! bytes (the binary frame's `elapsed_ns` aside); a frame the reference
//! rejects must get a typed `bad_request` from both. Then loopback
//! regressions: a tiny frame claiming `u32::MAX` symbol-free points, and
//! step batches whose results would run to terabytes, must get typed
//! answers, not bring the server down.

mod common;

use awesym_net::{
    decode_batch, decode_request, encode_request, NetConfig, RequestFrame, RequestKind,
    REQUEST_HEADER_LEN, REQUEST_MAGIC, REQUEST_VERSION,
};
use awesym_serve::{
    ServeError, Server, ServerConfig, WireEncoding, DEFAULT_MAX_BATCH_POINTS, MAX_RESULT_VALUES,
};
use common::*;
use serde::Content;

/// `max_batch_points` of the test server: low enough that an over-limit
/// frame still decodes on the reference path.
const MAX_POINTS: usize = 600;

/// A deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn wrap(e: awesym_net::RequestFrameError) -> ServeError {
    ServeError::BadRequest {
        what: format!("binary request frame: {e}"),
    }
}

/// The typed path's answer, as the socket session produces it.
fn typed(server: &Server, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    server.handle_frame_into(decode_batch(frame).map_err(wrap), None, &mut out);
    out
}

/// The reference path's answer.
fn reference(server: &Server, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    server.handle_decoded_into(
        decode_request(frame).map_err(wrap),
        WireEncoding::BinaryV1,
        None,
        &mut out,
    );
    out
}

/// Zeroes the timing fields of either response form.
fn masked(resp: &[u8]) -> Vec<u8> {
    if resp.starts_with(b"AWSB") {
        let mut frame = resp.to_vec();
        mask_frame_timing(&mut frame);
        frame
    } else {
        mask_line_timing(resp).into_bytes()
    }
}

fn code_of(resp: &[u8]) -> Option<String> {
    parse_line(resp)
        .get("code")
        .and_then(Content::as_str)
        .map(str::to_string)
}

fn frame_of(spec: &BatchSpec, syms: Option<usize>) -> Vec<u8> {
    let points: Vec<Vec<f64>> = match syms {
        Some(n) => spec
            .points
            .iter()
            .map(|p| p.iter().copied().cycle().take(n).collect())
            .collect(),
        None => spec.points.clone(),
    };
    let mut out = Vec::new();
    encode_request(
        &RequestFrame {
            model: &spec.model,
            points: &points,
            kind: spec.kind,
            times: &spec.times,
            deadline_ms: spec.deadline_ms,
            workers: spec.workers,
            id: spec.id.as_deref(),
        },
        &mut out,
    )
    .expect("frame encodes");
    out
}

/// A header-only frame (no name bytes beyond `name`, no payload): the
/// shape of a hostile symbol-free batch.
fn bare_frame(name: &str, count: u32) -> Vec<u8> {
    let mut f = Vec::with_capacity(REQUEST_HEADER_LEN + name.len());
    f.extend_from_slice(&REQUEST_MAGIC);
    f.extend_from_slice(&REQUEST_VERSION.to_le_bytes());
    f.extend_from_slice(&0u16.to_le_bytes()); // flags
    f.extend_from_slice(&count.to_le_bytes());
    f.extend_from_slice(&0u32.to_le_bytes()); // symbols
    f.extend_from_slice(&0u32.to_le_bytes()); // times
    f.extend_from_slice(&(name.len() as u32).to_le_bytes());
    f.extend_from_slice(&0u32.to_le_bytes()); // id length
    f.extend_from_slice(&0u64.to_le_bytes()); // deadline
    f.extend_from_slice(&0u32.to_le_bytes()); // workers
    f.extend_from_slice(&[0, 0, 0, 0]); // kind moments + reserved
    f.extend_from_slice(name.as_bytes());
    f
}

fn compiled_server() -> Server {
    let server = Server::with_config(ServerConfig {
        max_batch_points: MAX_POINTS,
        ..ServerConfig::default()
    });
    let compiled = server.handle_line(&compile_line("m")).expect("compile");
    assert!(ok_of(&parse_line(&compiled.body)), "{}", compiled.text());
    server
}

#[test]
fn typed_frames_answer_byte_identically_to_the_reference_path() {
    const KINDS: [RequestKind; 4] = [
        RequestKind::Moments,
        RequestKind::DcGain,
        RequestKind::Delays,
        RequestKind::Step,
    ];
    let server = compiled_server();
    let mut rng = Rng(0x5eed_f4a3);
    let mut frames: Vec<(String, Vec<u8>)> = Vec::new();
    for case in 0..96 {
        let kind = KINDS[case % 4];
        let n = 1 + rng.below(180) as usize;
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![0.5e-9 + 3e-9 * rng.unit(), 300.0 + 4000.0 * rng.unit()])
            .collect();
        let mut spec = BatchSpec::new("m", points, kind);
        spec.id = match rng.below(4) {
            0 => None,
            1 => Some(format!("{}", rng.below(1 << 40))),
            2 => Some(format!("\"req-{case}-β\"")),
            _ => Some(format!("{{\"case\":{case},\"tags\":[1,-2.5,null]}}")),
        };
        spec.deadline_ms = (rng.below(3) == 0).then_some(60_000);
        spec.workers = match rng.below(3) {
            0 => None,
            w => Some(w as u32 * 2),
        };
        frames.push((format!("case {case} ({kind:?})"), frame_of(&spec, None)));
    }
    // Error paths.
    let base = |kind| {
        let mut spec = BatchSpec::new("m", grid(3, 5, 40), kind);
        spec.id = Some("\"err\"".into());
        spec
    };
    let mut spec = base(RequestKind::Moments);
    spec.model = "ghost".into();
    frames.push(("unknown model".into(), frame_of(&spec, None)));
    frames.push((
        "symbol-count mismatch".into(),
        frame_of(&base(RequestKind::Delays), Some(3)),
    ));
    let mut spec = base(RequestKind::DcGain);
    spec.points[17][1] = f64::NAN;
    spec.points[23][0] = f64::INFINITY;
    frames.push(("non-finite value".into(), frame_of(&spec, None)));
    let mut spec = base(RequestKind::Step);
    spec.times[1] = f64::NEG_INFINITY;
    frames.push(("non-finite time".into(), frame_of(&spec, None)));
    let mut spec = base(RequestKind::Moments);
    spec.points = grid(1, 1, MAX_POINTS + 100);
    frames.push(("over-limit count".into(), frame_of(&spec, None)));
    let mut spec = base(RequestKind::Step);
    spec.points = grid(1, 2, MAX_POINTS);
    spec.times = vec![1e-9; MAX_RESULT_VALUES / MAX_POINTS + 1];
    frames.push(("over-limit result size".into(), frame_of(&spec, None)));
    for kind in KINDS {
        let mut spec = base(kind);
        spec.deadline_ms = Some(0);
        frames.push((format!("deadline_ms = 0 ({kind:?})"), frame_of(&spec, None)));
    }
    frames.push(("symbol-free batch".into(), bare_frame("m", 3)));

    for (what, frame) in &frames {
        let want = reference(&server, frame);
        let got = typed(&server, frame);
        assert_eq!(
            masked(&got),
            masked(&want),
            "{what}: typed response differs from the reference path"
        );
    }
}

#[test]
fn frames_the_reference_rejects_are_bad_requests_on_both_paths() {
    let server = compiled_server();
    let good = BatchSpec::new("m", grid(0, 0, 8), RequestKind::Moments).frame();
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    let mut bad_kind = good.clone();
    bad_kind[40] = 9;
    let mut trailing = good.clone();
    trailing.push(0);
    let truncated = good[..good.len() - 3].to_vec();
    // Beyond the reference decoder's own count guard (the server default
    // limit), with no payload to bound the count.
    let huge = bare_frame("m", (DEFAULT_MAX_BATCH_POINTS + 1) as u32);
    let hostile = bare_frame("m", u32::MAX);
    for (what, frame) in [
        ("bad magic", bad_magic),
        ("bad kind", bad_kind),
        ("trailing bytes", trailing),
        ("truncated", truncated),
        ("count above the default limit", huge),
        ("u32::MAX count", hostile),
    ] {
        assert!(decode_request(&frame).is_err(), "{what}: reference accepts");
        for (path, resp) in [
            ("typed", typed(&server, &frame)),
            ("reference", reference(&server, &frame)),
        ] {
            assert_eq!(
                code_of(&resp).as_deref(),
                Some("bad_request"),
                "{what}: {path} path answered {}",
                String::from_utf8_lossy(&resp)
            );
        }
    }
}

#[test]
fn hostile_point_count_is_answered_and_the_server_stays_up() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut admin = h.connect();
    admin.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&admin.read_line())));

    // 45 bytes that claim 2^32 − 1 points of zero symbols: nothing in
    // the frame bounds the count, so only the limit check stands between
    // it and a multi-gigabyte allocation.
    let hostile = bare_frame("m", u32::MAX);
    assert_eq!(hostile.len(), 45);
    let mut client = h.connect();
    client.send(&hostile);
    let resp = parse_line(&client.read_line());
    assert_eq!(
        resp.get("code").and_then(Content::as_str),
        Some("bad_request"),
        "{resp:?}"
    );
    assert!(
        resp.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("4294967295 points")),
        "{resp:?}"
    );
    // The frame was well delimited, so the session is still usable ...
    client.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&client.read_line())));
    // ... and a fresh connection gets a normal answer.
    let spec = BatchSpec::new("m", grid(2, 2, 64), RequestKind::Moments);
    let mut fresh = h.connect();
    fresh.send(&spec.frame());
    let frame = awesym_serve::decode_frame(&fresh.read_frame()).expect("binary response");
    assert_eq!(frame.count, 64);
    assert_eq!(frame.ok_count, 64);
}

#[test]
fn oversized_step_results_are_answered_and_the_server_stays_up() {
    const TIMES: usize = 4096;
    let n_points = MAX_RESULT_VALUES / TIMES + 1;
    let limit = format!("limit is {MAX_RESULT_VALUES} values");
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut client = h.connect();
    client.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&client.read_line())));

    // ~100 KB of NDJSON asking for 2^27 + 4096 step samples (1 GiB), on
    // points that are all arity errors. Nothing sized by the product may
    // be allocated before the check.
    let times = vec!["1e-9"; TIMES].join(",");
    let points = vec!["[]"; n_points].join(",");
    client.send_line(&format!(
        r#"{{"cmd":"batch","model":"m","kind":"step","times":[{times}],"points":[{points}],"id":7}}"#
    ));
    let resp = parse_line(&client.read_line());
    assert_eq!(
        resp.get("code").and_then(Content::as_str),
        Some("bad_request"),
        "{resp:?}"
    );
    assert!(
        resp.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains(&limit)),
        "{resp:?}"
    );

    // The same request as a binary frame with valid points.
    let mut spec = BatchSpec::new("m", grid(0, 1, n_points), RequestKind::Step);
    spec.times = vec![1e-9; TIMES];
    client.send(&spec.frame());
    let resp = parse_line(&client.read_line());
    assert_eq!(
        resp.get("code").and_then(Content::as_str),
        Some("bad_request"),
        "{resp:?}"
    );

    // The session still evaluates, and so does a fresh connection.
    let small = BatchSpec::new("m", grid(0, 2, 40), RequestKind::Step);
    client.send(&small.frame());
    let frame = awesym_serve::decode_frame(&client.read_frame()).expect("binary response");
    assert_eq!((frame.count, frame.ok_count), (40, 40));
    let mut fresh = h.connect();
    fresh.send_line(&small.json_line(None));
    let resp = parse_line(&fresh.read_line());
    assert!(ok_of(&resp), "{resp:?}");
    assert_eq!(resp.get("ok_count").and_then(Content::as_u64), Some(40));
}
