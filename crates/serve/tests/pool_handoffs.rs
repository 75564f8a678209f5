//! Exact pool hand-off counts: a job of one chunk, or one allowed a
//! single thread, runs on the submitting thread alone; a job of several
//! chunks that may use two or more threads is published to the shard's
//! pool threads once.
//!
//! The server holds the two models the end-to-end benchmark serves: the
//! §3.1 op-amp (`ro_q14:g`, `c_comp`, order 2) and the 1000-segment
//! cross-talk output (`rdrv1`, `cload2`, order 2), both compiled from
//! their SPICE text over the `compile` command. The count is read where
//! an operator reads it, from `{"cmd":"stats"}`.

use awesym_circuit::generators::{coupled_lines, opamp741, CoupledLineSpec};
use awesym_serve::{BatchOutput, BatchPoints, BatchRequest, Server, ServerConfig};
use serde::Content;

const OPAMP: &str = "opamp";
const XTALK: &str = "lines_xtalk";
const EVALS: usize = 1000;
const FRAMES: usize = 100;
const FRAME_POINTS: usize = 4096;
/// One chunk: the cross-talk tape's 60 ops put its chunk floor at 1092
/// points.
const SMALL_BATCH: usize = 300;

fn parse(server: &Server, line: &str) -> Content {
    let resp = server.handle_line(line).expect("non-empty request line");
    serde_json::from_str(resp.text()).expect("response is JSON")
}

fn ok_of(c: &Content) -> bool {
    c.get("ok").and_then(Content::as_bool) == Some(true)
}

fn compile(server: &Server, name: &str, netlist: String, output: &str, symbols: [&str; 2]) {
    let s = |v: &str| Content::Str(v.to_string());
    let req = Content::Map(vec![
        ("cmd".into(), s("compile")),
        ("name".into(), s(name)),
        ("netlist".into(), Content::Str(netlist)),
        ("input".into(), s("vin")),
        ("output".into(), s(output)),
        ("symbols".into(), Content::Seq(symbols.map(s).to_vec())),
        ("order".into(), Content::U64(2)),
    ]);
    let c = parse(server, &serde_json::to_string(&req).unwrap());
    assert!(ok_of(&c), "{c:?}");
}

/// `pool_handoffs` summed over every shard's row of `{"cmd":"stats"}`.
fn handoffs(server: &Server) -> u64 {
    parse(server, r#"{"cmd":"stats"}"#)
        .get("shards")
        .and_then(Content::as_seq)
        .expect("stats has shards")
        .iter()
        .map(|row| {
            row.get("health")
                .and_then(|h| h.get("pool_handoffs"))
                .and_then(Content::as_u64)
                .expect("shard row counts pool hand-offs")
        })
        .sum()
}

#[test]
fn single_point_requests_never_reach_the_pool_queue() {
    let server = Server::with_config(ServerConfig {
        shard_workers: 2,
        ..ServerConfig::default()
    });
    let amp = opamp741();
    compile(
        &server,
        OPAMP,
        amp.circuit.to_spice(),
        amp.circuit.node_name(amp.output),
        ["ro_q14:g", "c_comp"],
    );
    let lines = coupled_lines(&CoupledLineSpec::default());
    compile(
        &server,
        XTALK,
        lines.circuit.to_spice(),
        lines.circuit.node_name(lines.victim_out),
        ["rdrv1", "cload2"],
    );
    // `ro_q14:g` is the conductance of the output resistance.
    let g = 1.0 / amp.circuit.element(amp.ro_q14).value;
    let cc = amp.circuit.element(amp.c_comp).value;

    let before = handoffs(&server);
    for i in 0..EVALS {
        let scale = 0.5 + 1.5 * i as f64 / EVALS as f64;
        let line = format!(
            r#"{{"cmd":"eval","model":"{OPAMP}","values":[{:e},{:e}],"kind":"rom","id":{i}}}"#,
            g * scale,
            cc / scale
        );
        let c = parse(&server, &line);
        assert!(ok_of(&c), "eval {i}: {c:?}");
    }
    assert_eq!(handoffs(&server) - before, 0, "{EVALS} evals");

    let before = handoffs(&server);
    let line =
        format!(r#"{{"cmd":"batch","model":"{OPAMP}","points":[[{g:e},{cc:e}]],"kind":"rom"}}"#);
    let c = parse(&server, &line);
    assert!(ok_of(&c), "{c:?}");
    assert_eq!(c.get("ok_count").and_then(Content::as_u64), Some(1));
    assert_eq!(handoffs(&server) - before, 0, "one 1-point batch");

    let before = handoffs(&server);
    let points: Vec<String> = (0..SMALL_BATCH)
        .map(|i| {
            let s = 0.5 + 1.5 * i as f64 / SMALL_BATCH as f64;
            format!("[{:e},{:e}]", 100.0 * s, 0.5e-12 * s)
        })
        .collect();
    let line = format!(
        r#"{{"cmd":"batch","model":"{XTALK}","points":[{}],"kind":"moments"}}"#,
        points.join(",")
    );
    for _ in 0..FRAMES {
        let c = parse(&server, &line);
        assert_eq!(
            c.get("ok_count").and_then(Content::as_u64),
            Some(SMALL_BATCH as u64),
            "{c:?}"
        );
    }
    assert_eq!(
        handoffs(&server) - before,
        0,
        "{FRAMES} one-chunk {SMALL_BATCH}-point batches"
    );

    // Column-major payload: every rdrv1 value, then every cload2 value.
    let mut payload = Vec::with_capacity(FRAME_POINTS * 2 * 8);
    for nominal in [100.0, 0.5e-12] {
        for i in 0..FRAME_POINTS {
            let v: f64 = nominal * (0.5 + 1.5 * i as f64 / FRAME_POINTS as f64);
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut out = Vec::new();
    let mut frames = |workers: Option<usize>| {
        let before = handoffs(&server);
        for _ in 0..FRAMES {
            out.clear();
            let req = BatchRequest {
                model: XTALK,
                output: BatchOutput::Moments,
                points: BatchPoints::Payload {
                    count: FRAME_POINTS,
                    syms: 2,
                    payload: &payload,
                },
                deadline_ms: None,
                workers,
                id: None,
            };
            server.handle_frame_into(Ok(req), None, &mut out);
            assert!(out.starts_with(b"AWSB"), "binary response frame");
        }
        handoffs(&server) - before
    };
    assert_eq!(
        frames(None),
        FRAMES as u64,
        "{FRAMES} {FRAME_POINTS}-point frames"
    );
    assert_eq!(
        frames(Some(1)),
        0,
        "{FRAMES} {FRAME_POINTS}-point frames with workers: 1"
    );
}
