//! End-to-end NDJSON serving: compile a model over the wire, push a
//! 1000+-point batch through it deterministically, and check the
//! observability counters — the PR's acceptance scenario.

use awesym_serve::{Server, ServerConfig};
use serde::Content;

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line() -> String {
    compile_with(r#""symbols":["C1","R2:r"],"order":2"#)
}

/// A `compile` request for model `m` whose `symbols`/`order` fields are
/// `fields` verbatim.
fn compile_with(fields: &str) -> String {
    format!(
        r#"{{"cmd":"compile","name":"m","netlist":{},"input":"vin","output":"2",{fields}}}"#,
        serde_json::to_string(&NETLIST.to_string()).unwrap()
    )
}

fn batch_line(points: usize, workers: usize) -> String {
    let pts: Vec<String> = (0..points)
        .map(|i| {
            let t = i as f64 / points as f64;
            format!("[{:e},{:e}]", 0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t)
        })
        .collect();
    format!(
        r#"{{"cmd":"batch","model":"m","points":[{}],"kind":"moments","workers":{workers}}}"#,
        pts.join(",")
    )
}

fn run_session(lines: &[String]) -> Vec<String> {
    let server = Server::default();
    let input = lines.join("\n") + "\n";
    let mut out = Vec::new();
    server.serve(input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn get<'a>(c: &'a Content, key: &str) -> &'a Content {
    c.get(key).unwrap_or_else(|| panic!("missing {key}: {c:?}"))
}

#[test]
fn thousand_point_batch_is_deterministic_with_live_stats() {
    const POINTS: usize = 1200;
    let session: Vec<String> = vec![
        compile_line(),
        batch_line(POINTS, 4),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let replies = run_session(&session);
    assert_eq!(replies.len(), 4);

    let batch: Content = serde_json::from_str(&replies[1]).unwrap();
    assert_eq!(get(&batch, "ok").as_bool(), Some(true));
    assert_eq!(get(&batch, "count").as_u64(), Some(POINTS as u64));
    assert_eq!(get(&batch, "ok_count").as_u64(), Some(POINTS as u64));
    assert!(get(&batch, "points_per_sec").as_f64().unwrap() > 0.0);
    let results = get(&batch, "results").as_seq().unwrap();
    assert_eq!(results.len(), POINTS);
    // Every point carries 2q = 4 finite moments.
    for r in results {
        let m = get(r, "moments").as_seq().unwrap();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|v| v.as_f64().unwrap().is_finite()));
    }

    // Stats counters are live and nonzero after the batch.
    let stats: Content = serde_json::from_str(&replies[2]).unwrap();
    let server = get(&stats, "server");
    assert!(get(server, "requests").as_u64().unwrap() >= 2);
    assert_eq!(get(server, "batch_points").as_u64(), Some(POINTS as u64));
    assert!(get(server, "batch_points_per_sec").as_f64().unwrap() > 0.0);
    let total_latency: u64 = get(server, "latency")
        .as_seq()
        .unwrap()
        .iter()
        .map(|b| get(b, "count").as_u64().unwrap())
        .sum();
    assert_eq!(total_latency, get(server, "requests").as_u64().unwrap());
    let registry = get(&stats, "registry");
    assert!(get(registry, "hits").as_u64().unwrap() >= 1);
    assert_eq!(get(registry, "resident").as_u64(), Some(1));

    // Determinism: an identical session (even at another worker count)
    // produces byte-identical batch results.
    let replies2 = run_session(&[
        compile_line(),
        batch_line(POINTS, 1),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    let b1: Content = serde_json::from_str(&replies[1]).unwrap();
    let b2: Content = serde_json::from_str(&replies2[1]).unwrap();
    assert_eq!(get(&b1, "results"), get(&b2, "results"));
}

#[test]
fn save_then_load_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("awesym_ndjson_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let art = dir.join("wire.awesym");
    let art_json = serde_json::to_string(&art.display().to_string()).unwrap();
    let replies = run_session(&[
        compile_line(),
        format!(r#"{{"cmd":"save","model":"m","path":{art_json}}}"#),
        format!(r#"{{"cmd":"load","name":"m2","path":{art_json}}}"#),
        r#"{"cmd":"eval","model":"m2","values":[1e-9,1000.0],"kind":"delays"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    for (i, line) in replies.iter().enumerate() {
        let c: Content = serde_json::from_str(line).unwrap();
        assert_eq!(
            c.get("ok").and_then(Content::as_bool),
            Some(true),
            "line {i}: {line}"
        );
    }
    let eval: Content = serde_json::from_str(&replies[3]).unwrap();
    let elmore = get(get(&eval, "result"), "elmore").as_f64().unwrap();
    assert!(elmore > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `deadline_ms` or `workers` that is present but not a non-negative
/// integer, or a `kind` (or its alias `output`) that is present but not
/// a string, is refused on `eval` and `batch` with a typed `bad_request`
/// naming the field, whether or not the server has a default deadline
/// to fall back on. `null` still means absent and `workers: 0` still
/// means one thread.
#[test]
fn malformed_deadline_or_workers_is_a_typed_bad_request() {
    const EVAL: &str = r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]"#;
    const BATCH: &str = r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]"#;
    for default_deadline in [None, Some(60_000)] {
        let server = Server::with_config(ServerConfig {
            deadline_ms: default_deadline,
            ..ServerConfig::default()
        });
        let answer = |line: String| -> Content {
            let resp = server.handle_line(&line).expect("non-empty request line");
            serde_json::from_str(resp.text()).expect("response is JSON")
        };
        assert_eq!(get(&answer(compile_line()), "ok").as_bool(), Some(true));
        for (field, bad) in [
            ("deadline_ms", r#""0""#),
            ("deadline_ms", "-5"),
            ("deadline_ms", "0.5"),
            ("workers", r#""lots""#),
            ("workers", "-3"),
            ("kind", "7"),
            ("kind", r#"["rom"]"#),
            ("output", "true"),
        ] {
            for head in [EVAL, BATCH] {
                let line = format!(r#"{head},"{field}":{bad}}}"#);
                let c = answer(line.clone());
                assert_eq!(get(&c, "ok").as_bool(), Some(false), "{line}: {c:?}");
                assert_eq!(get(&c, "code").as_str(), Some("bad_request"), "{line}");
                let error = get(&c, "error").as_str().unwrap_or_default();
                assert!(error.contains(field), "{line}: {error}");
            }
        }
        for ok in [
            r#""deadline_ms":null"#,
            r#""workers":null"#,
            r#""workers":0"#,
            r#""deadline_ms":60000,"workers":2"#,
            r#""kind":null"#,
            r#""kind":null,"output":"dc_gain""#,
        ] {
            for head in [EVAL, BATCH] {
                let line = format!("{head},{ok}}}");
                let c = answer(line.clone());
                assert_eq!(get(&c, "ok").as_bool(), Some(true), "{line}: {c:?}");
            }
        }
        let c = answer(format!(r#"{BATCH},"deadline_ms":0}}"#));
        assert_eq!(get(&c, "deadline_exceeded").as_bool(), Some(true), "{c:?}");
        assert_eq!(get(&c, "ok_count").as_u64(), Some(0));
    }
}

/// A `compile` whose `order` is present but not a non-negative integer,
/// or whose `symbols` is present but not an array of strings, is refused
/// with a typed `bad_request` naming the field instead of compiling with
/// a default. So is an `order` outside `1..=MAX_ORDER`, before anything
/// is sized by it, an `input` that is not an independent source, and a
/// netlist that repeats an element name; the session's next `eval` still
/// answers. A `null` order means absent, so
/// order 2.
#[test]
fn malformed_compile_fields_are_a_typed_bad_request() {
    let server = Server::default();
    let answer = |line: String| -> Content {
        let resp = server.handle_line(&line).expect("non-empty request line");
        serde_json::from_str(resp.text()).expect("response is JSON")
    };
    let range = format!("1..={}", awesym_partition::MAX_ORDER);
    assert_eq!(get(&answer(compile_line()), "ok").as_bool(), Some(true));
    let eval = r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#;
    let non_source = compile_line().replace(r#""input":"vin""#, r#""input":"R1""#);
    let repeated_name = compile_line().replace("R2 1 2 1k", "R1 1 2 1k");
    for (needles, line) in [
        (
            vec!["order"],
            compile_with(r#""symbols":["C1"],"order":"4""#),
        ),
        (
            vec!["order"],
            compile_with(r#""symbols":["C1"],"order":-1"#),
        ),
        (
            vec!["order"],
            compile_with(r#""symbols":["C1"],"order":2.5"#),
        ),
        (
            vec!["symbols"],
            compile_with(r#""symbols":["C1",5,"R2:r"]"#),
        ),
        (vec!["symbols"], compile_with(r#""symbols":"C1""#)),
        (
            vec!["order 0", &range],
            compile_with(r#""symbols":["C1"],"order":0"#),
        ),
        (
            vec!["order 100000", &range],
            compile_with(r#""symbols":["C1"],"order":100000"#),
        ),
        (
            vec!["order 4294967296", &range],
            compile_with(r#""symbols":["C1"],"order":4294967296"#),
        ),
        (
            vec!["order 18446744073709551615", &range],
            compile_with(r#""symbols":["C1"],"order":18446744073709551615"#),
        ),
        (vec!["R1 is not an independent source"], non_source),
        (
            vec!["duplicate element name 'R1'", "line 5", "line 3"],
            repeated_name,
        ),
    ] {
        let c = answer(line.clone());
        assert_eq!(get(&c, "ok").as_bool(), Some(false), "{line}: {c:?}");
        assert_eq!(get(&c, "code").as_str(), Some("bad_request"), "{line}");
        let error = get(&c, "error").as_str().unwrap_or_default();
        for needle in needles {
            assert!(error.contains(needle), "{line}: {error}");
        }
        let after = answer(eval.to_string());
        assert_eq!(get(&after, "ok").as_bool(), Some(true), "after {line}");
    }
    for (fields, order, symbols) in [
        (r#""symbols":["C1","R2:r"],"order":4"#, 4, 2),
        (r#""symbols":["C1"],"order":null"#, 2, 1),
        (r#""symbols":["C1"]"#, 2, 1),
    ] {
        let line = compile_with(fields);
        let c = answer(line.clone());
        assert_eq!(get(&c, "ok").as_bool(), Some(true), "{line}: {c:?}");
        assert_eq!(get(&c, "order").as_u64(), Some(order), "{line}");
        assert_eq!(get(&c, "symbols").as_seq().map(<[_]>::len), Some(symbols));
    }
}

/// A `compile` may name any number of symbols. One that binds every
/// resistor and capacitor of the 1000-segment coupled-line netlist, each
/// as its own symbol, is refused as a `bad_request` for its port count,
/// and the session still answers.
#[test]
fn a_compile_binding_thousands_of_elements_is_refused_for_its_ports() {
    use awesym_circuit::generators::{coupled_lines, CoupledLineSpec};
    use awesym_circuit::ElementKind;
    let lines = coupled_lines(&CoupledLineSpec::default());
    let c = &lines.circuit;
    let symbols: Vec<&str> = c
        .elements()
        .iter()
        .filter(|e| matches!(e.kind, ElementKind::Resistor | ElementKind::Capacitor))
        .map(|e| e.name.as_str())
        .collect();
    assert!(symbols.len() > 4000, "{} symbols", symbols.len());
    let line = format!(
        r#"{{"cmd":"compile","name":"wide","netlist":{},"input":"vin","output":{},"symbols":{},"order":2}}"#,
        serde_json::to_string(&c.to_spice()).unwrap(),
        serde_json::to_string(c.node_name(lines.victim_out)).unwrap(),
        serde_json::to_string(&symbols).unwrap(),
    );
    let server = Server::default();
    let resp = server.handle_line(&line).expect("non-empty request line");
    let answer: Content = serde_json::from_str(resp.text()).expect("response is JSON");
    assert_eq!(get(&answer, "ok").as_bool(), Some(false), "{answer:?}");
    assert_eq!(get(&answer, "code").as_str(), Some("bad_request"));
    let error = get(&answer, "error").as_str().unwrap_or_default();
    assert!(error.contains("ports, supported max is 12"), "{error}");
    let health = server.handle_line(r#"{"cmd":"health"}"#).unwrap();
    assert!(health.text().contains(r#""ok":true"#), "{}", health.text());
}
