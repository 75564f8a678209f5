//! Request-decode benchmark: NDJSON batch-line parsing vs. the
//! binary-v1 `AWSQ` request frame, at several batch shapes.
//!
//! ```text
//! cargo run --release -p awesym-bench --bin net_bench
//! cargo run --release -p awesym-bench --bin net_bench -- --reps 25
//! ```
//!
//! Both paths are measured at the exact point the socket front end runs
//! them on a complete message: `serde_json::from_str` on the request
//! line, and on the frame `awesym_net::decode_batch` plus the copy of
//! its payload into the engine's column buffer
//! ([`awesym_serve::FrameRequest::columns`]). The frame carries the same
//! points the line does (checked before timing; the loopback and
//! `frame_paths` suites pin the two paths' responses bit-for-bit), so
//! this is a decode-cost comparison on identical requests.
//!
//! Emits `results/BENCH_net.json` plus a console table. `bench_gate`
//! enforces the headline `decode_speedup_min`: the binary request path
//! must stay at least 2x faster than NDJSON parsing at every measured
//! shape — the whole point of shipping a second request encoding.

use awesym_bench::time_median;
use awesym_net::{decode_batch, encode_request, RequestFrame, RequestKind};
use serde::Content;
use std::fmt::Write as _;
use std::path::Path;

/// Measured batch shapes: (points, symbols per point). The small shape
/// is header-dominated, the wide one payload-dominated; the gate floor
/// must hold across the range.
const SHAPES: [(usize, usize); 3] = [(256, 2), (4096, 2), (4096, 8)];

/// Deterministic evaluation grid matching the loopback suite's value
/// range: plausible magnitudes (ns-scale and ohm-scale), never round
/// numbers, so NDJSON pays realistic float-text lengths.
fn make_points(count: usize, syms: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..syms)
                .map(|s| {
                    let t = ((i * 7 + s * 13) % 97) as f64 / 97.0;
                    if s % 2 == 0 {
                        0.5e-9 + 3e-9 * t
                    } else {
                        300.0 + 4000.0 * t
                    }
                })
                .collect()
        })
        .collect()
}

/// The NDJSON request line for `points`, byte-for-byte what a text
/// client would send (shortest-roundtrip floats via the serializer).
fn json_line(points: &[Vec<f64>]) -> String {
    let rows = points
        .iter()
        .map(|p| Content::Seq(p.iter().map(|&v| Content::F64(v)).collect()))
        .collect();
    let req = Content::Map(vec![
        ("cmd".to_string(), Content::Str("batch".to_string())),
        ("model".to_string(), Content::Str("m".to_string())),
        ("points".to_string(), Content::Seq(rows)),
        ("kind".to_string(), Content::Str("moments".to_string())),
    ]);
    serde_json::to_string(&req).expect("serialize request line")
}

/// The equivalent binary-v1 `AWSQ` frame.
fn frame_bytes(points: &[Vec<f64>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request(
        &RequestFrame {
            model: "m",
            points,
            kind: RequestKind::Moments,
            times: &[],
            deadline_ms: None,
            workers: None,
            id: None,
        },
        &mut out,
    )
    .expect("encode request frame");
    out
}

struct CaseResult {
    name: String,
    points: usize,
    symbols: usize,
    line_bytes: usize,
    frame_bytes: usize,
    ndjson_secs: f64,
    binary_secs: f64,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        self.ndjson_secs / self.binary_secs
    }
}

fn run_case(count: usize, syms: usize, reps: usize) -> CaseResult {
    let points = make_points(count, syms);
    let line = json_line(&points);
    let frame = frame_bytes(&points);
    // Sanity outside the timed loops: the two decodes agree on the
    // payload (the line's rows are the frame's columns, bit for bit).
    let from_line: Content = serde_json::from_str(&line).expect("parse line");
    let rows = from_line
        .get("points")
        .and_then(Content::as_seq)
        .expect("line points");
    let columns = decode_batch(&frame)
        .expect("decode frame")
        .columns()
        .expect("finite payload");
    for (i, row) in rows.iter().enumerate() {
        for (s, v) in row.as_seq().expect("point row").iter().enumerate() {
            assert_eq!(
                v.as_f64().map(f64::to_bits),
                Some(columns.values()[s * count + i].to_bits()),
                "decoded points diverge at {count}x{syms}"
            );
        }
    }
    let ndjson_secs = time_median(reps, || {
        let parsed: Content = serde_json::from_str(&line).expect("parse line");
        std::hint::black_box(parsed);
    });
    let binary_secs = time_median(reps, || {
        let decoded = decode_batch(&frame).expect("decode frame");
        std::hint::black_box(decoded.columns().expect("finite payload"));
    });
    CaseResult {
        name: format!("batch_{count}pt_{syms}sym"),
        points: count,
        symbols: syms,
        line_bytes: line.len(),
        frame_bytes: frame.len(),
        ndjson_secs,
        binary_secs,
    }
}

fn json_report(reps: usize, results: &[CaseResult], speedup_min: f64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"net\",");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"decode_speedup_min\": {speedup_min:e},");
    s.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"points\": {},", r.points);
        let _ = writeln!(s, "      \"symbols\": {},", r.symbols);
        let _ = writeln!(s, "      \"line_bytes\": {},", r.line_bytes);
        let _ = writeln!(s, "      \"frame_bytes\": {},", r.frame_bytes);
        let _ = writeln!(s, "      \"ndjson_parse_secs\": {:e},", r.ndjson_secs);
        let _ = writeln!(s, "      \"binary_decode_secs\": {:e},", r.binary_secs);
        let _ = writeln!(
            s,
            "      \"ndjson_points_per_sec\": {:e},",
            r.points as f64 / r.ndjson_secs
        );
        let _ = writeln!(
            s,
            "      \"binary_points_per_sec\": {:e},",
            r.points as f64 / r.binary_secs
        );
        let _ = writeln!(s, "      \"decode_speedup\": {:e}", r.speedup());
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Median of 25 reps: each timed pass is well under a millisecond, so
    // a wide median costs nothing and keeps the gate comparison stable.
    let mut reps = 25usize;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--reps needs a positive integer"))
            }
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

    let results: Vec<CaseResult> = SHAPES
        .iter()
        .map(|&(count, syms)| run_case(count, syms, reps))
        .collect();

    println!(
        "{:<20} {:>10} {:>10} {:>14} {:>14} {:>9}",
        "case", "line B", "frame B", "ndjson pts/s", "binary pts/s", "speedup"
    );
    for r in &results {
        println!(
            "{:<20} {:>10} {:>10} {:>14.0} {:>14.0} {:>8.2}x",
            r.name,
            r.line_bytes,
            r.frame_bytes,
            r.points as f64 / r.ndjson_secs,
            r.points as f64 / r.binary_secs,
            r.speedup()
        );
    }
    let speedup_min = results
        .iter()
        .map(CaseResult::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("decode speedup (min across shapes): {speedup_min:.2}x");

    let out = out_path.map_or_else(
        || Path::new("results").join("BENCH_net.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json_report(reps, &results, speedup_min)).expect("write report");
    println!("wrote {}", out.display());
}
