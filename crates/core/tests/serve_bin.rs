//! End-to-end test of the built `awesym` binary's serve loop.
//!
//! Regression context: the serve CLI used to pass `stderr().lock()` as
//! the stats sink, holding the stderr lock for the whole serve loop. Any
//! worker-thread write to stderr — such as panic-hook output — then
//! deadlocked against the blocked submitter: the first batch request
//! never answered. This test drives the real binary over pipes, with the
//! stderr stats sink live, so that process-level wiring stays covered.

use awesym_serve::{Server, ServerConfig};
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

const NETLIST: &str =
    "* rc divider\nVIN in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 out 2k\nC2 out 0 1n\n.end\n";

/// A canned session: load, one 77-point batch (two lane blocks and a
/// scalar tail), shutdown.
fn session(model_path: &str) -> String {
    let points: Vec<String> = (0..77)
        .map(|i| format!("[{:e}]", 1e-9 * (0.5 + 0.07 * i as f64)))
        .collect();
    format!(
        "{{\"cmd\":\"load\",\"name\":\"rc\",\"path\":\"{}\",\"id\":1}}\n\
         {{\"cmd\":\"batch\",\"model\":\"rc\",\"points\":[{}],\"kind\":\"moments\",\"id\":2}}\n\
         {{\"cmd\":\"shutdown\",\"id\":3}}\n",
        model_path,
        points.join(",")
    )
}

/// Runs `awesym serve --stats-every 1`, feeding `input` on stdin. A
/// watchdog kills the child if it has not exited within 60 s, so a
/// serve-loop deadlock fails the test instead of hanging CI.
fn run_serve(input: impl AsRef<[u8]>) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_awesym"))
        .args(["serve", "--stats-every", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn awesym serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input.as_ref())
        .expect("write session");
    let child = Arc::new(Mutex::new(child));
    let watchdog = Arc::clone(&child);
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(60));
        // Ignores the error when the child already exited and was reaped.
        let _ = watchdog.lock().unwrap().kill();
    });
    let out = {
        let mut child = child.lock().unwrap();
        let stdout = child.stdout.take().expect("child stdout");
        let stderr = child.stderr.take().expect("child stderr");
        let stdout = std::thread::spawn(move || std::io::read_to_string(stdout));
        let stderr_text = std::io::read_to_string(stderr).expect("read stderr");
        let stdout_text = stdout.join().expect("stdout reader").expect("read stdout");
        let status = child.wait().expect("wait child");
        assert!(
            status.success(),
            "serve exited with {status}; stderr:\n{stderr_text}"
        );
        (stdout_text, stderr_text)
    };
    out
}

/// Strips the per-response timing fields so runs can be compared.
fn strip_timing(stdout: &str) -> String {
    stdout
        .lines()
        .map(|line| {
            let mut cleaned = String::new();
            let mut rest = line;
            for key in ["\"elapsed_secs\":", "\"points_per_sec\":"] {
                if let Some(at) = rest.find(key) {
                    let tail = &rest[at + key.len()..];
                    let end = tail.find([',', '}']).unwrap_or(tail.len());
                    cleaned.push_str(&rest[..at]);
                    rest = tail[end..].strip_prefix(',').unwrap_or(&tail[end..]);
                }
            }
            cleaned.push_str(rest);
            cleaned
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn serve_binary_matches_in_process_server() {
    let dir = std::env::temp_dir().join(format!("awesym-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let netlist = dir.join("rc.sp");
    std::fs::write(&netlist, NETLIST).expect("write netlist");
    let model = dir.join("m.awesym");
    let status = Command::new(env!("CARGO_BIN_EXE_awesym"))
        .args(["model"])
        .arg(&netlist)
        .args([
            "--input", "VIN", "--output", "out", "--symbol", "C1", "--order", "2", "--out",
        ])
        .arg(&model)
        .status()
        .expect("run awesym model");
    assert!(status.success(), "model build failed: {status}");

    let input = session(model.to_str().expect("utf8 path"));
    let (out, err) = run_serve(&input);
    assert_eq!(out.lines().count(), 3, "load/batch/shutdown responses");
    assert!(out.lines().all(|l| l.contains("\"ok\":true")), "{out}");
    // The stats sink was live: one stats line per answered request.
    assert_eq!(
        err.lines()
            .filter(|l| l.starts_with("{\"stats\":true"))
            .count(),
        3,
        "stderr:\n{err}"
    );

    // The same session through an in-process server answers the same
    // bytes, timing fields aside.
    let server = Server::with_config(ServerConfig {
        stats_every: 1,
        ..ServerConfig::default()
    });
    let mut reference = Vec::new();
    server
        .serve_with_stats(input.as_bytes(), &mut reference, std::io::sink())
        .expect("in-process serve");
    let reference = String::from_utf8(reference).expect("NDJSON is UTF-8");
    assert_eq!(strip_timing(&out), strip_timing(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `compile` whose netlist repeats an element name is answered with a
/// typed `bad_request`, and the process goes on serving: the repeat used
/// to panic inside `Circuit::add` and end `awesym serve` with exit 101.
/// A request line that is not UTF-8 gets a typed error, and the next
/// request is still answered; the process used to exit 1 with "stream
/// did not contain valid UTF-8".
#[test]
fn serve_binary_answers_a_non_utf8_line_and_keeps_serving() {
    let (out, _) = run_serve(b"{\"cmd\":\"health\"}\n\xff\xfe\n{\"cmd\":\"health\"}\n");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    assert!(
        lines[1].contains("\"code\":\"bad_request\"")
            && lines[1].contains("request line is not valid UTF-8"),
        "{}",
        lines[1]
    );
    assert!(
        lines[0].contains("\"ok\":true") && lines[2].contains("\"ok\":true"),
        "{out}"
    );
}

#[test]
fn serve_binary_answers_a_repeated_element_name_and_keeps_serving() {
    let compile = |netlist: &str| {
        format!(
            "{{\"cmd\":\"compile\",\"name\":\"rc\",\"netlist\":{},\"input\":\"VIN\",\"output\":\"out\",\"symbols\":[\"C1\"]}}\n",
            serde_json::to_string(&serde_json::Value::Str(netlist.to_string()))
                .expect("netlist JSON")
        )
    };
    let repeated = NETLIST.replace("R2 1 out", "R1 1 out");
    let input = format!(
        "{}{}{{\"cmd\":\"eval\",\"model\":\"rc\",\"values\":[1e-9]}}\n{{\"cmd\":\"shutdown\"}}\n",
        compile(&repeated),
        compile(NETLIST)
    );
    let (out, _) = run_serve(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert!(
        lines[0].contains("\"code\":\"bad_request\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains("duplicate element name 'R1' (first defined on line 3)"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1..].iter().all(|l| l.contains("\"ok\":true")),
        "{out}"
    );
}
