//! The traced run: replays every workload's seeded inputs through each
//! layer's public entry points, in pipeline order, and prints the
//! per-layer table.
//!
//! Every call is timed from the benchmark's own code as a span (name,
//! start, end, parent, request id); spans stay in memory and are written
//! as NDJSON when the run ends. For the serve workloads each request goes
//! to a server child over the socket and then through an in-process
//! `Server` with the same fleet, interleaved, which gives the client-side
//! latency, byte counts and the server's own stage times next to the
//! in-process layer times. Allocations are counted by the counting global
//! allocator in a separate replay of the same requests.

use crate::alloc;
use crate::client::{classify, mask_timing, Conn, Outcome};
use crate::fleet::{self, BULK_MODEL, RPC_MODEL};
use crate::mc;
use crate::report::{median, quantile, Metric, Output};
use crate::serve_load::{self, Inputs, Shape};
use awesym_serve::{BatchOutput, Server, WireEncoding};
use serde::Content;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `rpc_small` requests replayed in process (the whole ring, once).
const RPC_REPLAY: usize = fleet::RPC_RING;
/// `rpc_small` requests sent interleaved over the socket and in process.
const RPC_SOCKET: u64 = 16_384;
/// `bulk_binary` frames replayed in process (the ring, this many times).
const BULK_REPLAY_ROUNDS: usize = 8;
/// `bulk_binary` frames sent interleaved over the socket and in process.
const BULK_SOCKET: u64 = 256;
/// Repetitions of each fleet model's parse and compile.
const COMPILE_REPS: usize = 5;
/// Traced/untraced pairs in the tracing-overhead comparison.
const OVERHEAD_PAIRS: usize = 32;
/// `rpc_small` requests per half of a pair.
const OVERHEAD_SLICE: usize = 512;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// The in-memory span log.
struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            list: Vec::with_capacity(1 << 17),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Spans::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result and duration (ns).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = black_box(f());
        self.close(id);
        let s = &self.list[id];
        (out, (s.end_ns - s.start_ns) as f64)
    }

    fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.list.len() * 96);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.flush()
    }
}

/// Runs `f` with allocation counting on; returns `(result, allocs,
/// bytes)`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = alloc::counts();
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    let (a1, b1) = alloc::counts();
    (out, a1 - a0, b1 - b0)
}

/// Per-stage mean times (µs) of the server's own stage histograms
/// between two `stats` snapshots: parse, lookup, eval, degrade,
/// serialize, then the transport wait.
fn stage_means(before: &Content, after: &Content) -> Result<Vec<(String, f64)>, String> {
    let pick = |c: &Content| -> Result<Vec<(String, f64, f64)>, String> {
        let server = c.get("server").ok_or("stats response has no 'server'")?;
        let stages = server
            .get("stages")
            .and_then(Content::as_seq)
            .ok_or("stats response has no 'stages'")?;
        let mut rows: Vec<&Content> = stages.iter().collect();
        rows.push(server.get("wait").ok_or("stats response has no 'wait'")?);
        rows.iter()
            .map(|s| {
                let name = s
                    .get("stage")
                    .and_then(Content::as_str)
                    .ok_or("stage name")?;
                let count = s
                    .get("count")
                    .and_then(Content::as_f64)
                    .ok_or("stage count")?;
                let total = s
                    .get("total_ns")
                    .and_then(Content::as_f64)
                    .ok_or("stage total")?;
                Ok((name.to_string(), count, total))
            })
            .collect()
    };
    let (b, a) = (pick(before)?, pick(after)?);
    Ok(b.iter()
        .zip(&a)
        .map(|((name, c0, t0), (_, c1, t1))| {
            let n = (c1 - c0).max(1.0);
            (name.clone(), (t1 - t0) / n * 1e-3)
        })
        .collect())
}

/// The serve path, interleaved request by request: each request goes
/// over the socket to the server child, then through the in-process
/// engine (AWSQ decode first, for frames), so drift in the host's speed
/// hits the client time and the in-process time alike.
struct SocketSide {
    /// Client-observed latency per request, ns.
    lat: Vec<f64>,
    /// In-process AWSQ decode per request, ns (frames only).
    decode: Vec<f64>,
    /// In-process engine call per request, ns.
    handle: Vec<f64>,
    bytes_in_per_req: f64,
    bytes_out_per_req: f64,
    stages: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

fn interleaved(
    conn: &mut Conn,
    server: &Server,
    inputs: &Inputs,
    shape: Shape,
    requests: u64,
    spans: &mut Spans,
) -> Result<SocketSide, String> {
    let before = conn.call_json("{\"cmd\":\"stats\"}")?;
    let (ring, _) = inputs.ring(shape);
    let (out0, in0) = (conn.bytes_out, conn.bytes_in);
    let mut side = SocketSide {
        lat: Vec::new(),
        decode: Vec::new(),
        handle: Vec::new(),
        bytes_in_per_req: 0.0,
        bytes_out_per_req: 0.0,
        stages: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    let (mut resp, mut out) = (Vec::with_capacity(1 << 18), Vec::with_capacity(1 << 18));
    for k in 0..requests {
        let req = &ring[(k % ring.len() as u64) as usize];
        let root = spans.open("request", None, k);
        let (sent, t) = spans.time("client.socket", Some(root), k, || {
            conn.send(req)?;
            conn.read_message_into(&mut resp)
        });
        sent?;
        side.lat.push(t);
        side.attempted += 1;
        if classify(&resp) != Outcome::Ok {
            side.failed += 1;
        }
        out.clear();
        let (_, t) = if req.starts_with(&awesym_net::REQUEST_MAGIC) {
            let (decoded, t) = spans.time("net.awsq_decode", Some(root), k, || {
                awesym_net::decode_request(req).expect("frame decodes")
            });
            side.decode.push(t);
            spans.time("serve.handle", Some(root), k, || {
                server.handle_decoded_into(Ok(decoded), WireEncoding::BinaryV1, None, &mut out);
            })
        } else {
            let line = std::str::from_utf8(req).expect("request lines are UTF-8");
            spans.time("serve.handle", Some(root), k, || {
                server.handle_line_into(line, &mut out);
            })
        };
        side.handle.push(t);
        spans.close(root);
        if mask_timing(&resp) != mask_timing(&out) {
            side.mismatches.push(format!(
                "request {k}: socket response differs from the in-process server"
            ));
        }
    }
    let n = side.attempted as f64;
    // "In" and "out" from the server's side: request bytes in, response
    // bytes out.
    side.bytes_in_per_req = (conn.bytes_out - out0) as f64 / n;
    side.bytes_out_per_req = (conn.bytes_in - in0) as f64 / n;
    let after = conn.call_json("{\"cmd\":\"stats\"}")?;
    side.stages = stage_means(&before, &after)?;
    Ok(side)
}

/// Per-request layer times (ns) from one timed replay, and allocation
/// totals from a separate counted replay of the same requests (counting
/// from every thread at once would slow the timed calls).
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    pool: Vec<f64>,
    kernel: Vec<f64>,
    rom: Vec<f64>,
    dispatch: Vec<f64>,
    handle_allocs: u64,
    handle_bytes: u64,
    decode_allocs: u64,
    requests: u64,
}

/// The counted replay: the same requests as the timed one, through the
/// engine (and, for frames, the decoder) with allocation counting on.
fn count_allocs(server: &Server, requests: &[&[u8]], l: &mut Layers) {
    let mut out = Vec::with_capacity(1 << 18);
    for &req in requests {
        out.clear();
        if req.starts_with(&awesym_net::REQUEST_MAGIC) {
            let (decoded, allocs, _) =
                counted(|| awesym_net::decode_request(req).expect("frame decodes"));
            l.decode_allocs += allocs;
            let (_, allocs, bytes) = counted(|| {
                server.handle_decoded_into(Ok(decoded), WireEncoding::BinaryV1, None, &mut out)
            });
            l.handle_allocs += allocs;
            l.handle_bytes += bytes;
        } else {
            let line = std::str::from_utf8(req).expect("request lines are UTF-8");
            let (_, allocs, bytes) = counted(|| server.handle_line_into(line, &mut out));
            l.handle_allocs += allocs;
            l.handle_bytes += bytes;
        }
    }
}

/// A JSON array of numbers as a row.
fn row(c: &Content) -> Vec<f64> {
    c.as_seq()
        .expect("numeric array")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect()
}

/// Replays the `rpc_small` ring below the engine entry point: JSON
/// parse, the shard pool, the tape kernel, and the Padé ROM.
fn replay_rpc(server: &Server, inputs: &Inputs, spans: &mut Spans) -> Layers {
    let shard = server.shard_for(RPC_MODEL);
    let model = shard.registry().get(RPC_MODEL).expect("opamp is loaded");
    let ev = model.evaluator();
    let mut moments = vec![0.0; ev.n_outputs()];
    let mut l = Layers::default();
    for (i, line) in inputs.rpc.iter().take(RPC_REPLAY).enumerate() {
        let line = std::str::from_utf8(line).expect("request lines are UTF-8");
        let r = i as u64;
        let root = spans.open("request", None, r);
        let (req, t) = spans.time("net.ndjson_parse", Some(root), r, || {
            serde_json::from_str::<Content>(line).expect("request line is JSON")
        });
        l.parse.push(t);
        let values = vec![row(req.get("values").expect("eval has values"))];
        let batch = Arc::new(values.clone());
        let (_, pool) = spans.time("serve.pool", Some(root), r, || {
            shard.evaluate(Arc::clone(&model), batch, BatchOutput::Rom, None, Some(1))
        });
        let ((), kernel) = spans.time("symbolic.kernel", Some(root), r, || {
            ev.eval_into(&values[0], &mut moments);
        });
        let (_, rom_t) = spans.time("awe.rom", Some(root), r, || {
            model.rom_degraded_from_moments(&moments)
        });
        spans.close(root);
        l.pool.push(pool);
        l.kernel.push(kernel);
        l.rom.push(rom_t);
        l.dispatch.push(pool - kernel - rom_t);
        l.requests += 1;
    }
    let requests: Vec<&[u8]> = inputs
        .rpc
        .iter()
        .take(RPC_REPLAY)
        .map(Vec::as_slice)
        .collect();
    count_allocs(server, &requests, &mut l);
    l
}

/// Replays the `bulk_binary` ring below the engine entry point: the
/// shard pool and the tape kernel.
fn replay_bulk(server: &Server, inputs: &Inputs, spans: &mut Spans) -> Layers {
    let shard = server.shard_for(BULK_MODEL);
    let model = shard
        .registry()
        .get(BULK_MODEL)
        .expect("cross-talk model is loaded");
    let ev = model.evaluator();
    let mut moments = vec![0.0; fleet::BULK_POINTS * ev.n_outputs()];
    let mut l = Layers::default();
    let frames_again = || {
        inputs
            .bulk
            .iter()
            .cycle()
            .take(BULK_REPLAY_ROUNDS * inputs.bulk.len())
    };
    for (i, frame) in frames_again().enumerate() {
        let r = i as u64;
        let req = awesym_net::decode_request(frame).expect("frame decodes");
        let points: Vec<Vec<f64>> = req
            .get("points")
            .and_then(Content::as_seq)
            .expect("batch has points")
            .iter()
            .map(row)
            .collect();
        // The engine hands the pool a batch it already owns; copy it
        // outside the span.
        let batch = Arc::new(points.clone());
        let root = spans.open("request", None, r);
        let (_, pool) = spans.time("serve.pool", Some(root), r, || {
            shard.evaluate(Arc::clone(&model), batch, BatchOutput::Moments, None, None)
        });
        let ((), kernel) = spans.time("symbolic.kernel", Some(root), r, || {
            ev.eval_batch(&points, &mut moments);
        });
        spans.close(root);
        l.pool.push(pool);
        l.kernel.push(kernel);
        l.dispatch.push(pool - kernel);
        l.requests += 1;
    }
    let requests: Vec<&[u8]> = frames_again().map(Vec::as_slice).collect();
    count_allocs(server, &requests, &mut l);
    l
}

/// The cost of tracing: slices of the `rpc_small` engine replay inside
/// spans against the same slices without, in pairs whose order
/// alternates. Returns the quartiles of the per-pair overhead, percent.
fn tracing_overhead(server: &Server, inputs: &Inputs) -> [f64; 3] {
    let lines: Vec<&str> = inputs
        .rpc
        .iter()
        .map(|l| std::str::from_utf8(l).expect("request lines are UTF-8"))
        .collect();
    let mut out = Vec::with_capacity(4096);
    let mut pct = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let start = pair * OVERHEAD_SLICE % lines.len();
        let slice = &lines[start..(start + OVERHEAD_SLICE).min(lines.len())];
        let mut plain = || {
            let t0 = Instant::now();
            for line in slice {
                out.clear();
                black_box(server.handle_line_into(line, &mut out));
            }
            t0.elapsed().as_secs_f64()
        };
        let (p0, t) = if pair % 2 == 0 {
            let p0 = plain();
            (p0, traced_slice(server, slice))
        } else {
            let t = traced_slice(server, slice);
            (plain(), t)
        };
        pct.push((t / p0 - 1.0) * 100.0);
    }
    [quantile(&pct, 0.25), median(&pct), quantile(&pct, 0.75)]
}

fn traced_slice(server: &Server, slice: &[&str]) -> f64 {
    let mut out = Vec::with_capacity(4096);
    let mut spans = Spans::new();
    let t0 = Instant::now();
    for (i, line) in slice.iter().enumerate() {
        spans.time("serve.handle", None, i as u64, || {
            out.clear();
            server.handle_line_into(line, &mut out)
        });
    }
    t0.elapsed().as_secs_f64()
}

/// Parse and compile times (ms) per fleet model, medians of
/// [`COMPILE_REPS`].
fn compile_times(inputs: &Inputs, spans: &mut Spans, metrics: &mut Vec<Metric>) {
    for (i, m) in inputs.fleet.iter().enumerate() {
        let (mut parse, mut build) = (Vec::new(), Vec::new());
        for _ in 0..COMPILE_REPS {
            let root = spans.open("compile", None, i as u64);
            let (circuit, t) = spans.time("circuit.parse", Some(root), i as u64, || m.parse());
            parse.push(t * 1e-6);
            let (_, t) = spans.time("partition.compile", Some(root), i as u64, || {
                m.build(&circuit)
            });
            build.push(t * 1e-6);
            spans.close(root);
        }
        metrics.push(Metric::new(
            format!("circuit.parse_ms.{}", m.name),
            median(&parse),
            "ms",
        ));
        metrics.push(Metric::new(
            format!("partition.compile_ms.{}", m.name),
            median(&build),
            "ms",
        ));
    }
}

/// The `mc_yield` layers: chain compile, engine block time and count,
/// the lane kernel per point, and the kernel's share of a block.
fn mc_layers(seed: u64, spans: &mut Spans, metrics: &mut Vec<Metric>) {
    let specs = fleet::mc_paths(seed);
    let mut compile = Vec::new();
    for (p, spec) in specs.iter().enumerate() {
        let (_, t) = spans.time("timing.chain_compile", None, p as u64, || {
            awesym_timing::GateChain::compile(spec).expect("mc path compiles")
        });
        compile.push(t * 1e-6);
    }
    let fleet = mc::set_up(seed);
    let blocks = fleet.registry.counter("mc_blocks_total");
    let block_ns = fleet.registry.histogram("mc_block_ns", &[]);
    let (b0, h0) = (blocks.get(), block_ns.snapshot());
    for (p, engine) in fleet.engines.iter().enumerate() {
        spans.time("mc.job", None, p as u64, || engine.run(&fleet.configs[p]));
    }
    let (b1, h1) = (blocks.get(), block_ns.snapshot());
    let jobs = fleet.engines.len() as f64;
    let block_us = (h1.sum - h0.sum) as f64 / (h1.count - h0.count).max(1) as f64 * 1e-3;

    // One full block through every stage tape of path 0, as a worker
    // runs it (same block size, values near nominal).
    let chain = fleet.engines[0].task();
    let block = fleet.configs[0].block_size;
    let mut rng = awesym_timing::BlockRng::new(seed, 99);
    let mut per_block = Vec::new();
    let mut per_point = Vec::new();
    for rep in 0..5u64 {
        let mut total = 0.0;
        for stage in chain.stages() {
            let points: Vec<Vec<f64>> = (0..block)
                .map(|_| {
                    stage
                        .nominal
                        .iter()
                        .map(|&v| v * rng.log_normal(0.08))
                        .collect()
                })
                .collect();
            let ev = stage.model.evaluator();
            let mut out = vec![0.0; block * ev.n_outputs()];
            let ((), t) = spans.time("symbolic.kernel", None, rep, || {
                ev.eval_batch(&points, &mut out);
            });
            total += t;
            per_point.push(t / block as f64);
        }
        per_block.push(total * 1e-3);
    }
    let kernel_block_us = median(&per_block);
    let m =
        |name: &str, v: f64, unit: &'static str| Metric::new(format!("mc_yield.{name}"), v, unit);
    metrics.push(m("timing.chain_compile_ms", median(&compile), "ms"));
    metrics.push(m("timing.block_us", block_us, "us"));
    metrics.push(m("timing.blocks", (b1 - b0) as f64 / jobs, "count"));
    metrics.push(m(
        "timing.kernel_share",
        kernel_block_us / block_us,
        "ratio",
    ));
    metrics.push(m("symbolic.kernel_ns_per_point", median(&per_point), "ns"));
    metrics.push(m("symbolic.tape_ops", chain.op_count() as f64, "count"));
}

fn serve_metrics(
    name: &str,
    socket: &SocketSide,
    l: &Layers,
    tape_ops: usize,
    metrics: &mut Vec<Metric>,
    text: &mut String,
) {
    let us = |v: &[f64]| median(v) * 1e-3;
    let p = |m: &str| format!("{name}.{m}");
    let handle_us = us(&socket.handle);
    let client_us = us(&socket.lat);
    // The socket does the AWSQ decode before the engine sees a frame, so
    // for frames the in-process share is decode plus engine.
    let in_process_us = if socket.decode.is_empty() {
        handle_us
    } else {
        us(&socket.decode) + handle_us
    };
    let n = l.requests as f64;
    metrics.push(Metric::new(p("client.lat_p50_us"), client_us, "us"));
    if name == "bulk_binary" {
        metrics.push(Metric::new(
            p("net.awsq_decode_us"),
            us(&socket.decode),
            "us",
        ));
        metrics.push(Metric::new(
            p("net.awsq_decode_allocs"),
            l.decode_allocs as f64 / n,
            "count",
        ));
    } else {
        metrics.push(Metric::new(p("net.ndjson_parse_us"), us(&l.parse), "us"));
    }
    metrics.push(Metric::new(
        p("net.transport_us"),
        client_us - in_process_us,
        "us",
    ));
    metrics.push(Metric::new(
        p("net.bytes_in_per_req"),
        socket.bytes_in_per_req,
        "bytes",
    ));
    metrics.push(Metric::new(
        p("net.bytes_out_per_req"),
        socket.bytes_out_per_req,
        "bytes",
    ));
    metrics.push(Metric::new(p("serve.handle_us"), handle_us, "us"));
    metrics.push(Metric::new(
        p("serve.handle_allocs"),
        l.handle_allocs as f64 / n,
        "count",
    ));
    metrics.push(Metric::new(
        p("serve.handle_alloc_bytes"),
        l.handle_bytes as f64 / n,
        "bytes",
    ));
    for (stage, mean_us) in &socket.stages {
        metrics.push(Metric::new(
            p(&format!("serve.stage.{stage}_us")),
            *mean_us,
            "us",
        ));
    }
    metrics.push(Metric::new(p("serve.pool_us"), us(&l.pool), "us"));
    metrics.push(Metric::new(p("serve.dispatch_us"), us(&l.dispatch), "us"));
    let points = if name == "bulk_binary" {
        fleet::BULK_POINTS as f64
    } else {
        1.0
    };
    metrics.push(Metric::new(
        p("symbolic.kernel_ns_per_point"),
        median(&l.kernel) / points,
        "ns",
    ));
    metrics.push(Metric::new(
        p("symbolic.tape_ops"),
        tape_ops as f64,
        "count",
    ));
    if name == "rpc_small" {
        metrics.push(Metric::new(p("awe.rom_us_per_point"), us(&l.rom), "us"));
    }
    let _ = writeln!(
        text,
        "{name}: client p50 {client_us:.1} us = in-process layers {in_process_us:.1} us + transport {:.1} us",
        client_us - in_process_us
    );
}

/// The traced run. Every workload is replayed whatever `--workload`
/// names, so each traced run prints the whole per-layer table.
pub fn run(bin: &Path, workload: &str, seed: u64, out_dir: &Path) -> Result<Output, String> {
    let inputs = Inputs::new(seed);
    let mut spans = Spans::new();
    let mut metrics = Vec::new();
    let mut text = format!("traced run (requested workload {workload}; all workloads replayed)\n");

    // One server child and one in-process reference with the same fleet;
    // both serve loads go to each, interleaved.
    let ready = serve_load::set_up(bin, &inputs)?;
    let (server, _) = serve_load::reference_server(&inputs)?;
    let mut warm = Vec::new();
    for req in inputs.rpc.iter().take(64).chain(inputs.bulk.iter().take(2)) {
        serve_load::handle_in_process(&server, req, &mut warm);
    }
    let mut conn = ready.conn;
    let rpc_socket = interleaved(
        &mut conn,
        &server,
        &inputs,
        Shape::Rpc,
        RPC_SOCKET,
        &mut spans,
    )?;
    let bulk_socket = interleaved(
        &mut conn,
        &server,
        &inputs,
        Shape::Bulk,
        BULK_SOCKET,
        &mut spans,
    )?;
    drop(conn);
    ready.server.shutdown()?;
    let mut mismatches = serve_load::check(&inputs, &inputs.rpc, &[ready.compiled], &[])?;

    let rpc = replay_rpc(&server, &inputs, &mut spans);
    let bulk = replay_bulk(&server, &inputs, &mut spans);
    let tape_ops = |name: &str| {
        server
            .shard_for(name)
            .registry()
            .get(name)
            .map_or(0, |m| m.op_count())
    };
    serve_metrics(
        "rpc_small",
        &rpc_socket,
        &rpc,
        tape_ops(RPC_MODEL),
        &mut metrics,
        &mut text,
    );
    serve_metrics(
        "bulk_binary",
        &bulk_socket,
        &bulk,
        tape_ops(BULK_MODEL),
        &mut metrics,
        &mut text,
    );
    compile_times(&inputs, &mut spans, &mut metrics);
    let overhead = tracing_overhead(&server, &inputs);
    metrics.push(Metric::new("trace.overhead_pct", overhead[1], "%"));
    let _ = writeln!(
        text,
        "tracing overhead {:.2}% (pair quartiles {:.2}% {:.2}%)",
        overhead[1], overhead[0], overhead[2]
    );
    drop(server);
    mc_layers(seed, &mut spans, &mut metrics);

    let path = out_dir.join("perfbench_spans.ndjson");
    spans
        .write_ndjson(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(
        text,
        "{} spans written to {}",
        spans.list.len(),
        path.display()
    );
    for m in &metrics {
        let _ = writeln!(text, "  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    mismatches.extend(rpc_socket.mismatches.iter().take(8).cloned());
    mismatches.extend(bulk_socket.mismatches.iter().take(8).cloned());
    for m in &mismatches {
        let _ = writeln!(text, "  MISMATCH {m}");
    }
    Ok(Output {
        text,
        correct: mismatches.is_empty(),
        attempted: rpc_socket.attempted + bulk_socket.attempted,
        failed: rpc_socket.failed + bulk_socket.failed,
        metrics,
    })
}
