//! The two serve workloads, end to end: set up server children with the
//! fleet, drive one closed-loop connection at a time through the measured
//! phase, then check a seeded sample of responses against an in-process
//! `Server`.

use crate::client::{classify, mask_timing, Conn, Outcome, ServerProc};
use crate::fleet::{self, FleetModel};
use crate::report::{Counts, Load, RateWindows, Run};
use awesym_serve::{Server, ServerConfig, WireEncoding};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 15;
/// Set-up rounds (the last ones) that then carry the measured load, one
/// after another, each for an equal share of the run. Spreading the load
/// over several servers (or engine sets) keeps one instance's thread
/// placement and memory layout from setting the run's figures.
pub const LOAD_ROUNDS: usize = 5;
/// About one request in this many is kept for the output check.
const SAMPLE_EVERY: u64 = 64;
/// Most responses kept for the output check.
const MAX_SAMPLES: usize = 256;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Single-point NDJSON `rom` evals.
    Rpc,
    /// 4096-point AWSQ `moments` frames.
    Bulk,
}

/// Every request of a serve workload, ready to send.
pub struct Inputs {
    /// The fleet, in compile order.
    pub fleet: Vec<FleetModel>,
    /// `compile` request lines, one per fleet model.
    pub compile_lines: Vec<String>,
    /// The `rpc_small` ring, each line newline-terminated.
    pub rpc: Vec<Vec<u8>>,
    /// The `bulk_binary` ring of AWSQ frames.
    pub bulk: Vec<Vec<u8>>,
}

impl Inputs {
    /// Makes every input from the workload seed.
    pub fn new(seed: u64) -> Self {
        let fleet = fleet::fleet();
        let compile_lines = fleet.iter().map(FleetModel::compile_line).collect();
        let rpc = fleet::rpc_lines(seed, &fleet)
            .into_iter()
            .map(|l| {
                let mut b = l.into_bytes();
                b.push(b'\n');
                b
            })
            .collect();
        let bulk = fleet::bulk_frames(seed, &fleet);
        Inputs {
            fleet,
            compile_lines,
            rpc,
            bulk,
        }
    }

    /// The request ring of one workload, and the points per request.
    pub fn ring(&self, shape: Shape) -> (&[Vec<u8>], u64) {
        match shape {
            Shape::Rpc => (&self.rpc, 1),
            Shape::Bulk => (&self.bulk, fleet::BULK_POINTS as u64),
        }
    }
}

/// A server with the fleet compiled and one warm-up request per request
/// shape answered, plus how long that took.
pub struct Ready {
    /// The server child.
    pub server: ServerProc,
    /// The client connection the set-up used.
    pub conn: Conn,
    /// Set-up wall time.
    pub setup: Duration,
    /// The `compile` responses, in fleet order.
    pub compiled: Vec<Vec<u8>>,
}

/// Spawns a server and brings it to [`Ready`].
pub fn set_up(bin: &Path, inputs: &Inputs) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conn = server.connect()?;
    let mut compiled = Vec::with_capacity(inputs.compile_lines.len());
    for line in &inputs.compile_lines {
        conn.send_line(line)?;
        let resp = conn.read_message()?;
        if classify(&resp) != Outcome::Ok {
            return Err(format!(
                "compile failed: {}",
                String::from_utf8_lossy(&resp)
            ));
        }
        compiled.push(resp);
    }
    for warm in [&inputs.rpc[0], &inputs.bulk[0]] {
        conn.send(warm)?;
        let resp = conn.read_message()?;
        if classify(&resp) != Outcome::Ok {
            return Err(format!(
                "warm-up request failed: {}",
                String::from_utf8_lossy(&resp[..resp.len().min(200)])
            ));
        }
    }
    Ok(Ready {
        server,
        conn,
        setup: t0.elapsed(),
        compiled,
    })
}

/// What a closed loop over one connection measured.
pub struct Phase {
    /// Latency, tallies and throughput.
    pub load: Load,
    /// `(ring index, response)` pairs kept for the output check.
    pub samples: Vec<(usize, Vec<u8>)>,
}

/// Drives one closed loop for `budget`: send request `k` (ring entry
/// `k mod len`), wait for its response, repeat, for `k` from `k0` on.
/// Failed and refused requests stay in the latency sample and are never
/// retried.
pub fn closed_loop(
    conn: &mut Conn,
    ring: &[Vec<u8>],
    points_per_req: u64,
    budget: Duration,
    seed: u64,
    k0: u64,
) -> Result<Phase, String> {
    let mut lat_ns = Vec::with_capacity(1 << 16);
    let mut counts = Counts::default();
    let mut points = 0;
    let mut windows = RateWindows::new();
    let mut samples = Vec::new();
    let mut resp = Vec::with_capacity(1 << 18);
    let t0 = Instant::now();
    let mut k = k0;
    while t0.elapsed() < budget {
        let idx = (k % ring.len() as u64) as usize;
        let sent = Instant::now();
        conn.send(&ring[idx])?;
        conn.read_message_into(&mut resp)?;
        lat_ns.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        counts.attempted += 1;
        match classify(&resp) {
            Outcome::Ok => {
                counts.succeeded += 1;
                points += points_per_req;
                windows.add(points_per_req);
            }
            Outcome::Failed => counts.failed += 1,
            Outcome::Refused => counts.refused += 1,
        }
        if samples.len() < MAX_SAMPLES && fleet::sampled(seed, k, SAMPLE_EVERY) {
            samples.push((idx, resp.clone()));
        }
        k += 1;
    }
    Ok(Phase {
        load: Load {
            lat_ns,
            counts,
            points,
            rates: windows.rates,
            elapsed: t0.elapsed(),
        },
        samples,
    })
}

/// The in-process reference: a default-configured `Server` (the same
/// configuration `awesym serve` runs with) holding the same fleet.
pub fn reference_server(inputs: &Inputs) -> Result<(Server, Vec<Vec<u8>>), String> {
    let server = Server::with_config(ServerConfig::default());
    let mut compiled = Vec::new();
    for line in &inputs.compile_lines {
        let resp = server
            .handle_line(line)
            .ok_or("compile line was blank")?
            .body;
        compiled.push(resp);
    }
    Ok((server, compiled))
}

/// Answers one request on an in-process server the way the socket
/// front end does: NDJSON lines through `handle_line_into`, AWSQ frames
/// through `decode_request` then `handle_decoded_into`.
pub fn handle_in_process(server: &Server, request: &[u8], out: &mut Vec<u8>) {
    out.clear();
    if request.starts_with(&awesym_net::REQUEST_MAGIC) {
        let req =
            awesym_net::decode_request(request).map_err(|e| awesym_serve::ServeError::BadRequest {
                what: format!("binary request frame: {e}"),
            });
        server.handle_decoded_into(req, WireEncoding::BinaryV1, None, out);
    } else {
        let line = std::str::from_utf8(request).expect("request lines are UTF-8");
        server.handle_line_into(line, out);
    }
}

/// The output check: every server's compile responses and every
/// sampled response must be byte-identical, timing fields masked, to the
/// same requests on the in-process reference. Returns the mismatches.
pub fn check(
    inputs: &Inputs,
    ring: &[Vec<u8>],
    socket_compiled: &[Vec<Vec<u8>>],
    samples: &[(usize, Vec<u8>)],
) -> Result<Vec<String>, String> {
    let (reference, compiled) = reference_server(inputs)?;
    let mut bad = Vec::new();
    for responses in socket_compiled {
        for (i, (got, want)) in responses.iter().zip(&compiled).enumerate() {
            if mask_timing(got) != mask_timing(want) {
                bad.push(format!(
                    "compile response {i} differs from the in-process server"
                ));
            }
        }
    }
    let mut out = Vec::new();
    for (idx, got) in samples {
        handle_in_process(&reference, &ring[*idx], &mut out);
        if mask_timing(got) != mask_timing(&out) {
            bad.push(format!(
                "response to ring request {idx} differs from the in-process server"
            ));
        }
    }
    Ok(bad)
}

/// One untraced run of a serve workload: [`SETUP_ROUNDS`] set-ups, the
/// last [`LOAD_ROUNDS`] of which then carry the measured load in turn.
pub fn run(bin: &Path, shape: Shape, seed: u64, seconds: u64) -> Result<Run, String> {
    let inputs = Inputs::new(seed);
    let (ring, per_req) = inputs.ring(shape);
    let share = Duration::from_secs_f64(seconds as f64 / LOAD_ROUNDS as f64);
    let mut run = Run::default();
    let mut compiled = Vec::new();
    let mut samples = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let Ready {
            server,
            mut conn,
            setup,
            compiled: responses,
        } = set_up(bin, &inputs)?;
        run.setup_times.push(setup.as_secs_f64());
        if round + LOAD_ROUNDS >= SETUP_ROUNDS {
            let k0 = run.load.counts.attempted;
            let phase = closed_loop(&mut conn, ring, per_req, share, seed, k0)?;
            run.rss_kib.push(server.vm_hwm_kib()?);
            run.load.extend(phase.load);
            samples.extend(phase.samples);
            compiled.push(responses);
        }
        drop(conn);
        server.shutdown()?;
    }
    run.mismatches = check(&inputs, ring, &compiled, &samples)?;
    if shape == Shape::Bulk && run.load.counts.failed > 0 {
        run.mismatches.push(format!(
            "{} frames came back with ok_count below count, or as an error",
            run.load.counts.failed
        ));
    }
    run.checked = samples.len() + compiled.iter().map(Vec::len).sum::<usize>();
    Ok(run)
}
