//! End-to-end benchmark of AWEsymbolic serving and timing.
//!
//! `awesym-perfbench --workload W --seed N --seconds S --trace 0|1
//! --server PATH [--out-dir DIR]` runs one workload:
//!
//! - `rpc_small`: closed loop of single-point `rom` evals over one NDJSON
//!   connection to an `awesym serve --listen` child;
//! - `bulk_binary`: closed loop of 4096-point AWSQ `moments` frames over
//!   one connection to the same kind of child;
//! - `mc_yield`: fixed-size Monte Carlo yield jobs on 16 gate-chain paths
//!   through the in-process `awesym-timing` engine.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! replays every workload's seeded inputs through each layer's public
//! entry points and prints the per-layer table. A completed run ends its
//! standard output with one JSON object; the exit code is non-zero when
//! an output check fails or the run cannot complete.
//! `perfbench/README.md` explains the workloads and metrics.

mod alloc;
mod client;
mod fleet;
mod mc;
mod report;
mod serve_load;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["rpc_small", "bulk_binary", "mc_yield"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut out_dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0|1)")),
                };
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server: server.ok_or("--server is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        trace::run(&args.server, &args.workload, args.seed, &args.out_dir)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(out) => {
            print!("{}", out.text);
            println!(
                "{}",
                report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(args: &Args) -> Result<report::Output, String> {
    let run = match args.workload.as_str() {
        "rpc_small" => serve_load::run(
            &args.server,
            serve_load::Shape::Rpc,
            args.seed,
            args.seconds,
        )?,
        "bulk_binary" => serve_load::run(
            &args.server,
            serve_load::Shape::Bulk,
            args.seed,
            args.seconds,
        )?,
        _ => mc::run(args.seed, args.seconds)?,
    };
    Ok(run.output(&args.workload))
}
