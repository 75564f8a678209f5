//! The `awesym` command-line tool: netlist in, analysis out.
//!
//! This is the repository's analog of AWEsim [Huang/Raghavan/Rohrer]: a
//! driver that parses a SPICE-subset netlist and runs the AWE and
//! AWEsymbolic analyses from the shell. The logic lives here (testable);
//! `src/bin/awesym.rs` is a thin wrapper.

use crate::{
    parse_spice, AweAnalysis, Circuit, CompiledModel, ElementId, ElementKind, ModelOptions, Node,
    OptLevel, SymbolBinding,
};
use serde_json::Value as Content;
use std::fmt::Write as _;

/// Shortest-round-trip float text via the shared wire formatter — the
/// same `ryu`-backed path every server encoder uses, so CLI output and
/// wire output can never disagree on a value's digits.
fn fmt_f64(v: f64) -> String {
    let mut out = Vec::new();
    serde_json::write_f64(v, &mut out);
    String::from_utf8(out).unwrap_or_default()
}

/// Runs the CLI with `args` (excluding the program name) and returns the
/// output text.
///
/// # Errors
///
/// Returns a human-readable error string for bad usage, parse failures, or
/// analysis failures.
pub fn run(args: &[&str]) -> Result<String, String> {
    let mut it = args.iter().copied();
    let cmd = it.next().ok_or_else(usage)?;
    let rest: Vec<&str> = it.collect();
    match cmd {
        "lint" => cmd_lint(&rest),
        "poles" => cmd_poles(&rest),
        "sweep" => cmd_sweep(&rest),
        "model" => cmd_model(&rest),
        "eval" => cmd_eval(&rest),
        "serve" => cmd_serve(&rest),
        "timing" => cmd_timing(&rest),
        "op" => cmd_op(&rest),
        "linearize" => cmd_linearize(&rest),
        "ac" => cmd_ac(&rest),
        "tran" => cmd_tran(&rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "\
awesym — compiled symbolic circuit analysis (AWEsymbolic, DAC 1992)

USAGE:
  awesym lint  <netlist>
  awesym poles <netlist> --input <src> --output <node> [--order q]
  awesym sweep <netlist> --input <src> --output <node> --symbol <elem>[:role]...
               [--order q] [--points n] [--span f] [--opt-level none|basic|full]
  awesym model <netlist> --input <src> --output <node> --symbol <elem>[:role]...
               [--order q] [--opt-level none|basic|full]
               [--out file.json | --out file.awesym]
               (.awesym writes the versioned, checksummed artifact format)
  awesym eval  --model file.{json,awesym} --values v1,v2,...
  awesym serve [--capacity n] [--deadline-ms t] [--max-batch n]
               [--max-inflight n] [--stats-every n] [--shards n]
               [--shard-workers n] [--listen addr] [--max-conns n]
               [--idle-timeout-ms t]
               newline-delimited-JSON request loop on stdin/stdout: load,
               compile, save, eval, batch, stats, health, drain,
               shutdown (see docs/serving.md; limits in
               docs/robustness.md). --shards splits the model fleet into
               n supervised shards (crash isolation, per-shard circuit
               breakers), each with a persistent --shard-workers pool.
               --stats-every n emits a stats NDJSON line (with per-stage
               latency breakdown) to stderr every n requests
               (docs/observability.md). --listen addr serves the same
               protocol over TCP instead — multi-client sessions,
               binary request frames, --max-conns connection limit,
               --idle-timeout-ms idle close (docs/networking.md)
  awesym timing [chain.json] [--stages n] [--samples n] [--block n]
               [--workers n] [--seed s] [--deadline secs] [--metric m]
               [--order q]
               compiles a gate chain (spec file, or a uniform n-stage
               chain) and streams a Monte Carlo yield analysis through
               the Monte Carlo batch engine; NDJSON report on stdout
               (docs/timing.md). --samples accepts 1e7-style notation;
               --metric is elmore|d2m|two-pole; --deadline defaults to
               1.25x the nominal path delay.
  awesym op        <netlist>     DC operating point (supports D/Q cards)
  awesym linearize <netlist> [--out small.sp]
                                 bias + emit the small-signal netlist
  awesym ac   <netlist> --input <src> --output <node>
              [--fstart hz] [--fstop hz] [--points n]
  awesym tran <netlist> --input <src> --output <node>
              --tstop s [--dt s]  step-response transient (trapezoidal)

Roles: g (conductance), r (resistance), c (capacitance), l (inductance),
gm (transconductance); default inferred from the element kind.
"
    .to_string()
}

struct Opts {
    netlist: Option<String>,
    input: Option<String>,
    output: Option<String>,
    symbols: Vec<String>,
    order: usize,
    points: usize,
    span: f64,
    out: Option<String>,
    model: Option<String>,
    values: Option<String>,
    fstart: f64,
    fstop: f64,
    tstop: Option<f64>,
    dt: Option<f64>,
    capacity: usize,
    opt_level: OptLevel,
    deadline_ms: Option<u64>,
    max_batch: Option<usize>,
    max_inflight: Option<usize>,
    stats_every: u64,
    shards: Option<usize>,
    shard_workers: Option<usize>,
    listen: Option<String>,
    max_conns: Option<usize>,
    idle_timeout_ms: Option<u64>,
}

fn parse_opts(args: &[&str]) -> Result<Opts, String> {
    let mut o = Opts {
        netlist: None,
        input: None,
        output: None,
        symbols: Vec::new(),
        order: 2,
        points: 5,
        span: 4.0,
        out: None,
        model: None,
        values: None,
        fstart: 1e3,
        fstop: 1e9,
        tstop: None,
        dt: None,
        capacity: awesym_serve::DEFAULT_CAPACITY,
        opt_level: OptLevel::Full,
        deadline_ms: None,
        max_batch: None,
        max_inflight: None,
        stats_every: 0,
        shards: None,
        shard_workers: None,
        listen: None,
        max_conns: None,
        idle_timeout_ms: None,
    };
    let mut it = args.iter().copied().peekable();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a {
            "--input" => o.input = Some(grab("--input")?),
            "--output" => o.output = Some(grab("--output")?),
            "--symbol" => o.symbols.push(grab("--symbol")?),
            "--order" => {
                o.order = grab("--order")?
                    .parse()
                    .map_err(|e| format!("bad --order: {e}"))?
            }
            "--points" => {
                o.points = grab("--points")?
                    .parse()
                    .map_err(|e| format!("bad --points: {e}"))?
            }
            "--span" => {
                o.span = grab("--span")?
                    .parse()
                    .map_err(|e| format!("bad --span: {e}"))?
            }
            "--out" => o.out = Some(grab("--out")?),
            "--model" => o.model = Some(grab("--model")?),
            "--values" => o.values = Some(grab("--values")?),
            "--fstart" => {
                o.fstart = grab("--fstart")?
                    .parse()
                    .map_err(|e| format!("bad --fstart: {e}"))?
            }
            "--fstop" => {
                o.fstop = grab("--fstop")?
                    .parse()
                    .map_err(|e| format!("bad --fstop: {e}"))?
            }
            "--tstop" => {
                o.tstop = Some(
                    grab("--tstop")?
                        .parse()
                        .map_err(|e| format!("bad --tstop: {e}"))?,
                )
            }
            "--dt" => {
                o.dt = Some(
                    grab("--dt")?
                        .parse()
                        .map_err(|e| format!("bad --dt: {e}"))?,
                )
            }
            "--capacity" => {
                o.capacity = grab("--capacity")?
                    .parse()
                    .map_err(|e| format!("bad --capacity: {e}"))?
            }
            "--deadline-ms" => {
                o.deadline_ms = Some(
                    grab("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--max-batch" => {
                o.max_batch = Some(
                    grab("--max-batch")?
                        .parse()
                        .map_err(|e| format!("bad --max-batch: {e}"))?,
                )
            }
            "--max-inflight" => {
                o.max_inflight = Some(
                    grab("--max-inflight")?
                        .parse()
                        .map_err(|e| format!("bad --max-inflight: {e}"))?,
                )
            }
            "--stats-every" => {
                o.stats_every = grab("--stats-every")?
                    .parse()
                    .map_err(|e| format!("bad --stats-every: {e}"))?
            }
            "--shards" => {
                o.shards = Some(
                    grab("--shards")?
                        .parse()
                        .map_err(|e| format!("bad --shards: {e}"))?,
                )
            }
            "--shard-workers" => {
                o.shard_workers = Some(
                    grab("--shard-workers")?
                        .parse()
                        .map_err(|e| format!("bad --shard-workers: {e}"))?,
                )
            }
            "--listen" => o.listen = Some(grab("--listen")?),
            "--max-conns" => {
                o.max_conns = Some(
                    grab("--max-conns")?
                        .parse()
                        .map_err(|e| format!("bad --max-conns: {e}"))?,
                )
            }
            "--idle-timeout-ms" => {
                o.idle_timeout_ms = Some(
                    grab("--idle-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --idle-timeout-ms: {e}"))?,
                )
            }
            "--opt-level" => {
                o.opt_level = grab("--opt-level")?
                    .parse()
                    .map_err(|e| format!("bad --opt-level: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                if o.netlist.is_some() {
                    return Err(format!("unexpected argument '{path}'"));
                }
                o.netlist = Some(path.to_string());
            }
        }
    }
    Ok(o)
}

fn load_netlist(o: &Opts) -> Result<Circuit, String> {
    let path = o.netlist.as_ref().ok_or("missing netlist path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_spice(&text).map_err(|e| e.to_string())
}

fn resolve_io(c: &Circuit, o: &Opts) -> Result<(ElementId, Node), String> {
    let input_name = o.input.as_ref().ok_or("missing --input <source element>")?;
    let input = c
        .find(input_name)
        .ok_or_else(|| format!("no element named {input_name}"))?;
    let e = c.element(input);
    if !matches!(e.kind, ElementKind::Vsource | ElementKind::Isource) {
        return Err(format!("{input_name} is not an independent source"));
    }
    let out_name = o.output.as_ref().ok_or("missing --output <node>")?;
    let output = c
        .find_node(out_name)
        .ok_or_else(|| format!("no node named {out_name}"))?;
    Ok((input, output))
}

fn resolve_symbols(c: &Circuit, o: &Opts) -> Result<Vec<SymbolBinding>, String> {
    if o.symbols.is_empty() {
        return Err("at least one --symbol is required".into());
    }
    // The `ELEM[:role]` grammar is shared with the server's `compile`
    // command; awesym-serve owns the one implementation.
    awesym_serve::resolve::resolve_symbol_specs(c, &o.symbols)
}

fn cmd_lint(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let issues = awesym_circuit::lint(&c);
    let mut out = format!(
        "{} elements, {} nodes, {} storage elements\n",
        c.num_elements(),
        c.num_nodes(),
        c.num_storage_elements()
    );
    if issues.is_empty() {
        out.push_str("clean: no issues found\n");
    } else {
        for i in &issues {
            let _ = writeln!(out, "issue: {i}");
        }
    }
    Ok(out)
}

fn cmd_poles(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let (input, output) = resolve_io(&c, &o)?;
    let awe = AweAnalysis::new(&c, input, output).map_err(|e| e.to_string())?;
    let rom = awe.rom_stable(o.order).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "order {} reduced model (stable: {})",
        rom.order(),
        rom.is_stable()
    );
    let _ = writeln!(out, "dc gain: {:.6e}", rom.dc_gain());
    for (p, k) in rom.poles().iter().zip(rom.residues()) {
        let _ = writeln!(out, "pole {p}  residue {k}");
    }
    if let Ok(zeros) = rom.zeros() {
        for z in zeros {
            let _ = writeln!(out, "zero {z}");
        }
    }
    if let Some(d) = rom.delay_50() {
        let _ = writeln!(out, "50% delay: {d:.6e} s");
    }
    Ok(out)
}

fn cmd_sweep(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let (input, output) = resolve_io(&c, &o)?;
    let bindings = resolve_symbols(&c, &o)?;
    let model = CompiledModel::build_with_options(
        &c,
        input,
        output,
        &bindings,
        ModelOptions::order(o.order).with_opt_level(o.opt_level),
    )
    .map_err(|e| e.to_string())?;
    let mut out = format!(
        "compiled model: {} symbols, order {}, {} tape ops ({} raw, opt {})\n",
        model.symbols().len(),
        model.order(),
        model.op_count(),
        model.raw_op_count(),
        model.opt_level()
    );
    let nominal = model.nominal().to_vec();
    let _ = writeln!(
        out,
        "{:>14} | {:>14} {:>14} {:>14}",
        "values", "dc gain", "p1 (rad/s)", "50% delay"
    );
    // Sweep the first symbol; others stay nominal.
    for i in 0..o.points {
        let t = if o.points > 1 {
            i as f64 / (o.points - 1) as f64
        } else {
            0.5
        };
        let mut vals = nominal.clone();
        vals[0] = nominal[0] / o.span * (o.span * o.span).powf(t);
        let rom = model.rom(&vals).map_err(|e| e.to_string())?;
        let p1 = rom.dominant_pole().map_or(f64::NAN, |p| p.re);
        let d = rom.delay_50().unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:>14.6e} | {:>14.6e} {:>14.6e} {:>14.6e}",
            vals[0],
            rom.dc_gain(),
            p1,
            d
        );
    }
    Ok(out)
}

fn cmd_model(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let (input, output) = resolve_io(&c, &o)?;
    let bindings = resolve_symbols(&c, &o)?;
    let model = CompiledModel::build_with_options(
        &c,
        input,
        output,
        &bindings,
        ModelOptions::order(o.order).with_opt_level(o.opt_level),
    )
    .map_err(|e| e.to_string())?;
    let mut out = format!(
        "compiled {} symbols at order {} ({} tape ops, {} raw, opt {})\n",
        model.symbols().len(),
        model.order(),
        model.op_count(),
        model.raw_op_count(),
        model.opt_level()
    );
    match &o.out {
        // A .awesym extension selects the versioned, checksummed artifact
        // envelope; anything else keeps the raw model-JSON form.
        Some(path) if path.ends_with(".awesym") => {
            awesym_serve::save_artifact(&model, path).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "artifact written to {path}");
        }
        Some(path) => {
            let json = serde_json::to_string(&model).map_err(|e| e.to_string())?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out, "model written to {path}");
        }
        None => {
            let json = serde_json::to_string(&model).map_err(|e| e.to_string())?;
            out.push_str(&json);
        }
    }
    Ok(out)
}

fn cmd_eval(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let path = o
        .model
        .as_ref()
        .ok_or("missing --model <file.json|file.awesym>")?;
    // Accepts both the raw model-JSON dump and the validated .awesym
    // artifact; either way the compile step is skipped entirely.
    let model = awesym_serve::load_model_file(path).map_err(|e| e.to_string())?;
    let text = o.values.as_ref().ok_or("missing --values v1,v2,...")?;
    let vals: Vec<f64> = text
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| format!("bad value '{v}': {e}"))
        })
        .collect::<Result<_, _>>()?;
    if vals.len() != model.symbols().len() {
        return Err(format!(
            "model has {} symbols ({}), got {} values",
            model.symbols().len(),
            model.symbols(),
            vals.len()
        ));
    }
    let rom = model.rom(&vals).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model: {} symbols, order {}, {} tape ops ({} raw, opt {})",
        model.symbols().len(),
        model.order(),
        model.op_count(),
        model.raw_op_count(),
        model.opt_level()
    );
    let moments: Vec<String> = model
        .eval_moments(&vals)
        .iter()
        .copied()
        .map(fmt_f64)
        .collect();
    let _ = writeln!(out, "moments: [{}]", moments.join(", "));
    let _ = writeln!(out, "dc gain: {}", fmt_f64(rom.dc_gain()));
    for p in rom.poles() {
        let _ = writeln!(out, "pole {p}");
    }
    if let Some(d) = rom.delay_50() {
        let _ = writeln!(out, "50% delay: {} s", fmt_f64(d));
    }
    Ok(out)
}

fn cmd_serve(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    if let Some(extra) = &o.netlist {
        return Err(format!("serve takes no positional argument '{extra}'"));
    }
    let defaults = awesym_serve::ServerConfig::default();
    let server = awesym_serve::Server::with_config(awesym_serve::ServerConfig {
        capacity: o.capacity,
        deadline_ms: o.deadline_ms,
        max_batch_points: o.max_batch.unwrap_or(defaults.max_batch_points),
        max_inflight: o.max_inflight.unwrap_or(defaults.max_inflight),
        stats_every: o.stats_every,
        shards: o.shards.unwrap_or(defaults.shards).max(1),
        shard_workers: o.shard_workers.unwrap_or(defaults.shard_workers),
        ..defaults
    });
    if let Some(addr) = &o.listen {
        // Socket front end: same engine, TCP transport (docs/networking.md).
        let net_defaults = awesym_net::NetConfig::default();
        let net = awesym_net::NetServer::bind(
            std::sync::Arc::new(server),
            addr.as_str(),
            awesym_net::NetConfig {
                max_conns: o.max_conns.unwrap_or(net_defaults.max_conns),
                idle_timeout: o
                    .idle_timeout_ms
                    .map_or(net_defaults.idle_timeout, std::time::Duration::from_millis),
                ..net_defaults
            },
        )
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        match net.local_addr() {
            Ok(bound) => eprintln!("listening on {bound}"),
            Err(_) => eprintln!("listening on {addr}"),
        }
        net.run().map_err(|e| format!("accept loop error: {e}"))?;
        let snap = net.server().registry_stats();
        eprintln!(
            "serve loop ended: {} hits, {} misses, {} evictions, {} models resident",
            snap.hits, snap.misses, snap.evictions, snap.resident
        );
        return Ok(String::new());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // Periodic stats go to stderr: stdout is the NDJSON response stream
    // and must stay strictly request/response. Pass stderr *unlocked* —
    // holding its lock for the whole serve loop would deadlock any
    // worker-thread write to stderr (panic-hook output) against the
    // blocked submitter.
    server
        .serve_with_stats(stdin.lock(), stdout.lock(), std::io::stderr())
        .map_err(|e| format!("serve transport error: {e}"))?;
    let snap = server.registry_stats();
    // Stdout carries the NDJSON response stream; keep the human-readable
    // wrap-up off it so programmatic clients reading to EOF never see a
    // non-JSON line.
    eprintln!(
        "serve loop ended: {} hits, {} misses, {} evictions, {} models resident",
        snap.hits, snap.misses, snap.evictions, snap.resident
    );
    Ok(String::new())
}

/// Parses a sample count that may use scientific notation (`1e7`).
fn parse_count(s: &str) -> Result<u64, String> {
    if let Ok(n) = s.parse::<u64>() {
        return Ok(n);
    }
    let f: f64 = s
        .parse()
        .map_err(|e| format!("bad sample count '{s}': {e}"))?;
    if !(f.is_finite() && (1.0..=1e15).contains(&f) && f.fract() == 0.0) {
        return Err(format!("bad sample count '{s}' (need a whole number)"));
    }
    Ok(f as u64)
}

fn cmd_timing(args: &[&str]) -> Result<String, String> {
    use awesym_timing::{ChainSpec, GateChain, McConfig, McEngine, QuantileGrid};

    // Timing has its own flag set; the shared Opts doesn't fit.
    let mut spec_path: Option<String> = None;
    let mut stages = 8usize;
    let mut samples = 100_000u64;
    let mut block = McConfig::DEFAULT_BLOCK;
    let mut workers = 1usize;
    let mut seed = 42u64;
    let mut deadline: Option<f64> = None;
    let mut metric: Option<awesym_timing::DelayMetric> = None;
    let mut order: Option<usize> = None;
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let num = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("bad {name} '{v}': {e}"))
        };
        match a {
            "--stages" => stages = num("--stages", grab("--stages")?)?,
            "--samples" => samples = parse_count(&grab("--samples")?)?,
            "--block" => block = num("--block", grab("--block")?)?,
            "--workers" => workers = num("--workers", grab("--workers")?)?,
            "--seed" => {
                let v = grab("--seed")?;
                seed = v.parse().map_err(|e| format!("bad --seed '{v}': {e}"))?;
            }
            "--deadline" => {
                let v = grab("--deadline")?;
                deadline = Some(
                    v.parse()
                        .map_err(|e| format!("bad --deadline '{v}': {e}"))?,
                );
            }
            "--metric" => metric = Some(grab("--metric")?.parse()?),
            "--order" => order = Some(num("--order", grab("--order")?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if spec_path.is_none() => spec_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if stages == 0 {
        return Err("--stages must be positive".into());
    }
    if workers == 0 || block == 0 || samples == 0 {
        return Err("--workers, --block and --samples must be positive".into());
    }

    let mut spec = match &spec_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str::<ChainSpec>(&text)
                .map_err(|e| format!("bad chain spec {path}: {e}"))?
        }
        None => ChainSpec::uniform(stages),
    };
    if let Some(m) = metric {
        spec.metric = m;
    }
    if let Some(q) = order {
        spec.order = q;
    }

    let chain = GateChain::compile(&spec).map_err(|e| e.to_string())?;
    let nominal = chain.nominal_delay();
    let deadline = deadline.unwrap_or(1.25 * nominal);
    let grid = QuantileGrid::around(nominal, 64.0, QuantileGrid::DEFAULT_BINS);

    // Both report lines go through the serde_json Content writer — the
    // shared wire encoder path — instead of hand-rolled `format!` float
    // printing: shortest-round-trip digits, and non-finite values (an
    // all-invalid run's quantiles) become `null` rather than the
    // JSON-breaking `NaN` literal.
    let mut out = String::new();
    let chain_fields = Content::Map(vec![
        ("kind".into(), Content::Str("chain".into())),
        ("stages".into(), Content::U64(chain.stages().len() as u64)),
        ("order".into(), Content::U64(spec.order as u64)),
        (
            "metric".into(),
            serde_json::to_value(&spec.metric).map_err(|e| e.to_string())?,
        ),
        ("tape_ops".into(), Content::U64(chain.op_count() as u64)),
        ("nominal_delay_s".into(), Content::F64(nominal)),
    ]);
    let _ = writeln!(
        out,
        "{}",
        serde_json::to_string(&chain_fields).map_err(|e| e.to_string())?
    );

    let registry = awesym_obs::Registry::new();
    let engine = McEngine::new(std::sync::Arc::new(chain), workers, &registry);
    let cfg = McConfig::new(samples, seed, grid)
        .with_block_size(block)
        .with_deadline(deadline);
    let report = engine.run(&cfg);
    let s = &report.summary;
    let yield_fields = Content::Map(vec![
        ("kind".into(), Content::Str("yield_report".into())),
        ("samples".into(), Content::U64(s.samples)),
        ("valid".into(), Content::U64(s.valid)),
        ("invalid".into(), Content::U64(s.invalid)),
        ("blocks".into(), Content::U64(s.blocks)),
        ("mean_s".into(), Content::F64(s.mean)),
        ("std_dev_s".into(), Content::F64(s.std_dev)),
        ("min_s".into(), Content::F64(s.min)),
        ("max_s".into(), Content::F64(s.max)),
        ("p50_s".into(), Content::F64(s.p50.unwrap_or(f64::NAN))),
        ("p95_s".into(), Content::F64(s.p95.unwrap_or(f64::NAN))),
        ("p997_s".into(), Content::F64(s.p997.unwrap_or(f64::NAN))),
        ("deadline_s".into(), Content::F64(deadline)),
        (
            "yield".into(),
            Content::F64(s.yield_fraction.unwrap_or(f64::NAN)),
        ),
        ("workers".into(), Content::U64(report.workers as u64)),
        ("seed".into(), Content::U64(seed)),
        ("block_size".into(), Content::U64(block as u64)),
        ("wall_s".into(), Content::F64(report.wall_secs)),
        (
            "samples_per_sec".into(),
            Content::F64(report.samples_per_sec),
        ),
    ]);
    let _ = writeln!(
        out,
        "{}",
        serde_json::to_string(&yield_fields).map_err(|e| e.to_string())?
    );
    out.push_str(&registry.to_ndjson());
    Ok(out)
}

fn load_nonlinear(o: &Opts) -> Result<crate::NonlinearCircuit, String> {
    let path = o.netlist.as_ref().ok_or("missing netlist path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    awesym_nonlinear::parse_spice_nonlinear(&text).map_err(|e| e.to_string())
}

fn cmd_op(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let ckt = load_nonlinear(&o)?;
    let op = ckt.dc_operating_point().map_err(|e| e.to_string())?;
    let mut out = format!("converged in {} newton iterations\n", op.iterations());
    for k in 1..ckt.linear().num_nodes() {
        let node = Node(k);
        let _ = writeln!(
            out,
            "v({}) = {:.6} V",
            ckt.linear().node_name(node),
            op.voltage(node)
        );
    }
    for d in ckt.devices() {
        match op.device_bias(d.name()) {
            Some(crate::DeviceBias::Diode { v, i, .. }) => {
                let _ = writeln!(out, "{}: vd = {v:.4} V, id = {i:.4e} A", d.name());
            }
            Some(crate::DeviceBias::Bjt { vbe, ic, ib, .. }) => {
                let _ = writeln!(
                    out,
                    "{}: vbe = {vbe:.4} V, ic = {ic:.4e} A, ib = {ib:.4e} A",
                    d.name()
                );
            }
            None => {}
        }
    }
    Ok(out)
}

fn cmd_linearize(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let ckt = load_nonlinear(&o)?;
    let op = ckt.dc_operating_point().map_err(|e| e.to_string())?;
    let small = ckt.linearize(&op);
    let netlist = small.to_spice();
    match &o.out {
        Some(path) => {
            std::fs::write(path, &netlist).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "small-signal netlist ({} elements) written to {path}\n",
                small.num_elements()
            ))
        }
        None => Ok(netlist),
    }
}

fn cmd_ac(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let (input, output) = resolve_io(&c, &o)?;
    let mna = crate::Mna::build(&c).map_err(|e| e.to_string())?;
    let n = o.points.max(2);
    let mut out = format!(
        "{:>14} {:>14} {:>12}\n",
        "f (Hz)", "|H| (dB)", "phase (deg)"
    );
    for i in 0..n {
        let f = o.fstart * (o.fstop / o.fstart).powf(i as f64 / (n - 1) as f64);
        let h = mna
            .ac_transfer(input, output, &[2.0 * std::f64::consts::PI * f])
            .map_err(|e| e.to_string())?[0];
        let _ = writeln!(
            out,
            "{f:>14.6e} {:>14.3} {:>12.2}",
            20.0 * h.abs().max(1e-300).log10(),
            h.arg().to_degrees()
        );
    }
    Ok(out)
}

fn cmd_tran(args: &[&str]) -> Result<String, String> {
    let o = parse_opts(args)?;
    let c = load_netlist(&o)?;
    let (input, output) = resolve_io(&c, &o)?;
    let tstop = o.tstop.ok_or("missing --tstop")?;
    let dt = o.dt.unwrap_or(tstop / 200.0);
    let mna = crate::Mna::build(&c).map_err(|e| e.to_string())?;
    let res = crate::transient(
        &mna,
        input,
        &crate::Waveform::Step { amplitude: 1.0 },
        &crate::TransientOptions {
            t_stop: tstop,
            dt,
            method: crate::IntegrationMethod::Trapezoidal,
        },
        &[output],
    )
    .map_err(|e| e.to_string())?;
    let mut out = format!("{:>14} {:>14}\n", "t (s)", "v(out)");
    // Print at most ~50 rows.
    let stride = (res.times.len() / 50).max(1);
    for (t, v) in res.times.iter().zip(res.traces[0].iter()).step_by(stride) {
        let _ = writeln!(out, "{t:>14.6e} {v:>14.6e}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_demo_netlist() -> (tempdir::TempDirLite, String) {
        let dir = tempdir::TempDirLite::new("awesym_cli");
        let path = dir.path().join("demo.sp");
        std::fs::write(
            &path,
            "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n",
        )
        .unwrap();
        (dir, path.to_string_lossy().into_owned())
    }

    /// Minimal self-cleaning temp dir (avoids a dev-dependency).
    mod tempdir {
        pub struct TempDirLite(std::path::PathBuf);
        impl TempDirLite {
            pub fn new(prefix: &str) -> Self {
                let p = std::env::temp_dir().join(format!(
                    "{prefix}_{}_{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                std::fs::create_dir_all(&p).unwrap();
                TempDirLite(p)
            }
            pub fn path(&self) -> &std::path::Path {
                &self.0
            }
        }
        impl Drop for TempDirLite {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn lint_command() {
        let (_d, path) = write_demo_netlist();
        let out = run(&["lint", &path]).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn timing_command_uniform_chain() {
        let out = run(&[
            "timing",
            "--stages",
            "3",
            "--samples",
            "1e3",
            "--block",
            "128",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(out.contains("\"kind\":\"chain\",\"stages\":3"), "{out}");
        assert!(
            out.contains("\"kind\":\"yield_report\",\"samples\":1000"),
            "{out}"
        );
        assert!(out.contains("\"metric\":\"mc_samples_total\""), "{out}");
        // Every stdout line is one JSON object (NDJSON contract).
        for line in out.lines() {
            serde_json::from_str::<serde_json::Value>(line)
                .unwrap_or_else(|e| panic!("non-JSON line '{line}': {e}"));
        }
    }

    #[test]
    fn timing_command_spec_file_and_determinism() {
        let dir = tempdir::TempDirLite::new("awesym_cli_timing");
        let path = dir.path().join("chain.json");
        let mut spec = awesym_timing::ChainSpec::uniform(2);
        for s in &mut spec.stages {
            s.segments = 2;
        }
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let p = path.to_string_lossy().into_owned();
        let args = |workers: &'static str| {
            vec![
                "timing".to_string(),
                p.clone(),
                "--samples".into(),
                "500".into(),
                "--workers".into(),
                workers.into(),
                "--seed".into(),
                "7".into(),
            ]
        };
        let report_line = |out: &str| {
            out.lines()
                .find(|l| l.contains("yield_report"))
                .unwrap()
                .split("\"workers\"")
                .next()
                .unwrap()
                .to_string()
        };
        let a1 = args("1");
        let a4 = args("4");
        let r1 = run(&a1.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
        let r4 = run(&a4.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
        // Identical statistics (the part before the worker count) at 1 and
        // 4 workers — the CLI surface of the determinism guarantee.
        assert_eq!(report_line(&r1), report_line(&r4));
    }

    #[test]
    fn timing_command_rejects_bad_args() {
        assert!(run(&["timing", "--samples", "1.5"]).is_err());
        assert!(run(&["timing", "--metric", "bogus"]).is_err());
        assert!(run(&["timing", "--stages", "0"]).is_err());
        assert!(run(&["timing", "--frobnicate"]).is_err());
    }

    #[test]
    fn poles_command() {
        let (_d, path) = write_demo_netlist();
        let out = run(&[
            "poles", &path, "--input", "vin", "--output", "2", "--order", "2",
        ])
        .unwrap();
        assert!(out.contains("dc gain: 1.0"), "{out}");
        assert!(out.matches("pole").count() == 2, "{out}");
    }

    #[test]
    fn sweep_command() {
        let (_d, path) = write_demo_netlist();
        let out = run(&[
            "sweep", &path, "--input", "vin", "--output", "2", "--symbol", "C1", "--points", "3",
        ])
        .unwrap();
        assert!(out.contains("compiled model: 1 symbols"), "{out}");
        assert_eq!(out.lines().filter(|l| l.contains('|')).count(), 4, "{out}");
    }

    #[test]
    fn model_then_eval_round_trip() {
        let (_d, path) = write_demo_netlist();
        let model_path = format!("{path}.model.json");
        let out = run(&[
            "model",
            &path,
            "--input",
            "vin",
            "--output",
            "2",
            "--symbol",
            "C1",
            "--symbol",
            "R2:r",
            "--out",
            &model_path,
        ])
        .unwrap();
        assert!(out.contains("model written"), "{out}");
        let out = run(&["eval", "--model", &model_path, "--values", "2e-9,500"]).unwrap();
        assert!(out.contains("dc gain"), "{out}");
        let _ = std::fs::remove_file(&model_path);
    }

    #[test]
    fn artifact_model_eval_flow() {
        let (_d, path) = write_demo_netlist();
        let art = format!("{path}.model.awesym");
        let out = run(&[
            "model", &path, "--input", "vin", "--output", "2", "--symbol", "C1", "--symbol",
            "R2:r", "--out", &art,
        ])
        .unwrap();
        assert!(out.contains("artifact written"), "{out}");
        // eval consumes the artifact directly — no recompilation — and
        // reports the compiled op count.
        let out = run(&["eval", "--model", &art, "--values", "2e-9,500"]).unwrap();
        assert!(out.contains("tape ops"), "{out}");
        assert!(out.contains("dc gain"), "{out}");
        // A corrupted artifact is rejected with a checksum message.
        let text = std::fs::read_to_string(&art).unwrap();
        std::fs::write(&art, text.replace("fnv1a64:", "fnv1a64:f")).unwrap();
        let e = run(&["eval", "--model", &art, "--values", "2e-9,500"]).unwrap_err();
        assert!(e.contains("corrupt"), "{e}");
        let _ = std::fs::remove_file(&art);
    }

    #[test]
    fn serve_flag_validation() {
        assert!(run(&["serve", "--capacity", "x"])
            .unwrap_err()
            .contains("bad --capacity"));
        assert!(run(&["serve", "extra.sp"])
            .unwrap_err()
            .contains("no positional"));
        for (flag, msg) in [
            ("--deadline-ms", "bad --deadline-ms"),
            ("--max-batch", "bad --max-batch"),
            ("--max-inflight", "bad --max-inflight"),
            ("--stats-every", "bad --stats-every"),
            ("--shards", "bad --shards"),
            ("--shard-workers", "bad --shard-workers"),
            ("--max-conns", "bad --max-conns"),
            ("--idle-timeout-ms", "bad --idle-timeout-ms"),
        ] {
            assert!(run(&["serve", flag, "x"]).unwrap_err().contains(msg));
            assert!(run(&["serve", flag]).unwrap_err().contains("missing value"));
        }
        assert!(run(&["serve", "--listen"])
            .unwrap_err()
            .contains("missing value"));
        // A bad listen address fails at bind time, before any serving.
        assert!(run(&["serve", "--listen", "not-an-address"])
            .unwrap_err()
            .contains("cannot bind"));
        assert!(run(&["help"]).unwrap().contains("serve"));
        assert!(run(&["help"]).unwrap().contains("--listen"));
    }

    #[test]
    fn ac_and_tran_commands() {
        let (_d, path) = write_demo_netlist();
        let out = run(&[
            "ac", &path, "--input", "vin", "--output", "2", "--points", "5", "--fstart", "1e4",
            "--fstop", "1e7",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("phase"), "{out}");
        let out = run(&[
            "tran", &path, "--input", "vin", "--output", "2", "--tstop", "1e-5",
        ])
        .unwrap();
        // Settles to ≈1 V by 10 τ (τ ≈ 3 µs here? R=1k, C=1n twice → ~µs).
        let last = out.lines().last().unwrap();
        let v: f64 = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(v > 0.9, "{out}");
        assert!(run(&["tran", &path, "--input", "vin", "--output", "2"])
            .unwrap_err()
            .contains("--tstop"));
    }

    #[test]
    fn op_and_linearize_commands() {
        let dir = tempdir::TempDirLite::new("awesym_cli_nl");
        let path = dir.path().join("amp.sp");
        std::fs::write(
            &path,
            "VCC vcc 0 10\nVB vb 0 1\nRBS vb b 100\nRC vcc c 2k\nRE e 0 330\nQ1 c b e\n.end\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&["op", &p]).unwrap();
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("Q1: vbe"), "{out}");
        let small_path = dir.path().join("small.sp");
        let sp = small_path.to_string_lossy().into_owned();
        let out = run(&["linearize", &p, "--out", &sp]).unwrap();
        assert!(out.contains("written"), "{out}");
        // The emitted netlist is parseable and analyzable.
        let out = run(&["poles", &sp, "--input", "VB", "--output", "c"]).unwrap();
        assert!(out.contains("pole"), "{out}");
    }

    #[test]
    fn sweep_span_and_model_print_paths() {
        let (_d, path) = write_demo_netlist();
        // Narrow span keeps the swept pole nearly constant.
        let narrow = run(&[
            "sweep", &path, "--input", "vin", "--output", "2", "--symbol", "C1", "--points", "3",
            "--span", "1.01",
        ])
        .unwrap();
        let poles: Vec<f64> = narrow
            .lines()
            .filter(|l| l.contains('|'))
            .skip(1)
            .map(|l| l.split_whitespace().nth(3).unwrap().parse().unwrap())
            .collect();
        assert_eq!(poles.len(), 3);
        let spread = (poles[2] - poles[0]).abs() / poles[1].abs();
        assert!(spread < 0.05, "narrow sweep moved poles by {spread}");
        // `model` without --out prints the JSON inline.
        let out = run(&[
            "model", &path, "--input", "vin", "--output", "2", "--symbol", "C1",
        ])
        .unwrap();
        assert!(out.contains("\"tape\""), "{out}");
        // `eval` rejects a wrong value count.
        let dir = tempdir::TempDirLite::new("awesym_cli_eval");
        let mp = dir.path().join("m.json");
        let mp_s = mp.to_string_lossy().into_owned();
        run(&[
            "model", &path, "--input", "vin", "--output", "2", "--symbol", "C1", "--out", &mp_s,
        ])
        .unwrap();
        let e = run(&["eval", "--model", &mp_s, "--values", "1e-9,2e-9"]).unwrap_err();
        assert!(e.contains("1 symbols"), "{e}");
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        let (_d, path) = write_demo_netlist();
        let e = run(&["poles", &path, "--input", "R1", "--output", "2"]).unwrap_err();
        assert!(e.contains("not an independent source"), "{e}");
        let e = run(&["poles", &path, "--input", "vin", "--output", "zz"]).unwrap_err();
        assert!(e.contains("no node named"), "{e}");
        let e = run(&["sweep", &path, "--input", "vin", "--output", "2"]).unwrap_err();
        assert!(e.contains("--symbol"), "{e}");
        let e = run(&[
            "sweep", &path, "--input", "vin", "--output", "2", "--symbol", "C1:zz",
        ])
        .unwrap_err();
        assert!(e.contains("unknown role"), "{e}");
        assert!(run(&["help"]).unwrap().contains("USAGE"));
    }
}
