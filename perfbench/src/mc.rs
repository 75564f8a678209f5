//! The `mc_yield` workload, in process: compile the seeded gate-chain
//! paths, run fixed-size Monte Carlo yield jobs round-robin over them on
//! 2-worker `McEngine`s, then check every path's summary against a
//! 1-worker run on the same seed.

use crate::client::vm_hwm_kib;
use crate::fleet::{self, MC_WORKERS};
use crate::report::{Load, RateWindows, Run};
use crate::serve_load::{LOAD_ROUNDS, SETUP_ROUNDS};
use awesym_obs::Registry;
use awesym_timing::{GateChain, McConfig, McEngine, Summary};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The compiled paths, one engine each, and their job configs.
pub struct Fleet {
    /// One engine per path, all sharing `registry`.
    pub engines: Vec<McEngine<GateChain>>,
    /// Job config per path.
    pub configs: Vec<McConfig>,
    /// The registry the engines report `mc_*` metrics on.
    pub registry: Registry,
}

/// Compiles every path, starts its engine, and runs one warm-up job.
pub fn set_up(seed: u64) -> Fleet {
    let specs = fleet::mc_paths(seed);
    let registry = Registry::new();
    let chains: Vec<GateChain> = specs
        .iter()
        .map(|s| GateChain::compile(s).expect("mc path compiles"))
        .collect();
    let configs = chains
        .iter()
        .enumerate()
        .map(|(p, c)| fleet::mc_config(seed, p, c.nominal_delay()))
        .collect::<Vec<_>>();
    let engines: Vec<_> = chains
        .into_iter()
        .map(|c| McEngine::new(Arc::new(c), MC_WORKERS, &registry))
        .collect();
    engines[0].run(&configs[0]);
    Fleet {
        engines,
        configs,
        registry,
    }
}

/// The summary as text: `Debug` prints every float in shortest
/// round-trip form, so equal text means bit-identical fields.
fn summary_bits(s: &Summary) -> String {
    format!("{s:?}")
}

/// One untraced run: [`SETUP_ROUNDS`] set-ups, the last [`LOAD_ROUNDS`]
/// of which then run jobs round-robin over their paths in turn.
pub fn run(seed: u64, seconds: u64) -> Result<Run, String> {
    let share = Duration::from_secs_f64(seconds as f64 / LOAD_ROUNDS as f64);
    let mut run = Run::default();
    let mut first: Vec<Option<String>> = vec![None; fleet::MC_PATHS];
    let mut fleet = None;
    for round in 0..SETUP_ROUNDS {
        // Tear the previous round down first, so rounds do not overlap.
        drop(fleet.take());
        let t0 = Instant::now();
        let f = set_up(seed);
        run.setup_times.push(t0.elapsed().as_secs_f64());
        if round + LOAD_ROUNDS >= SETUP_ROUNDS {
            let load = jobs(
                &f,
                share,
                run.load.counts.attempted,
                &mut first,
                &mut run.mismatches,
            );
            run.load.extend(load);
        }
        fleet = Some(f);
    }
    run.rss_kib.push(vm_hwm_kib("/proc/self/status")?);

    let fleet = fleet.expect("at least one set-up round");
    for (p, engine) in fleet.engines.iter().enumerate() {
        let Some(got) = &first[p] else { continue };
        let single = McEngine::new(Arc::new(engine.task().clone()), 1, &Registry::new());
        let want = summary_bits(&single.run(&fleet.configs[p]).summary);
        run.checked += 1;
        if *got != want {
            run.mismatches.push(format!(
                "path {p}: {MC_WORKERS}-worker summary differs from the 1-worker run"
            ));
        }
    }
    Ok(run)
}

/// Runs jobs round-robin over the paths for `budget`, numbering them
/// from `k0`. Every job's summary must match the first one seen for its
/// path (in this or an earlier engine set).
fn jobs(
    fleet: &Fleet,
    budget: Duration,
    k0: u64,
    first: &mut [Option<String>],
    mismatches: &mut Vec<String>,
) -> Load {
    let paths = fleet.engines.len();
    let mut load = Load::default();
    let mut windows = RateWindows::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let k = k0 + load.counts.attempted;
        let p = k as usize % paths;
        let started = Instant::now();
        let report = fleet.engines[p].run(&fleet.configs[p]);
        load.lat_ns
            .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        load.counts.attempted += 1;
        let s = &report.summary;
        if s.samples == fleet.configs[p].samples && s.valid == s.samples {
            load.counts.succeeded += 1;
            load.points += s.samples;
            windows.add(s.samples);
        } else {
            load.counts.failed += 1;
        }
        let bits = summary_bits(s);
        match &first[p] {
            None => first[p] = Some(bits),
            Some(f) if *f != bits => mismatches.push(format!(
                "path {p}: job {k} summary differs from the path's first job"
            )),
            Some(_) => {}
        }
    }
    load.elapsed = t0.elapsed();
    load.rates = windows.rates;
    load
}
