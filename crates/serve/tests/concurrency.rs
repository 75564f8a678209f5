//! Concurrency invariants: a shared registry model evaluated from many
//! threads must give exactly the serial answers, and batch results must
//! not depend on the worker count.

use awesym_circuit::generators::fig1_rc;
use awesym_partition::{CompiledModel, SymbolBinding};
use awesym_serve::{
    BatchOutput, ModelRegistry, PointColumns, PointResult, PointValue, Server, ServerConfig,
    WorkerPool,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn build_model() -> CompiledModel {
    let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let c = &w.circuit;
    let bindings = [
        SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
        SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
    ];
    CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
}

/// Evaluates `points` on a fresh `workers`-thread pool; every point's
/// outcome, in input order.
fn evaluate_on_pool(
    model: &CompiledModel,
    points: &[Vec<f64>],
    output: &BatchOutput,
    workers: usize,
) -> Vec<PointResult> {
    let pool = WorkerPool::new(0, workers);
    let input = PointColumns::from_rows(points, model.symbols().len());
    let out = pool
        .run_batch(
            Arc::new(model.clone()),
            Arc::new(input),
            output.clone(),
            None,
            None,
        )
        .unwrap();
    (0..out.len()).map(|i| out.point(i)).collect()
}

/// Deterministic evaluation point for (thread, iteration).
fn point(thread: usize, iter: usize) -> Vec<f64> {
    let t = (thread * 100 + iter) as f64 / 800.0;
    vec![0.5e-9 + 3.5e-9 * t, 200.0 + 4800.0 * t]
}

#[test]
fn eight_threads_times_hundred_evals_match_serial() {
    const THREADS: usize = 8;
    const EVALS: usize = 100;
    let registry = ModelRegistry::new(4);
    registry.insert("shared", build_model());

    // Serial reference, computed on a private model instance.
    let reference_model = build_model();
    let expected: Vec<Vec<Vec<f64>>> = (0..THREADS)
        .map(|t| {
            (0..EVALS)
                .map(|i| reference_model.eval_moments(&point(t, i)))
                .collect()
        })
        .collect();

    let got: Vec<Vec<Vec<f64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let registry = &registry;
                s.spawn(move || {
                    // Every thread hits the registry for each eval to
                    // exercise the lock, not just the Arc.
                    (0..EVALS)
                        .map(|i| {
                            let m = registry.get("shared").expect("model resident");
                            m.eval_moments(&point(t, i))
                        })
                        .collect::<Vec<Vec<f64>>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(got, expected);
    let stats = registry.stats();
    assert_eq!(stats.hits, (THREADS * EVALS) as u64);
    assert_eq!(stats.misses, 0);
}

/// LRU eviction racing concurrent lookups: writers churn a capacity-2
/// registry hard enough that every insert evicts, while readers hammer
/// `get` on the same names and *evaluate through* any `Arc` they win —
/// proving a model stays fully usable after the registry forgets it,
/// lookups never see a torn entry, and the hit/miss/eviction counters
/// stay consistent under the race.
#[test]
fn lru_eviction_racing_lookups_keeps_arcs_valid_and_counters_consistent() {
    const WRITERS: usize = 2;
    const READERS: usize = 4;
    const CHURNS: usize = 300;
    let names = ["m0", "m1", "m2", "m3"];
    let registry = ModelRegistry::new(2);
    let expected = build_model().eval_moments(&point(0, 0));
    let stop = AtomicBool::new(false);

    let reads = std::thread::scope(|s| {
        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let registry = &registry;
                s.spawn(move || {
                    // Each insert of a fresh name on a full capacity-2
                    // registry evicts the LRU entry out from under the
                    // readers.
                    for i in 0..CHURNS {
                        let name = names[(w + i) % names.len()];
                        registry.insert(name, build_model());
                    }
                })
            })
            .collect();
        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                let registry = &registry;
                let stop = &stop;
                let expected = &expected;
                s.spawn(move || {
                    let mut hits = 0u64;
                    let mut misses = 0u64;
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        match registry.get(names[(r + i) % names.len()]) {
                            Some(m) => {
                                // The Arc outlives eviction: evaluating
                                // it must give the exact serial answer
                                // even if the entry was just evicted.
                                assert_eq!(&m.eval_moments(&point(0, 0)), expected);
                                hits += 1;
                            }
                            None => misses += 1,
                        }
                        i += 1;
                    }
                    (hits, misses)
                })
            })
            .collect();
        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let (read_hits, read_misses) = reads
        .iter()
        .fold((0u64, 0u64), |(h, m), &(rh, rm)| (h + rh, m + rm));
    let stats = registry.stats();
    assert_eq!(stats.hits, read_hits, "every hit counted exactly once");
    assert_eq!(stats.misses, read_misses, "every miss counted exactly once");
    // Full churn on a capacity-2 registry: all but the 2 survivors of
    // WRITERS * CHURNS inserts were evicted (names collide across
    // writers, so inserts may replace instead of evict — but the floor
    // from distinct-name churn still dominates).
    assert!(
        stats.evictions > 0,
        "churn must evict (got {})",
        stats.evictions
    );
    assert_eq!(stats.resident, 2, "capacity bound holds after the race");
    assert_eq!(registry.len(), 2);
}

/// A resident model is never `not_found`: with `capacity: 1` both models
/// fit on the shard, so however the lookups interleave, every `eval`
/// finds its model. A lookup that took a model out of the registry, even
/// for a moment, would let a concurrent lookup miss it.
#[test]
fn resident_models_never_answer_not_found_under_concurrent_lookups() {
    const THREADS: usize = 3;
    const EVALS: usize = 20_000;
    let server = Server::with_config(ServerConfig {
        capacity: 1,
        ..ServerConfig::default()
    });
    let names = ["a", "b"];
    for name in names {
        assert_eq!(server.insert_model(name, build_model()), None);
    }
    let lines = names.map(|n| format!(r#"{{"cmd":"eval","model":"{n}","values":[1e-9,1e3]}}"#));
    let start = Barrier::new(THREADS);

    let failures: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (server, lines, start) = (&server, &lines, &start);
                s.spawn(move || {
                    start.wait();
                    let mut failed = (0usize, String::new());
                    for i in 0..EVALS {
                        let resp = server.handle_line(&lines[(t + i) % 2]).unwrap();
                        if !resp.text().starts_with(r#"{"ok":true"#) {
                            if failed.0 == 0 {
                                failed.1 = resp.text().to_string();
                            }
                            failed.0 += 1;
                        }
                    }
                    failed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let failed: usize = failures.iter().map(|f| f.0).sum();
    let first = failures.iter().find(|f| f.0 > 0).map(|f| f.1.as_str());
    assert_eq!(
        failed,
        0,
        "{failed} of {} evals failed; first: {first:?}",
        THREADS * EVALS
    );
    assert_eq!(server.registry_stats().resident, 2);
}

#[test]
fn batch_results_are_worker_count_invariant() {
    let model = build_model();
    let points: Vec<Vec<f64>> = (0..1200).map(|i| point(i % 8, i / 8)).collect();
    let serial = evaluate_on_pool(&model, &points, &BatchOutput::Moments, 1);
    for workers in [2, 4, 8] {
        let parallel = evaluate_on_pool(&model, &points, &BatchOutput::Moments, workers);
        assert_eq!(parallel, serial, "workers={workers}");
    }
    // And the serial results equal direct model calls, in input order.
    for (r, p) in serial.iter().zip(&points) {
        assert_eq!(
            r.as_ref().unwrap(),
            &PointValue::Moments(model.eval_moments(p))
        );
    }
}

#[test]
fn rom_batches_are_worker_count_invariant() {
    let model = build_model();
    let points: Vec<Vec<f64>> = (0..160).map(|i| point(i % 8, i / 8)).collect();
    let serial = evaluate_on_pool(&model, &points, &BatchOutput::Rom, 1);
    let parallel = evaluate_on_pool(&model, &points, &BatchOutput::Rom, 8);
    assert_eq!(parallel, serial);
}
