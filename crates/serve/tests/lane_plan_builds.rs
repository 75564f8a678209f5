//! Lane plans are built once per compiled function, not once per request
//! or per pool job: compiling the 1000-segment cross-talk model (the
//! perfbench `bulk_binary` model) and serving 1000 4096-point `moments`
//! batches through a 2-worker shard builds exactly one plan.
//!
//! The build counter is process-global, so this check has a test binary
//! of its own.

use awesym_circuit::generators::{coupled_lines, CoupledLineSpec};
use awesym_obs::Registry;
use awesym_partition::CompiledModel;
use awesym_serve::resolve::resolve_symbol_specs;
use awesym_serve::{BatchOutput, PointColumns, Shard, ShardConfig};
use awesym_symbolic::lanes::lane_plan_builds;
use std::sync::Arc;

const BATCHES: usize = 1000;
const POINTS: usize = 4096;

#[test]
fn one_lane_plan_for_a_thousand_served_batches() {
    let before = lane_plan_builds();

    // Compiled from its SPICE text, as the server's `compile` does.
    let lines = coupled_lines(&CoupledLineSpec::default());
    let circuit = awesym_circuit::parse_spice(&lines.circuit.to_spice()).unwrap();
    let input = circuit.find("vin").unwrap();
    let output = circuit
        .find_node(lines.circuit.node_name(lines.victim_out))
        .unwrap();
    let bindings = resolve_symbol_specs(&circuit, &["rdrv1", "cload2"]).unwrap();
    let model = Arc::new(CompiledModel::build(&circuit, input, output, &bindings, 2).unwrap());

    let nominal: Vec<f64> = bindings.iter().map(|b| b.nominal(&circuit)).collect();
    let rows: Vec<Vec<f64>> = (0..POINTS)
        .map(|i| {
            let t = i as f64 / POINTS as f64;
            nominal.iter().map(|v| v * (0.5 + 1.5 * t)).collect()
        })
        .collect();
    let points = Arc::new(PointColumns::from_rows(&rows, nominal.len()));
    let shard = Shard::new(
        0,
        ShardConfig {
            workers: 2,
            ..ShardConfig::default()
        },
        &Registry::new(),
    );
    for _ in 0..BATCHES {
        let out = shard
            .evaluate_columns(
                Arc::clone(&model),
                Arc::clone(&points),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        assert_eq!(out.ok_count(), POINTS);
    }

    assert_eq!(lane_plan_builds() - before, 1);
}
