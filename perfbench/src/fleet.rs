//! Every input the benchmark sends, made from the workload seed: the
//! served model fleet, the `rpc_small` request lines, the `bulk_binary`
//! request frames, and the `mc_yield` gate-chain paths.

use awesym_circuit::{generators, Circuit};
use awesym_net::{encode_request, RequestFrame, RequestKind};
use awesym_partition::CompiledModel;
use awesym_timing::{BlockRng, ChainSpec, McConfig, QuantileGrid};
use serde::Content;

/// Model the `rpc_small` requests evaluate (§3.1 op-amp).
pub const RPC_MODEL: &str = "opamp";
/// Model the `bulk_binary` frames evaluate (§3.2 cross-talk output).
pub const BULK_MODEL: &str = "lines_xtalk";
/// Points per `bulk_binary` frame.
pub const BULK_POINTS: usize = 4096;
/// Distinct request lines `rpc_small` cycles through.
pub const RPC_RING: usize = 4096;
/// Distinct frames `bulk_binary` cycles through.
pub const BULK_RING: usize = 8;

/// Gate-chain paths `mc_yield` compiles.
pub const MC_PATHS: usize = 16;
/// Stages per path.
pub const MC_STAGES: usize = 8;
/// Wire segments per stage (the stage tapes do not grow with it).
pub const MC_SEGMENTS: usize = 32;
/// Monte Carlo samples per `mc_yield` job.
pub const MC_SAMPLES: u64 = 65_536;
/// `McEngine` workers, one per core of a 2-core host.
pub const MC_WORKERS: usize = 2;

/// Sub-streams of the workload seed, one per input family, so that no
/// two families share random draws.
const STREAM_RPC: u64 = 1;
const STREAM_BULK: u64 = 2;
const STREAM_PATHS: u64 = 3;
const STREAM_MC_SEED: u64 = 4;
const STREAM_SAMPLE: u64 = 5;

/// A value drawn log-uniformly in `0.5×..2×` of `nominal`.
fn around(rng: &mut BlockRng, nominal: f64) -> f64 {
    nominal * (2.0 * rng.next_f64() - 1.0).exp2()
}

/// One model of the served fleet, described the way a client sends it:
/// a SPICE netlist plus `compile` arguments.
pub struct FleetModel {
    /// Registered model name.
    pub name: &'static str,
    /// The netlist, written by `Circuit::to_spice`.
    pub netlist: String,
    /// Driving source element.
    pub input: &'static str,
    /// Output node.
    pub output: String,
    /// `ELEM[:role]` symbol specs.
    pub symbols: &'static [&'static str],
    /// AWE order.
    pub order: usize,
}

impl FleetModel {
    /// The `compile` request line for this model.
    pub fn compile_line(&self) -> String {
        let s = |v: &str| Content::Str(v.to_string());
        let req = Content::Map(vec![
            ("cmd".into(), s("compile")),
            ("name".into(), s(self.name)),
            ("netlist".into(), s(&self.netlist)),
            ("input".into(), s(self.input)),
            ("output".into(), s(&self.output)),
            (
                "symbols".into(),
                Content::Seq(self.symbols.iter().map(|v| s(v)).collect()),
            ),
            ("order".into(), Content::U64(self.order as u64)),
        ]);
        serde_json::to_string(&req).expect("compile request serializes")
    }

    /// Parses the netlist, as the server's `compile` does.
    pub fn parse(&self) -> Circuit {
        awesym_circuit::parse_spice(&self.netlist).expect("fleet netlist parses")
    }

    /// Builds the compiled model from a parsed netlist, as the server's
    /// `compile` does.
    pub fn build(&self, circuit: &Circuit) -> CompiledModel {
        let input = circuit.find(self.input).expect("fleet input exists");
        let output = circuit
            .find_node(&self.output)
            .expect("fleet output exists");
        let bindings = awesym_serve::resolve::resolve_symbol_specs(circuit, self.symbols)
            .expect("fleet symbols resolve");
        CompiledModel::build(circuit, input, output, &bindings, self.order)
            .expect("fleet model compiles")
    }

    /// Nominal symbol values, in spec order.
    pub fn nominal(&self) -> Vec<f64> {
        let circuit = self.parse();
        awesym_serve::resolve::resolve_symbol_specs(&circuit, self.symbols)
            .expect("fleet symbols resolve")
            .iter()
            .map(|b| b.nominal(&circuit))
            .collect()
    }
}

/// The served fleet: the §3.1 op-amp, the §3.2 coupled lines at 1000
/// segments (direct output at order 1, cross-talk at order 2), and a
/// 30×30 RC mesh. `h_tree` and `rlc_line` are left out because their
/// element names (`hr1`, `tr1`) read back as SPICE `H`/`T` elements.
pub fn fleet() -> Vec<FleetModel> {
    let amp = generators::opamp741();
    let lines = generators::coupled_lines(&generators::CoupledLineSpec::default());
    let lines_text = lines.circuit.to_spice();
    let mesh = generators::rc_mesh(30, 30, 10.0, 1e-15);
    vec![
        FleetModel {
            name: RPC_MODEL,
            netlist: amp.circuit.to_spice(),
            input: "vin",
            output: amp.circuit.node_name(amp.output).to_string(),
            symbols: &["ro_q14:g", "c_comp"],
            order: 2,
        },
        FleetModel {
            name: "lines_direct",
            netlist: lines_text.clone(),
            input: "vin",
            output: lines.circuit.node_name(lines.aggressor_out).to_string(),
            symbols: &["rdrv1", "cload1"],
            order: 1,
        },
        FleetModel {
            name: BULK_MODEL,
            netlist: lines_text,
            input: "vin",
            output: lines.circuit.node_name(lines.victim_out).to_string(),
            symbols: &["rdrv1", "cload2"],
            order: 2,
        },
        FleetModel {
            name: "mesh",
            netlist: mesh.circuit.to_spice(),
            input: "vin",
            output: mesh.circuit.node_name(mesh.output).to_string(),
            symbols: &["rdrv", "cm29_29"],
            order: 2,
        },
    ]
}

fn fleet_model<'a>(fleet: &'a [FleetModel], name: &str) -> &'a FleetModel {
    fleet
        .iter()
        .find(|m| m.name == name)
        .expect("model is in the fleet")
}

/// The `rpc_small` ring: single-point `rom` evals on the op-amp, values
/// inside `0.5×..2×` nominal, request id = ring index.
pub fn rpc_lines(seed: u64, fleet: &[FleetModel]) -> Vec<String> {
    let nominal = fleet_model(fleet, RPC_MODEL).nominal();
    let mut rng = BlockRng::new(seed, STREAM_RPC);
    (0..RPC_RING)
        .map(|i| {
            let values = nominal
                .iter()
                .map(|&v| Content::F64(around(&mut rng, v)))
                .collect();
            let req = Content::Map(vec![
                ("cmd".into(), Content::Str("eval".into())),
                ("model".into(), Content::Str(RPC_MODEL.into())),
                ("values".into(), Content::Seq(values)),
                ("kind".into(), Content::Str("rom".into())),
                ("id".into(), Content::U64(i as u64)),
            ]);
            serde_json::to_string(&req).expect("eval request serializes")
        })
        .collect()
}

/// The `bulk_binary` ring: 4096-point AWSQ `moments` frames on the
/// cross-talk model, request id = ring index.
pub fn bulk_frames(seed: u64, fleet: &[FleetModel]) -> Vec<Vec<u8>> {
    let nominal = fleet_model(fleet, BULK_MODEL).nominal();
    let mut rng = BlockRng::new(seed, STREAM_BULK);
    (0..BULK_RING)
        .map(|i| {
            let points: Vec<Vec<f64>> = (0..BULK_POINTS)
                .map(|_| nominal.iter().map(|&v| around(&mut rng, v)).collect())
                .collect();
            let id = i.to_string();
            let mut out = Vec::new();
            encode_request(
                &RequestFrame {
                    model: BULK_MODEL,
                    points: &points,
                    kind: RequestKind::Moments,
                    times: &[],
                    deadline_ms: None,
                    workers: None,
                    id: Some(&id),
                },
                &mut out,
            )
            .expect("bulk frame encodes");
            out
        })
        .collect()
}

/// The `mc_yield` paths: one shape (8 stages of 32 segments), with each
/// stage's wire and load values drawn inside `0.5×..2×` the defaults.
pub fn mc_paths(seed: u64) -> Vec<ChainSpec> {
    let mut rng = BlockRng::new(seed, STREAM_PATHS);
    (0..MC_PATHS)
        .map(|_| {
            let mut spec = ChainSpec::uniform(MC_STAGES);
            for s in &mut spec.stages {
                s.segments = MC_SEGMENTS;
                s.r_wire = around(&mut rng, s.r_wire);
                s.c_wire = around(&mut rng, s.c_wire);
                s.cload = around(&mut rng, s.cload);
            }
            spec
        })
        .collect()
}

/// The Monte Carlo job config for path `p`: a fixed sample count, a seed
/// derived from the workload seed, and a yield deadline 10% above the
/// path's nominal delay.
pub fn mc_config(seed: u64, path: usize, nominal_delay: f64) -> McConfig {
    let mc_seed = BlockRng::new(seed, STREAM_MC_SEED + 16 * path as u64).next_u64();
    McConfig::new(
        MC_SAMPLES,
        mc_seed,
        QuantileGrid::around(nominal_delay, 4.0, 512),
    )
    .with_deadline(nominal_delay * 1.1)
}

/// Whether request number `k` of the measured phase is kept for the
/// output check: about one in `every`, chosen by the seed.
pub fn sampled(seed: u64, k: u64, every: u64) -> bool {
    BlockRng::new(seed ^ STREAM_SAMPLE.rotate_left(32), k)
        .next_u64()
        .is_multiple_of(every)
}
