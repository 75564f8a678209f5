//! perfbench's fleet and the `rc_ladder20.sp` fixture models, built the
//! way a served `compile` builds them: generator → `Circuit::to_spice` →
//! `parse_spice` → symbol and probe lookup → `CompiledModel`.

#![allow(dead_code)]

use awesym_circuit::generators::{coupled_lines, opamp741, rc_mesh, CoupledLineSpec};
use awesym_circuit::{parse_spice, Circuit, ElementId, Node};
use awesym_partition::{CompiledModel, SymbolBinding, SymbolicMoments, SymbolicSystem};
use awesym_serve::resolve::{resolve_io, resolve_symbol_specs};
use std::path::PathBuf;

/// How many of [`compiles`]' entries are perfbench's fleet (the rest are
/// the fixture models).
pub const FLEET: usize = 4;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `compile`: a netlist and the request's arguments.
pub struct Compile {
    pub name: &'static str,
    pub netlist: String,
    pub input: &'static str,
    pub output: String,
    pub symbols: &'static [&'static str],
    pub order: usize,
}

/// A parsed `compile`: the circuit, its input and output, and the symbol
/// bindings.
pub struct Parsed {
    pub circuit: Circuit,
    pub input: ElementId,
    pub output: Node,
    pub bindings: Vec<SymbolBinding>,
}

impl Compile {
    pub fn parse(&self) -> Parsed {
        let circuit = parse_spice(&self.netlist).unwrap();
        let (input, output) = resolve_io(&circuit, self.input, &self.output).unwrap();
        let bindings = resolve_symbol_specs(&circuit, self.symbols).unwrap();
        Parsed {
            circuit,
            input,
            output,
            bindings,
        }
    }

    /// The model a served `compile` builds.
    pub fn build(&self) -> CompiledModel {
        let p = self.parse();
        CompiledModel::build(&p.circuit, p.input, p.output, &p.bindings, self.order).unwrap()
    }

    /// The symbolic moments `D`, `P_0 … P_{2q−1}` the model's tape is
    /// lowered from.
    pub fn moments(&self) -> SymbolicMoments {
        let p = self.parse();
        let count = 2 * self.order;
        let sys =
            SymbolicSystem::assemble(&p.circuit, p.input, p.output, &p.bindings, count).unwrap();
        SymbolicMoments::compute(&sys, count).unwrap()
    }
}

/// perfbench's fleet, in its compile order, plus the fixture models.
pub fn compiles() -> Vec<Compile> {
    let amp = opamp741();
    let lines = coupled_lines(&CoupledLineSpec::default());
    let lines_text = lines.circuit.to_spice();
    let mesh = rc_mesh(30, 30, 10.0, 1e-15);
    let ladder = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/rc_ladder20.sp"),
    )
    .unwrap();
    vec![
        Compile {
            name: "opamp",
            netlist: amp.circuit.to_spice(),
            input: "vin",
            output: amp.circuit.node_name(amp.output).to_string(),
            symbols: &["ro_q14:g", "c_comp"],
            order: 2,
        },
        Compile {
            name: "lines_direct",
            netlist: lines_text.clone(),
            input: "vin",
            output: lines.circuit.node_name(lines.aggressor_out).to_string(),
            symbols: &["rdrv1", "cload1"],
            order: 1,
        },
        Compile {
            name: "lines_xtalk",
            netlist: lines_text,
            input: "vin",
            output: lines.circuit.node_name(lines.victim_out).to_string(),
            symbols: &["rdrv1", "cload2"],
            order: 2,
        },
        Compile {
            name: "mesh",
            netlist: mesh.circuit.to_spice(),
            input: "vin",
            output: mesh.circuit.node_name(mesh.output).to_string(),
            symbols: &["rdrv", "cm29_29"],
            order: 2,
        },
        Compile {
            name: "rc_ladder20_r1_c20",
            netlist: ladder.clone(),
            input: "vin",
            output: "n20".into(),
            symbols: &["r1", "c20"],
            order: 2,
        },
        Compile {
            name: "rc_ladder20_4sym",
            netlist: ladder,
            input: "vin",
            output: "n20".into(),
            symbols: &["r1", "c5", "r12:g", "c20"],
            order: 3,
        },
    ]
}
