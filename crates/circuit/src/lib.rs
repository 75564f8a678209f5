//! Circuit (netlist) representation and workload generators for AWEsymbolic.
//!
//! A [`Circuit`] is a flat list of linear elements over numbered nodes, with
//! node 0 as ground. Linearized devices (the paper analyzes *linearized*
//! circuits) are expressed with the classical small-signal primitives:
//! resistors, capacitors, inductors, independent sources, and the four
//! controlled sources.
//!
//! The crate also ships the paper's workloads as generators:
//!
//! - [`generators::fig1_rc`] — the two-node RC circuit of Fig. 1 whose exact
//!   symbolic transfer function is eq. (5)/(6);
//! - [`generators::rc_ladder`] / [`generators::rc_tree`] — interconnect
//!   stand-ins used by tests and benches;
//! - [`generators::coupled_lines`] — the Fig. 8 coupled-line timing workload
//!   (N-segment lumped RC lines with capacitive coupling, Thevenin drivers
//!   and capacitive loads);
//! - [`generators::opamp741`] — a structurally faithful linearized 741
//!   op-amp built from hybrid-π BJT models (see `DESIGN.md` §4 for the
//!   substitution rationale).
//!
//! # Example
//!
//! ```
//! use awesym_circuit::{Circuit, Element};
//!
//! let mut c = Circuit::new();
//! let n1 = c.node("in");
//! let n2 = c.node("out");
//! c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
//! c.add(Element::resistor("R1", n1, n2, 1e3));
//! c.add(Element::capacitor("C1", n2, Circuit::GROUND, 1e-12));
//! assert_eq!(c.num_nodes(), 3); // ground + 2
//! ```

#![forbid(unsafe_code)]

mod element;
mod names;
mod netlist;
mod parse;

pub mod generators;
pub mod lint;

pub use element::{Element, ElementId, ElementKind, Node};
pub use lint::{lint, LintIssue};
pub use netlist::Circuit;
pub use parse::{parse_spice, parse_value, ParseNetlistError};
