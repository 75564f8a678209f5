//! Pins of what `parse_spice` and `parse_value` answer, so a change to
//! how they tokenize, read values or fill the circuit's tables cannot
//! change a parsed circuit, an error message or a value:
//!
//! - a digest per generator netlist (`Circuit::to_spice` of each of the
//!   nine generators, parsed back) over every node name in numbering
//!   order and every element's name, kind, node numbers, value bits and
//!   control branch;
//! - a table of malformed netlists with their exact messages and lines;
//! - a table of `parse_value` inputs with their exact bits.

use awesym_circuit::generators::{
    coupled_lines, fig1_rc, gate_stage, h_tree, opamp741, rc_ladder, rc_mesh, rc_tree, rlc_line,
    CoupledLineSpec,
};
use awesym_circuit::{parse_spice, parse_value, Circuit};

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything a parse produces that later stages read.
fn digest(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    h.u64(c.num_nodes() as u64);
    for i in 0..c.num_nodes() {
        h.str(c.node_name(awesym_circuit::Node(i)));
    }
    h.u64(c.num_elements() as u64);
    for e in c.elements() {
        h.str(&e.name);
        h.str(&format!("{:?}", e.kind));
        for n in [e.p, e.n, e.cp, e.cn] {
            h.u64(n.0 as u64);
            h.str(c.node_name(n));
        }
        h.u64(e.value.to_bits());
        h.str(&e.ctrl_branch);
    }
    h.0
}

/// The nine generators at the sizes the tests, benches and the served
/// fleet use them.
fn generator_netlists() -> Vec<(&'static str, String)> {
    vec![
        (
            "fig1_rc",
            fig1_rc(1e-3, 2e-3, 1e-9, 2e-9).circuit.to_spice(),
        ),
        ("rc_ladder", rc_ladder(20, 50.0, 1e-13).circuit.to_spice()),
        ("rc_tree", rc_tree(4, 25.0, 5e-14).circuit.to_spice()),
        (
            "coupled_lines",
            coupled_lines(&CoupledLineSpec::default())
                .circuit
                .to_spice(),
        ),
        ("opamp741", opamp741().circuit.to_spice()),
        ("rc_mesh", rc_mesh(30, 30, 10.0, 1e-15).circuit.to_spice()),
        ("h_tree", h_tree(4, 20.0, 1e-13, 2e-14).circuit.to_spice()),
        (
            "gate_stage",
            gate_stage(500.0, 32, 200.0, 4e-13, 1e-14)
                .circuit
                .to_spice(),
        ),
        (
            "rlc_line",
            rlc_line(8, 20.0, 10e-9, 2e-12, 25.0, 0.2e-12)
                .circuit
                .to_spice(),
        ),
    ]
}

#[test]
fn every_generator_netlist_parses_to_its_pinned_digest() {
    let want: [(&str, usize, u64); 9] = [
        ("fig1_rc", 5, 0x5419_9e8d_f9f4_4cd9),
        ("rc_ladder", 41, 0x4687_50d2_e7b3_452c),
        ("rc_tree", 63, 0xe6fa_845b_b0ab_cfe8),
        ("coupled_lines", 5005, 0x2828_d1d4_0edc_73e0),
        ("opamp741", 172, 0x3684_5032_b694_0e38),
        ("rc_mesh", 2642, 0x17bc_389b_361f_32b3),
        ("h_tree", 137, 0xdd23_55af_385a_5a39),
        ("gate_stage", 67, 0xd7fe_5298_f05d_e837),
        ("rlc_line", 27, 0x4e04_5e8c_a704_67d0),
    ];
    let got: Vec<(&str, usize, u64)> = generator_netlists()
        .into_iter()
        .map(|(name, text)| {
            let c = parse_spice(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, c.num_elements(), digest(&c))
        })
        .collect();
    assert_eq!(got, want);
}

/// `(netlist, line, message)` for netlists `parse_spice` refuses.
const MALFORMED: &[(&str, usize, &str)] = &[
    ("R1 1 0", 1, "expected 4 fields, found 3"),
    ("R1 1 0 1k 2k", 1, "expected 4 fields, found 5"),
    ("* c\n\nR1 1 0 1k\nC1 1 0", 4, "expected 4 fields, found 3"),
    ("G1 1 0 2 0", 1, "expected 6 fields, found 5"),
    ("E1 1 0 2 0 3 4", 1, "expected 6 fields, found 7"),
    ("F1 1 0 V1", 1, "expected 5 fields, found 4"),
    ("H1 1 0 V1 2 3", 1, "expected 5 fields, found 6"),
    ("V1 1 0 1 2 3 4 5 6 7 8 9", 1, "expected 4 fields, found 12"),
    ("R1 1 0 abc", 1, "bad value 'abc'"),
    ("R1 1 0 1e", 1, "bad value '1e'"),
    ("C1 1 0 1x", 1, "bad value '1x'"),
    ("G1 1 0 2 0 1..2", 1, "bad value '1..2'"),
    ("F1 1 0 V1 k", 1, "bad value 'k'"),
    ("R1 1 0 1ž", 1, "bad value '1ž'"),
    ("R1 1 0 1k\nXunknown 1 0", 2, "unknown element type 'X'"),
    ("q1 1 0 2", 1, "unknown element type 'Q'"),
    ("ñ1 1 0 2", 1, "unknown element type 'ñ'"),
    ("1R 1 0 2", 1, "unknown element type '1'"),
    (
        "V1 in 0 1\n* load\nR1 in out 1k\nC1 out 0 1p\nR1 out 0 2k\n",
        5,
        "duplicate element name 'R1' (first defined on line 3)",
    ),
    (
        "V1 in 0 1\r\nR1 in out 1k\r\n.end\r\nR1 out 0 2k\r\n",
        4,
        "duplicate element name 'R1' (first defined on line 2)",
    ),
];

#[test]
fn malformed_netlists_answer_their_pinned_messages() {
    for &(text, line, message) in MALFORMED {
        let e = parse_spice(text).expect_err(text);
        assert_eq!((e.line, e.message.as_str()), (line, message), "{text:?}");
        assert_eq!(
            e.to_string(),
            format!("netlist parse error on line {line}: {message}")
        );
    }
}

#[test]
fn separators_comments_and_case_parse_as_pinned() {
    // Tabs, carriage returns and Unicode white space separate fields;
    // comment and dot cards are skipped wherever they sit; node names
    // are case-insensitive and keep their first spelling.
    let c = parse_spice(
        "  * title\n.param x=1\nV1\tIN\t0\t1\r\nR1\u{a0}in Out\u{3000}1k\n\t\nC1 OUT gnd 1p\nE1 x 0 out GND 2\n.end\nR9 x 0 1\n",
    )
    .unwrap();
    let names: Vec<&str> = c.elements().iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["V1", "R1", "C1", "E1", "R9"]);
    let nodes: Vec<&str> = (0..c.num_nodes())
        .map(|i| c.node_name(awesym_circuit::Node(i)))
        .collect();
    assert_eq!(nodes, ["0", "IN", "Out", "x"]);
    let e1 = c.element(c.find("E1").unwrap());
    assert_eq!((e1.p.0, e1.n.0, e1.cp.0, e1.cn.0), (3, 0, 2, 0));
    assert_eq!(c.element(c.find("R1").unwrap()).value, 1e3);
}

/// `(text, value)`: `parse_value`'s answer, compared bit for bit.
const VALUES: &[(&str, Option<f64>)] = &[
    ("0", Some(0.0)),
    ("100", Some(100.0)),
    ("-0", Some(-0.0)),
    ("1.5k", Some(1.5e3)),
    ("1.5K", Some(1.5e3)),
    ("2.5meg", Some(2.5e6)),
    ("2.5MEG", Some(2.5e6)),
    ("2.5Meg", Some(2.5e6)),
    ("2.5mEgohm", Some(2.5e6)),
    ("1m", Some(1e-3)),
    ("1M", Some(1e-3)),
    ("1me", Some(1e-3)),
    ("2u", Some(2.0 * 1e-6)),
    ("2U", Some(2.0 * 1e-6)),
    ("3n", Some(3.0 * 1e-9)),
    ("4p", Some(4.0 * 1e-12)),
    ("1pF", Some(1e-12)),
    ("10PF", Some(10.0 * 1e-12)),
    ("5f", Some(5.0 * 1e-15)),
    ("5fF", Some(5.0 * 1e-15)),
    ("6G", Some(6e9)),
    ("7T", Some(7e12)),
    ("7t", Some(7e12)),
    ("1kohm", Some(1e3)),
    ("1k!", Some(1e3)),
    ("2.2ohm", Some(2.2)),
    ("2.2OHM", Some(2.2)),
    ("3v", Some(3.0)),
    ("3V", Some(3.0)),
    ("4a", Some(4.0)),
    ("5h", Some(5.0)),
    ("5H", Some(5.0)),
    ("1e3", Some(1e3)),
    ("1E3", Some(1e3)),
    ("1e+3", Some(1e3)),
    ("1E-3", Some(1e-3)),
    ("-2.5e-3", Some(-2.5e-3)),
    ("2.5e-3k", Some(2.5e-3 * 1e3)),
    ("1e3meg", Some(1e3 * 1e6)),
    ("1.2345678901234567e-13", Some(1.2345678901234567e-13)),
    ("+.5", Some(0.5)),
    ("-.5u", Some(-0.5 * 1e-6)),
    ("5.", Some(5.0)),
    ("  7k\t", Some(7e3)),
    ("\u{a0}7k\u{3000}", Some(7e3)),
    ("1e", None),
    ("1E", None),
    ("1ev", None),
    ("1e+", None),
    ("e3", None),
    ("bogus", None),
    ("", None),
    ("   ", None),
    ("k1", None),
    ("-", None),
    ("+", None),
    (".", None),
    ("1-2", None),
    ("1.2.3", None),
    ("inf", None),
    ("nan", None),
    ("1x", None),
    ("1o!", None),
    ("1ohm2", None),
    ("1ž", None),
    ("1oλ", None),
    ("1é", None),
    ("λ", None),
    ("1\u{301}", None),
    ("1e\u{2212}3", None),
];

#[test]
fn parse_value_answers_its_pinned_bits() {
    for &(text, want) in VALUES {
        assert_eq!(
            parse_value(text).map(f64::to_bits),
            want.map(f64::to_bits),
            "{text:?}"
        );
    }
}
