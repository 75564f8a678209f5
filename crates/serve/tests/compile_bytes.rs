//! Every compiled byte is pinned. The four models perfbench serves are
//! rebuilt the way it builds them (generator → `Circuit::to_spice` →
//! `parse_spice` → `CompiledModel::build`, with the fleet's symbols and
//! orders), and so are two models of the `rc_ladder20.sp` fixture; the
//! FNV-1a 64 digest of each saved artifact must equal its pinned value.
//! A change to how netlists are parsed or the numeric partition is
//! assembled may make a compile cheaper, never different.

use awesym_circuit::generators::{coupled_lines, opamp741, rc_mesh, CoupledLineSpec};
use awesym_circuit::parse_spice;
use awesym_partition::CompiledModel;
use awesym_serve::resolve::{resolve_io, resolve_symbol_specs};
use awesym_serve::{to_artifact_string, Server};
use std::path::PathBuf;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `compile`: a netlist and the request's arguments.
struct Compile {
    name: &'static str,
    netlist: String,
    input: &'static str,
    output: String,
    symbols: &'static [&'static str],
    order: usize,
}

impl Compile {
    fn build(&self) -> CompiledModel {
        let c = parse_spice(&self.netlist).unwrap();
        let (input, output) = resolve_io(&c, self.input, &self.output).unwrap();
        let bindings = resolve_symbol_specs(&c, self.symbols).unwrap();
        CompiledModel::build(&c, input, output, &bindings, self.order).unwrap()
    }
}

/// perfbench's fleet, in its compile order, plus the fixture models.
fn compiles() -> Vec<Compile> {
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

#[test]
fn fleet_and_fixture_artifacts_keep_their_pinned_digests() {
    let want: [(&str, usize, u64); 6] = [
        ("opamp", 3045, 0xc916_272b_d496_fb0f),
        ("lines_direct", 926, 0x3417_c1ca_7ccf_f272),
        ("lines_xtalk", 2225, 0xb059_c89d_df9c_ca74),
        ("mesh", 2957, 0x3a28_2f01_b696_8bae),
        ("rc_ladder20_r1_c20", 2951, 0x50a3_cfb3_6d23_f4fe),
        ("rc_ladder20_4sym", 156_029, 0xe328_09f2_1443_8fc3),
    ];
    let got: Vec<(&str, usize, u64)> = compiles()
        .iter()
        .map(|c| {
            let text = to_artifact_string(&c.build()).unwrap();
            (c.name, text.len(), fnv1a64(text.as_bytes()))
        })
        .collect();
    assert_eq!(got, want);
}

fn answer(server: &Server, line: &str) -> String {
    let resp = server.handle_line(line).expect("a non-empty request line");
    String::from_utf8(resp.body).unwrap()
}

/// The server's `compile` registers the model a direct build makes: a
/// `save` of it writes the same artifact.
#[test]
fn a_served_compile_saves_the_directly_built_artifact() {
    let server = Server::new(8);
    let dir = std::env::temp_dir().join(format!("awesym_compile_bytes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for c in &compiles() {
        let req = serde::Content::Map(vec![
            ("cmd".into(), serde::Content::Str("compile".into())),
            ("name".into(), serde::Content::Str(c.name.into())),
            ("netlist".into(), serde::Content::Str(c.netlist.clone())),
            ("input".into(), serde::Content::Str(c.input.into())),
            ("output".into(), serde::Content::Str(c.output.clone())),
            (
                "symbols".into(),
                serde::Content::Seq(
                    c.symbols
                        .iter()
                        .map(|s| serde::Content::Str(s.to_string()))
                        .collect(),
                ),
            ),
            ("order".into(), serde::Content::U64(c.order as u64)),
        ]);
        let resp = answer(&server, &serde_json::to_string(&req).unwrap());
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let path = dir.join(format!("{}.awesym", c.name));
        let save = format!(
            r#"{{"cmd":"save","model":"{}","path":{}}}"#,
            c.name,
            serde_json::to_string(&path.display().to_string()).unwrap()
        );
        let resp = answer(&server, &save);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(saved, to_artifact_string(&c.build()).unwrap(), "{}", c.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
