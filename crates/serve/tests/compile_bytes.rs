//! Every compiled byte is pinned. The four models perfbench serves are
//! rebuilt the way it builds them (generator → `Circuit::to_spice` →
//! `parse_spice` → `CompiledModel::build`, with the fleet's symbols and
//! orders), and so are two models of the `rc_ladder20.sp` fixture; the
//! FNV-1a 64 digest of each saved artifact must equal its pinned value.
//! A change to how netlists are parsed or the numeric partition is
//! assembled may make a compile cheaper, never different.
//!
//! The symbolic moments each tape is lowered from are pinned apart from
//! the tape, so a change to the lowering alone moves the artifact digests
//! and the op counts but not the moment digests.

mod common;

use awesym_partition::SymbolicMoments;
use awesym_serve::{to_artifact_string, Server};
use awesym_symbolic::TapeOp;
use common::{compiles, fnv1a64, FLEET};

#[test]
fn fleet_and_fixture_artifacts_keep_their_pinned_digests() {
    let want: [(&str, usize, u64); 6] = [
        ("opamp", 2781, 0xd2d4_4589_691f_0814),
        ("lines_direct", 974, 0xc82e_9b8f_890e_6e32),
        ("lines_xtalk", 2075, 0x53e3_6790_4739_0031),
        ("mesh", 2689, 0x5cac_359e_1038_2ffb),
        ("rc_ladder20_r1_c20", 2683, 0x73c1_956b_2883_4f95),
        ("rc_ladder20_4sym", 102_281, 0x1528_737a_905e_7967),
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

/// FNV-1a 64 of `sm`'s polynomials, `D` and then each `P_k`: per
/// polynomial its term count, then each term's exponents and the bits of
/// its coefficient.
fn moments_digest(sm: &SymbolicMoments) -> u64 {
    let mut bytes = Vec::new();
    for p in std::iter::once(&sm.d).chain(&sm.p) {
        bytes.extend_from_slice(&(p.num_terms() as u64).to_le_bytes());
        for (exps, c) in p.terms() {
            bytes.extend_from_slice(exps);
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn fleet_and_fixture_symbolic_moments_keep_their_pinned_digests() {
    let want: [(&str, usize, u64); 6] = [
        ("opamp", 32, 0x74df_0abf_0c6a_dab0),
        ("lines_direct", 7, 0x9c52_e6d7_0657_0b0a),
        ("lines_xtalk", 22, 0x7a58_9e8b_a629_7538),
        ("mesh", 32, 0x1318_14d2_eb95_75b6),
        ("rc_ladder20_r1_c20", 32, 0x16bd_b6cb_40ac_0ec4),
        ("rc_ladder20_4sym", 1_362, 0xbafa_0dbb_327f_ca55),
    ];
    let got: Vec<(&str, usize, u64)> = compiles()
        .iter()
        .map(|c| {
            let sm = c.moments();
            let terms = std::iter::once(&sm.d)
                .chain(&sm.p)
                .map(|p| p.num_terms())
                .sum();
            (c.name, terms, moments_digest(&sm))
        })
        .collect();
    assert_eq!(got, want);
}

/// Each fleet model's tape: its ops, its compute ops (the ops other than
/// the `Const` and `Sym` loads the lane plan hoists out of the kernel),
/// and its divisions, each evaluated once per point.
#[test]
fn fleet_tapes_keep_their_pinned_op_counts() {
    let want: [(&str, usize, usize, usize); FLEET] = [
        ("opamp", 70, 35, 1),
        ("lines_direct", 18, 8, 1),
        ("lines_xtalk", 50, 25, 1),
        ("mesh", 68, 35, 1),
    ];
    let got: Vec<(&str, usize, usize, usize)> = compiles()[..FLEET]
        .iter()
        .map(|c| {
            let ops = c.build().tape().ops().to_vec();
            let compute = ops
                .iter()
                .filter(|op| !matches!(op, TapeOp::Const(_) | TapeOp::Sym(_)))
                .count();
            let divs = ops
                .iter()
                .filter(|op| matches!(op, TapeOp::Div(..)))
                .count();
            (c.name, ops.len(), compute, divs)
        })
        .collect();
    assert_eq!(got, want);
    let compute: usize = got.iter().map(|g| g.2).sum();
    assert!(compute <= 103, "fleet compute ops {compute} > 103");
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
