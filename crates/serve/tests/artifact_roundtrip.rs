//! Artifact persistence: save → load must reproduce evaluation results
//! bit-for-bit across representative circuits, and tampered or
//! wrong-version files must be rejected with typed errors.

use awesym_circuit::generators::{fig1_rc, rc_ladder, rc_tree, Workload};
use awesym_partition::{CompiledModel, SymbolBinding};
use awesym_serve::{
    from_artifact_str, load_artifact, load_model_file, save_artifact, ErrorCode, ServeError,
    Server, FORMAT_VERSION,
};

/// Minimal self-cleaning temp dir (avoids a dev-dependency).
struct TempDirLite(std::path::PathBuf);
impl TempDirLite {
    fn new(prefix: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "{prefix}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDirLite(p)
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}
impl Drop for TempDirLite {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Three structurally different circuits, each with two symbols.
fn cases() -> Vec<(&'static str, Workload, Vec<SymbolBinding>)> {
    let mut v = Vec::new();
    let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let b = vec![
        SymbolBinding::capacitance("c1", vec![w.circuit.find("C1").unwrap()]),
        SymbolBinding::resistance("r2", vec![w.circuit.find("R2").unwrap()]),
    ];
    v.push(("fig1_rc", w, b));
    let w = rc_ladder(6, 100.0, 0.5e-12);
    let b = vec![
        SymbolBinding::resistance("r1", vec![w.circuit.find("R1").unwrap()]),
        SymbolBinding::capacitance("cend", vec![w.circuit.find("C6").unwrap()]),
    ];
    v.push(("rc_ladder", w, b));
    let w = rc_tree(3, 50.0, 0.2e-12);
    let b = vec![
        SymbolBinding::resistance("rdrv", vec![w.circuit.find("Rdrv").unwrap()]),
        SymbolBinding::capacitance("cleaf", vec![w.circuit.find("Ct7").unwrap()]),
    ];
    v.push(("rc_tree", w, b));
    v
}

/// A few evaluation points spread around each model's nominal values.
fn probe_points(model: &CompiledModel) -> Vec<Vec<f64>> {
    let nominal = model.nominal().to_vec();
    [0.5, 1.0, 1.7, 3.0]
        .iter()
        .map(|&f| nominal.iter().map(|&v| v * f).collect())
        .collect()
}

#[test]
fn save_load_round_trip_is_bit_identical() {
    let dir = TempDirLite::new("awesym_artifact_rt");
    for (name, w, bindings) in cases() {
        let model = CompiledModel::build(&w.circuit, w.input, w.output, &bindings, 2).unwrap();
        let path = dir.path().join(format!("{name}.awesym"));
        save_artifact(&model, &path).unwrap();
        let back = load_artifact(&path).unwrap();
        assert_eq!(back.op_count(), model.op_count(), "{name}");
        assert_eq!(back.order(), model.order(), "{name}");
        for vals in probe_points(&model) {
            // Moments must agree to the bit, not just approximately.
            assert_eq!(
                back.eval_moments(&vals),
                model.eval_moments(&vals),
                "{name}"
            );
            let (r1, r2) = (model.rom(&vals).unwrap(), back.rom(&vals).unwrap());
            let bits = |x: f64| x.to_bits();
            assert_eq!(r1.dc_gain().to_bits(), r2.dc_gain().to_bits(), "{name}");
            assert_eq!(r1.poles().len(), r2.poles().len(), "{name}");
            for (p, q) in r1.poles().iter().zip(r2.poles()) {
                assert_eq!((bits(p.re), bits(p.im)), (bits(q.re), bits(q.im)), "{name}");
            }
            for (p, q) in r1.residues().iter().zip(r2.residues()) {
                assert_eq!((bits(p.re), bits(p.im)), (bits(q.re), bits(q.im)), "{name}");
            }
        }
    }
}

fn fig1_model() -> CompiledModel {
    let (_, w, bindings) = cases().remove(0);
    CompiledModel::build(&w.circuit, w.input, w.output, &bindings, 2).unwrap()
}

#[test]
fn corrupted_payload_is_rejected() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    // Flip one digit inside the payload without breaking the JSON.
    let pos = text.find("\"payload\"").unwrap();
    let digit = text[pos..].find(|c: char| c.is_ascii_digit()).unwrap() + pos;
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'5' { b'6' } else { b'5' };
    let tampered = String::from_utf8(bytes).unwrap();
    match from_artifact_str(&tampered) {
        Err(ServeError::ChecksumMismatch { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

/// A partially-written artifact (e.g. a crash mid-`save`) must be a
/// typed `BadFormat`, never a panic or a half-loaded model.
#[test]
fn truncated_artifact_is_rejected_at_any_cut() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    for keep in [0, 1, text.len() / 10, text.len() / 2, text.len() - 1] {
        let cut = &text[..keep];
        match from_artifact_str(cut) {
            Err(ServeError::BadFormat { .. }) => {}
            other => panic!("cut at {keep}: expected BadFormat, got {other:?}"),
        }
    }
}

/// A single flipped digit anywhere in the envelope must fail one of the
/// typed validation gates (usually the checksum).
#[test]
fn bit_flipped_artifact_is_rejected() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    let digit_positions: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    // Sample a spread of positions rather than all of them (artifacts
    // carry thousands of digits).
    for &pos in digit_positions.iter().step_by(digit_positions.len() / 16) {
        let mut bytes = text.clone().into_bytes();
        bytes[pos] ^= 0x01; // 0↔1, 2↔3, … — still a digit, new value
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(
            from_artifact_str(&tampered).is_err(),
            "flip at byte {pos} was accepted"
        );
    }
}

/// NaN survives a JSON round trip as `null` → NaN, so an artifact can be
/// internally consistent (checksum included) yet numerically poisoned.
/// The loader must reject it with the typed `ArtifactNumeric` error.
#[test]
fn non_finite_payload_values_are_rejected_with_typed_error() {
    let model = fig1_model();
    let payload = serde_json::to_string(&model).unwrap();
    let nominal = model.nominal()[0];
    let needle = serde_json::to_string(&serde::Content::F64(nominal)).unwrap();
    assert!(payload.contains(&needle), "nominal not found in payload");
    let poisoned_payload = payload.replacen(&needle, "null", 1);
    // Re-envelope with a *correct* checksum: only the numeric gate can
    // catch this one.
    let envelope = serde::Content::Map(vec![
        ("format".into(), serde::Content::Str("awesym-model".into())),
        ("version".into(), serde::Content::U64(1)),
        (
            "checksum".into(),
            serde::Content::Str(awesym_serve::checksum(&poisoned_payload)),
        ),
        ("payload".into(), serde::Content::Str(poisoned_payload)),
    ]);
    let text = serde_json::to_string(&envelope).unwrap();
    match from_artifact_str(&text) {
        Err(ServeError::ArtifactNumeric { what }) => {
            assert!(what.contains("non-finite"), "{what}")
        }
        other => panic!("expected ArtifactNumeric, got {other:?}"),
    }
    // The raw-model loading path applies the same gate.
    let dir = TempDirLite::new("awesym_artifact_nan");
    let raw = dir.path().join("poisoned.json");
    std::fs::write(&raw, payload.replacen(&needle, "null", 1)).unwrap();
    assert!(matches!(
        load_model_file(&raw),
        Err(ServeError::ArtifactNumeric { .. })
    ));
}

/// Wraps a model payload in a legacy (minor-1) envelope with a correct
/// checksum, so only the loader's model checks stand between a
/// hand-edited payload and the registry.
fn artifact_with_payload(payload: &str) -> String {
    let envelope = serde::Content::Map(vec![
        ("format".into(), serde::Content::Str("awesym-model".into())),
        ("version".into(), serde::Content::U64(1)),
        ("minor".into(), serde::Content::U64(1)),
        (
            "checksum".into(),
            serde::Content::Str(awesym_serve::checksum(payload)),
        ),
        ("payload".into(), serde::Content::Str(payload.into())),
    ]);
    serde_json::to_string(&envelope).unwrap()
}

/// Hand-edited models that parse and checksum cleanly but would fail
/// every evaluation: an operand register past the register file, a
/// symbol index past the tape's symbol count, and a third symbol name on
/// a two-symbol tape. Each is refused at load as `bad_artifact`, by the
/// artifact parser and by the server's `load` alike.
#[test]
fn tampered_tapes_and_symbol_lists_are_refused_at_load() {
    let payload = serde_json::to_string(&fig1_model()).unwrap();
    let mul = r#"{"Mul":["#;
    let at = payload.find(mul).expect("fig1 tape has a Mul") + mul.len();
    let comma = at + payload[at..].find(',').unwrap();
    let close = comma + payload[comma..].find(']').unwrap();
    let bad_register = format!("{}999999{}", &payload[..=comma], &payload[close..]);
    assert!(payload.contains(r#"{"Sym":1}"#));
    let bad_symbol = payload.replacen(r#"{"Sym":1}"#, r#"{"Sym":7}"#, 1);
    let names = r#""names":["c1","r2"]"#;
    assert!(payload.contains(names));
    let extra_name = payload.replacen(names, r#""names":["c1","r2","r9"]"#, 1);

    let dir = TempDirLite::new("awesym_artifact_tampered");
    let server = Server::default();
    for (what, bad) in [
        ("operand register", bad_register),
        ("symbol index", bad_symbol),
        ("symbol names", extra_name),
    ] {
        let text = artifact_with_payload(&bad);
        match from_artifact_str(&text) {
            Err(e) => assert_eq!(e.code(), ErrorCode::BadArtifact, "{what}: {e}"),
            Ok(_) => panic!("{what}: tampered model loaded"),
        }
        let path = dir.path().join("tampered.awesym");
        std::fs::write(&path, &text).unwrap();
        let line = format!(r#"{{"cmd":"load","name":"m","path":"{}"}}"#, path.display());
        let resp = server.handle_line(&line).expect("load answers");
        assert!(
            resp.text().contains(r#""code":"bad_artifact""#),
            "{what}: {}",
            resp.text()
        );
    }
    // The untouched payload loads through the same envelope.
    from_artifact_str(&artifact_with_payload(&payload)).unwrap();
}

#[test]
fn wrong_version_is_rejected() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    let needle = format!("\"version\":{FORMAT_VERSION}");
    assert!(text.contains(&needle), "{text:.80}");
    let newer = text.replace(&needle, &format!("\"version\":{}", FORMAT_VERSION + 1));
    match from_artifact_str(&newer) {
        Err(ServeError::VersionMismatch { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Reconstructs the minor-0 artifact encoding: no `minor`/`opt_level`
/// envelope fields, and a payload whose tape carries only `ops` (implicit
/// `dst[i] = i`, no `n_regs`/`raw_ops`/`opt_level`) — the format written
/// before the tape optimizer existed. Such artifacts must still load.
#[test]
fn legacy_minor0_artifact_still_loads() {
    use serde::Content;

    // An unoptimized model has an SSA tape, so stripping the new fields
    // yields exactly what the old serializer wrote.
    let (_, w, bindings) = cases().remove(0);
    let model = CompiledModel::build_with_options(
        &w.circuit,
        w.input,
        w.output,
        &bindings,
        awesym_partition::ModelOptions::order(2).with_opt_level(awesym_partition::OptLevel::None),
    )
    .unwrap();

    fn strip(c: Content, drop: &[&str]) -> Content {
        match c {
            Content::Map(entries) => Content::Map(
                entries
                    .into_iter()
                    .filter(|(k, _)| !drop.contains(&k.as_str()))
                    .map(|(k, v)| (k, strip(v, drop)))
                    .collect(),
            ),
            Content::Seq(items) => {
                Content::Seq(items.into_iter().map(|v| strip(v, drop)).collect())
            }
            other => other,
        }
    }

    let payload_content: Content =
        serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
    let legacy_payload = serde_json::to_string(&strip(
        payload_content,
        &["dst", "n_regs", "raw_ops", "opt_level"],
    ))
    .unwrap();
    let envelope = Content::Map(vec![
        ("format".into(), Content::Str("awesym-model".into())),
        ("version".into(), Content::U64(1)),
        (
            "checksum".into(),
            Content::Str(awesym_serve::checksum(&legacy_payload)),
        ),
        ("payload".into(), Content::Str(legacy_payload)),
    ]);
    let legacy_text = serde_json::to_string(&envelope).unwrap();
    assert!(!legacy_text.contains("minor"));

    let back = from_artifact_str(&legacy_text).unwrap();
    assert_eq!(back.opt_level(), awesym_partition::OptLevel::None);
    for vals in probe_points(&model) {
        assert_eq!(back.eval_moments(&vals), model.eval_moments(&vals));
    }
    // A future minor within the same major is also accepted…
    let future_minor = legacy_text.replace("\"version\":1", "\"version\":1,\"minor\":99");
    assert!(from_artifact_str(&future_minor).is_ok());
    // …but a different major stays a typed error.
    let major2 = legacy_text.replace("\"version\":1", "\"version\":2");
    assert!(matches!(
        from_artifact_str(&major2),
        Err(ServeError::VersionMismatch {
            found: 2,
            supported: 1
        })
    ));
}

#[test]
fn garbage_and_missing_fields_are_bad_format() {
    for bad in [
        "not json",
        "{}",
        r#"{"format":"something-else","version":1}"#,
        r#"{"format":"awesym-model"}"#,
        r#"{"format":"awesym-model","version":1}"#,
        r#"{"format":"awesym-model","version":1,"checksum":"fnv1a64:0"}"#,
    ] {
        match from_artifact_str(bad) {
            Err(ServeError::BadFormat { .. }) => {}
            other => panic!("{bad}: expected BadFormat, got {other:?}"),
        }
    }
}

/// Minor-2 artifacts carry every model float bit-exactly in the hex
/// `f64_data` pool; the JSON payload holds only marker strings. The
/// loader must restore the pool and the envelope text must advertise the
/// new fields.
#[test]
fn minor2_artifact_pools_floats_out_of_the_json_payload() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    assert!(text.contains("\"minor\":2"), "{:.120}", text);
    assert!(text.contains("\"f64_data\":\""));
    // The pool is non-empty (models always carry nominal values) and the
    // markers land in the payload in its place.
    let envelope: serde::Content = serde_json::from_str(&text).unwrap();
    let count = envelope
        .get("f64_count")
        .and_then(serde::Content::as_u64)
        .unwrap();
    assert!(count > 0);
    let data = envelope
        .get("f64_data")
        .and_then(serde::Content::as_str)
        .unwrap();
    assert_eq!(data.len() as u64, 16 * count);
    assert!(data.bytes().all(|b| b.is_ascii_hexdigit()));
    let payload = envelope
        .get("payload")
        .and_then(serde::Content::as_str)
        .unwrap();
    // The marker's U+0001 prefix is JSON-escaped inside the payload text.
    assert!(payload.contains("\\u0001f64:0"));
    // No float literal survives in the payload: every number left is an
    // integer (indices, counts, op codes).
    assert!(!payload.contains(|c: char| c == '.'));
    let back = from_artifact_str(&text).unwrap();
    let vals = model.nominal().to_vec();
    assert_eq!(back.eval_moments(&vals), model.eval_moments(&vals));
}

/// Tampering with the float pool — flipped hex, truncated pool, or an
/// inconsistent `f64_count` — must be a typed rejection, never a model
/// with silently perturbed coefficients.
#[test]
fn minor2_f64_data_tampering_is_rejected() {
    let model = fig1_model();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    // 1) Flip one hex digit inside f64_data: checksum catches it.
    let pos = text.find("\"f64_data\":\"").unwrap() + "\"f64_data\":\"".len();
    let mut bytes = text.clone().into_bytes();
    bytes[pos] = if bytes[pos] == b'5' { b'6' } else { b'5' };
    let tampered = String::from_utf8(bytes).unwrap();
    assert!(matches!(
        from_artifact_str(&tampered),
        Err(ServeError::ChecksumMismatch { .. })
    ));
    // Rebuild envelopes with *correct* checksums so only the structural
    // gates can reject them. The minor-2 checksum is FNV over the payload
    // bytes followed by the pool bytes — i.e. over their concatenation.
    let envelope: serde::Content = serde_json::from_str(&text).unwrap();
    let payload = envelope
        .get("payload")
        .and_then(serde::Content::as_str)
        .unwrap();
    let data = envelope
        .get("f64_data")
        .and_then(serde::Content::as_str)
        .unwrap();
    let count = envelope
        .get("f64_count")
        .and_then(serde::Content::as_u64)
        .unwrap();
    let reenvelope = |payload: &str, data: &str, count: u64| {
        serde_json::to_string(&serde::Content::Map(vec![
            ("format".into(), serde::Content::Str("awesym-model".into())),
            ("version".into(), serde::Content::U64(1)),
            ("minor".into(), serde::Content::U64(2)),
            (
                "checksum".into(),
                serde::Content::Str(awesym_serve::checksum(&format!("{payload}{data}"))),
            ),
            ("f64_count".into(), serde::Content::U64(count)),
            ("f64_data".into(), serde::Content::Str(data.into())),
            ("payload".into(), serde::Content::Str(payload.into())),
        ]))
        .unwrap()
    };
    // Sanity: a faithful re-envelope loads, proving the checksum recipe.
    assert!(from_artifact_str(&reenvelope(payload, data, count)).is_ok());
    // 2) Pool truncated by one value, count left stale: length gate.
    let truncated = reenvelope(payload, &data[..data.len() - 16], count);
    assert!(matches!(
        from_artifact_str(&truncated),
        Err(ServeError::BadFormat { .. })
    ));
    // 3) Count understates the pool: markers point past the pool.
    let undercount = reenvelope(payload, &data[..16], 1);
    assert!(matches!(
        from_artifact_str(&undercount),
        Err(ServeError::BadFormat { .. })
    ));
    // 4) Non-hex bytes in a right-sized pool.
    let mut garbled: Vec<u8> = data.into();
    garbled[0] = b'z';
    let garbled = reenvelope(payload, std::str::from_utf8(&garbled).unwrap(), count);
    assert!(matches!(
        from_artifact_str(&garbled),
        Err(ServeError::BadFormat { .. })
    ));
}

/// A model whose strings could be mistaken for float markers (only
/// reachable with adversarial symbol names) must fall back to the legacy
/// inline-float envelope rather than corrupt itself.
#[test]
fn marker_colliding_names_fall_back_to_legacy_form() {
    let (_, w, _) = cases().remove(0);
    let bindings = vec![SymbolBinding::capacitance(
        "\u{1}f64:0",
        vec![w.circuit.find("C1").unwrap()],
    )];
    let model = CompiledModel::build(&w.circuit, w.input, w.output, &bindings, 2).unwrap();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    assert!(!text.contains("f64_data"), "{:.120}", text);
    assert!(text.contains("\"minor\":1"));
    let back = from_artifact_str(&text).unwrap();
    let vals = model.nominal().to_vec();
    assert_eq!(back.eval_moments(&vals), model.eval_moments(&vals));
}

#[test]
fn load_model_file_accepts_raw_model_json_too() {
    let dir = TempDirLite::new("awesym_artifact_raw");
    let model = fig1_model();
    let raw = dir.path().join("raw.json");
    std::fs::write(&raw, serde_json::to_string(&model).unwrap()).unwrap();
    let back = load_model_file(&raw).unwrap();
    let vals = model.nominal().to_vec();
    assert_eq!(back.eval_moments(&vals), model.eval_moments(&vals));
    // But a real artifact still goes through strict validation.
    let art = dir.path().join("m.awesym");
    save_artifact(&model, &art).unwrap();
    assert!(load_model_file(&art).is_ok());
    let text = std::fs::read_to_string(&art).unwrap();
    let bad = text.replace("fnv1a64:", "fnv1a64:0");
    std::fs::write(&art, bad).unwrap();
    assert!(matches!(
        load_model_file(&art),
        Err(ServeError::ChecksumMismatch { .. })
    ));
    // Missing file reports an Io error, not a panic.
    assert!(matches!(
        load_artifact(dir.path().join("nope.awesym")),
        Err(ServeError::Io { .. })
    ));
}
