//! Versioned on-disk persistence for compiled models.
//!
//! A `.awesym` artifact is a JSON envelope around the model's own serde
//! form:
//!
//! ```json
//! {
//!   "format": "awesym-model",
//!   "version": 1,
//!   "minor": 3,
//!   "checksum": "fnv1a64:0123456789abcdef",
//!   "f64_count": 64,
//!   "f64_data": "4059000000000000…",
//!   "payload": "<the CompiledModel JSON, as one string>"
//! }
//! ```
//!
//! The payload travels as a *string* so the checksum is defined over the
//! exact bytes that will be re-parsed — no dependence on map ordering or
//! float re-formatting. Loading validates the format tag, the version,
//! and the checksum before touching the payload, and returns a typed
//! [`ServeError`] (never panics) on any mismatch.
//!
//! Since minor 2 the model's float coefficients leave the JSON payload
//! entirely: every `f64` in the model tree is pulled into a columnar
//! pool carried as `f64_data` (16 lowercase hex digits of the raw IEEE
//! bit pattern per value, in extraction order) with its slot in the
//! payload replaced by a marker string. Save/load therefore round-trips
//! coefficients *bit-exactly* without any float→text→float conversion,
//! and the checksum covers the payload bytes followed by the `f64_data`
//! bytes. Legacy artifacts (minor 0/1, floats inline in the payload)
//! still load unchanged.
//!
//! Minor 3 stores each fact once: the payload no longer carries the
//! expanded symbolic forms (`forms`), nor the Taylor tail's copies of
//! the nominal point and of the tape's output count, and the envelope
//! drops `opt_level`, which the payload's tape records. The payload
//! parser ignores fields it does not know, so minor-0 to minor-2
//! artifacts that still carry them load as before.
//!
//! Versioning is major/minor: only an unknown *major* (`version`) is a
//! typed error. A newer minor still loads when it only added fields; a
//! minor that drops a field does not load in older builds (a build
//! before minor 3 refuses a minor-3 payload as `bad_artifact`, `missing
//! field 'forms'`). Minor-0 artifacts (which predate the `minor` field
//! and the tape optimizer) load with the tape's newer fields defaulted.

use crate::ServeError;
use awesym_partition::CompiledModel;
use serde::Content;
use std::fmt::Write as _;
use std::path::Path;

/// Format tag stored in every artifact.
pub const FORMAT_TAG: &str = "awesym-model";

/// Artifact format major version written by this build; loading rejects
/// any other major.
pub const FORMAT_VERSION: u32 = 1;

/// Artifact format minor version written by this build. Minor 1 added
/// the `minor` and `opt_level` envelope fields (and optimized-tape
/// payloads); minor 2 moved float coefficients into the bit-exact
/// `f64_data` pool; minor 3 dropped the payload's symbolic forms, the
/// Taylor tail's copies of the nominal point and the tape's output
/// count, and the envelope's `opt_level`. Loaders accept any minor within the supported major.
pub const FORMAT_MINOR: u32 = 3;

/// Marker prefix replacing extracted floats in a pooled payload; the
/// suffix is the value's decimal index into the `f64_data` pool.
const F64_MARKER: &str = "\u{1}f64:";

/// 64-bit FNV-1a over a sequence of byte chunks (hashed as one stream).
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checksum string for a payload, e.g. `fnv1a64:a1b2c3d4e5f60789`.
pub fn checksum(payload: &str) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(&[payload.as_bytes()]))
}

/// Pooled checksum: the payload bytes followed by the `f64_data` bytes.
fn checksum_with_pool(payload: &str, f64_data: &str) -> String {
    format!(
        "fnv1a64:{:016x}",
        fnv1a64(&[payload.as_bytes(), f64_data.as_bytes()])
    )
}

/// True when any string in the tree could be mistaken for a float
/// marker — in that (pathological) case the saver falls back to the
/// legacy inline-float payload rather than risk a corrupting rewrite.
fn has_marker_collision(c: &Content) -> bool {
    match c {
        Content::Str(s) => s.starts_with(F64_MARKER),
        Content::Seq(items) => items.iter().any(has_marker_collision),
        Content::Map(entries) => entries.iter().any(|(_, v)| has_marker_collision(v)),
        _ => false,
    }
}

/// Moves every `f64` in the tree into `pool`, leaving markers behind.
fn extract_f64s(c: &mut Content, pool: &mut Vec<f64>) {
    match c {
        Content::F64(v) => {
            let idx = pool.len();
            pool.push(*v);
            *c = Content::Str(format!("{F64_MARKER}{idx}"));
        }
        Content::Seq(items) => {
            for item in items {
                extract_f64s(item, pool);
            }
        }
        Content::Map(entries) => {
            for (_, v) in entries {
                extract_f64s(v, pool);
            }
        }
        _ => {}
    }
}

/// Replaces markers with their pooled values (inverse of
/// [`extract_f64s`]).
fn restore_f64s(c: &mut Content, pool: &[f64]) -> Result<(), ServeError> {
    match c {
        Content::Str(s) => {
            if let Some(idx) = s.strip_prefix(F64_MARKER) {
                let idx: usize = idx.parse().map_err(|_| ServeError::BadFormat {
                    what: format!("malformed float marker '{}'", s.escape_debug()),
                })?;
                let v = pool.get(idx).ok_or_else(|| ServeError::BadFormat {
                    what: format!(
                        "float marker index {idx} out of range (pool has {})",
                        pool.len()
                    ),
                })?;
                *c = Content::F64(*v);
            }
            Ok(())
        }
        Content::Seq(items) => items.iter_mut().try_for_each(|i| restore_f64s(i, pool)),
        Content::Map(entries) => entries
            .iter_mut()
            .try_for_each(|(_, v)| restore_f64s(v, pool)),
        _ => Ok(()),
    }
}

/// Packs the pool as 16 lowercase hex digits per value (raw IEEE bits).
fn encode_pool(pool: &[f64]) -> String {
    let mut s = String::with_capacity(pool.len() * 16);
    for v in pool {
        // Infallible on String; keep the error path anyway.
        let _ = write!(s, "{:016x}", v.to_bits());
    }
    s
}

/// Strict inverse of [`encode_pool`]: the length must be exactly
/// `16 * count` and every chunk valid hex.
fn decode_pool(f64_data: &str, count: u64) -> Result<Vec<f64>, ServeError> {
    let expect = count.saturating_mul(16);
    if f64_data.len() as u64 != expect {
        return Err(ServeError::BadFormat {
            what: format!(
                "f64_data is {} chars, {count} values need {expect}",
                f64_data.len()
            ),
        });
    }
    let bytes = f64_data.as_bytes();
    let mut pool = Vec::with_capacity(count as usize);
    for chunk in bytes.chunks_exact(16) {
        let hex = std::str::from_utf8(chunk).map_err(|_| ServeError::BadFormat {
            what: "f64_data is not ASCII hex".into(),
        })?;
        let bits = u64::from_str_radix(hex, 16).map_err(|_| ServeError::BadFormat {
            what: format!("f64_data chunk '{hex}' is not hex"),
        })?;
        pool.push(f64::from_bits(bits));
    }
    Ok(pool)
}

/// Serializes a model into artifact text (floats pooled bit-exactly
/// into `f64_data`, markers in the JSON payload).
///
/// # Errors
///
/// Propagates serialization failures as [`ServeError::BadFormat`].
pub fn to_artifact_string(model: &CompiledModel) -> Result<String, ServeError> {
    let mut tree = serde_json::to_value(model).map_err(|e| ServeError::BadFormat {
        what: format!("cannot serialize model: {e}"),
    })?;
    if has_marker_collision(&tree) {
        // A model string already looks like a marker (only possible via
        // adversarial node names); write the legacy inline-float form.
        return to_artifact_string_legacy(model);
    }
    let mut pool = Vec::new();
    extract_f64s(&mut tree, &mut pool);
    let payload = serde_json::to_string(&tree).map_err(|e| ServeError::BadFormat {
        what: format!("cannot serialize model: {e}"),
    })?;
    let f64_data = encode_pool(&pool);
    let envelope = Content::Map(vec![
        ("format".into(), Content::Str(FORMAT_TAG.into())),
        ("version".into(), Content::U64(u64::from(FORMAT_VERSION))),
        ("minor".into(), Content::U64(u64::from(FORMAT_MINOR))),
        (
            "checksum".into(),
            Content::Str(checksum_with_pool(&payload, &f64_data)),
        ),
        ("f64_count".into(), Content::U64(pool.len() as u64)),
        ("f64_data".into(), Content::Str(f64_data)),
        ("payload".into(), Content::Str(payload)),
    ]);
    serde_json::to_string(&envelope).map_err(|e| ServeError::BadFormat {
        what: format!("cannot serialize envelope: {e}"),
    })
}

/// Inline-float artifact text: floats in the JSON payload, no pool, as
/// minor 1 wrote them. Kept as the collision fallback.
fn to_artifact_string_legacy(model: &CompiledModel) -> Result<String, ServeError> {
    let payload = serde_json::to_string(model).map_err(|e| ServeError::BadFormat {
        what: format!("cannot serialize model: {e}"),
    })?;
    let envelope = Content::Map(vec![
        ("format".into(), Content::Str(FORMAT_TAG.into())),
        ("version".into(), Content::U64(u64::from(FORMAT_VERSION))),
        ("minor".into(), Content::U64(u64::from(FORMAT_MINOR))),
        ("checksum".into(), Content::Str(checksum(&payload))),
        ("payload".into(), Content::Str(payload)),
    ]);
    serde_json::to_string(&envelope).map_err(|e| ServeError::BadFormat {
        what: format!("cannot serialize envelope: {e}"),
    })
}

/// Parses artifact text back into a model, validating format tag, version
/// and checksum.
///
/// # Errors
///
/// [`ServeError::BadFormat`] for malformed JSON, a missing/wrong format
/// tag, or a model whose tape, symbol list, nominal point and Taylor tail
/// disagree on their widths; [`ServeError::VersionMismatch`] for any
/// *major* version other
/// than [`FORMAT_VERSION`] (a missing or newer `minor` is accepted),
/// [`ServeError::ChecksumMismatch`] when the payload bytes do not hash to
/// the recorded checksum, [`ServeError::ArtifactNumeric`] when the parsed
/// model carries non-finite coefficients.
pub fn from_artifact_str(text: &str) -> Result<CompiledModel, ServeError> {
    let envelope: Content = serde_json::from_str(text).map_err(|e| ServeError::BadFormat {
        what: format!("not JSON: {e}"),
    })?;
    let tag = envelope
        .get("format")
        .and_then(Content::as_str)
        .ok_or_else(|| ServeError::BadFormat {
            what: "missing 'format' tag".into(),
        })?;
    if tag != FORMAT_TAG {
        return Err(ServeError::BadFormat {
            what: format!("format tag '{tag}' is not '{FORMAT_TAG}'"),
        });
    }
    let version = envelope
        .get("version")
        .and_then(Content::as_u64)
        .ok_or_else(|| ServeError::BadFormat {
            what: "missing 'version' field".into(),
        })?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(ServeError::VersionMismatch {
            found: u32::try_from(version).unwrap_or(u32::MAX),
            supported: FORMAT_VERSION,
        });
    }
    // The minor is not read: absent (minor-0 artifacts predate the field)
    // or any minor within a supported major goes to the payload parser,
    // which ignores fields it does not know.
    let recorded = envelope
        .get("checksum")
        .and_then(Content::as_str)
        .ok_or_else(|| ServeError::BadFormat {
            what: "missing 'checksum' field".into(),
        })?;
    let payload = envelope
        .get("payload")
        .and_then(Content::as_str)
        .ok_or_else(|| ServeError::BadFormat {
            what: "missing 'payload' field".into(),
        })?;
    if let Some(f64_data) = envelope.get("f64_data").and_then(Content::as_str) {
        // Pooled form (minor 2 on): the checksum spans payload + pool, and
        // floats are restored bit-exactly from the pool before parsing.
        let count = envelope
            .get("f64_count")
            .and_then(Content::as_u64)
            .ok_or_else(|| ServeError::BadFormat {
                what: "f64_data without f64_count".into(),
            })?;
        let actual = checksum_with_pool(payload, f64_data);
        if recorded != actual {
            return Err(ServeError::ChecksumMismatch {
                expected: recorded.to_string(),
                actual,
            });
        }
        let pool = decode_pool(f64_data, count)?;
        let mut tree: Content =
            serde_json::from_str(payload).map_err(|e| ServeError::BadFormat {
                what: format!("payload is not JSON: {e}"),
            })?;
        restore_f64s(&mut tree, &pool)?;
        let model: CompiledModel =
            serde_json::from_value(tree).map_err(|e| ServeError::BadFormat {
                what: format!("payload is not a compiled model: {e}"),
            })?;
        return validate_model(model);
    }
    let actual = checksum(payload);
    if recorded != actual {
        return Err(ServeError::ChecksumMismatch {
            expected: recorded.to_string(),
            actual,
        });
    }
    let model: CompiledModel =
        serde_json::from_str(payload).map_err(|e| ServeError::BadFormat {
            what: format!("payload is not a compiled model: {e}"),
        })?;
    validate_model(model)
}

/// Shape and numeric health gate for freshly loaded models. A hand-edited
/// (or corrupted-but-checksummed) artifact can carry widths that disagree
/// with its tape, which evaluation asserts, or non-finite coefficients —
/// JSON cannot express NaN/Inf, so our writer emits `null` and the reader
/// maps it back to NaN — that would silently poison every evaluation.
/// Reject both at load time instead.
fn validate_model(model: CompiledModel) -> Result<CompiledModel, ServeError> {
    model
        .validate_shapes()
        .map_err(|what| ServeError::BadFormat { what })?;
    model
        .validate_numerics()
        .map_err(|what| ServeError::ArtifactNumeric { what })?;
    Ok(model)
}

/// Writes a model to `path` in artifact form.
///
/// # Errors
///
/// Serialization failures and I/O failures.
pub fn save_artifact(model: &CompiledModel, path: impl AsRef<Path>) -> Result<(), ServeError> {
    let path = path.as_ref();
    let text = to_artifact_string(model)?;
    std::fs::write(path, text).map_err(|e| ServeError::Io {
        path: path.display().to_string(),
        source: e,
    })
}

/// Reads an artifact file, validating version and checksum.
///
/// # Errors
///
/// As [`from_artifact_str`], plus I/O failures.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<CompiledModel, ServeError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
        path: path.display().to_string(),
        source: e,
    })?;
    from_artifact_str(&text)
}

/// Reads a model from a file that is either a `.awesym` artifact or a raw
/// `CompiledModel` JSON dump (the pre-artifact `awesym model --out` form).
/// Files carrying the artifact `format` tag get the strict validation
/// path; anything else is tried as a raw model.
///
/// # Errors
///
/// As [`load_artifact`] for artifacts; [`ServeError::BadFormat`] when raw
/// JSON does not describe a model.
pub fn load_model_file(path: impl AsRef<Path>) -> Result<CompiledModel, ServeError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
        path: path.display().to_string(),
        source: e,
    })?;
    let looks_like_artifact = serde_json::from_str::<Content>(&text)
        .ok()
        .is_some_and(|v| v.get("format").is_some());
    if looks_like_artifact {
        from_artifact_str(&text)
    } else {
        let model: CompiledModel =
            serde_json::from_str(&text).map_err(|e| ServeError::BadFormat {
                what: format!("not a compiled model: {e}"),
            })?;
        validate_model(model)
    }
}
