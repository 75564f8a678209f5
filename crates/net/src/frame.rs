//! The binary-v1 *request* frame (`AWSQ`).
//!
//! Mirror image of the serve crate's binary-v1 *response* frame
//! (`AWSB`): little-endian, length-computable from a fixed-size header,
//! and columnar — each symbol's value for every point is contiguous —
//! so a hot client can hand the server a batch without ever producing
//! JSON text. The socket path decodes a frame with [`decode_batch`]
//! into a typed [`FrameRequest`] whose payload goes into the engine's
//! column buffer with one copy; no JSON tree is built. [`decode_request`]
//! is the reference decoder: it builds the request [`Content`] the
//! equivalent JSON line parses to (including `"encoding":"binary-v1"`,
//! so the response comes back binary too). That the two answer every
//! frame with the same bytes is a tested property (the `frame_paths`
//! suite), not a construction.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"AWSQ"` |
//! | 4      | 2    | version (1) |
//! | 6      | 2    | flags (bit 0 `HAS_ID`, bit 1 `HAS_DEADLINE`) |
//! | 8      | 4    | point count |
//! | 12     | 4    | symbols per point |
//! | 16     | 4    | times count (kind `step` only, else 0) |
//! | 20     | 4    | model-name length, bytes |
//! | 24     | 4    | id length, bytes (0 unless `HAS_ID`) |
//! | 28     | 8    | `deadline_ms` (meaningful iff `HAS_DEADLINE`) |
//! | 36     | 4    | workers (0 = server default) |
//! | 40     | 1    | kind (0 moments, 1 dc_gain, 2 delays, 3 step) |
//! | 41     | 3    | reserved, must be zero |
//! | 44     | …    | model name (UTF-8), then id (JSON), then times (f64 × times count), then payload (f64 × symbols × count, column-major) |
//!
//! Every variable length appears in the fixed 44-byte header, so a
//! streaming reader can size the whole frame from the first 44 bytes —
//! the property [`crate::reader::RecvBuf`] relies on. The `rom` output
//! kind is deliberately unrepresentable: it has no fixed-width binary
//! response layout, matching the response-side rule.

use awesym_serve::{BatchOutput, FrameRequest, DEFAULT_MAX_BATCH_POINTS};
use serde::Content;
use serde_json::Value;
use std::fmt;

/// Leading magic of a binary-v1 request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"AWSQ";

/// Request frame format version this module reads and writes.
pub const REQUEST_VERSION: u16 = 1;

/// Flag bit: the frame carries a correlation id (JSON text).
pub const FLAG_HAS_ID: u16 = 1;

/// Flag bit: the frame carries an explicit `deadline_ms` (0 is a valid
/// deadline, so presence needs its own bit).
pub const FLAG_HAS_DEADLINE: u16 = 1 << 1;

/// Fixed header length; every variable section's length is in it.
pub const REQUEST_HEADER_LEN: usize = 44;

const KNOWN_FLAGS: u16 = FLAG_HAS_ID | FLAG_HAS_DEADLINE;

/// Batch output kinds with a binary request encoding, in wire-byte
/// order. `rom` is unrepresentable on purpose (no fixed-width layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Per-point moment vector (2 × model order columns).
    Moments,
    /// DC gain (1 column).
    DcGain,
    /// Elmore/50%/10–90% delay summary (4 columns).
    Delays,
    /// Step response samples (one column per time in `times`).
    Step,
}

impl RequestKind {
    /// The wire byte for this kind.
    pub fn wire_byte(self) -> u8 {
        match self {
            RequestKind::Moments => 0,
            RequestKind::DcGain => 1,
            RequestKind::Delays => 2,
            RequestKind::Step => 3,
        }
    }

    /// The kind for a wire byte.
    pub fn from_wire_byte(b: u8) -> Option<RequestKind> {
        match b {
            0 => Some(RequestKind::Moments),
            1 => Some(RequestKind::DcGain),
            2 => Some(RequestKind::Delays),
            3 => Some(RequestKind::Step),
            _ => None,
        }
    }

    /// The request `"kind"` string the JSON path uses.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Moments => "moments",
            RequestKind::DcGain => "dc_gain",
            RequestKind::Delays => "delays",
            RequestKind::Step => "step",
        }
    }
}

/// A batch request a client wants encoded as a binary-v1 frame.
#[derive(Debug, Clone)]
pub struct RequestFrame<'a> {
    /// Registered model name.
    pub model: &'a str,
    /// Points, row-major (encoded column-major on the wire). Every row
    /// must have the same length.
    pub points: &'a [Vec<f64>],
    /// Output kind.
    pub kind: RequestKind,
    /// Step-response sample times; required iff `kind` is `Step`.
    pub times: &'a [f64],
    /// Evaluation deadline, if any (0 is valid and expires immediately).
    pub deadline_ms: Option<u64>,
    /// Worker cap for this batch; `None` = server default.
    pub workers: Option<u32>,
    /// Correlation id as JSON text (e.g. `"42"` or `"\"abc\""`).
    pub id: Option<&'a str>,
}

/// Why a request frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestFrameError {
    /// Fewer bytes than the layout requires.
    Truncated {
        /// Bytes the layout needs.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// Leading magic is not `AWSQ`.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown flag bits set.
    BadFlags(u16),
    /// Unknown output-kind byte.
    BadKind(u8),
    /// Reserved header bytes are nonzero.
    BadReserved,
    /// Model name is not valid UTF-8.
    BadName,
    /// Id section is not valid JSON.
    BadId,
    /// A times section on a non-`step` kind.
    TimesWithoutStep,
    /// `step` kind with an empty times section.
    StepWithoutTimes,
    /// Bytes past the end of the frame.
    TrailingBytes(usize),
    /// Section lengths overflow a usize (hostile header).
    SizeOverflow,
    /// More points than the reference decoder builds a tree for (the
    /// server's default `max_batch_points`).
    TooManyPoints {
        /// Point count in the header.
        count: usize,
        /// The limit.
        limit: usize,
    },
    /// Encode-side: a point row's length differs from the first row's.
    RaggedPoints {
        /// Offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// Length of row 0.
        expect: usize,
    },
    /// Encode-side: a count does not fit the u32 header field.
    CountOverflow(&'static str),
}

impl fmt::Display for RequestFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestFrameError::Truncated { need, got } => {
                write!(f, "request frame truncated: need {need} bytes, got {got}")
            }
            RequestFrameError::BadMagic(m) => {
                write!(f, "bad request frame magic {m:?} (expected \"AWSQ\")")
            }
            RequestFrameError::BadVersion(v) => {
                write!(f, "unsupported request frame version {v} (expected 1)")
            }
            RequestFrameError::BadFlags(bits) => {
                write!(f, "unknown request frame flag bits {bits:#06x}")
            }
            RequestFrameError::BadKind(b) => write!(
                f,
                "unknown output kind byte {b} (0=moments 1=dc_gain 2=delays 3=step)"
            ),
            RequestFrameError::BadReserved => {
                write!(f, "reserved request frame header bytes are nonzero")
            }
            RequestFrameError::BadName => write!(f, "model name is not valid UTF-8"),
            RequestFrameError::BadId => write!(f, "id section is not valid JSON"),
            RequestFrameError::TimesWithoutStep => {
                write!(f, "times section present but kind is not 'step'")
            }
            RequestFrameError::StepWithoutTimes => {
                write!(f, "kind 'step' requires a non-empty times section")
            }
            RequestFrameError::TrailingBytes(n) => {
                write!(f, "{n} bytes past the end of the request frame")
            }
            RequestFrameError::SizeOverflow => {
                write!(f, "request frame section lengths overflow")
            }
            RequestFrameError::TooManyPoints { count, limit } => {
                write!(f, "request frame has {count} points, limit is {limit}")
            }
            RequestFrameError::RaggedPoints { row, len, expect } => {
                write!(f, "point {row} has {len} values, expected {expect}")
            }
            RequestFrameError::CountOverflow(what) => {
                write!(f, "{what} does not fit the frame's u32 field")
            }
        }
    }
}

impl std::error::Error for RequestFrameError {}

fn u32_of(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

fn u16_of(buf: &[u8], off: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(b)
}

fn checked_frame_len(
    count: usize,
    syms: usize,
    times: usize,
    name_len: usize,
    id_len: usize,
) -> Option<usize> {
    let payload = count
        .checked_mul(syms)?
        .checked_add(times)?
        .checked_mul(8)?;
    REQUEST_HEADER_LEN
        .checked_add(name_len)?
        .checked_add(id_len)?
        .checked_add(payload)
}

/// Total frame length implied by a fixed-size header prefix.
///
/// `buf` must hold at least [`REQUEST_HEADER_LEN`] bytes; magic and
/// version are validated so a desynced stream fails fast.
///
/// # Errors
///
/// [`RequestFrameError`] on a short buffer, wrong magic/version/flags,
/// or section lengths that overflow.
pub fn request_frame_len(buf: &[u8]) -> Result<usize, RequestFrameError> {
    if buf.len() < REQUEST_HEADER_LEN {
        return Err(RequestFrameError::Truncated {
            need: REQUEST_HEADER_LEN,
            got: buf.len(),
        });
    }
    if buf[..4] != REQUEST_MAGIC {
        return Err(RequestFrameError::BadMagic([
            buf[0], buf[1], buf[2], buf[3],
        ]));
    }
    let version = u16_of(buf, 4);
    if version != REQUEST_VERSION {
        return Err(RequestFrameError::BadVersion(version));
    }
    let flags = u16_of(buf, 6);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(RequestFrameError::BadFlags(flags & !KNOWN_FLAGS));
    }
    checked_frame_len(
        u32_of(buf, 8) as usize,
        u32_of(buf, 12) as usize,
        u32_of(buf, 16) as usize,
        u32_of(buf, 20) as usize,
        u32_of(buf, 24) as usize,
    )
    .ok_or(RequestFrameError::SizeOverflow)
}

/// Encodes `req` as a binary-v1 request frame, appending to `out`.
///
/// # Errors
///
/// [`RequestFrameError::RaggedPoints`] when rows differ in length,
/// [`RequestFrameError::CountOverflow`] when a count exceeds `u32`,
/// and the times/kind mismatches the decoder would reject.
pub fn encode_request(req: &RequestFrame<'_>, out: &mut Vec<u8>) -> Result<(), RequestFrameError> {
    let syms = req.points.first().map_or(0, Vec::len);
    for (row, p) in req.points.iter().enumerate() {
        if p.len() != syms {
            return Err(RequestFrameError::RaggedPoints {
                row,
                len: p.len(),
                expect: syms,
            });
        }
    }
    match req.kind {
        RequestKind::Step if req.times.is_empty() => {
            return Err(RequestFrameError::StepWithoutTimes)
        }
        RequestKind::Step => {}
        _ if !req.times.is_empty() => return Err(RequestFrameError::TimesWithoutStep),
        _ => {}
    }
    let count = u32::try_from(req.points.len())
        .map_err(|_| RequestFrameError::CountOverflow("point count"))?;
    let syms32 =
        u32::try_from(syms).map_err(|_| RequestFrameError::CountOverflow("symbol count"))?;
    let times32 = u32::try_from(req.times.len())
        .map_err(|_| RequestFrameError::CountOverflow("times count"))?;
    let name_len = u32::try_from(req.model.len())
        .map_err(|_| RequestFrameError::CountOverflow("model name length"))?;
    let id = req.id.unwrap_or("");
    let id_len =
        u32::try_from(id.len()).map_err(|_| RequestFrameError::CountOverflow("id length"))?;
    let mut flags = 0u16;
    if req.id.is_some() {
        flags |= FLAG_HAS_ID;
    }
    if req.deadline_ms.is_some() {
        flags |= FLAG_HAS_DEADLINE;
    }
    out.extend_from_slice(&REQUEST_MAGIC);
    out.extend_from_slice(&REQUEST_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&syms32.to_le_bytes());
    out.extend_from_slice(&times32.to_le_bytes());
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(&id_len.to_le_bytes());
    out.extend_from_slice(&req.deadline_ms.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&req.workers.unwrap_or(0).to_le_bytes());
    out.push(req.kind.wire_byte());
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(req.model.as_bytes());
    out.extend_from_slice(id.as_bytes());
    for t in req.times {
        out.extend_from_slice(&t.to_le_bytes());
    }
    // Column-major: symbol s's value for every point, contiguous.
    for s in 0..syms {
        for p in req.points {
            out.extend_from_slice(&p[s].to_le_bytes());
        }
    }
    Ok(())
}

/// A validated request frame, its variable sections borrowed.
struct FrameView<'a> {
    flags: u16,
    count: usize,
    syms: usize,
    deadline_ms: u64,
    workers: u32,
    kind: RequestKind,
    name: &'a str,
    id: Option<Content>,
    times: &'a [u8],
    payload: &'a [u8],
}

/// Validates a complete frame and slices its sections. Allocates only
/// the parsed id.
///
/// Validation order is header (truncation, magic, version, flags, kind,
/// reserved) → exact length → name UTF-8 → id JSON.
fn parse_frame(buf: &[u8]) -> Result<FrameView<'_>, RequestFrameError> {
    let total = request_frame_len(buf)?;
    if buf.len() < total {
        return Err(RequestFrameError::Truncated {
            need: total,
            got: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(RequestFrameError::TrailingBytes(buf.len() - total));
    }
    let flags = u16_of(buf, 6);
    let count = u32_of(buf, 8) as usize;
    let syms = u32_of(buf, 12) as usize;
    let times_count = u32_of(buf, 16) as usize;
    let name_len = u32_of(buf, 20) as usize;
    let id_len = u32_of(buf, 24) as usize;
    let mut deadline = [0u8; 8];
    deadline.copy_from_slice(&buf[28..36]);
    let kind = RequestKind::from_wire_byte(buf[40]).ok_or(RequestFrameError::BadKind(buf[40]))?;
    if buf[41..44] != [0u8; 3] {
        return Err(RequestFrameError::BadReserved);
    }
    if times_count > 0 && kind != RequestKind::Step {
        return Err(RequestFrameError::TimesWithoutStep);
    }
    if kind == RequestKind::Step && times_count == 0 {
        return Err(RequestFrameError::StepWithoutTimes);
    }
    // The exact-length check above makes every section below in bounds.
    let (name, rest) = buf[REQUEST_HEADER_LEN..].split_at(name_len);
    let name = std::str::from_utf8(name).map_err(|_| RequestFrameError::BadName)?;
    let (id, rest) = rest.split_at(id_len);
    let id = if flags & FLAG_HAS_ID != 0 {
        let text = std::str::from_utf8(id).map_err(|_| RequestFrameError::BadId)?;
        Some(serde_json::from_str::<Value>(text).map_err(|_| RequestFrameError::BadId)?)
    } else {
        None
    };
    let (times, payload) = rest.split_at(8 * times_count);
    Ok(FrameView {
        flags,
        count,
        syms,
        deadline_ms: u64::from_le_bytes(deadline),
        workers: u32_of(buf, 36),
        kind,
        name,
        id,
        times,
        payload,
    })
}

fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Decodes a complete binary-v1 request frame into the typed request the
/// server's socket path evaluates ([`awesym_serve::Server::handle_frame_into`]).
/// No JSON tree is built and nothing is allocated from the point count:
/// the payload stays borrowed from `buf`, and the engine copies it into
/// its column buffer only after checking the count against
/// `max_batch_points`. Allocates the model-independent parts only: the
/// id (parsed as JSON, exactly as [`decode_request`] parses it) and the
/// `step` sample times, both bounded by the frame's length.
///
/// # Errors
///
/// The same typed [`RequestFrameError`]s as [`decode_request`], in the
/// same order, for every frame that breaks a layout rule.
pub fn decode_batch(buf: &[u8]) -> Result<FrameRequest<'_>, RequestFrameError> {
    let f = parse_frame(buf)?;
    let output = match f.kind {
        RequestKind::Moments => BatchOutput::Moments,
        RequestKind::DcGain => BatchOutput::DcGain,
        RequestKind::Delays => BatchOutput::Delays,
        RequestKind::Step => BatchOutput::Step {
            times: f64s(f.times).collect(),
        },
    };
    Ok(FrameRequest {
        model: f.name,
        output,
        count: f.count,
        syms: f.syms,
        payload: f.payload,
        deadline_ms: (f.flags & FLAG_HAS_DEADLINE != 0).then_some(f.deadline_ms),
        workers: (f.workers != 0).then_some(f.workers as usize),
        id: f.id,
    })
}

/// Decodes a complete binary-v1 request frame into the request
/// [`Content`] the equivalent JSON line parses to — `cmd`, `model`,
/// `points` (row-major), `kind`, `"encoding":"binary-v1"`, and the
/// optional `times`/`deadline_ms`/`workers`/`id` fields. This is the
/// reference the typed [`decode_batch`] path is tested against: handing
/// the tree to [`awesym_serve::Server::handle_decoded_into`] answers with
/// the bytes the JSON line would get.
///
/// # Errors
///
/// A typed [`RequestFrameError`] naming the first violated layout rule;
/// validation order is header (truncation, magic, version, flags, kind,
/// reserved) → exact length → name UTF-8 → id JSON, then
/// [`RequestFrameError::TooManyPoints`] for a count above the server's
/// default `max_batch_points` — checked before any row is allocated,
/// since a frame without symbols bounds its count by nothing.
pub fn decode_request(buf: &[u8]) -> Result<Content, RequestFrameError> {
    let f = parse_frame(buf)?;
    if f.count > DEFAULT_MAX_BATCH_POINTS {
        return Err(RequestFrameError::TooManyPoints {
            count: f.count,
            limit: DEFAULT_MAX_BATCH_POINTS,
        });
    }
    let times: Vec<Content> = f64s(f.times).map(Content::F64).collect();
    // Transpose the columnar payload back to the row-major `points`
    // array the JSON request carries.
    let mut points: Vec<Vec<Content>> = (0..f.count).map(|_| Vec::with_capacity(f.syms)).collect();
    if f.count > 0 {
        for col in f.payload.chunks_exact(8 * f.count) {
            for (p, v) in points.iter_mut().zip(f64s(col)) {
                p.push(Content::F64(v));
            }
        }
    }
    let mut fields: Vec<(String, Content)> = vec![
        ("cmd".to_string(), Content::Str("batch".to_string())),
        ("model".to_string(), Content::Str(f.name.to_string())),
        (
            "points".to_string(),
            Content::Seq(points.into_iter().map(Content::Seq).collect()),
        ),
        (
            "kind".to_string(),
            Content::Str(f.kind.as_str().to_string()),
        ),
        (
            "encoding".to_string(),
            Content::Str("binary-v1".to_string()),
        ),
    ];
    if f.kind == RequestKind::Step {
        fields.push(("times".to_string(), Content::Seq(times)));
    }
    if f.flags & FLAG_HAS_DEADLINE != 0 {
        fields.push(("deadline_ms".to_string(), Content::U64(f.deadline_ms)));
    }
    if f.workers != 0 {
        fields.push(("workers".to_string(), Content::U64(u64::from(f.workers))));
    }
    if let Some(id) = f.id {
        fields.push(("id".to_string(), id));
    }
    Ok(Content::Map(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(points: &[Vec<f64>]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: "m",
                points,
                kind: RequestKind::Moments,
                times: &[],
                deadline_ms: None,
                workers: None,
                id: None,
            },
            &mut out,
        )
        .unwrap();
        out
    }

    #[test]
    fn golden_bytes_for_a_tiny_frame() {
        let out = frame(&[vec![1.5, -2.0], vec![0.25, 4.0]]);
        assert_eq!(&out[..4], b"AWSQ");
        assert_eq!(u16_of(&out, 4), 1, "version");
        assert_eq!(u16_of(&out, 6), 0, "flags");
        assert_eq!(u32_of(&out, 8), 2, "count");
        assert_eq!(u32_of(&out, 12), 2, "syms");
        assert_eq!(u32_of(&out, 16), 0, "times");
        assert_eq!(u32_of(&out, 20), 1, "name len");
        assert_eq!(u32_of(&out, 24), 0, "id len");
        assert_eq!(out[40], 0, "kind moments");
        assert_eq!(out.len(), REQUEST_HEADER_LEN + 1 + 4 * 8);
        assert_eq!(request_frame_len(&out).unwrap(), out.len());
        assert_eq!(out[REQUEST_HEADER_LEN], b'm');
        // Column-major payload: col 0 = [1.5, 0.25], col 1 = [-2.0, 4.0].
        let vals: Vec<f64> = (0..4)
            .map(|i| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&out[REQUEST_HEADER_LEN + 1 + 8 * i..][..8]);
                f64::from_le_bytes(b)
            })
            .collect();
        assert_eq!(vals, [1.5, 0.25, -2.0, 4.0]);
    }

    #[test]
    fn roundtrip_matches_equivalent_json_request() {
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: "alpha",
                points: &[vec![1e-9, 1e3], vec![2e-9, 2e3]],
                kind: RequestKind::Step,
                times: &[1e-9, 2e-9, 5e-9],
                deadline_ms: Some(0),
                workers: Some(2),
                id: Some("42"),
            },
            &mut out,
        )
        .unwrap();
        let decoded = decode_request(&out).unwrap();
        let json: Content = serde_json::from_str(
            r#"{"cmd":"batch","model":"alpha","points":[[1e-9,1e3],[2e-9,2e3]],
                "kind":"step","encoding":"binary-v1","times":[1e-9,2e-9,5e-9],
                "deadline_ms":0,"workers":2,"id":42}"#,
        )
        .unwrap();
        for key in ["cmd", "model", "kind", "encoding", "deadline_ms", "workers"] {
            assert_eq!(
                serde_json::to_string(decoded.get(key).unwrap()).unwrap(),
                serde_json::to_string(json.get(key).unwrap()).unwrap(),
                "{key}"
            );
        }
        // Numeric fields compare by f64 value (JSON integers parse as
        // U64, binary floats as F64 — the engine's as_f64/as_u64 views
        // treat them identically).
        assert_eq!(
            decoded.get("id").and_then(Content::as_u64),
            json.get("id").and_then(Content::as_u64)
        );
        for key in ["points", "times"] {
            let (d, j) = (decoded.get(key).unwrap(), json.get(key).unwrap());
            assert_eq!(
                serde_json::to_string(d).unwrap(),
                serde_json::to_string(j).unwrap(),
                "{key}"
            );
        }
    }

    #[test]
    fn typed_errors_for_each_violation() {
        let good = frame(&[vec![1.0], vec![2.0]]);
        assert!(matches!(
            request_frame_len(&good[..10]),
            Err(RequestFrameError::Truncated { need: 44, got: 10 })
        ));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_request(&bad),
            Err(RequestFrameError::BadMagic(_))
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(decode_request(&bad), Err(RequestFrameError::BadVersion(9)));
        let mut bad = good.clone();
        bad[6] = 0x80;
        assert_eq!(decode_request(&bad), Err(RequestFrameError::BadFlags(0x80)));
        let mut bad = good.clone();
        bad[40] = 7;
        assert_eq!(decode_request(&bad), Err(RequestFrameError::BadKind(7)));
        let mut bad = good.clone();
        bad[41] = 1;
        assert_eq!(decode_request(&bad), Err(RequestFrameError::BadReserved));
        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(
            decode_request(&bad),
            Err(RequestFrameError::TrailingBytes(1))
        );
        assert!(matches!(
            decode_request(&good[..good.len() - 1]),
            Err(RequestFrameError::Truncated { .. })
        ));
        // Hostile header: counts that overflow the length math.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            request_frame_len(&bad),
            Err(RequestFrameError::SizeOverflow)
        );
        // Ragged rows refuse to encode.
        let mut out = Vec::new();
        let err = encode_request(
            &RequestFrame {
                model: "m",
                points: &[vec![1.0, 2.0], vec![3.0]],
                kind: RequestKind::Moments,
                times: &[],
                deadline_ms: None,
                workers: None,
                id: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RequestFrameError::RaggedPoints { row: 1, .. }
        ));
        // times/kind consistency both ways.
        let err = encode_request(
            &RequestFrame {
                model: "m",
                points: &[vec![1.0]],
                kind: RequestKind::Moments,
                times: &[1e-9],
                deadline_ms: None,
                workers: None,
                id: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err, RequestFrameError::TimesWithoutStep);
        let err = encode_request(
            &RequestFrame {
                model: "m",
                points: &[vec![1.0]],
                kind: RequestKind::Step,
                times: &[],
                deadline_ms: None,
                workers: None,
                id: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err, RequestFrameError::StepWithoutTimes);
    }

    #[test]
    fn typed_decoder_shares_fields_and_errors_with_the_reference() {
        let points = [vec![1e-9, 1e3], vec![2e-9, 2e3]];
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: "alpha",
                points: &points,
                kind: RequestKind::Step,
                times: &[1e-9, 5e-9],
                deadline_ms: Some(0),
                workers: Some(2),
                id: Some("42"),
            },
            &mut out,
        )
        .unwrap();
        let req = decode_batch(&out).unwrap();
        assert_eq!((req.model, req.count, req.syms), ("alpha", 2, 2));
        assert_eq!(
            req.output,
            BatchOutput::Step {
                times: vec![1e-9, 5e-9]
            }
        );
        assert_eq!((req.deadline_ms, req.workers), (Some(0), Some(2)));
        assert_eq!(req.id.as_ref().and_then(Content::as_u64), Some(42));
        assert_eq!(req.columns().unwrap().values(), &[1e-9, 2e-9, 1e3, 2e3]);
        // Layout violations are the same typed errors on both decoders.
        for (at, byte) in [(0, b'X'), (4, 9), (6, 0x80), (40, 7), (41, 1)] {
            let mut bad = out.clone();
            bad[at] = byte;
            assert_eq!(
                decode_batch(&bad).map(|_| ()),
                decode_request(&bad).map(|_| ())
            );
        }
        // A symbol-free frame bounds its count by nothing: the reference
        // refuses to build rows past the default limit, the typed decoder
        // allocates nothing from the count and leaves the limit to the
        // engine.
        let mut hostile = frame(&[]);
        hostile[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&hostile),
            Err(RequestFrameError::TooManyPoints {
                count: u32::MAX as usize,
                limit: DEFAULT_MAX_BATCH_POINTS
            })
        );
        let req = decode_batch(&hostile).unwrap();
        assert_eq!(
            (req.count, req.syms, req.payload.len()),
            (u32::MAX as usize, 0, 0)
        );
    }

    #[test]
    fn bad_id_json_is_rejected() {
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: "m",
                points: &[vec![1.0]],
                kind: RequestKind::DcGain,
                times: &[],
                deadline_ms: None,
                workers: None,
                id: Some("{not json"),
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(decode_request(&out), Err(RequestFrameError::BadId));
    }
}
