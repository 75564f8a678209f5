//! Error types for the serving runtime: a stable machine-readable code
//! taxonomy, the request-level [`ServeError`], and the per-point
//! [`PointError`].
//!
//! Every failure a client can see maps onto one of the [`ErrorCode`]s, so
//! callers dispatch on `"code"` instead of parsing prose. The codes are
//! part of the wire format — add new ones freely, never repurpose old
//! ones.

use std::fmt;

/// Stable machine-readable error codes carried by every error response
/// and every failed batch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request was malformed: bad JSON, missing fields, non-finite
    /// symbol values, over-limit batch or line size.
    BadRequest,
    /// The named model is not in the registry.
    NotFound,
    /// The artifact file is corrupt, truncated, version-incompatible, or
    /// carries non-finite coefficients.
    BadArtifact,
    /// The request ran past its deadline and was cancelled.
    DeadlineExceeded,
    /// The server is at its in-flight budget; retry after the hinted
    /// backoff.
    Overloaded,
    /// Evaluation was numerically unhealthy: non-finite moments, an
    /// unstable/singular Padé fit with no usable fallback.
    NumericUnstable,
    /// An unexpected internal failure (e.g. a panic caught inside the
    /// batch engine).
    Internal,
    /// The shard that owns the requested model cannot serve right now —
    /// its circuit breaker is open after repeated chunk crashes, or it
    /// is draining for shutdown. Retry after the hinted backoff; other
    /// shards are unaffected.
    Unavailable,
}

impl ErrorCode {
    /// The wire form, e.g. `"deadline_exceeded"`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::BadArtifact => "bad_artifact",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NumericUnstable => "numeric_unstable",
            ErrorCode::Internal => "internal",
            ErrorCode::Unavailable => "unavailable",
        }
    }

    /// Parses the wire string form back to the typed code.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "not_found" => ErrorCode::NotFound,
            "bad_artifact" => ErrorCode::BadArtifact,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "overloaded" => ErrorCode::Overloaded,
            "numeric_unstable" => ErrorCode::NumericUnstable,
            "internal" => ErrorCode::Internal,
            "unavailable" => ErrorCode::Unavailable,
            _ => return None,
        })
    }

    /// The single-byte form used by the binary-v1 batch frame's per-point
    /// status column. `0` is reserved for "ok" (no error); codes start at
    /// `1`. Stable wire contract — append only, never renumber.
    pub fn wire_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::NotFound => 2,
            ErrorCode::BadArtifact => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Overloaded => 5,
            ErrorCode::NumericUnstable => 6,
            ErrorCode::Internal => 7,
            ErrorCode::Unavailable => 8,
        }
    }

    /// Inverse of [`ErrorCode::wire_byte`]; `0` (ok) and unknown bytes
    /// return `None`.
    pub fn from_wire_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::BadArtifact,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::NumericUnstable,
            7 => ErrorCode::Internal,
            8 => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One batch point's failure: a stable code plus a human-readable
/// message. Serialized per point as `{"error": …, "code": …}`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PointError {
    /// Wire form of the [`ErrorCode`] (kept as a string so the struct
    /// serializes without a custom impl).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl PointError {
    /// A point error with the given code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        PointError {
            code: code.as_str().to_string(),
            message: message.into(),
        }
    }

    /// Shorthand for a [`ErrorCode::BadRequest`] point error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// Shorthand for a [`ErrorCode::NumericUnstable`] point error.
    pub fn numeric(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::NumericUnstable, message)
    }

    /// Shorthand for an [`ErrorCode::Internal`] point error (caught
    /// panics).
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }

    /// Shorthand for an [`ErrorCode::DeadlineExceeded`] point error.
    pub fn deadline(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::DeadlineExceeded, message)
    }
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

impl std::error::Error for PointError {}

/// Errors produced by the artifact, registry, batch, and server layers.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Filesystem failure (path and source).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is not an awesym artifact (bad magic/format tag or
    /// malformed JSON).
    BadFormat {
        /// What was wrong.
        what: String,
    },
    /// The artifact's format version is not supported by this build.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The payload checksum does not match — the artifact is corrupt.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: String,
        /// Checksum computed from the payload.
        actual: String,
    },
    /// The artifact parsed and checksummed cleanly but carries non-finite
    /// coefficient values (NaN survives JSON as `null`); evaluating such a
    /// model would poison every request that touches it.
    ArtifactNumeric {
        /// Which quantity was non-finite.
        what: String,
    },
    /// A registry lookup failed.
    ModelNotFound {
        /// The requested model name.
        name: String,
    },
    /// A request was structurally invalid.
    BadRequest {
        /// What was wrong.
        what: String,
    },
    /// The request ran past its deadline and was cancelled between
    /// points.
    DeadlineExceeded {
        /// The configured/requested deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The in-flight budget is exhausted; the request was shed instead of
    /// queued.
    Overloaded {
        /// Requests currently in flight.
        inflight: u64,
        /// The configured budget.
        max_inflight: u64,
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// The shard owning the requested model cannot serve right now
    /// (circuit breaker open after repeated chunk crashes, or shard
    /// draining); retry after the hinted backoff.
    Unavailable {
        /// The shard that refused the request.
        shard: u64,
        /// Why the shard is unavailable (e.g. `"circuit breaker open"`,
        /// `"draining"`).
        reason: String,
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// Model compilation or evaluation failed.
    Model(awesym_partition::PartitionError),
    /// A single-point evaluation failed (carries the point's code).
    Point(PointError),
    /// An internal invariant broke (e.g. a caught panic).
    Internal {
        /// What happened.
        what: String,
    },
}

impl ServeError {
    /// The stable machine-readable code for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::Io { .. } | ServeError::Internal { .. } => ErrorCode::Internal,
            ServeError::BadFormat { .. }
            | ServeError::VersionMismatch { .. }
            | ServeError::ChecksumMismatch { .. }
            | ServeError::ArtifactNumeric { .. } => ErrorCode::BadArtifact,
            ServeError::ModelNotFound { .. } => ErrorCode::NotFound,
            ServeError::BadRequest { .. } => ErrorCode::BadRequest,
            ServeError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::Unavailable { .. } => ErrorCode::Unavailable,
            ServeError::Model(e) => partition_code(e),
            ServeError::Point(p) => point_code(p),
        }
    }
}

/// Maps a model-layer failure onto the taxonomy: numeric failures (Padé,
/// singular systems) are `numeric_unstable`; structural ones (bad
/// bindings, role mismatches) are the client's fault.
pub(crate) fn partition_code(e: &awesym_partition::PartitionError) -> ErrorCode {
    use awesym_partition::PartitionError as P;
    match e {
        P::Awe(_) | P::SingularNumericPartition | P::SingularSymbolicSystem => {
            ErrorCode::NumericUnstable
        }
        _ => ErrorCode::BadRequest,
    }
}

/// Recovers the typed code from a point error's wire string, defaulting
/// to `internal` for forward compatibility.
pub(crate) fn point_code(p: &PointError) -> ErrorCode {
    ErrorCode::parse(&p.code).unwrap_or(ErrorCode::Internal)
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => write!(f, "io error on {path}: {source}"),
            ServeError::BadFormat { what } => write!(f, "not a valid .awesym artifact: {what}"),
            ServeError::VersionMismatch { found, supported } => write!(
                f,
                "artifact format version {found} is newer than supported version {supported}"
            ),
            ServeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact payload corrupt: checksum {actual} != recorded {expected}"
            ),
            ServeError::ArtifactNumeric { what } => {
                write!(f, "artifact carries non-finite values: {what}")
            }
            ServeError::ModelNotFound { name } => write!(f, "no model named '{name}' in registry"),
            ServeError::BadRequest { what } => write!(f, "bad request: {what}"),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "request exceeded its {deadline_ms} ms deadline")
            }
            ServeError::Overloaded {
                inflight,
                max_inflight,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded ({inflight}/{max_inflight} requests in flight), \
                 retry in {retry_after_ms} ms"
            ),
            ServeError::Unavailable {
                shard,
                reason,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} unavailable ({reason}), retry in {retry_after_ms} ms"
            ),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Point(p) => write!(f, "evaluation failed: {}", p.message),
            ServeError::Internal { what } => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<awesym_partition::PartitionError> for ServeError {
    fn from(e: awesym_partition::PartitionError) -> Self {
        ServeError::Model(e)
    }
}

impl From<PointError> for ServeError {
    fn from(p: PointError) -> Self {
        ServeError::Point(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        for (code, s) in [
            (ErrorCode::BadRequest, "bad_request"),
            (ErrorCode::NotFound, "not_found"),
            (ErrorCode::BadArtifact, "bad_artifact"),
            (ErrorCode::DeadlineExceeded, "deadline_exceeded"),
            (ErrorCode::Overloaded, "overloaded"),
            (ErrorCode::NumericUnstable, "numeric_unstable"),
            (ErrorCode::Internal, "internal"),
            (ErrorCode::Unavailable, "unavailable"),
        ] {
            assert_eq!(code.as_str(), s);
            assert_eq!(code.to_string(), s);
        }
    }

    #[test]
    fn serve_errors_map_to_codes() {
        assert_eq!(
            ServeError::BadRequest { what: "x".into() }.code(),
            ErrorCode::BadRequest
        );
        assert_eq!(
            ServeError::ModelNotFound { name: "m".into() }.code(),
            ErrorCode::NotFound
        );
        assert_eq!(
            ServeError::ChecksumMismatch {
                expected: "a".into(),
                actual: "b".into()
            }
            .code(),
            ErrorCode::BadArtifact
        );
        assert_eq!(
            ServeError::ArtifactNumeric { what: "w".into() }.code(),
            ErrorCode::BadArtifact
        );
        assert_eq!(
            ServeError::DeadlineExceeded { deadline_ms: 5 }.code(),
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(
            ServeError::Overloaded {
                inflight: 2,
                max_inflight: 2,
                retry_after_ms: 50
            }
            .code(),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ServeError::Internal { what: "w".into() }.code(),
            ErrorCode::Internal
        );
        assert_eq!(
            ServeError::Unavailable {
                shard: 1,
                reason: "circuit breaker open".into(),
                retry_after_ms: 250
            }
            .code(),
            ErrorCode::Unavailable
        );
        // Numeric model failures are numeric_unstable; structural ones are
        // the client's fault.
        assert_eq!(
            ServeError::Model(awesym_partition::PartitionError::Awe(
                awesym_awe::AweError::ZeroResponse
            ))
            .code(),
            ErrorCode::NumericUnstable
        );
        assert_eq!(
            ServeError::Model(awesym_partition::PartitionError::BadBinding { what: "w".into() })
                .code(),
            ErrorCode::BadRequest
        );
        // Point errors delegate their code.
        assert_eq!(
            ServeError::Point(PointError::numeric("nan")).code(),
            ErrorCode::NumericUnstable
        );
        assert_eq!(
            ServeError::Point(PointError::new(ErrorCode::Internal, "panic")).code(),
            ErrorCode::Internal
        );
    }

    #[test]
    fn wire_bytes_round_trip_and_zero_means_ok() {
        let all = [
            ErrorCode::BadRequest,
            ErrorCode::NotFound,
            ErrorCode::BadArtifact,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Overloaded,
            ErrorCode::NumericUnstable,
            ErrorCode::Internal,
            ErrorCode::Unavailable,
        ];
        for code in all {
            let b = code.wire_byte();
            assert_ne!(b, 0, "0 is reserved for ok");
            assert_eq!(ErrorCode::from_wire_byte(b), Some(code));
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire_byte(0), None);
        assert_eq!(ErrorCode::from_wire_byte(200), None);
        assert_eq!(ErrorCode::parse("frobnicated"), None);
    }

    #[test]
    fn point_error_displays_code_and_message() {
        let p = PointError::bad_request("point has 1 values, model has 2 symbols");
        assert!(p.to_string().contains("2 symbols"));
        assert!(p.to_string().contains("bad_request"));
    }
}
