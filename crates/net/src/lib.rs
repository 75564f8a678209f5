//! TCP front end for the AWEsymbolic serving engine.
//!
//! The paper's economics — compile once, evaluate in microseconds —
//! only survive contact with a network if the transport and decode
//! layers stay out of the way. This crate is that front end, behind
//! `awesym serve --listen ADDR`, in two layers:
//!
//! - **transport** ([`listener`], [`conn`]): a thread-per-connection
//!   accept loop over one shared [`awesym_serve::Server`], with a
//!   bounded global connection limit, per-connection write
//!   backpressure, idle timeouts, and graceful drain wired to the
//!   engine's `health`/`drain` commands — drain stops accepting, lets
//!   every session answer what it has read, then closes.
//! - **decode** ([`reader`], [`frame`]): a streaming zero-copy request
//!   parser ([`RecvBuf`]) that borrows complete messages straight from
//!   the receive buffer (no per-line `String`), and the binary-v1
//!   *request* frame (`AWSQ`) — a columnar point payload mirroring the
//!   binary response frame, decoded by [`decode_batch`] into a typed
//!   request whose payload goes into the engine's column buffer with one
//!   copy — so hot clients skip JSON in both directions.
//!
//! A session records what it measures on the engine's own counters: the
//! time it spends blocked on its socket (`wait`) and each frame's decode
//! time (`parse`), which `stats` serves beside the stdin loop's.
//!
//! The stdin/stdout NDJSON loop remains the default transport and is
//! bit-identical per request to this one: both feed the same engine,
//! the loopback suite in `tests/` asserts byte equality under
//! concurrency and injected faults, and the `frame_paths` suite pins
//! the typed frame path to the [`decode_request`] reference. See
//! `docs/networking.md` for the framing spec, negotiation, limits, and
//! drain semantics.

#![forbid(unsafe_code)]
// Production code must route failures through typed errors, not
// unwrap; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod conn;
pub mod frame;
pub mod listener;
pub mod reader;

pub use frame::{
    decode_batch, decode_request, encode_request, request_frame_len, RequestFrame,
    RequestFrameError, RequestKind, FLAG_HAS_DEADLINE, FLAG_HAS_ID, REQUEST_HEADER_LEN,
    REQUEST_MAGIC, REQUEST_VERSION,
};
pub use listener::{NetConfig, NetServer};
pub use reader::{MessageKind, MessageSpan, RecvBuf, ScanError};
