//! Serving runtime for compiled AWEsymbolic models.
//!
//! The paper's economics — one expensive symbolic compilation, then
//! microsecond evaluations — only pay off when the compiled model
//! outlives the process that built it and can be hammered with points.
//! This crate supplies that production half:
//!
//! - [`artifact`]: versioned, checksummed `.awesym` files
//!   ([`save_artifact`] / [`load_artifact`]);
//! - [`registry`]: a named, thread-safe, LRU-evicting in-memory
//!   [`ModelRegistry`];
//! - [`batch`]: the chunk engine every batch runs through, with
//!   per-point errors, panic isolation and deadlines;
//! - [`columns`]: the columnar request and result buffers
//!   ([`PointColumns`], [`BatchResults`]);
//! - `request`: the request schema, and the [`BatchRequest`] that JSON
//!   `batch` lines and binary-v1 frames share;
//! - [`pool`]: the persistent [`WorkerPool`], the crate's only executor —
//!   threads spawned once per shard and parked on a job queue, which
//!   outlive every chunk crash until the pool is dropped;
//! - [`shard`]: the crash-isolation layer — [`shard_of`] name placement,
//!   the per-shard [`CircuitBreaker`], and the [`Shard`] tying one
//!   registry, pool and breaker together;
//! - [`server`]: the newline-delimited-JSON [`Server`] engine behind
//!   `awesym serve`, with request/latency/throughput [`stats`] and the
//!   `health`/`drain` operational commands.
//!
//! The runtime is engineered to stay up under bad inputs: per-point
//! panics are caught and isolated, numeric ill-health degrades gracefully
//! to lower approximation orders, requests carry deadlines, the server
//! sheds load past its in-flight budget, and a storm on one shard —
//! panics, deadline blowouts, crashed chunks — leaves its neighbor
//! shards' responses bit-identical — see `docs/robustness.md`
//! and, under the `fault-injection` feature, the deterministic `faults`
//! harness and cross-shard chaos suite that prove it.

#![forbid(unsafe_code)]
// Production code must route failures through the error taxonomy, not
// unwrap; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod artifact;
pub mod batch;
pub mod columns;
pub mod encode;
mod error;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod pool;
pub mod registry;
mod request;
pub mod resolve;
pub mod server;
pub mod shard;
pub mod stats;

pub use artifact::{
    checksum, from_artifact_str, load_artifact, load_model_file, save_artifact, to_artifact_string,
    FORMAT_MINOR, FORMAT_TAG, FORMAT_VERSION,
};
pub use awesym_partition::Degradation;
pub use batch::{BatchOutput, DelaySummary, PointResult, PointValue, RomSummary};
pub use columns::{BatchResults, PointColumns, MAX_RESULT_VALUES};
pub use encode::{decode_frame, DecodedFrame, FrameError, WireEncoding};
pub use error::{ErrorCode, PointError, ServeError};
pub use pool::WorkerPool;
pub use registry::{ModelRegistry, RegistryStats};
pub use request::{BatchPoints, BatchRequest};
pub use server::{
    Response, ResponseMeta, Server, ServerConfig, DEFAULT_CAPACITY, DEFAULT_MAX_BATCH_POINTS,
};
pub use shard::{
    adaptive_retry_after_ms, shard_of, BreakerConfig, CircuitBreaker, Shard, ShardConfig,
    ShardHealth,
};
pub use stats::{ServerStats, Stage, StageSnapshot, StatsSnapshot, STAGES};
