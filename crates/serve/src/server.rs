//! Newline-delimited-JSON request engine.
//!
//! One request per line in, one JSON response per line out — the
//! transport-agnostic core behind `awesym serve`. The commands and their
//! fields are declared once, in the request schema (`request.rs`), and
//! every request is checked against it before it is dispatched.
//!
//! Every response carries `"ok"`; failures report `{"ok":false,
//! "error":"…","code":"…"}` — a stable machine-readable
//! [`ErrorCode`](crate::ErrorCode) alongside the prose — and never kill
//! the loop. An optional request `"id"` is echoed back for client-side
//! correlation.
//!
//! The server is fault-tolerant by construction (see
//! `docs/robustness.md`): per-point panics are isolated by the batch
//! engine, requests carry deadlines (`"deadline_ms"` per request or a
//! [`ServerConfig`] default), oversized lines and batches are rejected
//! before any work happens, non-finite symbol values are refused, and an
//! in-flight budget sheds excess load with an `overloaded` error and a
//! depth-scaled `retry_after_ms` hint instead of queueing without bound.
//!
//! Model state and evaluation are **sharded** (see `docs/serving.md`):
//! the model name hashes to one of [`ServerConfig::shards`] shards
//! ([`crate::shard_of`]), each owning a model registry, a persistent
//! worker pool, and a circuit breaker — so a crash-looping
//! model degrades *its* shard to `unavailable` while every other shard
//! keeps serving.

use crate::batch::BatchOutput;
use crate::columns::{check_finite, BatchResults, PointColumns};
use crate::encode::{encode_response, BatchBody, ResponseBody, WireEncoding};
use crate::registry::RegistryStats;
use crate::request::{self, bad, numbers, BatchRequest, Checked, Cmd};
use crate::shard::{adaptive_retry_after_ms, shard_of, Shard, ShardConfig};
use crate::stats::{ServerStats, Stage, STAGES};
use crate::{artifact, resolve, ServeError};
use awesym_obs::{now_ns, Tracer};
use awesym_partition::CompiledModel;
use serde::{Content, Serialize};
use std::borrow::Cow;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default registry capacity for a server.
pub const DEFAULT_CAPACITY: usize = 16;

/// Default [`ServerConfig::max_batch_points`].
pub const DEFAULT_MAX_BATCH_POINTS: usize = 1 << 20;

/// Operational limits and fault-tolerance knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Registry capacity. Each shard keeps up to `5 × capacity` models
    /// (2 at capacity 0) before evicting the least recently used; the
    /// default of 16 keeps 80 per shard.
    pub capacity: usize,
    /// Largest accepted `batch` request, in points.
    pub max_batch_points: usize,
    /// Largest accepted request line, in bytes (guards the JSON parser).
    /// The socket front end bounds binary request frames by it too.
    pub max_line_bytes: usize,
    /// Default evaluation deadline applied to `eval`/`batch` requests;
    /// `None` means no deadline unless the request carries
    /// `"deadline_ms"`.
    pub deadline_ms: Option<u64>,
    /// Heavy requests (`eval`, `batch`, `compile`) allowed in flight at
    /// once; `0` means unlimited. Excess requests are shed with an
    /// `overloaded` error instead of queueing.
    pub max_inflight: usize,
    /// Backoff hint returned with `overloaded` errors.
    pub retry_after_ms: u64,
    /// Observe per-stage request timing (clock reads, stage histograms,
    /// stage spans). On by default; turning it off removes every
    /// per-request clock read except the latency counter — the benches
    /// flip this to measure the observability layer's own overhead.
    pub observe: bool,
    /// Emit one NDJSON stats line to the stats sink every `N` handled
    /// requests during [`Server::serve_with_stats`]; `0` disables.
    pub stats_every: u64,
    /// Shards the model fleet is split across (min 1). Each shard owns a
    /// model registry, a persistent worker pool, and a circuit breaker;
    /// models are placed by [`crate::shard_of`] over the model name.
    pub shards: usize,
    /// Most threads evaluating one job on a shard, the connection thread
    /// included, and the threads each shard pool keeps; `0` picks the
    /// parallelism default.
    pub shard_workers: usize,
    /// Concurrent evaluation jobs a shard accepts (queued + running)
    /// before shedding with a depth-scaled retry hint; `0` disables the
    /// per-shard bound.
    pub shard_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: DEFAULT_CAPACITY,
            max_batch_points: DEFAULT_MAX_BATCH_POINTS,
            max_line_bytes: 64 << 20,
            deadline_ms: None,
            max_inflight: 0,
            retry_after_ms: 50,
            observe: true,
            stats_every: 0,
            shards: 1,
            shard_workers: 0,
            shard_queue: 64,
        }
    }
}

/// One handled request's outcome.
pub struct Response {
    /// The encoded response bytes (no trailing newline/framing): a JSON
    /// object for NDJSON responses, a binary-v1 frame for binary ones.
    pub body: Vec<u8>,
    /// The wire encoding actually used for `body` (error responses are
    /// always NDJSON, whatever the request negotiated).
    pub encoding: WireEncoding,
    /// True when the request asked the serve loop to stop.
    pub shutdown: bool,
}

impl Response {
    /// The response as text — valid for NDJSON responses (every response
    /// except a binary-encoded batch body).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("NDJSON response is valid UTF-8")
    }
}

/// What [`Server::handle_line_into`] reports alongside the bytes it
/// appended to the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// The wire encoding actually used.
    pub encoding: WireEncoding,
    /// True when the request asked the serve loop to stop.
    pub shutdown: bool,
}

/// A dispatched request, ready for the response envelope: a successful
/// command's body still lacks the `ok` and `id` fields.
struct Replied {
    id: Content,
    outcome: Result<ResponseBody, ServeError>,
    /// The negotiated response encoding.
    encoding: WireEncoding,
    shutdown: bool,
}

/// The serving engine: a sharded model fleet plus counters, driven one
/// request line at a time. `&self` methods only — safe to share across
/// threads.
pub struct Server {
    shards: Vec<Shard>,
    stats: ServerStats,
    config: ServerConfig,
    inflight: AtomicUsize,
    tracer: Tracer,
}

/// Spans the tracer ring holds before overwriting the oldest.
const TRACE_CAPACITY: usize = 1024;

/// RAII decrement of the in-flight counter.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accumulates one request's per-stage wall time.
///
/// Each stage slot keeps the start of its *first* interval plus the total
/// duration across intervals (the serialize stage, for instance, spans
/// both the per-point result encoding and the final response line). When
/// observation is off no clock is ever read. The collected spans are
/// flushed at the end of `handle_line` in canonical pipeline order, so a
/// drained trace always reads parse → lookup → eval → degrade →
/// serialize regardless of how measurement nested.
struct StageClock {
    enabled: bool,
    spans: [Option<(u64, u64)>; 5],
}

impl StageClock {
    fn new(enabled: bool) -> Self {
        StageClock {
            enabled,
            spans: [None; 5],
        }
    }

    /// Runs `f`, charging its wall time to `stage`.
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = now_ns();
        let out = f();
        let dur = now_ns().saturating_sub(start);
        self.charge(stage, start, dur);
        out
    }

    /// Credits an externally measured interval to `stage` (the binary
    /// request frame is decoded by the transport before the engine is
    /// entered, and that decode time belongs to `parse`).
    fn charge(&mut self, stage: Stage, start: u64, dur: u64) {
        if !self.enabled {
            return;
        }
        match &mut self.spans[stage.index()] {
            Some((_, total)) => *total += dur,
            slot => *slot = Some((start, dur)),
        }
    }
}

fn obj(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The error answer `e`: the envelope `fields` then `error`, `code`,
/// plus the `retry_after_ms` backoff hint for shed/unavailable requests
/// and the refusing `shard` for unavailable ones.
fn error_body(mut fields: Vec<(&'static str, Content)>, e: &ServeError) -> ResponseBody {
    fields.push(("error", Content::Str(e.to_string())));
    fields.push(("code", Content::Str(e.code().to_string())));
    match e {
        ServeError::Overloaded { retry_after_ms, .. } => {
            fields.push(("retry_after_ms", Content::U64(*retry_after_ms)));
        }
        ServeError::Unavailable {
            shard,
            retry_after_ms,
            ..
        } => {
            fields.push(("retry_after_ms", Content::U64(*retry_after_ms)));
            fields.push(("shard", Content::U64(*shard)));
        }
        _ => {}
    }
    ResponseBody::Fields(fields)
}

impl Server {
    /// A server with the given registry capacity and default limits.
    pub fn new(capacity: usize) -> Self {
        Server::with_config(ServerConfig {
            capacity,
            ..ServerConfig::default()
        })
    }

    /// A server with explicit operational limits.
    pub fn with_config(config: ServerConfig) -> Self {
        let tracer = Tracer::new(TRACE_CAPACITY);
        tracer.set_enabled(config.observe);
        let stats = ServerStats::new();
        let shard_config = ShardConfig {
            // 5 × capacity models per shard (2 at capacity 0).
            capacity: config
                .capacity
                .max(1)
                .saturating_add(config.capacity.saturating_mul(4).max(1)),
            workers: if config.shard_workers == 0 {
                crate::batch::default_workers()
            } else {
                config.shard_workers
            },
            max_queue: config.shard_queue,
            retry_after_ms: config.retry_after_ms,
            ..ShardConfig::default()
        };
        let shards = (0..config.shards.max(1))
            .map(|i| Shard::new(i, shard_config))
            .collect();
        Server {
            shards,
            stats,
            config,
            inflight: AtomicUsize::new(0),
            tracer,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Every shard, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard that owns `name`.
    pub fn shard_for(&self, name: &str) -> &Shard {
        &self.shards[shard_of(name, self.shards.len())]
    }

    /// Registers a model on the shard that owns its name. Returns the
    /// name of the model the owning shard evicted to make room, if any.
    pub fn insert_model(&self, name: &str, model: CompiledModel) -> Option<String> {
        self.shard_for(name).registry().insert(name, model)
    }

    /// Registry counters summed over every shard.
    pub fn registry_stats(&self) -> RegistryStats {
        let mut agg = RegistryStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            resident: 0,
        };
        for shard in &self.shards {
            let s = shard.registry().stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
            agg.resident += s.resident;
        }
        agg
    }

    /// The server's counters and stage histograms.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The span sink: stage spans land here, drainable as NDJSON.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True once `drain` has been requested: every shard has stopped
    /// admitting evaluation work while in-flight jobs finish. The socket
    /// front end polls this to stop accepting new connections and wind
    /// down the ones it has.
    pub fn draining(&self) -> bool {
        self.shards.iter().all(Shard::is_draining)
    }

    /// Claims an in-flight slot for a heavy request, or sheds it when the
    /// budget (if any) is exhausted. The shed hint is depth-aware: at the
    /// budget boundary it is the configured base, and it scales with how
    /// far past the budget the in-flight count is, so clients back off
    /// harder the deeper the overload.
    fn admit(&self) -> Result<InflightGuard<'_>, ServeError> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if self.config.max_inflight > 0 && prev >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Overloaded {
                inflight: prev as u64,
                max_inflight: self.config.max_inflight as u64,
                retry_after_ms: adaptive_retry_after_ms(
                    self.config.retry_after_ms,
                    prev,
                    self.config.max_inflight,
                ),
            });
        }
        Ok(InflightGuard(&self.inflight))
    }

    /// The request's evaluation deadline: a per-request `deadline_ms`
    /// overrides the configured default. Returns the absolute instant and
    /// the millisecond figure (for error reporting).
    fn deadline_at(&self, request_ms: Option<u64>, t0: Instant) -> Option<(Instant, u64)> {
        let ms = request_ms.or(self.config.deadline_ms)?;
        Some((t0 + Duration::from_millis(ms), ms))
    }

    /// Resolves model `name` and the shard that owns it.
    fn lookup(&self, name: &str) -> Result<(&Shard, Arc<CompiledModel>), ServeError> {
        let shard = self.shard_for(name);
        let model = shard
            .registry()
            .get(name)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: name.to_string(),
            })?;
        Ok((shard, model))
    }

    /// Registers `model` under `name` and describes it: the answer to
    /// `load` and `compile`.
    fn register(&self, name: &str, model: CompiledModel) -> Vec<(&'static str, Content)> {
        let text = |s: &str| Content::Str(s.to_string());
        let symbols = model.symbols().iter().map(&text).collect();
        let shard = shard_of(name, self.shards.len());
        let mut fields = vec![
            ("name", text(name)),
            ("symbols", Content::Seq(symbols)),
            ("order", Content::U64(model.order() as u64)),
            ("op_count", Content::U64(model.op_count() as u64)),
            ("raw_op_count", Content::U64(model.raw_op_count() as u64)),
            ("opt_level", text(model.opt_level().as_str())),
            ("shard", Content::U64(shard as u64)),
        ];
        if let Some(e) = self.insert_model(name, model) {
            fields.push(("evicted", Content::Str(e)));
        }
        fields
    }

    fn cmd_load(&self, req: &Checked<'_>) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let model = artifact::load_model_file(req.str("path"))?;
        Ok(self.register(req.str("name"), model))
    }

    fn cmd_compile(&self, req: &Checked<'_>) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let text = match (req.value("netlist").as_str(), req.value("path").as_str()) {
            (Some(_), Some(_)) => {
                return Err(bad("compile takes 'netlist' text or a 'path', not both"))
            }
            (Some(t), None) => Cow::Borrowed(t),
            (None, Some(path)) => Cow::Owned(artifact::read_text(Path::new(path))?),
            (None, None) => return Err(bad("compile needs 'netlist' text or a 'path'")),
        };
        let circuit =
            awesym_circuit::parse_spice(&text).map_err(|e| bad(format!("netlist: {e}")))?;
        let (input, output) =
            resolve::resolve_io(&circuit, req.str("input"), req.str("output")).map_err(bad)?;
        let symbols = req.value("symbols").as_seq().unwrap_or_default();
        let specs: Vec<&str> = symbols.iter().filter_map(Content::as_str).collect();
        let bindings = resolve::resolve_symbol_specs(&circuit, &specs).map_err(bad)?;
        let order = req.value("order").as_u64().map_or(2, |v| v as usize);
        let model = CompiledModel::build(&circuit, input, output, &bindings, order)?;
        Ok(self.register(req.str("name"), model))
    }

    fn cmd_save(&self, req: &Checked<'_>) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let path = req.str("path");
        let (_, model) = self.lookup(req.str("model"))?;
        artifact::save_artifact(&model, path)?;
        Ok(vec![("path", Content::Str(path.to_string()))])
    }

    fn cmd_eval(
        &self,
        req: &Checked<'_>,
        t0: Instant,
        clock: &mut StageClock,
    ) -> Result<ResponseBody, ServeError> {
        let deadline = self.deadline_at(req.value("deadline_ms").as_u64(), t0);
        let kind = req.output()?;
        let (shard, model) = clock.time(Stage::Lookup, || self.lookup(req.str("model")))?;
        let values: Vec<f64> = numbers(req.value("values")).collect();
        // NaN/Inf symbol values would propagate through every moment; reject
        // them at the door with a clear message instead.
        check_finite(values.iter().copied(), "'values'")?;
        if let BatchOutput::Step { times } = &kind {
            check_finite(times.iter().copied(), "'times'")?;
        }
        let results = clock.time(Stage::Eval, || {
            shard.evaluate_columns(
                model,
                Arc::new(PointColumns::from_point(values)),
                kind,
                deadline.map(|(at, _)| at),
                Some(1),
            )
        })?;
        clock.time(Stage::Degrade, || self.record_outcome(&results));
        match results.error(0) {
            None => Ok(ResponseBody::Point {
                head: Vec::new(),
                result: results,
            }),
            Some(_) if results.deadline_exceeded => Err(ServeError::DeadlineExceeded {
                deadline_ms: deadline.map_or(0, |(_, ms)| ms),
            }),
            Some(e) => Err(ServeError::Point(e.clone())),
        }
    }

    /// Folds a batch's health counters into the server stats.
    fn record_outcome(&self, results: &BatchResults) {
        if results.panics_caught > 0 {
            self.stats.record_panics_caught(results.panics_caught);
        }
        if results.degraded_points > 0 {
            self.stats.record_degradations(results.degraded_points);
        }
        if results.deadline_exceeded {
            self.stats.record_deadline_exceeded();
        }
    }

    /// Answers a batch request, from a JSON `batch` line or an `AWSQ`
    /// frame alike: the model lookup, the points copied into columns
    /// within `max_batch_points` (charged to `parse`), then evaluation on
    /// the owning shard's pool into columnar results and the response
    /// head.
    fn answer_batch(
        &self,
        req: BatchRequest<'_>,
        encoding: WireEncoding,
        t0: Instant,
        clock: &mut StageClock,
    ) -> Result<BatchBody, ServeError> {
        let deadline = self.deadline_at(req.deadline_ms, t0);
        let (shard, model) = clock.time(Stage::Lookup, || self.lookup(req.model))?;
        let (syms, limit) = (model.symbols().len(), self.config.max_batch_points);
        let points = clock.time(Stage::Parse, || req.points.columns(syms, limit))?;
        if let BatchOutput::Step { times } = &req.output {
            check_finite(times.iter().copied(), "'times'")?;
        }
        // The binary frame carries a fixed number of f64 columns per
        // point, so the variable-width kind has no binary form.
        if req.output == BatchOutput::Rom && encoding == WireEncoding::BinaryV1 {
            return Err(bad("kind 'rom' has no fixed-width binary layout; \
                 use \"encoding\":\"ndjson\""));
        }
        let n_points = points.len();
        let start = Instant::now();
        let results = clock.time(Stage::Eval, || {
            shard.evaluate_columns(
                model,
                Arc::new(points),
                req.output,
                deadline.map(|(at, _)| at),
                req.workers.map(|w| w.max(1)),
            )
        })?;
        let elapsed = start.elapsed();
        let ok_count = clock.time(Stage::Degrade, || {
            self.stats.record_batch(n_points, elapsed);
            self.record_outcome(&results);
            results.ok_count()
        });
        let secs = elapsed.as_secs_f64();
        let mut head = vec![
            ("count", Content::U64(n_points as u64)),
            ("ok_count", Content::U64(ok_count as u64)),
            ("elapsed_secs", Content::F64(secs)),
            (
                "points_per_sec",
                Content::F64(if secs > 0.0 {
                    n_points as f64 / secs
                } else {
                    0.0
                }),
            ),
        ];
        if results.deadline_exceeded {
            head.push(("deadline_exceeded", Content::Bool(true)));
        }
        Ok(BatchBody {
            head,
            ok_count: ok_count as u64,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            deadline,
            results,
        })
    }

    fn cmd_stats(&self) -> Vec<(&'static str, Content)> {
        let mut models: Vec<String> = Vec::new();
        let mut shards: Vec<Content> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            models.extend(shard.registry().names());
            shards.push(obj(vec![
                ("health", shard.health().to_content()),
                ("registry", shard.registry().stats().to_content()),
            ]));
        }
        models.sort();
        vec![
            ("server", self.stats.snapshot().to_content()),
            ("registry", self.registry_stats().to_content()),
            (
                "models",
                Content::Seq(models.into_iter().map(Content::Str).collect()),
            ),
            ("shards", Content::Seq(shards)),
        ]
    }

    /// Readiness probe: per-shard breaker phase, chunk-crash count, and
    /// queue depth. `ready` is the AND over shards (breaker closed, not
    /// draining) — a load balancer should stop routing when it goes
    /// false.
    fn cmd_health(&self) -> Vec<(&'static str, Content)> {
        let shards = self.shards.iter().map(|s| s.health().to_content());
        vec![
            (
                "ready",
                Content::Bool(self.shards.iter().all(Shard::is_ready)),
            ),
            ("shards", Content::Seq(shards.collect())),
        ]
    }

    /// Graceful-shutdown entry: every shard stops admitting evaluation
    /// work (new eval/batch requests get `unavailable`) while in-flight
    /// jobs finish. `pending` reports jobs still queued or running; poll
    /// until it reaches zero, then send `shutdown`.
    fn cmd_drain(&self) -> Vec<(&'static str, Content)> {
        let mut pending = 0u64;
        for shard in &self.shards {
            shard.drain();
            pending += shard.queue_depth() as u64;
        }
        vec![
            ("draining", Content::Bool(true)),
            ("pending", Content::U64(pending)),
        ]
    }

    /// Handles one request line into a fresh buffer. Prefer
    /// [`Server::handle_line_into`] on hot paths — it reuses the
    /// caller's buffer across requests.
    pub fn handle_line(&self, line: &str) -> Option<Response> {
        let mut body = Vec::new();
        let meta = self.handle_line_into(line, &mut body)?;
        Some(Response {
            body,
            encoding: meta.encoding,
            shutdown: meta.shutdown,
        })
    }

    /// Handles one request line, appending the encoded response to `out`
    /// (a reusable buffer the caller clears between requests). Blank
    /// lines are ignored (`None`).
    ///
    /// Every response goes through [`crate::encode::encode_response`] at
    /// the negotiated encoding; encode
    /// time is charged to the `serialize` stage and counts against the
    /// request deadline — a deadline that trips mid-encode discards the
    /// partial body and reports a typed `deadline_exceeded` error
    /// instead. Error responses are always NDJSON.
    pub fn handle_line_into(&self, line: &str, out: &mut Vec<u8>) -> Option<ResponseMeta> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let (t0, mut clock) = self.start(None);
        // Size guard before the parser ever sees the bytes.
        let req = clock.time(Stage::Parse, || {
            if line.len() > self.config.max_line_bytes {
                Err(self.line_too_long(line.len()))
            } else {
                serde_json::from_str::<Content>(line).map_err(|e| ServeError::BadRequest {
                    what: format!("request is not JSON: {e}"),
                })
            }
        });
        Some(self.finish_request(req, WireEncoding::Ndjson, t0, clock, out))
    }

    /// The answer to a request line of `len` bytes, past
    /// [`ServerConfig::max_line_bytes`].
    fn line_too_long(&self, len: usize) -> ServeError {
        ServeError::BadRequest {
            what: format!(
                "request line is {len} bytes, limit is {}",
                self.config.max_line_bytes
            ),
        }
    }

    /// As [`Server::handle_line_into`], for a line read as raw bytes (by
    /// the stdin loop and the socket sessions): a line that is not UTF-8
    /// is answered with a typed `bad_request`, and the transport keeps
    /// serving.
    pub fn handle_bytes_into(&self, line: &[u8], out: &mut Vec<u8>) -> Option<ResponseMeta> {
        match std::str::from_utf8(line) {
            Ok(text) => self.handle_line_into(text, out),
            Err(_) => {
                let err = ServeError::BadRequest {
                    what: "request line is not valid UTF-8".to_string(),
                };
                Some(self.handle_decoded_into(Err(err), WireEncoding::Ndjson, None, out))
            }
        }
    }

    /// Handles a request that was already decoded into a [`Content`]
    /// tree — the reference path for binary-v1 *request* frames
    /// (`awesym_net::decode_request` builds the tree the equivalent JSON
    /// line parses to), and how the transport answers a message it could
    /// not decode at all.
    ///
    /// `decode` is the externally measured `(start_ns, dur_ns)` of that
    /// decode; it is credited to the `parse` stage so the per-stage
    /// breakdown stays comparable across request encodings, and
    /// `req_encoding` labels the per-encoding parse split. A decode
    /// failure is passed in as `Err` and answered with the same typed
    /// NDJSON error envelope a bad JSON line gets. Everything
    /// downstream — routing, evaluation, envelope field order, encoding
    /// negotiation — is byte-identical to
    /// [`Server::handle_line_into`] on the equivalent JSON line.
    pub fn handle_decoded_into(
        &self,
        req: Result<Content, ServeError>,
        req_encoding: WireEncoding,
        decode: Option<(u64, u64)>,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let (t0, clock) = self.start(decode);
        self.finish_request(req, req_encoding, t0, clock, out)
    }

    /// Handles a typed binary-v1 request frame — the socket path for
    /// `AWSQ` frames, which never builds a JSON tree: the payload goes
    /// from the receive buffer into the request columns, through the
    /// lane kernel into the result columns, and out as an `AWSB` frame.
    ///
    /// `decode` is the transport's measured frame decode, charged to
    /// `parse` (as is the payload copy). A decode failure is passed in
    /// as `Err` and answered with the typed NDJSON error envelope. The
    /// request is answered by the function that answers a JSON `batch`
    /// line, so for every frame `awesym_net::decode_request` accepts, the
    /// response bytes equal [`Server::handle_decoded_into`] on its tree,
    /// timing fields aside.
    pub fn handle_frame_into(
        &self,
        mut req: Result<BatchRequest<'_>, ServeError>,
        decode: Option<(u64, u64)>,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let (t0, mut clock) = self.start(decode);
        let id = req.as_mut().ok().and_then(|r| r.id.take());
        let outcome = req.and_then(|req| {
            let _slot = self.admit()?;
            self.answer_batch(req, WireEncoding::BinaryV1, t0, &mut clock)
        });
        let reply = Replied {
            id: id.unwrap_or(Content::Null),
            outcome: outcome.map(ResponseBody::Batch),
            encoding: WireEncoding::BinaryV1,
            shutdown: false,
        };
        self.respond(reply, WireEncoding::BinaryV1, t0, clock, out)
    }

    /// A request's start: its clock, with the transport's externally
    /// measured decode, if any, charged to `parse`.
    fn start(&self, decode: Option<(u64, u64)>) -> (Instant, StageClock) {
        let mut clock = StageClock::new(self.config.observe);
        if let Some((start, dur)) = decode {
            clock.charge(Stage::Parse, start, dur);
        }
        (Instant::now(), clock)
    }

    /// Checks an already-parsed request against the schema (charged to
    /// `parse`), dispatches it, then [`Server::respond`]s.
    /// `req_encoding` is the encoding the *request* arrived in (used
    /// only to label the parse-stage split).
    fn finish_request(
        &self,
        req: Result<Content, ServeError>,
        req_encoding: WireEncoding,
        t0: Instant,
        mut clock: StageClock,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let id = req.as_ref().ok().and_then(|r| r.get("id")).cloned();
        let mut shutdown = false;
        let mut encoding = WireEncoding::Ndjson;
        let outcome = req.and_then(|req| {
            let req = clock.time(Stage::Parse, || request::check(&req))?;
            let (name, cmd, ..) = *req.command;
            if req.value("encoding").as_str() == Some(WireEncoding::BinaryV1.as_str()) {
                if cmd != Cmd::Batch {
                    let only = "encoding 'binary-v1' only applies to cmd 'batch'";
                    return Err(bad(format!("{only} (got '{name}')")));
                }
                encoding = WireEncoding::BinaryV1;
            }
            match cmd {
                // Heavy commands claim an in-flight slot (shedding when
                // the budget is exhausted); cheap ones always answer.
                Cmd::Load => self.cmd_load(&req).map(ResponseBody::Fields),
                Cmd::Compile => {
                    let _slot = self.admit()?;
                    self.cmd_compile(&req).map(ResponseBody::Fields)
                }
                Cmd::Save => self.cmd_save(&req).map(ResponseBody::Fields),
                Cmd::Eval => {
                    let _slot = self.admit()?;
                    self.cmd_eval(&req, t0, &mut clock)
                }
                Cmd::Batch => {
                    let batch = req.batch()?;
                    let _slot = self.admit()?;
                    self.answer_batch(batch, encoding, t0, &mut clock)
                        .map(ResponseBody::Batch)
                }
                Cmd::Stats => Ok(ResponseBody::Fields(self.cmd_stats())),
                Cmd::Health => Ok(ResponseBody::Fields(self.cmd_health())),
                Cmd::Drain => Ok(ResponseBody::Fields(self.cmd_drain())),
                Cmd::Shutdown => {
                    shutdown = true;
                    Ok(ResponseBody::Fields(vec![(
                        "shutdown",
                        Content::Bool(true),
                    )]))
                }
            }
        });
        let reply = Replied {
            id: id.unwrap_or(Content::Null),
            outcome,
            encoding,
            shutdown,
        };
        self.respond(reply, req_encoding, t0, clock, out)
    }

    /// The shared back half of request handling: envelope, encode, and
    /// accounting for a dispatched request.
    fn respond(
        &self,
        reply: Replied,
        req_encoding: WireEncoding,
        t0: Instant,
        mut clock: StageClock,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let envelope = |ok: bool| {
            let mut fields = vec![("ok", Content::Bool(ok))];
            if !reply.id.is_null() {
                fields.push(("id", reply.id.clone()));
            }
            fields
        };
        let mut ok = reply.outcome.is_ok();
        let body = match reply.outcome {
            Ok(ResponseBody::Fields(extra)) => {
                let mut fields = envelope(true);
                fields.extend(extra);
                ResponseBody::Fields(fields)
            }
            Ok(ResponseBody::Point { result, .. }) => ResponseBody::Point {
                head: envelope(true),
                result,
            },
            Ok(ResponseBody::Batch(mut b)) => {
                let mut head = envelope(true);
                head.append(&mut b.head);
                b.head = head;
                ResponseBody::Batch(b)
            }
            Err(e) => {
                // Every `overloaded` answer is counted here, whether the
                // server's in-flight budget or a shard's queue shed it.
                if matches!(e, ServeError::Overloaded { .. }) {
                    self.stats.record_request_shed();
                }
                error_body(envelope(false), &e)
            }
        };
        // Only batch bodies have a binary form; everything else is an
        // NDJSON object whatever was negotiated.
        let mut encoding = match body {
            ResponseBody::Batch(_) => reply.encoding,
            _ => WireEncoding::Ndjson,
        };
        let start_len = out.len();
        let encoded = clock.time(Stage::Serialize, || encode_response(encoding, &body, out));
        if let Err(e) = encoded {
            // The deadline tripped mid-encode: discard the partial body
            // and answer with the typed error (NDJSON) instead.
            out.truncate(start_len);
            ok = false;
            encoding = WireEncoding::Ndjson;
            if matches!(e, ServeError::DeadlineExceeded { .. }) {
                self.stats.record_deadline_exceeded();
            }
            let body = error_body(envelope(false), &e);
            clock.time(Stage::Serialize, || {
                // A field list encodes infallibly (no deadline).
                let _ = encode_response(WireEncoding::Ndjson, &body, out);
            });
        }
        self.stats.record_request(t0.elapsed(), ok);
        // Flush the collected stage times in canonical pipeline order, so
        // a drained trace always reads parse → lookup → eval → degrade →
        // serialize (requests skip stages they never reached).
        for stage in STAGES {
            if let Some((start, dur)) = clock.spans[stage.index()] {
                self.stats.record_stage(stage, dur);
                self.tracer.record(stage.as_str(), start, dur);
            }
        }
        if let Some((_, dur)) = clock.spans[Stage::Serialize.index()] {
            self.stats.record_serialize_encoding(encoding, dur);
        }
        if let Some((_, dur)) = clock.spans[Stage::Parse.index()] {
            self.stats.record_parse_encoding(req_encoding, dur);
        }
        ResponseMeta {
            encoding,
            shutdown: reply.shutdown,
        }
    }

    /// Appends one NDJSON stats line to `out`: the server snapshot (with
    /// per-stage breakdown), registry counters, and how many trace spans
    /// the ring has overwritten.
    pub fn stats_line_into(&self, out: &mut Vec<u8>) {
        let line = obj(vec![
            ("stats", Content::Bool(true)),
            ("server", self.stats.snapshot().to_content()),
            ("registry", self.registry_stats().to_content()),
            ("spans_dropped", Content::U64(self.tracer.dropped())),
        ]);
        serde_json::write_value(&line, out);
    }

    /// Runs the NDJSON loop until EOF or a `shutdown` request.
    ///
    /// # Errors
    ///
    /// Propagates transport read/write failures.
    pub fn serve<R: BufRead, W: Write>(&self, reader: R, writer: W) -> std::io::Result<()> {
        self.serve_with_stats(reader, writer, std::io::sink())
    }

    /// As [`Server::serve`], but additionally writes one NDJSON stats
    /// line (see [`Server::stats_line_into`]) to `stats_out` every
    /// [`ServerConfig::stats_every`] handled requests. The stats stream
    /// is separate from the response stream so programmatic clients
    /// reading responses never see an unsolicited line — `awesym serve
    /// --stats-every N` routes it to stderr.
    ///
    /// # Errors
    ///
    /// Propagates transport read/write failures on the request/response
    /// streams only. A stats-sink write failure never stops the loop:
    /// the line is dropped and counted in the `stats_dropped` counter.
    pub fn serve_with_stats<R: BufRead, W: Write, S: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        mut stats_out: S,
    ) -> std::io::Result<()> {
        let every = self.config.stats_every;
        let mut handled: u64 = 0;
        // One request and one response buffer per connection, reused
        // across requests. Lines are read as bytes, so one that is not
        // UTF-8 gets a typed answer instead of ending the loop.
        let mut line: Vec<u8> = Vec::new();
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        // One byte past the limit shows a line is over it.
        let cap = self.config.max_line_bytes.saturating_add(1);
        loop {
            // Time blocked on the transport separately from decode: the
            // read below includes client think time, which must not be
            // charged to the parse stage (see `StatsSnapshot::wait`).
            let wait0 = self.config.observe.then(now_ns);
            let Some(len) = read_line_capped(&mut reader, &mut line, cap)? else {
                break;
            };
            if let Some(w0) = wait0 {
                self.stats.record_wait(now_ns().saturating_sub(w0));
            }
            buf.clear();
            let meta = if len > line.len() {
                // Only a prefix was kept: answer the line's length.
                let err = self.line_too_long(len);
                Some(self.handle_decoded_into(Err(err), WireEncoding::Ndjson, None, &mut buf))
            } else {
                self.handle_bytes_into(&line, &mut buf)
            };
            if let Some(meta) = meta {
                writer.write_all(&buf)?;
                // NDJSON responses are newline-framed; binary frames are
                // self-delimiting (explicit lengths in the header).
                if meta.encoding == WireEncoding::Ndjson {
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                handled += 1;
                if every > 0 && handled.is_multiple_of(every) {
                    buf.clear();
                    self.stats_line_into(&mut buf);
                    buf.push(b'\n');
                    // Stats are advisory: a slow or dead sink must never
                    // stall or kill the serve loop, so a failed write
                    // drops the line and counts the drop instead of
                    // propagating.
                    if stats_out
                        .write_all(&buf)
                        .and_then(|()| stats_out.flush())
                        .is_err()
                    {
                        self.stats.record_stats_dropped();
                    }
                }
                if meta.shutdown {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// Reads the next line into `line`, keeping at most `cap` bytes of it;
/// the rest, up to and including its newline, is read and dropped, so a
/// line of any length holds at most `cap` bytes of memory. Returns `None`
/// at the end of input, else the line's full length in bytes, its
/// newline excluded.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Option<usize>> {
    line.clear();
    let mut len = reader.by_ref().take(cap as u64).read_until(b'\n', line)?;
    if len == 0 {
        return Ok(None);
    }
    if line.ends_with(b"\n") {
        return Ok(Some(len - 1));
    }
    loop {
        let rest = match reader.fill_buf() {
            Ok(rest) => rest,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = rest.iter().position(|&b| b == b'\n');
        let n = newline.unwrap_or(rest.len());
        let end = newline.is_some() || rest.is_empty();
        reader.consume(n + usize::from(newline.is_some()));
        len += n;
        if end {
            return Ok(Some(len));
        }
    }
}

impl Default for Server {
    fn default() -> Self {
        Server::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

    fn compile_req(name: &str) -> String {
        let req = obj(vec![
            ("cmd", Content::Str("compile".into())),
            ("name", Content::Str(name.into())),
            ("netlist", Content::Str(NETLIST.into())),
            ("input", Content::Str("vin".into())),
            ("output", Content::Str("2".into())),
            (
                "symbols",
                Content::Seq(vec![Content::Str("C1".into()), Content::Str("R2:r".into())]),
            ),
            ("order", Content::U64(2)),
        ]);
        serde_json::to_string(&req).unwrap()
    }

    fn parse(resp: &Response) -> Content {
        serde_json::from_str(resp.text()).unwrap()
    }

    fn ok_of(c: &Content) -> bool {
        c.get("ok").and_then(Content::as_bool).unwrap()
    }

    #[test]
    fn stats_report_lane_plan_builds() {
        let s = Server::default();
        assert!(ok_of(&parse(&s.handle_line(&compile_req("m")).unwrap())));
        // 64 points: two full lane blocks.
        let points: Vec<String> = (0..64).map(|i| format!("[{}e-9,1e3]", 1 + i % 3)).collect();
        let line = format!(
            r#"{{"cmd":"batch","model":"m","points":[{}],"kind":"moments"}}"#,
            points.join(",")
        );
        assert!(ok_of(&parse(&s.handle_line(&line).unwrap())));
        let builds = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap())
            .get("server")
            .and_then(|v| v.get("lane_plan_builds_total"))
            .and_then(Content::as_u64)
            .unwrap();
        // The counter is process-global and other tests here build plans
        // too; the `lane_plan_builds` test binary checks the exact count.
        assert!(builds >= 1);
    }

    #[test]
    fn compile_eval_batch_stats_shutdown_flow() {
        let s = Server::default();
        let r = s.handle_line(&compile_req("m")).unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        assert!(c.get("op_count").and_then(Content::as_u64).unwrap() > 0);

        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1000.0],"kind":"dc_gain"}"#)
            .unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        let dc = c
            .get("result")
            .and_then(|v| v.get("dc_gain"))
            .and_then(Content::as_f64)
            .unwrap();
        assert!((dc - 1.0).abs() < 1e-9);

        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3],[1e-9]],"kind":"moments","workers":2}"#,
            )
            .unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        assert_eq!(c.get("count").and_then(Content::as_u64), Some(3));
        assert_eq!(c.get("ok_count").and_then(Content::as_u64), Some(2));
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        assert!(results[2].get("error").is_some());
        assert_eq!(
            results[2].get("code").and_then(Content::as_str),
            Some("bad_request")
        );

        let r = s.handle_line(r#"{"cmd":"stats"}"#).unwrap();
        let c = parse(&r);
        assert!(ok_of(&c));
        let server = c.get("server").unwrap();
        assert!(server.get("requests").and_then(Content::as_u64).unwrap() >= 3);
        assert_eq!(
            server.get("batch_points").and_then(Content::as_u64),
            Some(3)
        );
        let registry = c.get("registry").unwrap();
        assert!(registry.get("hits").and_then(Content::as_u64).unwrap() >= 2);

        let r = s.handle_line(r#"{"cmd":"shutdown"}"#).unwrap();
        assert!(r.shutdown);
        assert!(ok_of(&parse(&r)));
    }

    #[test]
    fn errors_are_structured_and_nonfatal() {
        let s = Server::default();
        for bad in [
            "not json at all",
            r#"{"nocmd":1}"#,
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#,
            r#"{"cmd":"eval","model":"ghost"}"#,
            r#"{"cmd":"load","name":"x","path":"/nonexistent/a.awesym"}"#,
        ] {
            let r = s.handle_line(bad).unwrap();
            let c = parse(&r);
            assert!(!ok_of(&c), "{bad} -> {}", r.text());
            assert!(!r.shutdown);
            assert!(c.get("error").and_then(Content::as_str).is_some());
            // Every failure carries a stable machine-readable code.
            assert!(c.get("code").and_then(Content::as_str).is_some(), "{bad}");
        }
        // Still serving after all those failures.
        let r = s.handle_line(&compile_req("m")).unwrap();
        assert!(ok_of(&parse(&r)));
        assert!(s.handle_line("   ").is_none());
    }

    fn code_of(c: &Content) -> Option<&str> {
        c.get("code").and_then(Content::as_str)
    }

    #[test]
    fn error_codes_identify_failure_classes() {
        let s = Server::default();
        let r = s.handle_line(r#"{"cmd":"nope"}"#).unwrap();
        assert_eq!(code_of(&parse(&r)), Some("bad_request"));
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#)
            .unwrap();
        assert_eq!(code_of(&parse(&r)), Some("not_found"));
    }

    #[test]
    fn non_finite_symbol_values_are_rejected() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // JSON has no NaN literal, but `null` deserializes to one through
        // the lenient f64 path — so guard the typed path directly too.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,null]}"#)
            .unwrap();
        let c = parse(&r);
        assert!(!ok_of(&c), "{}", r.text());
        assert_eq!(code_of(&c), Some("bad_request"));
        let err = check_finite([1.0, f64::NAN], "'values'").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn oversized_lines_and_batches_are_rejected() {
        let s = Server::with_config(ServerConfig {
            max_line_bytes: 4096,
            max_batch_points: 2,
            ..ServerConfig::default()
        });
        let long = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(8192));
        let c = parse(&s.handle_line(&long).unwrap());
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("bad_request"));
        s.handle_line(&compile_req("m")).unwrap();
        let c = parse(
            &s.handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3],[1e-9,1e3]]}"#,
            )
            .unwrap(),
        );
        assert!(!ok_of(&c));
        assert!(c
            .get("error")
            .and_then(Content::as_str)
            .unwrap()
            .contains("limit is 2"));
        // At the limit still works.
        let c = parse(
            &s.handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3]]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_serving_continues() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // deadline_ms of 0 expires immediately: eval reports the typed
        // code, batch answers with per-point deadline errors and a flag.
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"deadline_ms":0}"#)
                .unwrap(),
        );
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("deadline_exceeded"));
        let c = parse(
            &s.handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]],"deadline_ms":0}"#,
            )
            .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        assert_eq!(
            c.get("deadline_exceeded").and_then(Content::as_bool),
            Some(true)
        );
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        assert!(results
            .iter()
            .all(|r| r.get("code").and_then(Content::as_str) == Some("deadline_exceeded")));
        // The next request is unaffected.
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        let server_stats = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        let deadlines = server_stats
            .get("server")
            .and_then(|v| v.get("deadlines_exceeded"))
            .and_then(Content::as_u64)
            .unwrap();
        assert_eq!(deadlines, 2);
    }

    #[test]
    fn inflight_budget_sheds_with_retry_hint() {
        let s = Server::with_config(ServerConfig {
            max_inflight: 1,
            retry_after_ms: 77,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let held = s.admit().unwrap();
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("overloaded"));
        assert_eq!(c.get("retry_after_ms").and_then(Content::as_u64), Some(77));
        // Cheap commands still answer while the budget is exhausted.
        assert!(ok_of(&parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap())));
        drop(held);
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        let snap = s.stats.snapshot();
        assert_eq!(snap.requests_shed, 1);
    }

    #[test]
    fn shard_queue_shed_counts_as_a_shed_request() {
        let s = Server::with_config(ServerConfig {
            shard_queue: 1,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let eval = r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#;
        let c = s.shards[0].with_queue_slot_held(|| parse(&s.handle_line(eval).unwrap()));
        assert_eq!(code_of(&c), Some("overloaded"), "{c:?}");
        assert!(ok_of(&parse(&s.handle_line(eval).unwrap())));
        assert_eq!(s.stats.snapshot().requests_shed, 1);
    }

    #[test]
    fn overload_hint_scales_with_queue_depth() {
        let s = Server::with_config(ServerConfig {
            max_inflight: 2,
            retry_after_ms: 50,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let hint_at_depth = |depth: usize| {
            // Simulate `depth` requests already in flight, then watch the
            // next admit shed.
            s.inflight.store(depth, Ordering::SeqCst);
            let c = parse(
                &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                    .unwrap(),
            );
            assert_eq!(code_of(&c), Some("overloaded"), "{c:?}");
            c.get("retry_after_ms").and_then(Content::as_u64).unwrap()
        };
        // At the budget boundary the hint is the configured base; deeper
        // queues produce strictly longer hints.
        assert_eq!(hint_at_depth(2), 50);
        assert_eq!(hint_at_depth(4), 100);
        assert_eq!(hint_at_depth(10), 250);
        s.inflight.store(0, Ordering::SeqCst);
    }

    /// A sink whose writes always fail.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink is broken"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("sink is broken"))
        }
    }

    #[test]
    fn failing_stats_sink_never_stalls_the_serve_loop() {
        let s = Server::with_config(ServerConfig {
            stats_every: 1,
            ..ServerConfig::default()
        });
        let mut input = compile_req("m");
        input.push('\n');
        for _ in 0..3 {
            input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#);
            input.push('\n');
        }
        let mut out = Vec::new();
        s.serve_with_stats(input.as_bytes(), &mut out, BrokenSink)
            .unwrap();
        // Every request answered despite 4 failed stats writes.
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        for l in text.lines() {
            assert!(ok_of(&serde_json::from_str(l).unwrap()), "{l}");
        }
        let snap = s.stats.snapshot();
        assert_eq!(snap.stats_dropped, 4);
        // And the drop counter is visible on the stats command.
        let c = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        assert_eq!(
            c.get("server")
                .and_then(|v| v.get("stats_dropped"))
                .and_then(Content::as_u64),
            Some(4)
        );
    }

    #[test]
    fn sharded_server_routes_by_name_and_reports_health() {
        let s = Server::with_config(ServerConfig {
            shards: 4,
            shard_workers: 1,
            ..ServerConfig::default()
        });
        // Place models on their owning shards and evaluate each.
        for name in ["alpha", "beta", "gamma", "delta"] {
            let c = parse(&s.handle_line(&compile_req(name)).unwrap());
            assert!(ok_of(&c));
            let shard = c.get("shard").and_then(Content::as_u64).unwrap();
            assert_eq!(
                shard as usize,
                crate::shard_of(name, 4),
                "{name} placed on its hash shard"
            );
            let req =
                format!(r#"{{"cmd":"batch","model":"{name}","points":[[1e-9,1e3],[2e-9,2e3]]}}"#);
            let c = parse(&s.handle_line(&req).unwrap());
            assert!(ok_of(&c), "{c:?}");
            assert_eq!(c.get("ok_count").and_then(Content::as_u64), Some(2));
        }
        // Health: all shards ready, nothing crashed.
        let c = parse(&s.handle_line(r#"{"cmd":"health"}"#).unwrap());
        assert!(ok_of(&c));
        assert_eq!(c.get("ready").and_then(Content::as_bool), Some(true));
        let shards = c.get("shards").and_then(Content::as_seq).unwrap();
        assert_eq!(shards.len(), 4);
        for (i, sh) in shards.iter().enumerate() {
            assert_eq!(sh.get("shard").and_then(Content::as_u64), Some(i as u64));
            assert_eq!(sh.get("breaker").and_then(Content::as_str), Some("closed"));
            assert_eq!(sh.get("workers").and_then(Content::as_u64), Some(1));
            assert_eq!(sh.get("chunk_crashes").and_then(Content::as_u64), Some(0));
            let Content::Map(fields) = sh else {
                panic!("health row is an object: {sh:?}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "shard",
                    "breaker",
                    "workers",
                    "chunk_crashes",
                    "breaker_opened",
                    "pool_handoffs",
                    "queue_depth",
                    "draining",
                    "models"
                ]
            );
        }
        // Stats carry the per-shard section.
        let c = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        let models = c.get("models").and_then(Content::as_seq).unwrap();
        assert_eq!(models.len(), 4);
        assert_eq!(
            c.get("shards").and_then(Content::as_seq).map(<[_]>::len),
            Some(4)
        );
        // Drain: evaluation refused with a typed unavailable, cheap
        // commands still answered, shutdown still works.
        let c = parse(&s.handle_line(r#"{"cmd":"drain"}"#).unwrap());
        assert!(ok_of(&c));
        assert_eq!(c.get("draining").and_then(Content::as_bool), Some(true));
        assert_eq!(c.get("pending").and_then(Content::as_u64), Some(0));
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"alpha","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert_eq!(code_of(&c), Some("unavailable"), "{c:?}");
        assert!(c.get("retry_after_ms").and_then(Content::as_u64).is_some());
        assert_eq!(
            c.get("shard").and_then(Content::as_u64),
            Some(crate::shard_of("alpha", 4) as u64)
        );
        let c = parse(&s.handle_line(r#"{"cmd":"health"}"#).unwrap());
        assert_eq!(c.get("ready").and_then(Content::as_bool), Some(false));
        assert!(ok_of(&parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap())));
    }

    #[test]
    fn single_shard_registry_accessor_stays_compatible() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // The default single shard holds every model.
        assert!(s.shard_for("m").registry().get("m").is_some());
        assert_eq!(s.registry_stats().resident, 1);
    }

    #[test]
    fn id_field_is_echoed() {
        let s = Server::default();
        let r = s.handle_line(r#"{"cmd":"stats","id":42}"#).unwrap();
        let c = parse(&r);
        assert_eq!(c.get("id").and_then(Content::as_u64), Some(42));
        let r = s.handle_line(r#"{"cmd":"nope","id":"abc"}"#).unwrap();
        let c = parse(&r);
        assert_eq!(c.get("id").and_then(Content::as_str), Some("abc"));
    }

    #[test]
    fn batch_request_emits_stage_spans_in_canonical_order() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        s.tracer().drain(); // discard the compile request's spans
        let r = s
            .handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        let spans = s.tracer().drain();
        let names: Vec<&str> = spans.iter().map(|rec| rec.name).collect();
        assert_eq!(
            names,
            ["parse", "lookup", "eval", "degrade", "serialize"],
            "one span per stage, pipeline order"
        );
        // Starts are monotone in pipeline order and durations are sane.
        for pair in spans.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns, "{names:?}");
        }
        assert!(spans.iter().all(|rec| rec.dur_ns > 0 || rec.name != "eval"));
        // The same stages landed in the histograms (the compile request
        // contributed one extra parse and serialize observation).
        let snap = s.stats.snapshot();
        let counts: Vec<u64> = snap.stages.iter().map(|st| st.count).collect();
        assert_eq!(counts, [2, 1, 1, 1, 2], "{:?}", snap.stages);
    }

    #[test]
    fn failed_lookup_skips_downstream_stages() {
        let s = Server::default();
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#)
            .unwrap();
        assert!(!ok_of(&parse(&r)));
        let names: Vec<&str> = s.tracer().drain().iter().map(|rec| rec.name).collect();
        assert_eq!(names, ["parse", "lookup", "serialize"]);
        let snap = s.stats.snapshot();
        assert_eq!(snap.stages[2].count, 0, "eval never ran");
        assert_eq!(snap.stages[3].count, 0, "degrade never ran");
    }

    #[test]
    fn observe_off_records_no_stages_or_spans() {
        let s = Server::with_config(ServerConfig {
            observe: false,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let r = s
            .handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]]}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        assert!(s.tracer().drain().is_empty());
        let snap = s.stats.snapshot();
        assert!(snap.stages.iter().all(|st| st.count == 0), "{snap:?}");
        // Plain request accounting still works.
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.batch_points, 1);
    }

    #[test]
    fn stats_every_emits_periodic_ndjson_lines() {
        let s = Server::with_config(ServerConfig {
            stats_every: 2,
            ..ServerConfig::default()
        });
        let mut input = compile_req("m");
        input.push('\n');
        for _ in 0..3 {
            input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]}"#);
            input.push('\n');
        }
        let (mut out, mut stats) = (Vec::new(), Vec::new());
        s.serve_with_stats(input.as_bytes(), &mut out, &mut stats)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
        let stats = String::from_utf8(stats).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 2, "4 requests / every-2 = 2 lines\n{stats}");
        for l in &lines {
            let c: Content = serde_json::from_str(l).unwrap();
            assert_eq!(c.get("stats").and_then(Content::as_bool), Some(true));
            let server = c.get("server").unwrap();
            let stages = server.get("stages").and_then(Content::as_seq).unwrap();
            assert_eq!(stages.len(), 5, "{l}");
            assert!(c.get("registry").is_some());
        }
        // The last line reflects all three batch requests' eval stages.
        let last: Content = serde_json::from_str(lines[1]).unwrap();
        let stages = last
            .get("server")
            .and_then(|s| s.get("stages"))
            .and_then(Content::as_seq)
            .unwrap();
        let eval = stages
            .iter()
            .find(|st| st.get("stage").and_then(Content::as_str) == Some("eval"))
            .unwrap();
        assert_eq!(eval.get("count").and_then(Content::as_u64), Some(3));
        assert!(eval.get("total_ns").and_then(Content::as_u64).unwrap() > 0);
    }

    #[test]
    fn serve_loop_over_buffers() {
        let s = Server::default();
        let mut input = compile_req("m");
        input.push('\n');
        input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1000.0]}"#);
        input.push('\n');
        input.push_str(r#"{"cmd":"shutdown"}"#);
        input.push('\n');
        // Lines after shutdown must not be processed.
        input.push_str(r#"{"cmd":"stats"}"#);
        input.push('\n');
        let mut out = Vec::new();
        s.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for l in &lines {
            let c: Content = serde_json::from_str(l).unwrap();
            assert!(ok_of(&c), "{l}");
        }
    }

    #[test]
    fn serve_answers_a_non_utf8_line_and_keeps_serving() {
        let s = Server::default();
        let input = b"{\"cmd\":\"health\"}\n\xff\xfe\n{\"cmd\":\"health\"}\n";
        let mut out = Vec::new();
        s.serve(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<Content> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 3, "{text}");
        assert!(ok_of(&replies[0]) && ok_of(&replies[2]), "{text}");
        assert_eq!(code_of(&replies[1]), Some("bad_request"));
        assert_eq!(
            replies[1].get("error").and_then(Content::as_str),
            Some("bad request: request line is not valid UTF-8")
        );
    }

    #[test]
    fn capped_read_keeps_a_prefix_of_a_long_line_and_the_next_line_whole() {
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\n{\"cmd\":\"health\"}\n");
        // Refilled 4 KiB at a time, as stdin is.
        let mut reader = std::io::BufReader::with_capacity(4096, &input[..]);
        let mut line = Vec::new();
        let len = read_line_capped(&mut reader, &mut line, 257).unwrap();
        assert_eq!(len, Some(1 << 20));
        assert!(line.len() <= 257, "kept {} bytes", line.len());
        assert!(line.capacity() < 4096, "capacity {}", line.capacity());
        let len = read_line_capped(&mut reader, &mut line, 257).unwrap();
        assert_eq!(len, Some(16));
        assert_eq!(line, b"{\"cmd\":\"health\"}\n");
        assert_eq!(read_line_capped(&mut reader, &mut line, 257).unwrap(), None);
    }

    #[test]
    fn serve_refuses_an_over_limit_line_and_keeps_serving() {
        let s = Server::with_config(ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        });
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\n{\"cmd\":\"health\"}\n");
        let mut out = Vec::new();
        s.serve(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<Content> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 2, "{text}");
        assert_eq!(code_of(&replies[0]), Some("bad_request"));
        assert_eq!(
            replies[0].get("error").and_then(Content::as_str),
            Some("bad request: request line is 1048576 bytes, limit is 256")
        );
        assert!(ok_of(&replies[1]), "{text}");
        assert!(replies[1].get("ready").is_some(), "{text}");
    }

    #[test]
    fn stats_serves_its_keys_in_order() {
        let keys = |c: &Content| -> Vec<String> {
            c.as_map_slice()
                .expect("a JSON object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let s = Server::with_config(ServerConfig {
            stats_every: 1,
            ..ServerConfig::default()
        });
        let stats = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        assert_eq!(
            keys(&stats),
            ["ok", "server", "registry", "models", "shards"]
        );
        assert_eq!(
            keys(stats.get("server").unwrap()),
            [
                "requests",
                "errors",
                "latency",
                "batch_points",
                "batch_secs",
                "batch_points_per_sec",
                "panics_caught",
                "deadlines_exceeded",
                "requests_shed",
                "degradations",
                "stats_dropped",
                "lane_plan_builds_total",
                "stages",
                "serialize_encodings",
                "parse_encodings",
                "wait",
            ]
        );
        let (mut out, mut lines) = (Vec::new(), Vec::new());
        s.serve_with_stats(&b"{\"cmd\":\"health\"}\n"[..], &mut out, &mut lines)
            .unwrap();
        let line: Content = serde_json::from_slice(&lines).unwrap();
        assert_eq!(
            keys(&line),
            ["stats", "server", "registry", "spans_dropped"]
        );
    }

    #[test]
    fn binary_negotiation_returns_a_frame_matching_ndjson_values() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        let req = r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3],[1e-9]],"kind":"moments"}"#;
        let nd = s.handle_line(req).unwrap();
        assert_eq!(nd.encoding, WireEncoding::Ndjson);
        let bin = s
            .handle_line(&req.replace("\"kind\"", "\"encoding\":\"binary-v1\",\"kind\""))
            .unwrap();
        assert_eq!(bin.encoding, WireEncoding::BinaryV1);
        let frame = crate::encode::decode_frame(&bin.body).unwrap();
        assert_eq!(frame.count, 3);
        assert_eq!(frame.cols, 4, "order-2 model has 4 moments");
        assert_eq!(frame.ok_count, 2);
        assert_eq!(
            frame.code(2),
            Some(crate::ErrorCode::BadRequest),
            "arity error travels as a status byte"
        );
        // Values are bit-identical to the NDJSON path.
        let c = parse(&nd);
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        for (i, point) in results.iter().enumerate().take(2) {
            let m = point.get("moments").and_then(Content::as_seq).unwrap();
            for (col, v) in m.iter().enumerate() {
                assert_eq!(
                    frame.columns[col][i].to_bits(),
                    v.as_f64().unwrap().to_bits(),
                    "point {i} col {col}"
                );
            }
        }
        assert!(frame.columns.iter().all(|col| col[2].is_nan()));
    }

    #[test]
    fn binary_negotiation_rejections_are_typed_ndjson() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // Unknown token.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":"binary-v2"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::Ndjson);
        let c = parse(&r);
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("bad_request"));
        assert!(r.text().contains("ndjson|binary-v1"), "{}", r.text());
        // Binary on a non-batch command.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"encoding":"binary-v1"}"#)
            .unwrap();
        assert_eq!(code_of(&parse(&r)), Some("bad_request"));
        // Variable-width kind.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"rom","encoding":"binary-v1"}"#,
            )
            .unwrap();
        let c = parse(&r);
        assert_eq!(code_of(&c), Some("bad_request"));
        assert!(r.text().contains("rom"), "{}", r.text());
        // Explicit ndjson is accepted anywhere.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"encoding":"ndjson"}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        // And the server still answers afterwards.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":"binary-v1"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::BinaryV1);
        crate::encode::decode_frame(&r.body).unwrap();
    }

    #[test]
    fn serve_loop_interleaves_binary_frames_without_newlines() {
        let s = Server::default();
        let mut input = compile_req("m");
        input.push('\n');
        input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"dc_gain","encoding":"binary-v1"}"#);
        input.push('\n');
        input.push_str(r#"{"cmd":"shutdown"}"#);
        input.push('\n');
        let mut out = Vec::new();
        s.serve(input.as_bytes(), &mut out).unwrap();
        // compile line + '\n', then a self-delimiting frame, then the
        // shutdown line + '\n'.
        let first_nl = out.iter().position(|&b| b == b'\n').unwrap();
        let rest = &out[first_nl + 1..];
        assert_eq!(&rest[..4], b"AWSB");
        let frame_len = crate::encode::BINARY_HEADER_LEN + 1 + 8;
        let frame = crate::encode::decode_frame(&rest[..frame_len]).unwrap();
        assert_eq!(frame.count, 1);
        assert_eq!(frame.cols, 1);
        let tail = String::from_utf8(rest[frame_len..].to_vec()).unwrap();
        let c: Content = serde_json::from_str(tail.trim()).unwrap();
        assert_eq!(c.get("shutdown").and_then(Content::as_bool), Some(true));
    }

    #[test]
    fn batch_deadline_covers_encode_time() {
        // A 0 ms deadline with evaluation already expired: the response
        // still reports per-point deadline errors (evaluation owns the
        // report), even though encoding also ran past the deadline.
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"deadline_ms":0,"encoding":"binary-v1"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::BinaryV1);
        let frame = crate::encode::decode_frame(&r.body).unwrap();
        assert!(frame.deadline_exceeded, "flag bit set");
        assert_eq!(frame.code(0), Some(crate::ErrorCode::DeadlineExceeded));
    }
}
