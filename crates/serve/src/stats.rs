//! Server request counters, latency histogram, and per-stage breakdown.
//!
//! Every counter and histogram here is an [`awesym_obs`] atomic with a
//! lock-free hot path, so the request path never blocks on accounting.
//! Clients read them only as the structured [`StatsSnapshot`] the
//! `stats` command returns, under its field names.
//!
//! Request time is additionally broken down by pipeline stage — `parse`
//! → `lookup` → `eval` → `degrade` → `serialize` (see [`Stage`]) — with
//! one nanosecond-bucketed histogram per stage. This is the per-stage
//! evidence behind the paper's microseconds-per-evaluation claim: the
//! `eval` stage is where the compiled-tape time goes, and everything
//! else is overhead the server must keep small.

use crate::encode::WireEncoding;
use awesym_obs::{Counter, Histogram};
use std::time::Duration;

/// Upper edges of the latency histogram buckets, in microseconds; an
/// implicit unbounded bucket follows.
const BUCKET_EDGES_US: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Number of histogram buckets (the edges plus the overflow bucket).
pub const NUM_BUCKETS: usize = BUCKET_EDGES_US.len() + 1;

/// Upper edges of the per-stage histograms, in nanoseconds (1µs … 100ms,
/// decade steps); an implicit unbounded bucket follows.
const STAGE_EDGES_NS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// The serve loop's request pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Size guard plus JSON parse of the request line.
    Parse,
    /// Model-registry lookup.
    Lookup,
    /// Batch/point evaluation (tape replay and any ROM solves).
    Eval,
    /// Post-evaluation health accounting: degradations, panics,
    /// deadline bookkeeping.
    Degrade,
    /// Response encoding back to a JSON line.
    Serialize,
}

/// Every stage, in pipeline order.
pub const STAGES: [Stage; 5] = [
    Stage::Parse,
    Stage::Lookup,
    Stage::Eval,
    Stage::Degrade,
    Stage::Serialize,
];

impl Stage {
    /// Stable lowercase name (span names and the `stage` field of `stats`).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Lookup => "lookup",
            Stage::Eval => "eval",
            Stage::Degrade => "degrade",
            Stage::Serialize => "serialize",
        }
    }

    /// Index into per-stage arrays (pipeline order).
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Lookup => 1,
            Stage::Eval => 2,
            Stage::Degrade => 3,
            Stage::Serialize => 4,
        }
    }
}

/// One histogram bucket in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyBucket {
    /// Inclusive upper edge, e.g. `"100us"`, or `"inf"` for the last.
    pub le: String,
    /// Requests that completed within this bucket.
    pub count: u64,
}

/// One pipeline stage's latency summary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSnapshot {
    /// Stage name (`parse`, `lookup`, `eval`, `degrade`, `serialize`).
    pub stage: String,
    /// Requests that passed through this stage.
    pub count: u64,
    /// Total nanoseconds spent in this stage.
    pub total_ns: u64,
    /// Mean nanoseconds per request in this stage.
    pub mean_ns: f64,
    /// Nanosecond-bucketed latency histogram for this stage.
    pub buckets: Vec<LatencyBucket>,
}

/// Point-in-time view of the server counters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Total requests handled (including failures).
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Latency histogram over all requests.
    pub latency: Vec<LatencyBucket>,
    /// Points evaluated across all `batch` requests.
    pub batch_points: u64,
    /// Wall-clock seconds spent inside batch evaluation.
    pub batch_secs: f64,
    /// Aggregate batch throughput, points per second.
    pub batch_points_per_sec: f64,
    /// Per-point panics caught and converted to `internal` errors.
    pub panics_caught: u64,
    /// Requests that ran past their deadline and were cut short.
    pub deadlines_exceeded: u64,
    /// Requests answered `overloaded`: shed at the server's in-flight
    /// budget or at a shard's queue.
    pub requests_shed: u64,
    /// Points whose ROM fit degraded to a lower approximation order.
    pub degradations: u64,
    /// Periodic stats lines that could not be written to the stats sink
    /// and were dropped (the serve loop never stalls on a slow or dead
    /// sink).
    pub stats_dropped: u64,
    /// Lane plans built by this process so far: one per compiled function
    /// that has run a batch, however many requests it served (read from
    /// `awesym_symbolic::lanes::lane_plan_builds`).
    pub lane_plan_builds_total: u64,
    /// Per-stage request-time breakdown, in pipeline order (only stages
    /// a request passed through are counted).
    pub stages: Vec<StageSnapshot>,
    /// The serialize stage split by wire encoding
    /// (`serialize_ndjson`, `serialize_binary`) — additive detail on top
    /// of the canonical `serialize` entry in [`StatsSnapshot::stages`].
    pub serialize_encodings: Vec<StageSnapshot>,
    /// The parse stage split by *request* encoding (`parse_ndjson`,
    /// `parse_binary`) — additive detail on top of the canonical `parse`
    /// entry in [`StatsSnapshot::stages`]. The decode gain of the binary
    /// request frame is read straight off this split.
    pub parse_encodings: Vec<StageSnapshot>,
    /// Time the transport spent blocked waiting for the *next* request
    /// (stdin line read, socket read). Deliberately separate from the
    /// `parse` stage: wait is client/transport idle time, parse is
    /// decode work, and folding them together would hide decode gains
    /// behind client think time.
    pub wait: StageSnapshot,
}

/// Atomic counters; cheap to update from the request path.
/// [`ServerStats::snapshot`] reads them into the stable structured shape
/// the `stats` command documents.
pub struct ServerStats {
    requests: Counter,
    errors: Counter,
    latency: Histogram,
    batch_points: Counter,
    batch_nanos: Counter,
    panics_caught: Counter,
    deadlines_exceeded: Counter,
    requests_shed: Counter,
    degradations: Counter,
    stats_dropped: Counter,
    stages: [Histogram; 5],
    serialize_encodings: [Histogram; 2],
    parse_encodings: [Histogram; 2],
    wait: Histogram,
}

/// Stage names of the per-encoding serialize histograms, in
/// [`WireEncoding`] discriminant order.
const SERIALIZE_ENCODINGS: [&str; 2] = ["serialize_ndjson", "serialize_binary"];

/// Stage names of the per-encoding parse histograms, in
/// [`WireEncoding`] discriminant order. "Encoding" here is the *request*
/// encoding: an NDJSON line or a binary-v1 request frame.
const PARSE_ENCODINGS: [&str; 2] = ["parse_ndjson", "parse_binary"];

fn encoding_slot(encoding: WireEncoding) -> usize {
    match encoding {
        WireEncoding::Ndjson => 0,
        WireEncoding::BinaryV1 => 1,
    }
}

fn bucket_label(edge: Option<u64>) -> String {
    match edge {
        Some(us) if us < 1_000 => format!("{us}us"),
        Some(us) if us < 1_000_000 => format!("{}ms", us / 1_000),
        Some(us) => format!("{}s", us / 1_000_000),
        None => "inf".to_string(),
    }
}

fn ns_label(edge: Option<u64>) -> String {
    match edge {
        Some(ns) if ns < 1_000 => format!("{ns}ns"),
        Some(ns) if ns < 1_000_000 => format!("{}us", ns / 1_000),
        Some(ns) if ns < 1_000_000_000 => format!("{}ms", ns / 1_000_000),
        Some(ns) => format!("{}s", ns / 1_000_000_000),
        None => "inf".to_string(),
    }
}

fn buckets_of(h: &Histogram, label: fn(Option<u64>) -> String) -> Vec<LatencyBucket> {
    h.snapshot()
        .buckets
        .into_iter()
        .map(|(edge, count)| LatencyBucket {
            le: label(edge),
            count,
        })
        .collect()
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        let stage = || Histogram::new(&STAGE_EDGES_NS);
        ServerStats {
            requests: Counter::default(),
            errors: Counter::default(),
            latency: Histogram::new(&BUCKET_EDGES_US),
            batch_points: Counter::default(),
            batch_nanos: Counter::default(),
            panics_caught: Counter::default(),
            deadlines_exceeded: Counter::default(),
            requests_shed: Counter::default(),
            degradations: Counter::default(),
            stats_dropped: Counter::default(),
            stages: STAGES.map(|_| stage()),
            serialize_encodings: SERIALIZE_ENCODINGS.map(|_| stage()),
            parse_encodings: PARSE_ENCODINGS.map(|_| stage()),
            wait: stage(),
        }
    }

    /// Records one handled request and its latency.
    pub fn record_request(&self, latency: Duration, ok: bool) {
        self.requests.inc();
        if !ok {
            self.errors.inc();
        }
        self.latency
            .observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records time spent in one pipeline stage of a request.
    pub fn record_stage(&self, stage: Stage, dur_ns: u64) {
        self.stages[stage.index()].observe(dur_ns);
    }

    /// Records serialize-stage time against the wire encoding that
    /// produced the response (additive detail; the canonical
    /// `serialize` stage histogram is recorded separately).
    pub fn record_serialize_encoding(&self, encoding: WireEncoding, dur_ns: u64) {
        self.serialize_encodings[encoding_slot(encoding)].observe(dur_ns);
    }

    /// Records parse-stage time against the *request* encoding that was
    /// decoded (an NDJSON line or a binary-v1 request frame; additive
    /// detail — the canonical `parse` stage histogram is recorded
    /// separately).
    pub fn record_parse_encoding(&self, encoding: WireEncoding, dur_ns: u64) {
        self.parse_encodings[encoding_slot(encoding)].observe(dur_ns);
    }

    /// Records time the transport spent blocked waiting for the next
    /// request to arrive (kept out of the `parse` stage on purpose —
    /// see [`StatsSnapshot::wait`]).
    pub fn record_wait(&self, dur_ns: u64) {
        self.wait.observe(dur_ns);
    }

    /// Records a completed batch: how many points, how long the
    /// evaluation took.
    pub fn record_batch(&self, points: usize, elapsed: Duration) {
        self.batch_points.add(points as u64);
        self.batch_nanos
            .add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records `n` per-point panics caught by the batch engine.
    pub fn record_panics_caught(&self, n: u64) {
        self.panics_caught.add(n);
    }

    /// Records one request cut short by its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadlines_exceeded.inc();
    }

    /// Records one request answered `overloaded`.
    pub fn record_request_shed(&self) {
        self.requests_shed.inc();
    }

    /// Records `n` points served at a degraded approximation order.
    pub fn record_degradations(&self, n: u64) {
        self.degradations.add(n);
    }

    /// Records one periodic stats line dropped because the stats sink
    /// failed to accept it.
    pub fn record_stats_dropped(&self) {
        self.stats_dropped.inc();
    }

    /// Snapshots every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let batch_points = self.batch_points.get();
        let batch_secs = self.batch_nanos.get() as f64 * 1e-9;
        let named = |name: &str, h: &Histogram| {
            let snap = h.snapshot();
            StageSnapshot {
                stage: name.to_string(),
                count: snap.count,
                total_ns: snap.sum,
                mean_ns: snap.mean(),
                buckets: buckets_of(h, ns_label),
            }
        };
        let stages = STAGES
            .iter()
            .map(|&stage| named(stage.as_str(), &self.stages[stage.index()]))
            .collect();
        let serialize_encodings = SERIALIZE_ENCODINGS
            .iter()
            .zip(&self.serialize_encodings)
            .map(|(&name, h)| named(name, h))
            .collect();
        let parse_encodings = PARSE_ENCODINGS
            .iter()
            .zip(&self.parse_encodings)
            .map(|(&name, h)| named(name, h))
            .collect();
        let wait = named("wait", &self.wait);
        StatsSnapshot {
            requests: self.requests.get(),
            errors: self.errors.get(),
            latency: buckets_of(&self.latency, bucket_label),
            batch_points,
            batch_secs,
            batch_points_per_sec: if batch_secs > 0.0 {
                batch_points as f64 / batch_secs
            } else {
                0.0
            },
            panics_caught: self.panics_caught.get(),
            deadlines_exceeded: self.deadlines_exceeded.get(),
            requests_shed: self.requests_shed.get(),
            degradations: self.degradations.get(),
            stats_dropped: self.stats_dropped.get(),
            lane_plan_builds_total: awesym_symbolic::lanes::lane_plan_builds(),
            stages,
            serialize_encodings,
            parse_encodings,
            wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServerStats::new();
        s.record_request(Duration::from_micros(5), true);
        s.record_request(Duration::from_micros(50), false);
        s.record_request(Duration::from_secs(10), true);
        s.record_batch(1000, Duration::from_millis(100));
        s.record_panics_caught(3);
        s.record_deadline_exceeded();
        s.record_request_shed();
        s.record_request_shed();
        s.record_degradations(4);
        s.record_stats_dropped();
        let snap = s.snapshot();
        assert_eq!(snap.stats_dropped, 1);
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency.len(), NUM_BUCKETS);
        assert_eq!(snap.latency[0].count, 1);
        assert_eq!(snap.latency[1].count, 1);
        assert_eq!(snap.latency.last().unwrap().count, 1);
        assert_eq!(snap.latency.last().unwrap().le, "inf");
        assert_eq!(snap.batch_points, 1000);
        assert!((snap.batch_points_per_sec - 10_000.0).abs() < 500.0);
        assert_eq!(snap.panics_caught, 3);
        assert_eq!(snap.deadlines_exceeded, 1);
        assert_eq!(snap.requests_shed, 2);
        assert_eq!(snap.degradations, 4);
    }

    #[test]
    fn labels_are_human_readable() {
        let s = ServerStats::new();
        let labels: Vec<String> = s.snapshot().latency.into_iter().map(|b| b.le).collect();
        assert_eq!(
            labels,
            ["10us", "100us", "1ms", "10ms", "100ms", "1s", "inf"]
        );
    }

    #[test]
    fn stage_breakdown_tracks_each_stage_independently() {
        let s = ServerStats::new();
        s.record_stage(Stage::Parse, 500);
        s.record_stage(Stage::Parse, 1_500);
        s.record_stage(Stage::Eval, 2_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.stages.len(), 5);
        let names: Vec<&str> = snap.stages.iter().map(|st| st.stage.as_str()).collect();
        assert_eq!(names, ["parse", "lookup", "eval", "degrade", "serialize"]);
        let parse = &snap.stages[0];
        assert_eq!(parse.count, 2);
        assert_eq!(parse.total_ns, 2_000);
        assert!((parse.mean_ns - 1_000.0).abs() < 1e-9);
        assert_eq!(parse.buckets[0].le, "1us");
        assert_eq!(parse.buckets[0].count, 1, "500ns is within 1us");
        assert_eq!(parse.buckets[1].count, 1, "1500ns is within 10us");
        let eval = &snap.stages[2];
        assert_eq!(eval.count, 1);
        assert_eq!(eval.buckets[3].le, "1ms");
        assert_eq!(eval.buckets[3].count, 0, "2ms exceeds the 1ms bucket");
        assert_eq!(eval.buckets[4].le, "10ms");
        assert_eq!(eval.buckets[4].count, 1);
        assert_eq!(snap.stages[1].count, 0, "lookup untouched");
    }

    #[test]
    fn serialize_stage_splits_by_encoding() {
        let s = ServerStats::new();
        s.record_stage(Stage::Serialize, 2_000);
        s.record_serialize_encoding(WireEncoding::Ndjson, 2_000);
        s.record_stage(Stage::Serialize, 500);
        s.record_serialize_encoding(WireEncoding::BinaryV1, 500);
        s.record_serialize_encoding(WireEncoding::BinaryV1, 700);
        let snap = s.snapshot();
        // Canonical stage list is untouched by the split.
        assert_eq!(snap.stages.len(), 5);
        assert_eq!(snap.stages[4].count, 2);
        let names: Vec<&str> = snap
            .serialize_encodings
            .iter()
            .map(|st| st.stage.as_str())
            .collect();
        assert_eq!(names, ["serialize_ndjson", "serialize_binary"]);
        assert_eq!(snap.serialize_encodings[0].count, 1);
        assert_eq!(snap.serialize_encodings[0].total_ns, 2_000);
        assert_eq!(snap.serialize_encodings[1].count, 2);
        assert_eq!(snap.serialize_encodings[1].total_ns, 1_200);
    }

    #[test]
    fn parse_stage_splits_by_request_encoding_and_wait_is_separate() {
        let s = ServerStats::new();
        // An NDJSON line took 2µs to parse, a binary frame 300ns to
        // decode; the transport waited 5ms for the second request.
        s.record_stage(Stage::Parse, 2_000);
        s.record_parse_encoding(WireEncoding::Ndjson, 2_000);
        s.record_wait(5_000_000);
        s.record_stage(Stage::Parse, 300);
        s.record_parse_encoding(WireEncoding::BinaryV1, 300);
        let snap = s.snapshot();
        // Canonical stage list is untouched by the split.
        assert_eq!(snap.stages[0].count, 2);
        assert_eq!(snap.stages[0].total_ns, 2_300);
        let names: Vec<&str> = snap
            .parse_encodings
            .iter()
            .map(|st| st.stage.as_str())
            .collect();
        assert_eq!(names, ["parse_ndjson", "parse_binary"]);
        assert_eq!(snap.parse_encodings[0].count, 1);
        assert_eq!(snap.parse_encodings[0].total_ns, 2_000);
        assert_eq!(snap.parse_encodings[1].count, 1);
        assert_eq!(snap.parse_encodings[1].total_ns, 300);
        // Wait time is its own series — never folded into parse.
        assert_eq!(snap.wait.stage, "wait");
        assert_eq!(snap.wait.count, 1);
        assert_eq!(snap.wait.total_ns, 5_000_000);
    }
}
