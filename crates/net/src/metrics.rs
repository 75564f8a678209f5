//! Aggregate and per-connection `net_…` metrics.
//!
//! Registered on the serve engine's own [`Registry`], next to the
//! request-stage histograms, and read through
//! [`NetServer::metrics`](crate::NetServer::metrics). Per-connection detail
//! is kept cardinality-safe: each connection tracks its own totals
//! locally ([`ConnScope`]) and folds them into *distribution*
//! histograms (`net_conn_requests`, `net_conn_bytes_in`,
//! `net_conn_lifetime_ms`) when it closes, instead of registering a
//! metric per connection. Decode-stage timing split by request encoding
//! lives on the engine (`request_stage_parse_ndjson_ns` /
//! `request_stage_parse_binary_ns`) where the parse stage is measured.

use awesym_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Upper edges for per-connection request-count and byte-count
/// distributions (decade steps; an unbounded bucket follows).
const CONN_COUNT_EDGES: [u64; 6] = [1, 10, 100, 1_000, 10_000, 100_000];

/// Upper edges for connection lifetimes, in milliseconds.
const CONN_LIFETIME_EDGES_MS: [u64; 6] = [10, 100, 1_000, 10_000, 60_000, 600_000];

/// Aggregate socket front-end counters, shared by the accept loop and
/// every connection thread.
pub struct NetMetrics {
    /// Connections accepted and handed a session thread.
    pub accepted: Arc<Counter>,
    /// Connections refused over the `max_conns` limit.
    pub rejected: Arc<Counter>,
    /// Connections refused because the server is draining.
    pub refused_draining: Arc<Counter>,
    /// Currently open connections.
    pub active: Arc<Gauge>,
    /// Connections closed by the idle timeout.
    pub closed_idle: Arc<Counter>,
    /// Connections closed because the client stopped reading responses
    /// (write backpressure timeout).
    pub closed_slow: Arc<Counter>,
    /// Connections closed after a framing/protocol error desynced the
    /// stream.
    pub closed_protocol: Arc<Counter>,
    /// Bytes read off sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to sockets.
    pub bytes_out: Arc<Counter>,
    /// Requests handled over sockets (both encodings).
    pub requests: Arc<Counter>,
    /// Binary-v1 request frames among them.
    pub frames: Arc<Counter>,
    /// Per-connection request-count distribution (observed at close).
    pub conn_requests: Arc<Histogram>,
    /// Per-connection bytes-in distribution (observed at close).
    pub conn_bytes_in: Arc<Histogram>,
    /// Per-connection lifetime distribution, ms (observed at close).
    pub conn_lifetime_ms: Arc<Histogram>,
}

impl NetMetrics {
    /// Registers every `net_…` metric on `registry` (idempotent per
    /// name, like all registry handles).
    pub fn new(registry: &Registry) -> Self {
        NetMetrics {
            accepted: registry.counter("net_conns_accepted_total"),
            rejected: registry.counter("net_conns_rejected_total"),
            refused_draining: registry.counter("net_conns_refused_draining_total"),
            active: registry.gauge("net_conns_active"),
            closed_idle: registry.counter("net_conns_closed_idle_total"),
            closed_slow: registry.counter("net_conns_closed_slow_total"),
            closed_protocol: registry.counter("net_conns_closed_protocol_total"),
            bytes_in: registry.counter("net_bytes_in_total"),
            bytes_out: registry.counter("net_bytes_out_total"),
            requests: registry.counter("net_requests_total"),
            frames: registry.counter("net_request_frames_total"),
            conn_requests: registry.histogram("net_conn_requests", &CONN_COUNT_EDGES),
            conn_bytes_in: registry.histogram("net_conn_bytes_in", &CONN_COUNT_EDGES),
            conn_lifetime_ms: registry.histogram("net_conn_lifetime_ms", &CONN_LIFETIME_EDGES_MS),
        }
    }
}

/// One connection's local accounting: counts requests/bytes with plain
/// integers on the session thread, mirrors into the aggregate counters
/// as it goes, and folds the totals into the per-connection
/// distributions on drop — so a connection that dies on any path
/// (error, timeout, EOF) still reports.
pub struct ConnScope<'a> {
    metrics: &'a NetMetrics,
    opened: Instant,
    /// Requests this connection handled.
    pub requests: u64,
    /// Bytes this connection read.
    pub bytes_in: u64,
    /// Bytes this connection wrote.
    pub bytes_out: u64,
}

impl<'a> ConnScope<'a> {
    /// Opens the scope: bumps accepted/active.
    pub fn open(metrics: &'a NetMetrics) -> Self {
        metrics.accepted.inc();
        metrics.active.add(1);
        ConnScope {
            metrics,
            opened: Instant::now(),
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Records one handled request (`frame` when it arrived binary).
    pub fn record_request(&mut self, frame: bool) {
        self.requests += 1;
        self.metrics.requests.inc();
        if frame {
            self.metrics.frames.inc();
        }
    }

    /// Records bytes read off the socket.
    pub fn record_bytes_in(&mut self, n: u64) {
        self.bytes_in += n;
        self.metrics.bytes_in.add(n);
    }

    /// Records bytes written to the socket.
    pub fn record_bytes_out(&mut self, n: u64) {
        self.bytes_out += n;
        self.metrics.bytes_out.add(n);
    }
}

impl Drop for ConnScope<'_> {
    fn drop(&mut self) {
        self.metrics.active.add(-1);
        self.metrics.conn_requests.observe(self.requests);
        self.metrics.conn_bytes_in.observe(self.bytes_in);
        let ms = u64::try_from(self.opened.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.metrics.conn_lifetime_ms.observe(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_scope_folds_into_distributions_on_drop() {
        let registry = Registry::new();
        let m = NetMetrics::new(&registry);
        {
            let mut scope = ConnScope::open(&m);
            assert_eq!(m.active.get(), 1);
            scope.record_request(false);
            scope.record_request(true);
            scope.record_bytes_in(100);
            scope.record_bytes_out(250);
        }
        assert_eq!(m.active.get(), 0);
        assert_eq!(m.accepted.get(), 1);
        assert_eq!(m.requests.get(), 2);
        assert_eq!(m.frames.get(), 1);
        assert_eq!(m.bytes_in.get(), 100);
        assert_eq!(m.bytes_out.get(), 250);
        assert_eq!(m.conn_requests.snapshot().count, 1);
        assert_eq!(m.conn_requests.snapshot().sum, 2);
        let text = registry.to_ndjson();
        for name in [
            "net_conns_accepted_total",
            "net_conns_active",
            "net_bytes_in_total",
            "net_conn_lifetime_ms",
        ] {
            assert!(text.contains(&format!("\"metric\":\"{name}\"")), "{name}");
        }
    }
}
