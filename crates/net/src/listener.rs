//! The TCP accept loop: bounded concurrent sessions over one shared
//! serve engine.
//!
//! [`NetServer::bind`] wraps an existing [`Server`] (the same engine
//! the stdin loop drives) and [`NetServer::run`] accepts clients until
//! a `shutdown` request lands on any session or a `drain` winds the
//! fleet down. Limits are enforced at the door: past
//! [`NetConfig::max_conns`] a connection is answered with one typed
//! `overloaded` NDJSON line (with a depth-scaled `retry_after_ms`) and
//! closed; once the engine is draining, new connections get a typed
//! `unavailable` line while existing sessions finish their in-flight
//! requests and close — zero dropped responses by construction, since
//! each session answers everything it has read before checking the
//! drain state.

use crate::conn;
use crate::metrics::NetMetrics;
use awesym_serve::{adaptive_retry_after_ms, Server};
use serde::Content;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often `run` re-checks for session threads still winding down
/// after the accept loop has stopped.
const EXIT_POLL: Duration = Duration::from_millis(10);

/// Longest a wake-up connection may take to reach the listener. A
/// backlog full of clients wakes the loop on its own.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Socket front-end limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Concurrent connections accepted before newcomers are refused
    /// with a typed `overloaded` error.
    pub max_conns: usize,
    /// A connection with no traffic for this long is closed.
    pub idle_timeout: Duration,
    /// Longest a response write may block on a slow client before the
    /// connection is closed (per-connection write backpressure bound).
    pub write_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 256,
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A bound TCP front end over a shared serve engine.
pub struct NetServer {
    server: Arc<Server>,
    listener: TcpListener,
    cfg: NetConfig,
    metrics: Arc<NetMetrics>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    waker: Waker,
}

/// Wakes the accept loop, which blocks in `accept`, by connecting to
/// the listener once. Whoever sets a condition that ends the loop wakes
/// it after setting the condition, and the loop checks the conditions
/// after every accepted socket.
#[derive(Clone, Copy)]
pub(crate) struct Waker(SocketAddr);

impl Waker {
    fn new(listener: &TcpListener) -> io::Result<Self> {
        let mut addr = listener.local_addr()?;
        // A wildcard bind is reachable on loopback.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(Waker(addr))
    }

    pub(crate) fn wake(self) {
        // The socket closes at once; a failed connect means the loop is
        // gone or already busy accepting.
        let _ = TcpStream::connect_timeout(&self.0, WAKE_TIMEOUT);
    }
}

/// RAII decrement of the active-connection count. The last session to
/// close under drain wakes the accept loop to finish.
struct ActiveGuard {
    active: Arc<AtomicUsize>,
    server: Arc<Server>,
    waker: Waker,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 && self.server.draining() {
            self.waker.wake();
        }
    }
}

impl NetServer {
    /// Binds `addr` and registers the `net_…` metrics on the engine's
    /// registry.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let waker = Waker::new(&listener)?;
        let metrics = Arc::new(NetMetrics::new(server.stats().registry()));
        Ok(NetServer {
            server,
            listener,
            cfg,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            waker,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared engine.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Aggregate socket metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Asks the accept loop and every session to stop (same effect as
    /// a client sending `shutdown`).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Accepts and serves connections until a `shutdown` request lands
    /// on any session, [`NetServer::request_shutdown`] is called, or a
    /// `drain` finishes winding the sessions down. Returns only after
    /// every session thread has exited.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop failures; per-connection
    /// errors never kill the loop.
    pub fn run(&self) -> io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // The socket may be a wake-up rather than a client: check
            // the exits first.
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if self.server.draining() {
                if self.active.load(Ordering::Acquire) == 0 {
                    // Drain complete: every session answered its
                    // in-flight work and closed.
                    break;
                }
                self.metrics.refused_draining.inc();
                refuse(
                    stream,
                    "unavailable",
                    "server is draining; not accepting new connections",
                    self.server.config().retry_after_ms,
                );
            } else if self.active.load(Ordering::Acquire) >= self.cfg.max_conns {
                self.metrics.rejected.inc();
                let active = self.active.load(Ordering::Acquire);
                refuse(
                    stream,
                    "overloaded",
                    &format!(
                        "connection limit reached ({active} active, limit {})",
                        self.cfg.max_conns
                    ),
                    adaptive_retry_after_ms(
                        self.server.config().retry_after_ms,
                        active,
                        self.cfg.max_conns,
                    ),
                );
            } else {
                self.spawn_session(stream);
            }
        }
        // Sessions poll the shutdown flag/drain state every
        // `POLL_INTERVAL`; wait for the last one to exit.
        while self.active.load(Ordering::Acquire) > 0 {
            thread::sleep(EXIT_POLL);
        }
        Ok(())
    }

    fn spawn_session(&self, stream: TcpStream) {
        let server = Arc::clone(&self.server);
        let metrics = Arc::clone(&self.metrics);
        let shutdown = Arc::clone(&self.shutdown);
        let waker = self.waker;
        let cfg = self.cfg.clone();
        self.active.fetch_add(1, Ordering::AcqRel);
        let guard = ActiveGuard {
            active: Arc::clone(&self.active),
            server: Arc::clone(&self.server),
            waker,
        };
        let spawned = thread::Builder::new()
            .name("awesym-net-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                // Per-connection errors end that session only.
                let _ = conn::run_conn(&server, &metrics, &cfg, &shutdown, waker, stream);
            });
        if spawned.is_err() {
            // Thread spawn failed: the guard moved into the closure
            // that never ran, so the count was already released by the
            // builder dropping it; nothing else to undo.
            self.metrics.rejected.inc();
        }
    }
}

/// Answers a refused connection with one typed NDJSON error line —
/// the same envelope shape the engine's own errors use — and closes.
fn refuse(mut stream: TcpStream, code: &str, error: &str, retry_after_ms: u64) {
    let line = Content::Map(vec![
        ("ok".to_string(), Content::Bool(false)),
        ("error".to_string(), Content::Str(error.to_string())),
        ("code".to_string(), Content::Str(code.to_string())),
        ("retry_after_ms".to_string(), Content::U64(retry_after_ms)),
    ]);
    let mut body = serde_json::to_string(&line).unwrap_or_default();
    body.push('\n');
    let _ = stream
        .write_all(body.as_bytes())
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
