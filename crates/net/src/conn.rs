//! One client connection's session loop.
//!
//! A dedicated thread per connection runs this loop: fill the
//! [`RecvBuf`] from the socket, hand each complete message to the serve
//! engine (NDJSON lines via `handle_bytes_into`, binary request frames
//! decoded to a typed request then `handle_frame_into`), write the
//! response back, and
//! watch for the orderly exits — EOF, idle timeout, write
//! backpressure, server drain, shutdown. The engine is `&self`-shared:
//! every session feeds the same shard fleet, so per-shard breakers,
//! queue bounds, and the in-flight budget apply across clients exactly
//! as they do on stdin.

use crate::frame;
use crate::listener::{NetConfig, Waker};
use crate::reader::{MessageKind, RecvBuf};
use awesym_obs::now_ns;
use awesym_serve::{ServeError, Server, WireEncoding};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Socket read timeout: how often a blocked session rechecks the idle
/// clock, the drain state, and the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// True for the error kinds a read/write timeout produces (platforms
/// disagree on which of the two it is).
fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// True for peer-initiated teardown that should close quietly rather
/// than surface as a listener error.
fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
    )
}

/// Runs one connection to completion.
///
/// # Errors
///
/// Only unexpected socket errors propagate; EOF, timeouts, peer resets,
/// drain, and shutdown are all normal `Ok` exits.
pub(crate) fn run_conn(
    server: &Server,
    cfg: &NetConfig,
    shutdown: &AtomicBool,
    waker: Waker,
    mut stream: TcpStream,
) -> std::io::Result<()> {
    // Nodelay: responses are small and latency-sensitive; nothing here
    // benefits from Nagle batching.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Write backpressure bound: a client that stops reading its
    // responses blocks our writes; past this the connection closes
    // instead of parking a session thread forever.
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    // The engine's line limit bounds every message, line or frame.
    let mut rb = RecvBuf::with_limit(server.config().max_line_bytes);
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let observe = server.config().observe;
    let mut last_activity = Instant::now();
    let mut wait_start: Option<u64> = None;
    loop {
        // Drain every complete message already buffered before
        // touching the socket again.
        loop {
            let span = match rb.scan() {
                Ok(Some(span)) => span,
                Ok(None) => break,
                Err(e) => {
                    // Framing errors desync the byte stream: answer
                    // with the typed error, then close — there is no
                    // way to find the next message boundary.
                    let err = ServeError::BadRequest {
                        what: e.to_string(),
                    };
                    out.clear();
                    server.handle_decoded_into(Err(err), WireEncoding::Ndjson, None, &mut out);
                    out.push(b'\n');
                    let _ = stream.write_all(&out).and_then(|()| stream.flush());
                    return Ok(());
                }
            };
            let is_frame = span.kind == MessageKind::Frame;
            let bytes = rb.take(span);
            out.clear();
            let meta = if is_frame {
                let d0 = now_ns();
                let req = frame::decode_batch(bytes).map_err(|e| ServeError::BadRequest {
                    what: format!("binary request frame: {e}"),
                });
                let dur = now_ns().saturating_sub(d0);
                Some(server.handle_frame_into(req, observe.then_some((d0, dur)), &mut out))
            } else {
                // Zero-copy: the line is handled straight out of the
                // receive buffer.
                server.handle_bytes_into(bytes, &mut out)
            };
            let Some(meta) = meta else {
                continue; // blank line
            };
            if meta.encoding == WireEncoding::Ndjson {
                out.push(b'\n');
            }
            match stream.write_all(&out).and_then(|()| stream.flush()) {
                Ok(()) => {}
                // A client that stopped reading its responses, or hung up.
                Err(e) if is_timeout(e.kind()) || is_disconnect(e.kind()) => return Ok(()),
                Err(e) => return Err(e),
            }
            if meta.shutdown {
                shutdown.store(true, Ordering::SeqCst);
                waker.wake();
                return Ok(());
            }
        }
        // Orderly exits, checked between messages so a request already
        // received is always answered first.
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        if server.draining() && rb.available() == 0 {
            // Drain: this session's in-flight requests were answered
            // above; close so the listener can finish winding down.
            return Ok(());
        }
        if observe && wait_start.is_none() {
            wait_start = Some(now_ns());
        }
        match rb.fill(&mut stream) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                // Blocked-on-client time is `wait`, never `parse` —
                // same split the stdin loop records.
                if let Some(w0) = wait_start.take() {
                    server.stats().record_wait(now_ns().saturating_sub(w0));
                }
                last_activity = Instant::now();
            }
            Err(e) if is_timeout(e.kind()) => {
                if last_activity.elapsed() >= cfg.idle_timeout {
                    return Ok(());
                }
            }
            Err(e) if is_disconnect(e.kind()) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}
