//! Allocation budget of the columnar binary batch path.
//!
//! An `AWSQ` `moments` frame decoded with [`decode_batch`] and answered
//! through [`Server::handle_frame_into`] — the socket path's entry
//! points — must cost a bounded number of heap allocations, whatever its
//! point count: the payload is copied once into the request columns, the
//! lane kernel writes the result columns, and the `AWSB` response is a
//! header, a status column and a value copy. Per-point allocations would
//! show up as thousands.
//!
//! This binary holds only this test: the counting global allocator sees
//! every thread of the process, so nothing else may run beside it.

use awesym_net::{decode_batch, encode_request, RequestFrame, RequestKind};
use awesym_serve::{decode_frame, ServeError, Server, ServerConfig};
use serde::Content;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations allowed per frame, at any point count.
const BUDGET: u64 = 128;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and reallocations from
/// every thread while enabled.
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with counting on; returns its result and the allocations.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn moments_frame(points: usize) -> Vec<u8> {
    let rows: Vec<Vec<f64>> = (0..points)
        .map(|i| {
            let t = (i % 97) as f64 / 97.0;
            vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
        })
        .collect();
    let mut frame = Vec::new();
    encode_request(
        &RequestFrame {
            model: "m",
            points: &rows,
            kind: RequestKind::Moments,
            times: &[],
            deadline_ms: None,
            workers: None,
            id: Some("7"),
        },
        &mut frame,
    )
    .expect("frame encodes");
    frame
}

/// What the socket path does with one complete frame.
fn answer(server: &Server, frame: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let req = decode_batch(frame).map_err(|e| ServeError::BadRequest {
        what: format!("binary request frame: {e}"),
    });
    server.handle_frame_into(req, None, out);
}

#[test]
fn awsq_moments_frames_cost_a_bounded_number_of_allocations() {
    let server = Server::with_config(ServerConfig {
        shard_workers: 1,
        ..ServerConfig::default()
    });
    let compile = Content::Map(vec![
        ("cmd".into(), Content::Str("compile".into())),
        ("name".into(), Content::Str("m".into())),
        ("netlist".into(), Content::Str(NETLIST.into())),
        ("input".into(), Content::Str("vin".into())),
        ("output".into(), Content::Str("2".into())),
        (
            "symbols".into(),
            Content::Seq(vec![Content::Str("C1".into()), Content::Str("R2:r".into())]),
        ),
        ("order".into(), Content::U64(2)),
    ]);
    let line = serde_json::to_string(&compile).expect("compile line");
    assert!(server
        .handle_line(&line)
        .expect("compile answered")
        .text()
        .contains("\"ok\":true"));
    for points in [4096, 16384] {
        let frame = moments_frame(points);
        // The socket session reuses one response buffer across requests.
        let mut out = Vec::with_capacity(1 << 20);
        // A first request pays the process's one-time set-up (lazily read
        // configuration, pool worker start-up); the budget is per frame.
        answer(&server, &frame, &mut out);
        let ((), allocs) = counted(|| answer(&server, &frame, &mut out));
        let response = decode_frame(&out).expect("a binary-v1 response frame");
        assert_eq!(response.count, points);
        assert_eq!(response.ok_count, points as u64);
        assert_eq!(response.id.as_ref().and_then(Content::as_u64), Some(7));
        assert!(
            allocs < BUDGET,
            "a {points}-point frame took {allocs} allocations (budget {BUDGET})"
        );
        eprintln!("{points}-point frame: {allocs} allocations");
    }
}
