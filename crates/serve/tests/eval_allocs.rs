//! Exact allocation count of one served `eval` line.
//!
//! The line has the shape of perfbench's `rpc_small` requests: one point
//! of the §3.1 op-amp model (`ro_q14:g`, `c_comp`, order 2), `kind`
//! `rom`, and an `id`, answered through [`Server::handle_line_into`]
//! into a reused buffer after a warm-up request. The count is
//! deterministic for a given line, so it is pinned exactly: it may change
//! only with a CHANGES.md line that gives the new value and the reason.
//!
//! This binary holds only this test: the counting global allocator sees
//! every thread of the process, so nothing else may run beside it.

use awesym_circuit::generators::opamp741;
use awesym_serve::resolve::resolve_symbol_specs;
use awesym_serve::{Server, ServerConfig};
use serde::Content;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations of one `eval` line, warm.
const EVAL_ALLOCS: u64 = 52;

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

#[test]
fn an_opamp_rom_eval_line_makes_its_pinned_allocation_count() {
    const SYMBOLS: [&str; 2] = ["ro_q14:g", "c_comp"];
    let amp = opamp741();
    let server = Server::with_config(ServerConfig {
        shard_workers: 1,
        ..ServerConfig::default()
    });
    let s = |v: &str| Content::Str(v.to_string());
    let compile = Content::Map(vec![
        ("cmd".into(), s("compile")),
        ("name".into(), s("opamp")),
        ("netlist".into(), s(&amp.circuit.to_spice())),
        ("input".into(), s("vin")),
        ("output".into(), s(amp.circuit.node_name(amp.output))),
        (
            "symbols".into(),
            Content::Seq(SYMBOLS.iter().map(|v| s(v)).collect()),
        ),
        ("order".into(), Content::U64(2)),
    ]);
    let compile = serde_json::to_string(&compile).expect("compile line");
    let answer = server.handle_line(&compile).expect("compile answered");
    assert!(answer.text().contains("\"ok\":true"), "{}", answer.text());
    let values = resolve_symbol_specs(&amp.circuit, &SYMBOLS)
        .expect("symbols resolve")
        .iter()
        .map(|b| Content::F64(1.3 * b.nominal(&amp.circuit)))
        .collect();
    let eval = Content::Map(vec![
        ("cmd".into(), s("eval")),
        ("model".into(), s("opamp")),
        ("values".into(), Content::Seq(values)),
        ("kind".into(), s("rom")),
        ("id".into(), Content::U64(7)),
    ]);
    let eval = serde_json::to_string(&eval).expect("eval line");
    // The socket session and the stdin loop reuse one response buffer.
    let mut out = Vec::with_capacity(4096);
    // A first request pays the process's one-time set-up (the model's
    // lane plan, lazily read configuration).
    server
        .handle_line_into(&eval, &mut out)
        .expect("eval answered");
    let mut counts = Vec::new();
    for _ in 0..3 {
        out.clear();
        let (meta, allocs) = counted(|| server.handle_line_into(&eval, &mut out));
        assert!(meta.is_some_and(|m| !m.shutdown));
        let reply = std::str::from_utf8(&out).expect("an NDJSON answer");
        assert!(
            reply.starts_with(r#"{"ok":true,"id":7,"result":{"#),
            "{reply}"
        );
        counts.push(allocs);
    }
    eprintln!("eval line: {counts:?} allocations");
    assert_eq!(counts, [EVAL_ALLOCS; 3], "{eval}");
}
