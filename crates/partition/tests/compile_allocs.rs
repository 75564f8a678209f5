//! Exact allocation counts of a `compile`'s two heavy steps on the
//! 1000-segment coupled-line netlist (5,005 element cards): parsing it
//! with `parse_spice`, and building its cross-talk model (`rdrv1`,
//! `cload2`, order 2) with `CompiledModel::build`. Both are deterministic
//! for a given netlist, so they are pinned exactly: a count may change
//! only with a CHANGES.md line that gives the new value and the reason.
//!
//! This binary holds only this test: the counting global allocator sees
//! every thread of the process, so nothing else may run beside it.

use awesym_circuit::generators::{coupled_lines, CoupledLineSpec};
use awesym_circuit::parse_spice;
use awesym_partition::{CompiledModel, SymbolBinding};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `parse_spice` allocations on the coupled-line netlist.
const PARSE_ALLOCS: u64 = 7_014;
/// `CompiledModel::build` allocations for its cross-talk model, the naive
/// moment lowering it counts `raw_op_count` from included.
const BUILD_ALLOCS: u64 = 4_665;

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
fn coupled_line_parse_and_build_make_their_pinned_allocation_counts() {
    let lines = coupled_lines(&CoupledLineSpec::default());
    let text = lines.circuit.to_spice();
    let cards = lines.circuit.num_elements() as u64;
    let victim = lines.circuit.node_name(lines.victim_out).to_string();

    let (circuit, parse) = counted(|| parse_spice(&text).unwrap());
    let input = circuit.find("vin").unwrap();
    let output = circuit.find_node(&victim).unwrap();
    let bindings = [
        SymbolBinding::resistance("rdrv1", vec![circuit.find("rdrv1").unwrap()]),
        SymbolBinding::capacitance("cload2", vec![circuit.find("cload2").unwrap()]),
    ];
    let (model, build) =
        counted(|| CompiledModel::build(&circuit, input, output, &bindings, 2).unwrap());
    assert_eq!(model.order(), 2);

    println!(
        "parse_spice: {parse} allocations ({:.2} per card); build: {build}",
        parse as f64 / cards as f64
    );
    assert_eq!((parse, build), (PARSE_ALLOCS, BUILD_ALLOCS));
    assert!(parse <= 3 * cards, "{parse} allocations for {cards} cards");
    assert!(build <= 5_000, "{build} allocations");
}
