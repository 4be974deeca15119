//! Traced-run instrumentation that lives entirely in the benchmark: a
//! counting allocator (armed only in traced runs), per-layer call/time
//! accumulators fed by wrapped `ByteSink`s, and the per-layer table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use dfi_dataplane::ByteSink;

use crate::report::Report;

/// Set once at start-up for traced runs; the allocator and the sink
/// wrappers count only while it is set.
pub static TRACING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`]; counts allocations while [`TRACING`] is set.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's layout contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far (traced runs only).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

pub fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// Layers whose calls are timed through wrapped sinks.
#[derive(Clone, Copy)]
pub enum Sink {
    /// Switch control ingress: FlowMod/Barrier handling in the data plane.
    Dataplane = 0,
    /// Proxy switch-facing side: packet-in intake, barrier replies.
    Proxy = 1,
}

const N_SINKS: usize = 2;
static SINK_CALLS: [AtomicU64; N_SINKS] = [const { AtomicU64::new(0) }; N_SINKS];
static SINK_NS: [AtomicU64; N_SINKS] = [const { AtomicU64::new(0) }; N_SINKS];

thread_local! {
    /// Nanoseconds spent in nested wrapped sinks, per open frame, so a
    /// sink's self-time excludes sinks it calls synchronously.
    static NESTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether wrapped sinks currently record (traced windows only).
static SINKS_ON: AtomicBool = AtomicBool::new(false);

pub fn set_sinks(on: bool) {
    SINKS_ON.store(on, Relaxed);
}

/// Wraps `inner` so each call's self-time and count accrue to
/// `layer` while [`set_sinks`] is on. Returns `inner` unchanged in
/// untraced runs.
pub fn wrap(layer: Sink, inner: ByteSink) -> ByteSink {
    if !tracing() {
        return inner;
    }
    let i = layer as usize;
    Rc::new(move |sim, bytes| {
        if !SINKS_ON.load(Relaxed) {
            inner(sim, bytes);
            return;
        }
        NESTED.with(|n| n.borrow_mut().push(0));
        let t0 = Instant::now();
        inner(sim, bytes);
        let total = t0.elapsed().as_nanos() as u64;
        let child = NESTED.with(|n| {
            let mut n = n.borrow_mut();
            let child = n.pop().unwrap_or(0);
            if let Some(parent) = n.last_mut() {
                *parent += total;
            }
            child
        });
        SINK_CALLS[i].fetch_add(1, Relaxed);
        SINK_NS[i].fetch_add(total.saturating_sub(child), Relaxed);
    })
}

/// `(calls, self ns)` accumulated for `layer`.
pub fn sink_totals(layer: Sink) -> (u64, u64) {
    let i = layer as usize;
    (SINK_CALLS[i].load(Relaxed), SINK_NS[i].load(Relaxed))
}

/// One row of the per-layer self-time table.
pub struct LayerRow {
    pub layer: &'static str,
    pub calls: u64,
    /// Total self-time attributed to the layer in the traced window.
    pub self_ns: f64,
    /// `direct` (wrapped sink) or `replay` (ns/call × calls).
    pub how: &'static str,
}

/// Writes the per-layer table (calls, self-time, share) plus the residual
/// into the report and returns the residual share of `budget_ns`.
///
/// The residual is `budget − Σ self`, so rows plus residual add up to the
/// budget exactly; the check that matters is that the summed self-times
/// do not exceed the budget by more than [`SUM_TOLERANCE`].
pub fn layer_table(r: &mut Report, rows: &[LayerRow], budget_ns: f64, budget_what: &str) -> f64 {
    let sum: f64 = rows.iter().map(|row| row.self_ns).sum();
    let residual = budget_ns - sum;
    r.table.push(format!(
        "layer table: budget {:.3} ms = {budget_what}",
        budget_ns / 1e6
    ));
    r.table.push(format!(
        "{:<34} {:>10} {:>12} {:>8}  how",
        "layer", "calls", "self_ms", "share"
    ));
    for row in rows {
        r.table.push(format!(
            "{:<34} {:>10} {:>12.3} {:>7.2}%  {}",
            row.layer,
            row.calls,
            row.self_ns / 1e6,
            100.0 * row.self_ns / budget_ns,
            row.how
        ));
    }
    r.table.push(format!(
        "{:<34} {:>10} {:>12.3} {:>7.2}%  budget - sum",
        "residual",
        "",
        residual / 1e6,
        100.0 * residual / budget_ns
    ));
    let within = sum <= budget_ns * (1.0 + SUM_TOLERANCE);
    r.table.push(format!(
        "sum of layer self-times {:.3} ms <= budget x {:.2}: {within}",
        sum / 1e6,
        1.0 + SUM_TOLERANCE
    ));
    residual / budget_ns
}

/// Summed layer self-times may exceed the measured wall budget by at most
/// this share (replayed per-call costs are measured warm, in isolation).
pub const SUM_TOLERANCE: f64 = 0.10;
