//! The disabled telemetry handle must be free on the hot path: emission
//! points are compiled into every runtime/preprocess loop, so a run
//! without `--metrics` must not pay even an allocation for them.
//! Verified with a counting global allocator (process-global, hence the
//! dedicated integration test), exactly like the trace layer's
//! `trace_zero_alloc` test. The count is kept per thread, so tests running
//! in parallel never see each other's allocations.

use dt_telemetry::{names, FlightLog, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread (a `const` initializer, so
    /// touching it from inside the allocator never allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_never_allocates_and_never_runs_closures() {
    let tel = Telemetry::disabled();
    let mut invoked = 0u64;
    let before = allocs();
    for i in 0..10_000u64 {
        // Everything inside the closure allocates (label vectors, metric
        // interning); a disabled handle must skip it entirely.
        tel.with(|r| {
            invoked += 1;
            let label = format!("rank-{i}");
            r.histogram(names::RUNTIME_ITER_TIME_SECONDS, &[("rank", &label)])
                .observe(i as f64);
        });
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled Telemetry::with must not allocate"
    );
    assert_eq!(
        invoked, 0,
        "disabled Telemetry::with must never invoke its closure"
    );
    // Cloning a disabled handle is also free.
    let before = allocs();
    for _ in 0..1_000 {
        let clone = tel.clone();
        assert!(!clone.is_enabled());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "cloning a disabled Telemetry must not allocate"
    );
}

#[test]
fn disabled_flight_recorder_never_allocates_and_never_runs_detail() {
    // Flight-recorder emission points sit on the same hot paths as the
    // metric ones (every request frame, every generated batch), so a run
    // without the recorder must not pay an allocation or a detail
    // closure for them — `record` and `dump` are both one branch.
    let log = FlightLog::disabled();
    let rec = log.recorder("session", 64);
    let mut invoked = 0u64;
    let before = allocs();
    for i in 0..10_000u64 {
        rec.record("request", i, || {
            invoked += 1;
            format!("detail {i}")
        });
        if i % 100 == 0 {
            rec.dump("malformed");
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled FlightRecorder must not allocate"
    );
    assert_eq!(
        invoked, 0,
        "disabled FlightRecorder must never build detail strings"
    );
    assert!(!rec.is_enabled());
    assert_eq!(log.dumps_total(), 0, "disabled log can never have dumped");
}

#[test]
fn enabled_flight_recorder_does_allocate_as_a_sanity_check() {
    // Guards against the disabled test silently passing because nothing
    // counts: the same loop against a live log must run the closures and
    // register allocations, and the dump must actually land.
    let log = FlightLog::new();
    let rec = log.recorder("session", 64);
    let mut invoked = 0u64;
    let before = allocs();
    for i in 0..100u64 {
        rec.record("request", i, || {
            invoked += 1;
            format!("detail {i}")
        });
    }
    rec.dump("anomaly");
    let after = allocs();
    assert!(
        after > before,
        "enabled FlightRecorder must record (and thus allocate)"
    );
    assert_eq!(invoked, 100);
    assert_eq!(log.dumps_total(), 1);
}

#[test]
fn enabled_telemetry_does_allocate_as_a_sanity_check() {
    // Guards against the counter silently not counting: the same loop with
    // an enabled handle must register allocations and run the closures.
    let tel = Telemetry::enabled();
    let mut invoked = 0u64;
    let before = allocs();
    for i in 0..100u64 {
        tel.with(|r| {
            invoked += 1;
            let label = format!("rank-{i}");
            r.counter(names::RUNTIME_ITERATIONS_TOTAL, &[("rank", &label)])
                .inc();
        });
    }
    let after = allocs();
    assert!(
        after > before,
        "enabled handle must register (and thus allocate)"
    );
    assert_eq!(invoked, 100);
    assert_eq!(tel.with(|r| r.len()), Some(100));
}
