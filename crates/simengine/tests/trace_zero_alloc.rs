//! The disabled recorder must be free on the hot path: emission points are
//! compiled into every schedule/runtime loop, so a run without `--trace`
//! must not pay even an allocation for them. Verified with a counting
//! global allocator (which is why this lives in its own integration test —
//! the allocator is process-global). The count is kept per thread, so
//! tests running in parallel never see each other's allocations.

use dt_simengine::trace::{cat, TraceContext, TraceRecorder, TraceSpan, WallTraceSink};
use dt_simengine::{DetRng, SimDuration, SimTime};
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
fn disabled_recorder_never_allocates() {
    let mut rec = TraceRecorder::disabled();
    let before = allocs();
    for i in 0..10_000u64 {
        // The span constructor inside the closure allocates (String,
        // args); a disabled recorder must skip the closure entirely.
        rec.record_with(|| {
            TraceSpan::new(
                format!("span {i}"),
                cat::COMPUTE_FWD,
                0,
                0,
                SimTime::from_nanos(i),
                SimDuration::from_nanos(1),
            )
            .with_arg("microbatch", i.to_string())
        });
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled TraceRecorder::record_with must not allocate"
    );
    assert!(rec.is_empty());
}

#[test]
fn disabled_wall_sink_record_traced_never_allocates() {
    // The traced emission points are compiled into the serve daemon's and
    // the preprocess producer's hot loops; with the sink disabled they
    // must cost one branch and nothing else. The name is a &'static str
    // here because that is what the hot paths pass when no per-request
    // formatting is needed — a format!'d name would allocate at the call
    // site before the sink could decline it.
    let sink = WallTraceSink::disabled();
    let mut rng = DetRng::new(7);
    let ctx = TraceContext::root(&mut rng);
    let started = std::time::Instant::now();
    let before = allocs();
    for i in 0..10_000u64 {
        sink.record_traced(
            "hot span",
            cat::COMPUTE_FWD,
            1,
            1,
            started,
            Some(&ctx),
            ctx.span_id(i),
        );
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled WallTraceSink::record_traced must not allocate"
    );
    assert!(!sink.is_enabled());
    assert!(sink.unix_recorder().is_empty());
}

#[test]
fn enabled_recorder_does_allocate_as_a_sanity_check() {
    // Guards against the counter silently not counting (e.g. a future
    // allocator change): the same loop with an enabled recorder must
    // register allocations.
    let mut rec = TraceRecorder::enabled();
    let before = allocs();
    for i in 0..100u64 {
        rec.record_with(|| {
            TraceSpan::new(
                format!("span {i}"),
                cat::COMPUTE_FWD,
                0,
                0,
                SimTime::from_nanos(i),
                SimDuration::from_nanos(1),
            )
        });
    }
    let after = allocs();
    assert!(
        after > before,
        "enabled recorder must record (and thus allocate)"
    );
    assert_eq!(rec.len(), 100);
}
