//! Allocation-bound regression for the wire protocol: a corrupt length
//! header must never translate into an eager giant allocation.
//!
//! `read_frame` used to do `vec![0u8; len]` straight from the untrusted
//! 4-byte header — a corrupt stream claiming `MAX_FRAME` (1 GiB) cost the
//! feeder a 1 GiB zeroed buffer before the first payload byte arrived.
//! This binary installs a counting allocator (the `dt-telemetry`
//! zero-allocation test precedent) and pins the *largest single
//! allocation request* made while reading a truncated 1 GiB-claiming
//! frame to at most one read chunk, and counts the allocations a frame
//! write makes (none). Both are tracked per thread, so tests running in
//! parallel never see each other's allocations.

use dt_simengine::frame::{
    read_frame, write_batch_frames, write_frame, write_frame_ctx, FRAME_READ_CHUNK, MAX_FRAME,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

/// Records the largest single allocation request since the last reset.
struct PeakTrackingAlloc;

thread_local! {
    /// The calling thread's largest request since its last reset (a
    /// `const` initializer, so touching it from inside the allocator never
    /// allocates).
    static PEAK_REQUEST: Cell<usize> = const { Cell::new(0) };
}

thread_local! {
    /// Allocation and reallocation calls on this thread since its last
    /// reset.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = PEAK_REQUEST.try_with(|peak| peak.set(peak.get().max(size)));
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn reset_peak() {
    PEAK_REQUEST.with(|peak| peak.set(0));
    ALLOCS.with(|n| n.set(0));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

fn peak_request() -> usize {
    PEAK_REQUEST.with(Cell::get)
}

unsafe impl GlobalAlloc for PeakTrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakTrackingAlloc = PeakTrackingAlloc;

#[test]
fn corrupt_header_never_balloons_memory() {
    // A frame header claiming the 1 GiB maximum, backed by only 100 real
    // bytes — the shape a truncated or corrupted producer stream takes.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
    buf.extend_from_slice(&[0u8; 100]);

    reset_peak();
    let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
    let peak = peak_request();

    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak <= 2 * FRAME_READ_CHUNK,
        "corrupt 1 GiB header caused a {peak}-byte allocation request \
         (bound: {} bytes)",
        2 * FRAME_READ_CHUNK
    );
}

/// A writer that discards everything — so the only allocations measured
/// while writing through it are the codec's own staging, not the sink.
struct NullSink;

impl std::io::Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn batched_framing_never_materializes_the_payload() {
    // The coalesced producer write path (`write_batch_frames`) ships a
    // header frame plus an 8 MiB payload frame built from 32 chunks. If it
    // ever staged the concatenation, the peak allocation request would be
    // ~8 MiB; the vectored path only allocates the IoSlice views, so the
    // bound is one read chunk — the same 64 KiB budget PR 5 pinned for the
    // reader.
    let chunk: Vec<u8> = (0..256 * 1024).map(|i| (i * 17) as u8).collect();
    let chunks: Vec<&[u8]> = (0..32).map(|_| chunk.as_slice()).collect();
    let header = br#"{"samples":[],"token_lens":[]}"#;

    reset_peak();
    write_batch_frames(&mut NullSink, header, &chunks).unwrap();
    let peak = peak_request();

    assert!(
        peak <= FRAME_READ_CHUNK,
        "coalesced write of an 8 MiB batch staged a {peak}-byte buffer \
         (bound: {FRAME_READ_CHUNK} bytes — vectored writes must not copy)"
    );
}

#[test]
fn frame_writes_allocate_nothing() {
    // One frame is one vectored write from a stack gather list, traced or
    // not: the head never lands in a heap buffer.
    let payload = [7u8; 512];
    let ctx = dt_simengine::trace::TraceContext {
        trace_id: 0x5EED,
        parent_span: 1,
    };
    reset_peak();
    write_frame(&mut NullSink, &payload).unwrap();
    write_frame_ctx(&mut NullSink, Some(&ctx), &payload).unwrap();
    assert_eq!(allocs(), 0, "writing a frame allocated");
}

#[test]
fn corrupt_batch_payload_header_stays_chunk_bounded() {
    // A batch response whose header frame is honest but whose payload
    // frame claims the 1 GiB maximum and then truncates — the consumer's
    // `read_frame` loop must stay within the chunked-read bound on the
    // second frame too.
    let mut buf = Vec::new();
    write_frame(&mut buf, br#"{"samples":[]}"#).unwrap();
    buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
    buf.extend_from_slice(&[0u8; 256]);

    let mut cur = Cursor::new(buf);
    let header = read_frame(&mut cur).unwrap();
    assert_eq!(header, br#"{"samples":[]}"#);

    reset_peak();
    let err = read_frame(&mut cur).unwrap_err();
    let peak = peak_request();

    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak <= 2 * FRAME_READ_CHUNK,
        "corrupt batch payload header caused a {peak}-byte allocation request"
    );
}

#[test]
fn honest_large_frames_still_arrive_whole() {
    // Sanity: the incremental path still reassembles a frame far larger
    // than one chunk when the bytes genuinely exist.
    let payload: Vec<u8> = (0..5 * FRAME_READ_CHUNK).map(|i| (i * 31) as u8).collect();
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), payload);
}
