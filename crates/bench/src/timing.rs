//! Minimal self-contained micro-benchmark harness.
//!
//! The `benches/` targets use this instead of an external framework so the
//! workspace builds with no registry access. Each case runs a warm-up pass,
//! then `iters` timed iterations, and prints mean/min per-iteration wall
//! time. The targets are `harness = false` binaries that only `cargo bench`
//! runs; `cargo test` neither builds nor runs them (Cargo's default for a
//! `[[bench]]` target is `test = false`), and `cargo clippy --all-targets`
//! compiles them without running them. Pass `DT_BENCH_ITERS` to raise the
//! iteration counts.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations per case: `DT_BENCH_ITERS` env var, or the caller's default.
pub fn iters_or(default: u32) -> u32 {
    std::env::var("DT_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Time `f` over `iters` iterations (after one warm-up call) and print one
/// result line. Returns the mean per-iteration time and the fastest single
/// iteration — the noise-robust statistic machine-readable outputs
/// (`BENCH_solver.json`, `BENCH_layers.json`) record.
pub fn bench_stats<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> (Duration, Duration) {
    black_box(f());
    let iters = iters.max(1);
    let mut min = Duration::MAX;
    let started = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        min = min.min(t.elapsed());
    }
    let mean = started.elapsed() / iters;
    println!("{name:<44} mean {mean:>12?}   min {min:>12?}   ({iters} iters)");
    (mean, min)
}
