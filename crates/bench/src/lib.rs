//! # dt-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§2 motivation
//! figures included), each returning a [`report::Report`] that the `repro`
//! binary prints and `EXPERIMENTS.md` records. `benches/` holds std-only
//! `harness = false` bench binaries (see [`timing`]); each writes one
//! `BENCH_*.json`.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p dt-bench --bin repro -- all
//! ```
//!
//! or one experiment: `repro fig13`, `repro table3`, `repro zoo`, …

pub mod experiments;
pub mod metricsbench;
pub mod report;
pub mod timing;
pub mod tracebench;

pub use report::Report;
