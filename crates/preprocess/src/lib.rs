//! # dt-preprocess — disaggregated data preprocessing (§5.1)
//!
//! The only part of the reproduction that runs *real* systems code rather
//! than simulation: multimodal samples are genuinely decoded, resized, and
//! patchified on CPU workers, and the disaggregated mode really ships the
//! results over a TCP connection with a length-prefixed frame protocol —
//! so the Figure 17 comparison (colocated seconds vs disaggregated
//! milliseconds) is *measured*, not assumed.
//!
//! Architecture (N producers × M consumers, §6's scaled topology):
//!
//! ```text
//! ┌ CPU node (producer endpoint ×N) ─────┐    ┌ GPU node (consumer ×M) ┐
//! │ listener; per session:               │    │ MultiFeeder            │
//! │   reader: SyntheticLaion             │    │   supervisor per       │
//! │     → ReorderPlanner                 │───▶│   producer (reconnect  │
//! │     → worker pool (codec)            │TCP │   w/ seeded backoff)   │
//! │     → bounded channel (backpressure) │×NM │   → bounded fan-in     │
//! │   writer: coalesced vectored writes  │    │     channel            │
//! └──────────────────────────────────────┘    └────────────────────────┘
//! ```
//!
//! The data plane is built with [`service::Preprocess::builder`] (typed
//! [`PreprocessError`] validation, a [`dt_simengine::Listener`] per
//! endpoint — the accept, drain and join path the `dt-serve` daemon runs
//! on too — and a reader and writer thread per session, explicit
//! [`PreprocessError::Backpressured`] signalling on the bounded
//! per-session channels) and consumed through the
//! [`consumer::Consumer`] builder ([`MultiFeeder`]: one supervised,
//! auto-reconnecting connection per producer endpoint — a single-endpoint
//! list is the plain one-producer client).
//!
//! The colocated baseline ([`feeder::ColocatedFeeder`]) performs the same
//! codec work synchronously on the "GPU node" thread, which is exactly how
//! the monolithic Megatron-LM path interleaves preprocessing with training
//! (§2.1). Reordering (Algorithms 1–2, from `dt-reorder`) runs on the
//! producer where it is free (§5.1: "the complex reordering does not
//! interfere with the GPU training or impose extra overhead").
//!
//! The [`ReorderPlanner`](dt_reorder::ReorderPlanner) and the framing
//! ([`dt_simengine::frame`]) live below this crate, so the training
//! runtime and the `dt-serve` daemon use them without linking the plane.
//!
//! Both halves are observable: attach a
//! [`WallTraceSink`](dt_simengine::trace::WallTraceSink) via
//! [`PreprocessBuilder::trace`](service::PreprocessBuilder::trace) and
//! [`ConsumerBuilder::trace`] to record wall-clock
//! fetch/decode/feed spans on the producer (pid [`PREPROCESS_PID`], one
//! track per client session) and prefetch/queue-wait spans on the consumer
//! (pid [`CONSUMER_PID`]), mergeable into the simulated cluster's
//! Chrome-trace export.

// A decode error is formatted only when decoding fails.
#![deny(clippy::or_fun_call)]

pub mod codec;
pub mod consumer;
pub mod error;
pub mod feeder;
pub mod service;
pub mod wire;

// The codec lives in dt-simengine; perfbench, outside the workspace,
// still imports it through this alias.
pub use dt_simengine::frame;

pub use codec::{
    decompress, patchify, preprocess_sample, resize, synth_compressed, PreprocessedSample,
};
pub use consumer::{Consumer, ConsumerBuilder, MultiFeeder};
pub use error::PreprocessError;
pub use feeder::{ColocatedFeeder, FeederReport, CONSUMER_PID};
pub use service::{
    PlaneStatsSnapshot, Preprocess, PreprocessBuilder, PreprocessHandle, PREPROCESS_PID,
};
