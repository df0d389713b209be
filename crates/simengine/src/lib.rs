//! # dt-simengine — simulation substrate and observability core
//!
//! The DistTrain reproduction (SIGCOMM'25) replaces the paper's physical GPU
//! cluster with an analytically-timed simulation (see `DESIGN.md` §1). This
//! crate is the substrate every simulated component builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time with
//!   saturating arithmetic, so cost models can never panic on overflow.
//! * [`rng`] — a self-contained xoshiro256★★ PRNG ([`DetRng`]), keyed
//!   families of them ([`Keyed`]) and integer Bernoulli draws ([`Chance`]). We
//!   deliberately do *not* rely on an external `rand` crate for load-bearing
//!   randomness because its algorithm is not stable across versions;
//!   experiment outputs must stay reproducible across toolchain upgrades.
//! * [`stats`] — summary statistics (mean/percentile/CDF/histogram) used by
//!   the data-characterization and benchmark harnesses.
//! * [`trace`] — the structured observability layer: a
//!   [`trace::TraceRecorder`] collects labelled spans from the pipeline
//!   simulator, the training runtime, and the preprocessing service, and
//!   exports Chrome-trace / Perfetto JSON. Zero-cost when disabled.
//! * [`json`] — the dependency-free JSON value type ([`json::Json`]) behind
//!   the trace exporter, the wire protocol, and checkpoints.
//! * [`schema`] — the [`WireJson`](schema::WireJson) trait and the
//!   [`wire_struct!`] / [`wire_enum!`] macros that generate both JSON
//!   directions of every wire message and the checkpoint from one field
//!   list.
//! * [`frame`] — the length-prefix frame codec (JSON control frames, raw
//!   bulk frames, an optional in-band [`TraceContext`], hostile-length-safe
//!   reads): the one wire framing shared by the `dt-serve` planner daemon
//!   and the `dt-preprocess` data plane.
//! * [`backoff`] — seeded full-jitter exponential backoff and deadline
//!   accounting ([`BackoffPolicy`], [`Deadline`]): the one retry-pacing
//!   implementation shared by the `dt-serve` client and the `dt-preprocess`
//!   reconnect supervisor.
//! * [`listen`] — the accept thread, live-session set, stop handle, drain
//!   and join ([`Listener`], [`Stop`]) that both network planes run their
//!   blocking sessions on.
//!
//! Higher layers map paper sections onto this substrate: `dt-pipeline` and
//! `dt-orchestrator` implement §4 (disaggregated model orchestration),
//! `dt-reorder` implements §5 (disaggregated data reordering), and
//! `dt-stepccl` implements §6 (StepCCL communication/computation overlap).

// A decode error is formatted only when decoding fails.
#![deny(clippy::or_fun_call)]

pub mod backoff;
pub mod frame;
pub mod json;
pub mod listen;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod time;
pub mod trace;

pub use backoff::{BackoffPolicy, Deadline};
pub use json::Json;
pub use listen::{Listener, Stop};
pub use rng::{Chance, DetRng, Keyed};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceContext, TraceRecorder, TraceSpan, WallTraceSink};
