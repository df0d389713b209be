//! # dt-serve — the §4 planner as a long-lived service
//!
//! DistTrain's disaggregated-orchestration planner is the control-plane
//! brain; this crate runs it as a persistent, multi-tenant daemon instead
//! of a one-shot CLI, the way Optimus and DIP treat their schedulers as
//! long-lived system components. A [`daemon::ServeHandle`] accepts
//! plan / replan / simulate requests over the workspace's shared
//! length-prefix frame codec ([`dt_simengine::frame`]), runs each on its
//! session thread behind a FIFO admission gate, and shares one warm-plan
//! store across requests ([`store::PlanStore`]), keyed by spec fingerprint
//! — repeat and replan traffic skips profiling and cost-table building
//! entirely and seeds the branch-and-bound incumbent from plans served.
//!
//! ```text
//!            clients (retry + backoff + deadline)
//!                 │ frames (plan/replan/simulate)      GET /metrics
//!                 ▼                                        ▼
//!   ┌──────────────────────────── dt-serve daemon ──────────────────┐
//!   │ admission: validate → gate (Overloaded when the line is full) │
//!   │ session thread: §4 branch-and-bound, warm via shared PlanStore│
//!   │ telemetry: request counters, gate gauges, latency histograms  │
//!   └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! The three load-bearing invariants (each pinned by an e2e test over
//! real sockets):
//!
//! 1. **Typed rejection, bounded memory** — a full waiting line answers
//!    [`api::ServeError::Overloaded`] at admission; the daemon never
//!    buffers unboundedly, and hostile/malformed frames get a typed
//!    [`api::ServeError::Malformed`] reply, never a panic.
//! 2. **Warm sharing is invisible** — warm searches return bit-identical
//!    plans to cold ones (the [`dt_orchestrator::WarmStart`] reuse rule),
//!    so caching changes latency, not answers.
//! 3. **Drain on shutdown** — every admitted request is answered before
//!    [`daemon::ServeHandle::shutdown`] returns: each session runs its
//!    job and replies before it reads again, and shutdown joins every
//!    session; one still waiting takes its slot as running jobs finish.
//!
//! Quickstart (the `repro serve` / `repro client` subcommands wrap
//! exactly this):
//!
//! ```
//! use dt_serve::api::{ServeReply, ServeRequest, SpecDesc};
//! use dt_serve::client::Client;
//! use dt_serve::daemon::{ServeConfig, ServeHandle};
//!
//! let mut daemon = ServeHandle::spawn(ServeConfig::default()).unwrap();
//! let mut client = Client::new(daemon.addr);
//! let req = ServeRequest::Plan {
//!     spec: SpecDesc::ablation("mllm-9b", 128),
//!     budget: 2,
//!     deadline_ms: 0,
//! };
//! let cold = client.request(&req).unwrap();
//! let warm = client.request(&req).unwrap();
//! match (cold, warm) {
//!     (ServeReply::Plan(cold), ServeReply::Plan(warm)) => {
//!         assert!(!cold.warm && warm.warm, "second request hits the store");
//!         assert_eq!(cold.total_gpus, warm.total_gpus, "caching never changes answers");
//!     }
//!     other => panic!("unexpected replies: {other:?}"),
//! }
//! daemon.shutdown();
//! ```

// A decode error is formatted only when decoding fails.
#![deny(clippy::or_fun_call)]

pub mod api;
pub mod client;
pub mod daemon;
pub mod http;
pub mod store;

pub use api::{PlanSummary, ServeError, ServeReply, ServeRequest, SimSummary, SpecDesc};
pub use client::{
    fetch_flight, fetch_metrics, fetch_trace, Client, ClientError, RetryPolicy, CLIENT_PID,
};
pub use daemon::{ServeConfig, ServeHandle, SERVE_PID, STORE_PID};
pub use store::PlanStore;
