//! # dt-pipeline — pipeline-parallel schedule simulation
//!
//! Every headline phenomenon in the paper — the two bubble types of
//! Figure 4, the inter-microbatch stragglers of Figure 7, the interval
//! structure of Figure 12 that Algorithm 2 fills — is a property of the
//! *pipeline schedule* executed over per-stage, per-microbatch durations.
//! This crate simulates those schedules exactly:
//!
//! * [`Schedule::OneFOneB`] — the 1F1B scheme \[29\] DistTrain uses
//!   (GPipe \[33\] "consumes more memory without offering better training
//!   efficiency", §4.2, but is implemented for comparison);
//! * [`Schedule::GPipe`] — all-forward-then-all-backward flush schedule;
//! * [`Schedule::Interleaved`] — virtual-pipeline-parallelism (VPP \[46\]),
//!   modeled per §4.3: the same 1F1B dependency structure with the warm-up
//!   contribution divided by the VPP size.
//!
//! [`Engine`] is the one implementation of these schedules: an exact,
//! incremental replay of the op DAG with an `O(P)` mark/rollback.
//! Algorithm 2 probes it for the stage-0 intervals of Figure 12, the
//! training runtime replays each DP rank on it, and [`simulate`] returns
//! the stage-major [`PipelineResult`] timeline.
//!
//! Multi-unit pipelines (encoder unit → broker → LLM unit → broker →
//! generator unit, Figure 9) are expressed by concatenating the units'
//! stages and assigning the broker hop cost to the boundary between them.
//!
//! Observability: [`trace::record_pipeline_trace`] converts an executed
//! [`PipelineResult`] into compute/comm/bubble [`dt_simengine::TraceSpan`]s
//! (one Chrome-trace thread per stage), [`metrics::record_pipeline_metrics`]
//! feeds the same attribution into per-stage `dt-telemetry` histograms, and
//! [`gantt::render_trace_gantt`] renders it as per-rank ASCII rows.

pub mod gantt;
pub mod metrics;
pub mod result;
pub mod schedule;
pub mod sim;
pub mod trace;

pub use gantt::{render_gantt, render_trace_gantt};
pub use metrics::record_pipeline_metrics;
pub use result::{OpKind, OpRecord, PipelineResult};
pub use schedule::Schedule;
pub use sim::{simulate, Engine, PipelineSpec, Workload};
pub use trace::{record_pipeline_trace, PipelineTraceOpts};
