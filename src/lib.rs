//! # disttrain — facade crate
//!
//! Re-exports the whole DistTrain reproduction workspace under one roof so
//! examples, integration tests, and downstream users can depend on a single
//! crate. [`prelude`] carries everything the quickstart needs — describe a
//! task, build a planner, plan, run:
//!
//! ```
//! use disttrain::prelude::*;
//!
//! // MLLM-9B (ViT-Huge + Llama3-7B + SD 2.1) on the §7.2 ablation cluster.
//! let preset = MllmPreset::Mllm9B;
//! let task = TrainingTask::ablation(preset.build(), preset.ablation_global_batch());
//!
//! // The §4 planner: memoized branch-and-bound search with a
//! // bit-identical exhaustive serial reference mode.
//! let orch = Orchestrator::builder()
//!     .spec(task.problem_spec())
//!     .search_mode(SearchMode::Pruned)
//!     .top_k(4)
//!     .build()
//!     .expect("a validated planner");
//! let report = task
//!     .plan(SystemKind::DistTrain)
//!     .expect("the ablation cluster is feasible");
//! assert!(report.total_gpus() <= task.cluster.total_gpus());
//!
//! // Infeasible problems explain themselves in one line instead of `None`.
//! let err = Orchestrator::builder().global_batch(128).build().unwrap_err();
//! assert!(matches!(err, PlanError::InvalidSpec { field: "total_gpus", .. }));
//! drop(orch);
//! ```
//!
//! The `examples/pipeline_timeline.rs` walkthrough — simulate a 1F1B
//! pipeline with a straggler microbatch (Figure 7), fix it with
//! Algorithm 2, and draw both — fits in a doc example because every
//! subsystem is re-exported here:
//!
//! ```
//! use disttrain::pipeline::{render_gantt, simulate, PipelineSpec, Schedule, Workload};
//! use disttrain::reorder::{inter_reorder, InterReorderConfig};
//! use disttrain::simengine::{DetRng, SimDuration};
//!
//! let p = 4;
//! let run = |stage0: &[f64]| {
//!     let l = stage0.len();
//!     let mut fwd = vec![stage0.iter().map(|&t| SimDuration::from_secs_f64(t)).collect::<Vec<_>>()];
//!     let mut bwd = vec![stage0.iter().map(|&t| SimDuration::from_secs_f64(2.0 * t)).collect::<Vec<_>>()];
//!     for _ in 1..p {
//!         fwd.push(vec![SimDuration::from_secs_f64(0.10); l]);
//!         bwd.push(vec![SimDuration::from_secs_f64(0.20); l]);
//!     }
//!     simulate(&PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO), &Workload { fwd, bwd })
//! };
//!
//! // Heterogeneous multimodal encoder microbatches (Figure 7b)…
//! let mut rng = DetRng::new(27);
//! let hetero: Vec<f64> = (0..10).map(|_| rng.lognormal(-2.2, 1.0)).collect();
//! let straggled = run(&hetero);
//!
//! // …which Algorithm 2's interval-filling reorder mitigates (§5.3):
//! let order = inter_reorder(&InterReorderConfig::new(p, 0.10, 0.20), &hetero);
//! let reordered: Vec<f64> = order.iter().map(|&i| hetero[i]).collect();
//! let fixed = run(&reordered);
//! assert!(fixed.makespan < straggled.makespan, "reorder must shorten this run");
//!
//! // Both timelines render as ASCII Gantt charts (one row per stage).
//! let gantt = render_gantt(&straggled, 80);
//! assert_eq!(gantt.lines().count(), p + 1);
//! ```
//!
//! See the individual crates for the subsystem documentation:
//! [`simengine`], [`cluster`], [`model`], [`data`], [`parallel`],
//! [`pipeline`], [`reorder`], [`orchestrator`], [`preprocess`], [`stepccl`],
//! [`core`] (the DistTrain manager/runtime itself), [`elastic`]
//! (fault-tolerant elastic training: MTBF failure streams, spare pools,
//! shrink + re-orchestration, Young–Daly checkpointing, goodput
//! accounting), [`telemetry`] (the metrics layer: lock-light registry,
//! Prometheus/JSON exposition, straggler anomaly detection), and [`check`]
//! (the deterministic property-check & differential-oracle harness behind
//! `repro check`). Observability —
//! span recording ([`simengine::trace`]), Chrome-trace export, per-module
//! breakdowns, and the metrics registry ([`telemetry::Telemetry`], fed by
//! [`core::Runtime::run_telemetry`] and by [`elastic::run_elastic`]
//! through [`elastic::ElasticOptions`], and scanned by
//! [`telemetry::AnomalyDetector`]) — is documented in the README's
//! *Observability* section.

pub use disttrain_core as core;
pub use dt_check as check;
pub use dt_cluster as cluster;
pub use dt_data as data;
pub use dt_elastic as elastic;
pub use dt_model as model;
pub use dt_orchestrator as orchestrator;
pub use dt_parallel as parallel;
pub use dt_pipeline as pipeline;
pub use dt_preprocess as preprocess;
pub use dt_reorder as reorder;
pub use dt_simengine as simengine;
pub use dt_stepccl as stepccl;
pub use dt_telemetry as telemetry;

/// The most commonly used types, re-exported flat: enough to describe a
/// training task, build the §4 planner, diagnose its failures, run the
/// simulated training loop, and meter it without naming individual
/// workspace crates.
pub mod prelude {
    pub use crate::cluster::{ClusterSpec, CollectiveCost, GpuSpec, NodeSpec};
    pub use crate::core::{
        RuntimeConfig, SystemKind, TrainingReport, TrainingSystem, TrainingTask,
    };
    pub use crate::data::{DataConfig, SyntheticLaion};
    pub use crate::model::{FreezeConfig, MllmPreset, ModuleKind, MultimodalLlm};
    pub use crate::orchestrator::{
        Orchestrator, OrchestratorBuilder, PerfModel, PlanError, PlanReport, Profiler, SearchMode,
        TaskProfile, WarmStart,
    };
    pub use crate::parallel::{ModulePlan, OrchestrationPlan};
    pub use crate::simengine::{DetRng, SimDuration, SimTime};
    pub use crate::telemetry::{
        names, Anomaly, AnomalyConfig, AnomalyDetector, AnomalyKind, Snapshot, Telemetry,
    };
}
