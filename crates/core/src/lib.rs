//! # disttrain-core — the DistTrain manager, initializer, and runtime
//!
//! This crate composes every substrate into the system of Figure 8:
//!
//! * the **manager** profiles the task and picks a plan (DistTrain's §4
//!   orchestration, or a baseline: Megatron-LM monolithic / DistMM*);
//! * the **initializer** places the communication brokers between the
//!   parallelism units ([`dt_parallel`]);
//! * the **runtime** ([`runtime`]) simulates training iterations: draw a
//!   global batch, reorder it (§5), split across DP ranks, build the
//!   per-rank multi-unit pipeline workload, run the 1F1B schedule
//!   simulator, add broker hops / gradient sync / preprocessing stalls,
//!   and report iteration time, **MFU** and throughput — the §7 metrics;
//! * [`checkpoint`] provides the fault-tolerance path: periodic
//!   asynchronous checkpoints and recovery from the latest one (§3,
//!   *DistTrain runtime*); dt-elastic's driver runs it against failures.
//!
//! The headline experiments (Figures 13–19) are thin loops over
//! [`system::TrainingSystem`] in `dt-bench`.

pub mod checkpoint;
pub mod metrics;
pub mod runtime;
pub mod system;

pub use checkpoint::{CheckpointManager, TrainingState};
pub use metrics::{IterationReport, TrainingReport};
pub use runtime::{record_iteration_metrics, Runtime, RuntimeConfig};
pub use system::{PreprocessingMode, SystemKind, TrainingSystem, TrainingTask};
