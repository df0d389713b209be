//! # dt-parallel — parallelism units, communication groups, brokers
//!
//! §4.1: DistTrain implements disaggregated model orchestration through the
//! *parallelism unit* — one or more PP stages that share their own DP and TP
//! strategy and communication groups. The modality encoder, LLM backbone,
//! and modality generator are three units; adjacent units are bridged by
//! *communication brokers* that concentrate/scatter activations while
//! preserving order (§6).
//!
//! This crate provides:
//! * [`ModulePlan`] / [`OrchestrationPlan`] — the resource + parallelism
//!   assignment the orchestrator produces and the runtime consumes;
//! * [`broker`] — broker counting (GCD of adjacent DP sizes), per-broker
//!   traffic, and the hop-cost model used by the pipeline simulation.

pub mod broker;
pub mod plan;

pub use broker::BrokerLink;
pub use plan::{ModulePlan, OrchestrationPlan};
