//! # dt-elastic — elastic fault-tolerant training
//!
//! §3 and §6 of the paper treat failures as a fact of life: week-long
//! production runs on 1296 GPUs, automatic recovery from the latest
//! checkpoint, re-orchestration when the resource pool changes. This
//! crate turns that story into a testable subsystem on top of the
//! deterministic simulator:
//!
//! * [`stream`] — per-node exponential **MTBF failure streams**, seeded
//!   and bit-reproducible, layered with seeded **correlated domain
//!   events** from a [`FailureTopology`] (a rack/switch event fails
//!   every live slot of the domain at one instant);
//! * [`topology`] — the correlated failure-domain model, derived from
//!   the [`dt_cluster`] rack layout;
//! * [`policy`] — the [`ElasticPlan`] scenario description and the
//!   **Young–Daly** checkpoint-interval optimum `√(2·C·M)`, with the
//!   system MTBF summing independent and correlated event rates;
//! * [`sim`] — the constant-iteration-time timeline plus an exhaustive
//!   interval search that *validates* Young–Daly against simulation
//!   (correlated MTBF included);
//! * [`healer`] — the watcher→healer loop: dt-telemetry's anomaly
//!   detector run online over committed iterations, converting stall
//!   bursts into preemptive checkpoints and persistent stragglers / MFU
//!   regressions into proactive warm-start replans;
//! * [`run`] — the elastic driver: failures roll the real runtime back to
//!   its newest durable checkpoint; topology-aware hot spares (parked
//!   across domains, preferred outside the failing domain) absorb them in
//!   place, and when the spare pool runs dry the cluster **shrinks** and
//!   the §4 orchestrator re-plans the survivors (never worse than the
//!   naive proportional shrink, because the naive plan is in the trial
//!   set);
//! * [`goodput`] — wall-clock accounting: committed / lost / checkpoint /
//!   restart / re-shard buckets that reconstruct the wall clock exactly,
//!   plus degraded-capacity time.
//!
//! Both drivers run on one private checkpoint–restart timeline that owns
//! the wall clock, the goodput buckets, the failure-stream pops and the
//! trace clock, so every second is charged the same way whether the
//! iteration times are constant ([`sim`]) or come from the runtime
//! ([`run`]).
//!
//! ```
//! use dt_elastic::{CheckpointPolicy, ElasticPlan, run_elastic};
//! use disttrain_core::TrainingTask;
//! use dt_model::MllmPreset;
//! use dt_simengine::SimDuration;
//!
//! let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
//! let mut plan = ElasticPlan::for_task(&task, SimDuration::from_secs_f64(1e12));
//! plan.checkpoint = CheckpointPolicy::Fixed(2);
//! let dir = std::env::temp_dir().join(format!("dt-elastic-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let out = run_elastic(&task, 2, &plan, &dir).unwrap();
//! assert_eq!(out.report.iterations.len(), 2);
//! out.goodput.validate().unwrap();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod goodput;
pub mod healer;
pub mod policy;
pub mod run;
pub mod sim;
pub mod stream;
mod timeline;
pub mod topology;

pub use goodput::GoodputReport;
pub use healer::{Healer, HealerAction, HealerConfig, HealerEvent};
pub use policy::{
    checkpoint_bytes, interval_in_iterations, system_mtbf, young_daly_interval,
    young_daly_interval_correlated, CheckpointPolicy, ElasticPlan,
};
pub use run::{
    run_elastic, run_elastic_instrumented, run_elastic_traced, run_elastic_with, ElasticError,
    ElasticReport, FailureEvent, PlanEpoch, RecoveryAction,
};
pub use sim::{exhaustive_best_interval, simulate_goodput, MachineConfig};
pub use stream::{FailureStream, NodeFailure};
pub use topology::FailureTopology;
