//! Checkpoint policy and the elastic scenario description.
//!
//! [`ElasticPlan`] composes the full §3/§6 robustness story: a seeded MTBF
//! failure stream, a spare-node pool, a checkpoint policy (fixed cadence or
//! the Young–Daly optimum), and the recovery cost model (restart overhead,
//! checkpoint write cost, re-shard cost over RDMA).
//!
//! The Young–Daly interval is the classic first-order optimum for
//! checkpoint–restart systems: with checkpoint cost `C` and system MTBF
//! `M` (per-node MTBF divided by node count), the wall-clock interval
//! `τ* = √(2·C·M)` minimizes expected time lost to checkpoint overhead
//! plus replayed work. [`crate::sim::exhaustive_best_interval`] validates
//! the closed form against the constant-iteration-time timeline.

use crate::healer::HealerConfig;
use crate::topology::FailureTopology;
use disttrain_core::TrainingTask;
use dt_simengine::SimDuration;

/// How often to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Every `n` iterations, unconditionally.
    Fixed(u32),
    /// The Young–Daly optimal interval, converted to iterations from the
    /// measured iteration time at the start of each plan epoch.
    YoungDaly,
}

/// Effective **system** MTBF under both failure layers. Interruptions
/// arrive as a superposition of Poisson processes — independent node
/// failures at rate `nodes / node_mtbf` and correlated domain events at
/// `domains / domain_mtbf` (a domain event kills many slots but restarts
/// the job *once*, so it is one interruption) — and the mean time between
/// interruptions is the reciprocal of the summed rates.
pub fn system_mtbf(
    node_mtbf: SimDuration,
    nodes: u32,
    topology: Option<&FailureTopology>,
) -> SimDuration {
    let mut rate = f64::from(nodes.max(1)) / node_mtbf.as_secs_f64().max(1e-9);
    if let Some(t) = topology {
        rate += f64::from(t.domains(nodes)) / t.domain_mtbf.as_secs_f64().max(1e-9);
    }
    SimDuration::from_secs_f64(1.0 / rate)
}

/// The Young–Daly optimal *wall-clock* checkpoint interval: `√(2·C·M)`
/// with `C` the checkpoint cost and `M` the **system** MTBF
/// (`node_mtbf / nodes` — any of the `nodes` failure domains takes the
/// system down).
pub fn young_daly_interval(
    checkpoint_cost: SimDuration,
    node_mtbf: SimDuration,
    nodes: u32,
) -> SimDuration {
    young_daly_interval_correlated(checkpoint_cost, node_mtbf, nodes, None)
}

/// [`young_daly_interval`] under correlated MTBF: the system MTBF in
/// `√(2·C·M)` comes from [`system_mtbf`], so correlated domain events
/// shorten `M` (and the interval) by their event rate — *not* by their
/// victim count, since a k-node blast still restarts the job once.
/// The unit test `correlated_young_daly_matches_exhaustive_search` in
/// [`crate::sim`] checks this closed form against
/// [`crate::sim::exhaustive_best_interval`].
pub fn young_daly_interval_correlated(
    checkpoint_cost: SimDuration,
    node_mtbf: SimDuration,
    nodes: u32,
    topology: Option<&FailureTopology>,
) -> SimDuration {
    let m = system_mtbf(node_mtbf, nodes, topology).as_secs_f64();
    SimDuration::from_secs_f64((2.0 * checkpoint_cost.as_secs_f64() * m).sqrt())
}

/// A wall-clock interval expressed in whole iterations (at least 1).
pub fn interval_in_iterations(interval: SimDuration, iter_time: SimDuration) -> u32 {
    let t = iter_time.as_secs_f64();
    if t <= 0.0 {
        return 1;
    }
    ((interval.as_secs_f64() / t).round() as u32).max(1)
}

impl CheckpointPolicy {
    /// The cadence (in iterations) this policy implies for a cluster of
    /// `nodes` failure domains training at `iter_time` per iteration,
    /// with correlated domain events (if any) folded into the system
    /// MTBF.
    pub fn interval(
        &self,
        checkpoint_cost: SimDuration,
        node_mtbf: SimDuration,
        nodes: u32,
        topology: Option<&FailureTopology>,
        iter_time: SimDuration,
    ) -> u32 {
        match *self {
            CheckpointPolicy::Fixed(n) => n.max(1),
            CheckpointPolicy::YoungDaly => interval_in_iterations(
                young_daly_interval_correlated(checkpoint_cost, node_mtbf, nodes, topology),
                iter_time,
            ),
        }
    }
}

impl std::fmt::Display for CheckpointPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointPolicy::Fixed(n) => write!(f, "fixed({n})"),
            CheckpointPolicy::YoungDaly => write!(f, "young-daly"),
        }
    }
}

/// The elastic training scenario: failure model + spare pool + checkpoint
/// policy + recovery costs.
#[derive(Debug, Clone, Copy)]
pub struct ElasticPlan {
    /// Mean time between failures of *one* node.
    pub node_mtbf: SimDuration,
    /// Seed of the failure stream (independent of the data seed).
    pub failure_seed: u64,
    /// Hot spare nodes that can absorb failures without shrinking.
    pub spare_nodes: u32,
    /// When to checkpoint.
    pub checkpoint: CheckpointPolicy,
    /// Synchronous cost of one checkpoint write charged to the run (the
    /// distributed-file-system write of weights + optimizer state).
    pub checkpoint_cost: SimDuration,
    /// Failure detection + rescheduling + checkpoint reload.
    pub restart_overhead: SimDuration,
    /// Migration cost of re-sharding state onto a new plan after a shrink
    /// (checkpoint bytes over the RDMA fabric).
    pub reshard_cost: SimDuration,
    /// Correlated rack/switch failure domains layered over the
    /// independent per-node process; `None` keeps the classic model.
    pub topology: Option<FailureTopology>,
    /// Anomaly-driven preemptive action (the watcher→healer loop);
    /// `None` runs without a healer.
    pub healer: Option<HealerConfig>,
    /// How long before its failure an ailing node shows precursor
    /// symptoms (stall bursts). Iterations whose completion lands within
    /// this window of the next failure are stretched by
    /// `precursor_stall` — the signal the healer's stall-burst detector
    /// turns into a preemptive checkpoint. Zero disables precursors.
    pub precursor_window: SimDuration,
    /// Extra stall injected per precursor-window iteration (charged as
    /// lost time, not committed work).
    pub precursor_stall: SimDuration,
    /// Pace factor of a replacement spare (≥ 1.0; 1.0 = full speed). A
    /// slow spare paces the whole synchronous job — observed iteration
    /// wall time is `iter_time × spare_slowdown` while any slow spare is
    /// in service — which is the persistent-straggler / MFU-regression
    /// signal the healer turns into a proactive replan that evicts the
    /// slow slots.
    pub spare_slowdown: f64,
}

/// Bytes of one full training checkpoint: bf16 weights for every module
/// plus fp32 Adam state (param copy + two moments) for the trainable ones.
pub fn checkpoint_bytes(task: &TrainingTask) -> u64 {
    let trainable: u64 = dt_model::ModuleKind::ALL
        .iter()
        .filter(|&&m| !task.model.freeze.is_frozen(m))
        .map(|&m| task.model.module_params(m))
        .sum();
    2 * task.model.total_params() + 12 * trainable
}

impl ElasticPlan {
    /// Derive a plan's cost model from the task itself: checkpoint cost
    /// from the checkpoint size over a distributed-file-system write
    /// bandwidth, re-shard cost from the same bytes over the node's
    /// aggregate RDMA bandwidth (every surviving node pulls its shard in
    /// parallel, so one node's NIC budget is the bottleneck).
    pub fn for_task(task: &TrainingTask, node_mtbf: SimDuration) -> Self {
        // Sustained aggregate DFS write bandwidth; checkpoints stream from
        // every DP rank in parallel but the blob store is shared.
        const DFS_WRITE_BW: f64 = 20e9;
        let bytes = checkpoint_bytes(task) as f64;
        ElasticPlan {
            node_mtbf,
            failure_seed: 0xE1A5,
            spare_nodes: 1,
            checkpoint: CheckpointPolicy::YoungDaly,
            checkpoint_cost: SimDuration::from_secs_f64(bytes / DFS_WRITE_BW),
            restart_overhead: SimDuration::from_secs_f64(30.0),
            reshard_cost: SimDuration::from_secs_f64(bytes / task.cluster.node.node_internode_bw()),
            topology: None,
            healer: None,
            precursor_window: SimDuration::ZERO,
            precursor_stall: SimDuration::ZERO,
            spare_slowdown: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_model::MllmPreset;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn young_daly_matches_hand_computation() {
        // C = 100s, node MTBF = 200_000s, 16 nodes → M = 12_500s,
        // τ* = √(2·100·12500) = √2.5e6 ≈ 1581.1s.
        let tau = young_daly_interval(secs(100.0), secs(200_000.0), 16);
        assert!((tau.as_secs_f64() - 1581.138).abs() < 0.01);
    }

    #[test]
    fn young_daly_grows_with_mtbf_and_cost() {
        let base = young_daly_interval(secs(50.0), secs(100_000.0), 8);
        assert!(young_daly_interval(secs(200.0), secs(100_000.0), 8) > base);
        assert!(young_daly_interval(secs(50.0), secs(400_000.0), 8) > base);
        assert!(young_daly_interval(secs(50.0), secs(100_000.0), 32) < base);
    }

    #[test]
    fn interval_conversion_rounds_and_floors_at_one() {
        assert_eq!(interval_in_iterations(secs(100.0), secs(3.0)), 33);
        assert_eq!(interval_in_iterations(secs(1.0), secs(50.0)), 1);
        assert_eq!(interval_in_iterations(secs(10.0), SimDuration::ZERO), 1);
        assert_eq!(
            CheckpointPolicy::Fixed(7).interval(secs(1.0), secs(1.0), 4, None, secs(1.0)),
            7
        );
    }

    #[test]
    fn correlated_mtbf_sums_the_event_rates() {
        // 16 nodes / 50ks → 1/3125; 4 racks / 12.5ks → 1/3125; summed
        // rate 2/3125 → system MTBF 1562.5s.
        let topo = FailureTopology::new(4, secs(12_500.0));
        let m = system_mtbf(secs(50_000.0), 16, Some(&topo));
        assert!((m.as_secs_f64() - 1562.5).abs() < 1e-6);
        // Without a topology the classic `node_mtbf / nodes` falls out.
        let ind = system_mtbf(secs(50_000.0), 16, None);
        assert!((ind.as_secs_f64() - 3125.0).abs() < 1e-6);
        // Correlated events shorten the Young–Daly interval: √(1562.5 /
        // 3125) = 1/√2 of the independent-only optimum.
        let yd_c = young_daly_interval_correlated(secs(25.0), secs(50_000.0), 16, Some(&topo));
        let yd_i = young_daly_interval(secs(25.0), secs(50_000.0), 16);
        assert!((yd_c.as_secs_f64() - yd_i.as_secs_f64() / 2f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn task_derived_costs_are_physical() {
        let preset = MllmPreset::Mllm9B;
        let task = TrainingTask::ablation(preset.build(), preset.ablation_global_batch());
        let plan = ElasticPlan::for_task(&task, secs(100_000.0));
        let c = plan.checkpoint_cost.as_secs_f64();
        // ~9B params → ~126 GB checkpoint → seconds-to-minutes, not hours.
        assert!((1.0..600.0).contains(&c), "checkpoint cost {c:.1}s");
        let r = plan.reshard_cost.as_secs_f64();
        assert!((0.1..120.0).contains(&r), "reshard cost {r:.1}s");
        assert!(checkpoint_bytes(&task) > task.model.total_params() * 2);
    }
}
