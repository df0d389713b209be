//! Elastic fault-tolerant training walkthrough (§3, §6).
//!
//! ```text
//! cargo run --release --example elastic_training
//! ```
//!
//! Plans the 9B ablation task, then runs it under a harsh seeded failure
//! stream: the hot spare absorbs the first node failure, the next ones
//! shrink the cluster and the §4 orchestrator re-plans the survivors.
//! Prints the failure log, the plan-epoch sequence with per-epoch MFU,
//! the Young–Daly checkpoint cadence, and the goodput breakdown of where
//! the wall clock went.

use disttrain::core::TrainingTask;
use disttrain::elastic::{
    run_elastic, young_daly_interval, CheckpointPolicy, ElasticPlan, RecoveryAction,
};
use disttrain::model::MllmPreset;
use disttrain::simengine::SimDuration;

fn main() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let nodes = task.cluster.num_nodes;
    println!(
        "elastic training: {} on {} nodes ({} GPUs), 1 hot spare\n",
        task.model.name,
        nodes,
        task.cluster.total_gpus()
    );

    // A harsh failure regime so a short demo run sees the full story:
    // spare swap first, then shrink + re-orchestration.
    let elastic = ElasticPlan {
        node_mtbf: SimDuration::from_secs_f64(250.0),
        failure_seed: 5,
        spare_nodes: 1,
        checkpoint: CheckpointPolicy::Fixed(2),
        checkpoint_cost: SimDuration::from_secs_f64(1.0),
        restart_overhead: SimDuration::from_secs_f64(5.0),
        reshard_cost: SimDuration::from_secs_f64(3.0),
        topology: None,
        healer: None,
        precursor_window: SimDuration::ZERO,
        precursor_stall: SimDuration::ZERO,
        spare_slowdown: 1.0,
    };
    let yd = young_daly_interval(elastic.checkpoint_cost, elastic.node_mtbf, nodes);
    println!(
        "per-node MTBF {} → system MTBF {:.1}s; Young–Daly interval would be {:.1}s",
        elastic.node_mtbf,
        elastic.node_mtbf.as_secs_f64() / f64::from(nodes),
        yd.as_secs_f64()
    );

    let dir = std::env::temp_dir().join(format!("dt-elastic-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let out = run_elastic(&task, 10, &elastic, &dir, Default::default()).expect("elastic run");
    let _ = std::fs::remove_dir_all(&dir);

    println!("\nfailure log:");
    for f in &out.failures {
        let what = match f.action {
            RecoveryAction::SpareSwap => "spare swap",
            RecoveryAction::Shrink => "shrink + re-plan",
        };
        println!(
            "  t={:>9} node {:>2} died in iteration {:>2} → {what}, resumed from iteration {}",
            format!("{}", f.at),
            f.node,
            f.iteration,
            f.resumed_from
        );
    }

    println!("\nplan epochs:");
    let mfus = out.epoch_mfus();
    for (e, mfu) in out.epochs.iter().zip(&mfus) {
        println!(
            "  from iteration {:>2}: {:>2} nodes, (x,y,z)=({},{},{}) GPUs, ckpt every {} iters, MFU {:.1}%",
            e.from_iteration,
            e.nodes,
            e.plan.encoder.gpus(),
            e.plan.backbone.gpus(),
            e.plan.generator.gpus(),
            e.checkpoint_interval,
            mfu * 100.0
        );
    }
    if mfus.len() >= 2 {
        println!(
            "  MFU delta vs pre-failure plan: {:+.1}pp",
            (mfus[mfus.len() - 1] - mfus[0]) * 100.0
        );
    }

    let g = &out.goodput;
    g.validate().expect("exact accounting");
    println!("\ngoodput breakdown ({} wall clock):", g.total_wall);
    println!(
        "  committed  {:>10}   ({:.1}% goodput)",
        format!("{}", g.committed),
        g.goodput() * 100.0
    );
    println!("  lost       {:>10}", format!("{}", g.lost));
    println!(
        "  checkpoint {:>10}   ({} writes)",
        format!("{}", g.checkpoint),
        g.checkpoints
    );
    println!(
        "  restart    {:>10}   ({} failures)",
        format!("{}", g.restart),
        g.failures
    );
    println!(
        "  re-shard   {:>10}   ({} shrinks)",
        format!("{}", g.reshard),
        g.shrinks
    );
    println!(
        "  degraded   {:>10}   (below initial capacity)",
        format!("{}", g.degraded)
    );
}
