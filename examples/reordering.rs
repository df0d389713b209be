//! Straggler mitigation with the two reordering passes (§5).
//!
//! ```text
//! cargo run --release --example reordering
//! ```
//!
//! Generates a heterogeneous global batch, shows the DP-group imbalance a
//! random order produces (Figure 6), applies Algorithm 1 to balance it
//! (Figure 11), then shows Algorithm 2 filling the 1F1B intervals within
//! one rank (Figure 12) and the end-to-end iteration effect.

use disttrain::data::cost::multimodal_size;
use disttrain::data::{DataConfig, SyntheticLaion, TrainSample};
use disttrain::model::MllmPreset;
use disttrain::reorder::inter::simulated_makespan;
use disttrain::reorder::{inter_reorder, max_group_load, InterReorderConfig};
use disttrain::reorder::{ReorderMode, ReorderPlanner};

fn main() {
    let model = MllmPreset::Mllm9B.build();
    let dp = 8usize;
    let mut gen = SyntheticLaion::new(DataConfig::characterization(), 7);
    let batch = gen.take(64);
    let sizes = |ss: &[TrainSample]| -> Vec<f64> {
        ss.iter()
            .map(|s| multimodal_size(&model, s) / 1e12)
            .collect()
    };

    println!("== Algorithm 1: intra-microbatch reordering across {dp} DP groups ==");
    let raw = sizes(&batch);
    let mean = raw.iter().sum::<f64>() / dp as f64;
    println!(
        "  random order: max group load {:.1} TFLOPs ({:.2}x the mean)",
        max_group_load(&raw, dp),
        max_group_load(&raw, dp) / mean
    );

    let planner = ReorderPlanner {
        model: model.clone(),
        dp: dp as u32,
        microbatch: 1,
        inter_cfg: InterReorderConfig::new(4, 0.05, 0.10),
        secs_per_flop: 1e-14,
        mode: ReorderMode::IntraOnly,
    };
    let balanced = planner.reorder(batch.clone());
    let bal = sizes(&balanced);
    println!(
        "  Algorithm 1:  max group load {:.1} TFLOPs ({:.2}x the mean)",
        max_group_load(&bal, dp),
        max_group_load(&bal, dp) / mean
    );

    println!("\n== Algorithm 2: inter-microbatch reordering within one rank ==");
    let cfg = InterReorderConfig::new(4, 0.08, 0.16);
    // One rank's microbatch stream: per-microbatch encoder+generator secs.
    let rank: Vec<f64> = balanced[..8]
        .iter()
        .map(|s| multimodal_size(&model, s) * 1e-14)
        .collect();
    let before = simulated_makespan(&cfg, &rank);
    let order = inter_reorder(&cfg, &rank);
    let after_times: Vec<f64> = order.iter().map(|&i| rank[i]).collect();
    let after = simulated_makespan(&cfg, &after_times);
    println!(
        "  microbatch multimodal secs: {:?}",
        rank.iter().map(|t| format!("{t:.2}")).collect::<Vec<_>>()
    );
    println!("  Algorithm 2 order:          {order:?}");
    println!(
        "  simulated pipeline: {before:.2}s -> {after:.2}s ({:.1}% better)",
        (1.0 - after / before) * 100.0
    );

    println!("\n== end to end: one training iteration with and without reordering ==");
    let task = disttrain::core::TrainingTask::ablation(MllmPreset::Mllm9B.build(), 128);
    let plan = task
        .plan(disttrain::core::SystemKind::DistTrain)
        .expect("plan");
    let mut random_cfg = task.runtime_config(disttrain::core::SystemKind::DistTrain, 2);
    random_cfg.reorder = ReorderMode::None;
    let random = task.run_with_plan(plan, random_cfg);
    let reordered = task.run_with_plan(
        plan,
        task.runtime_config(disttrain::core::SystemKind::DistTrain, 2),
    );
    println!(
        "  random order: {:.2}s/iter ({:.1}% MFU)   reordered: {:.2}s/iter ({:.1}% MFU)",
        random.mean_iter_secs(),
        random.mfu() * 100.0,
        reordered.mean_iter_secs(),
        reordered.mfu() * 100.0
    );
}
