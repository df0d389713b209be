//! Quickstart: plan and "train" a multimodal LLM with DistTrain.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds MLLM-9B (ViT-Huge encoder + Llama3-7B backbone + SD 2.1
//! generator), lets the DistTrain manager pick the disaggregated
//! orchestration for a 96-GPU cluster, simulates a few training
//! iterations over the synthetic LAION-like stream, and prints the §7
//! metrics.

use disttrain::core::{SystemKind, TrainingTask};
use disttrain::model::MllmPreset;

fn main() {
    let preset = MllmPreset::Mllm9B;
    let model = preset.build();
    println!(
        "model: {} ({:.1}B params; encoder {:.2}B, backbone {:.1}B, generator {:.2}B)",
        model.name,
        model.total_params() as f64 / 1e9,
        model.module_params(disttrain::model::ModuleKind::Encoder) as f64 / 1e9,
        model.module_params(disttrain::model::ModuleKind::Backbone) as f64 / 1e9,
        model.module_params(disttrain::model::ModuleKind::Generator) as f64 / 1e9,
    );

    let task = TrainingTask::ablation(model, preset.ablation_global_batch());
    println!(
        "cluster: {} GPUs ({} nodes × {}), global batch {}",
        task.cluster.total_gpus(),
        task.cluster.num_nodes,
        task.cluster.node.gpus_per_node,
        task.global_batch
    );

    let plan = task.plan(SystemKind::DistTrain).expect("orchestration");
    println!("\ndisaggregated model orchestration (Figure 9):");
    for (name, p) in [
        ("encoder", plan.encoder),
        ("backbone", plan.backbone),
        ("generator", plan.generator),
    ] {
        println!(
            "  {name:<9} {:>3} GPUs  (TP={} DP={} PP={}{})",
            p.gpus(),
            p.tp,
            p.dp,
            p.pp,
            if p.replicate_in_tp_group {
                ", replicated group"
            } else {
                ""
            }
        );
    }

    let report = task.run(SystemKind::DistTrain, 3).expect("training run");
    println!("\nafter {} simulated iterations:", report.iterations.len());
    println!("  mean iteration  {:.2}s", report.mean_iter_secs());
    println!("  MFU             {:.1}%", report.mfu() * 100.0);
    println!(
        "  throughput      {:.1} samples/s ({:.0} tokens/s)",
        report.samples_per_sec(),
        report.tokens_per_sec()
    );

    // Compare against the monolithic baseline in one line.
    let mg = task.run(SystemKind::MegatronLM, 3).expect("baseline run");
    println!(
        "\nvs Megatron-LM (monolithic): {:.1}% MFU → DistTrain is {:.2}x",
        mg.mfu() * 100.0,
        report.mfu() / mg.mfu()
    );
}
