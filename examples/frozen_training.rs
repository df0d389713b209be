//! Frozen training (§7.3): DistTrain re-orchestrates per freeze setting.
//!
//! ```text
//! cargo run --release --example frozen_training
//! ```
//!
//! Runs the four §7.3 settings for MLLM-9B on 96 GPUs under both systems
//! and prints the Figure 18/19 comparison for one model.

use disttrain::core::{SystemKind, TrainingTask};
use disttrain::model::{FreezeConfig, MllmPreset, MultimodalLlm};

fn main() {
    let preset = MllmPreset::Mllm9B;
    println!(
        "frozen-training settings for {} on 96 GPUs (global batch 128):\n",
        preset.build().name
    );
    println!(
        "{:<28} {:>14} {:>16} {:>8}",
        "setting", "DistTrain MFU", "Megatron-LM MFU", "gain"
    );
    for (name, freeze) in [
        ("full training", FreezeConfig::none()),
        ("projectors only", FreezeConfig::all_frozen()),
        ("encoder-only training", FreezeConfig::encoder_only()),
        ("LLM-only training", FreezeConfig::llm_only()),
        ("generator-only training", FreezeConfig::generator_only()),
    ] {
        let model = MultimodalLlm::preset(preset, freeze);
        let task = TrainingTask::ablation(model, 128);
        let dt = task.run(SystemKind::DistTrain, 2).expect("DistTrain");
        let mg = task.run(SystemKind::MegatronLM, 2).expect("Megatron");
        println!(
            "{:<28} {:>12.1}% ({:>2}) {:>13.1}% ({:>2}) {:>7.2}x",
            name,
            dt.mfu() * 100.0,
            dt.gpus(),
            mg.mfu() * 100.0,
            mg.gpus(),
            dt.mfu() / mg.mfu()
        );
    }
    println!("\nFrozen modules run forward-only, so the monolithic plan strands even");
    println!("more of its multimodal-stage GPUs; DistTrain re-plans per setting (§7.3).");
}
