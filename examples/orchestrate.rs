//! Adaptive orchestration across cluster sizes and freeze settings.
//!
//! ```text
//! cargo run --release --example orchestrate
//! ```
//!
//! Shows the §4 manager adapting GPU splits and parallelism as the
//! cluster grows and as modules freeze — the behavior the monolithic
//! baseline fundamentally cannot express — and, when a task is
//! infeasible, the planner's one-line [`PlanError`] diagnosis instead of
//! a silent `None`.

use disttrain::prelude::*;

fn show(task: &TrainingTask, label: &str) {
    match task.plan(SystemKind::DistTrain) {
        Ok(plan) => {
            println!(
                "{label:<34} enc {:>3} | bb {:>4} (TP{} DP{} PP{}) | gen {:>3} | total {:>4}/{}",
                plan.encoder.gpus(),
                plan.backbone.gpus(),
                plan.backbone.tp,
                plan.backbone.dp,
                plan.backbone.pp,
                plan.generator.gpus(),
                plan.total_gpus(),
                task.cluster.total_gpus(),
            );
        }
        Err(e) => println!("{label:<34} no feasible plan: {e}"),
    }
}

fn main() {
    println!("== scaling the cluster (MLLM-15B, BS grows with the cluster) ==");
    for (nodes, bs) in [(4u32, 32u32), (12, 64), (40, 320), (81, 960)] {
        let mut task = TrainingTask::ablation(MllmPreset::Mllm15B.build(), bs);
        task.cluster = ClusterSpec::production(nodes);
        show(&task, &format!("{} GPUs, batch {bs}", nodes * 8));
    }

    println!("\n== freeze settings shift resources (MLLM-9B, 96 GPUs) ==");
    for (name, freeze) in [
        ("full training", FreezeConfig::none()),
        ("projectors only (all frozen)", FreezeConfig::all_frozen()),
        ("encoder-only training", FreezeConfig::encoder_only()),
        ("LLM-only training", FreezeConfig::llm_only()),
        ("generator-only training", FreezeConfig::generator_only()),
    ] {
        let model = MultimodalLlm::preset(MllmPreset::Mllm9B, freeze);
        let task = TrainingTask::ablation(model, 128);
        show(&task, name);
    }

    println!("\n== generation resolution changes the split (MLLM-72B, 96 GPUs) ==");
    for res in [512u32, 1024] {
        let mut task = TrainingTask::ablation(MllmPreset::Mllm72B.build(), 40);
        task.data = DataConfig::evaluation(res);
        show(&task, &format!("generate at {res}x{res}"));
    }

    println!("\n== warm-start replanning as the cluster shrinks (MLLM-9B) ==");
    // The elastic path: plan once at job start, capture the planning
    // state (a `WarmStart`: cost tables + incumbent plans), then replay it
    // at every failure. Each warm replan seeds the branch-and-bound
    // search with the previous plan and reuses the job-start cost tables,
    // yet returns exactly the plan a from-scratch (cold) replan would.
    let mut task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 128);
    task.cluster = ClusterSpec::production(12);
    match task.plan(SystemKind::DistTrain) {
        Ok(mut plan) => {
            let mut warm = task.warm_start(); // built once, at job start
            println!("{:<34} starts on {} GPUs", "12-node job", plan.total_gpus());
            for lost_nodes in [1u32, 2, 4] {
                match task.shrunk(lost_nodes) {
                    Some(shrunk) => match shrunk.replan_shrunk_warm(&plan, &mut warm) {
                        Ok(next) => {
                            println!(
                                "{:<34} bb TP{} DP{} PP{} | total {:>3}/{}",
                                format!("lose {lost_nodes} node(s), warm replan"),
                                next.backbone.tp,
                                next.backbone.dp,
                                next.backbone.pp,
                                next.total_gpus(),
                                shrunk.cluster.total_gpus(),
                            );
                            plan = next;
                        }
                        Err(e) => println!("replan failed: {e}"),
                    },
                    None => println!("cannot lose {lost_nodes} more node(s)"),
                }
            }
        }
        Err(e) => println!("initial plan failed: {e}"),
    }

    println!("\n== infeasible tasks diagnose themselves ==");
    let mut tiny = TrainingTask::ablation(MllmPreset::Mllm72B.build(), 8);
    tiny.cluster = ClusterSpec::production(1);
    show(&tiny, "MLLM-72B on 8 GPUs");
    match Orchestrator::builder().total_gpus(96).build() {
        Err(PlanError::InvalidSpec { field, reason }) => {
            println!(
                "{:<34} builder rejects `{field}`: {reason}",
                "unset global batch"
            );
        }
        other => println!("unexpected builder outcome: {other:?}"),
    }
}
