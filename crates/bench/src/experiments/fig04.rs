//! Figure 4 — the two pipeline-bubble types of the monolithic approach.
//!
//! Type (a): bubbles *inside the multimodal stages* when the encoder or
//! generator under-utilizes its allocated GPUs. Type (b): bubbles *inside
//! the LLM stages* when an inflated multimodal stage gates the pipeline.
//! We execute the Megatron-LM monolithic plan for MLLM-9B and report the
//! per-stage bubble fraction, labeled by module.

use crate::experiments::ablation_task;
use crate::report::{fmt_pct, Report};
use disttrain_core::{Runtime, SystemKind};
use dt_cluster::CollectiveCost;
use dt_data::{GlobalBatch, SyntheticLaion};
use dt_model::MllmPreset;
use dt_orchestrator::PerfModel;
use dt_pipeline::{simulate, PipelineSpec};

/// Run the bubble analysis.
pub fn run() -> Report {
    let task = ablation_task(MllmPreset::Mllm9B);
    let plan = task.plan(SystemKind::MegatronLM).expect("megatron plan");
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::MegatronLM, 1),
    };
    let coll = CollectiveCost::new(task.cluster.clone());
    let perf = PerfModel::new(&task.model, &task.cluster.node.gpu, &coll);
    let mut gen = SyntheticLaion::new(task.data.clone(), task.seed);
    let batch = GlobalBatch::new(gen.take(task.global_batch as usize));
    let per_rank = batch.split(plan.backbone.dp, plan.microbatch);

    // Rank 0's pipeline is representative for stage-level bubbles.
    let workload = runtime.build_workload_for(&perf, &per_rank[0]);
    let spec = PipelineSpec {
        schedule: runtime.cfg.schedule,
        comm: runtime.build_comm_for(&coll),
    };
    let result = simulate(&spec, &workload);

    let mut r = Report::new(
        "Figure 4 — bubble fraction per pipeline stage (Megatron-LM monolithic, MLLM-9B)",
        &["stage", "module", "bubble"],
    );
    r.note("Type (a): multimodal stages idle (over-provisioned).");
    r.note("Type (b): LLM stages wait on inflated multimodal stages.");
    let pp_me = plan.encoder.pp as usize;
    let pp_lm = plan.backbone.pp as usize;
    for s in 0..result.stages {
        let module = if s < pp_me {
            "encoder"
        } else if s < pp_me + pp_lm {
            "LLM backbone"
        } else {
            "generator"
        };
        r.row(vec![
            format!("{s}"),
            module.into(),
            fmt_pct(result.stage_bubble_fraction(s)),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_pipeline_has_substantial_bubbles() {
        let r = run();
        let frac = |row: &Vec<String>| row[2].trim_end_matches('%').parse::<f64>().unwrap() / 100.0;
        // The encoder/generator stages (first and last row) must idle —
        // bubble type (a).
        let first = frac(&r.rows[0]);
        let last = frac(r.rows.last().unwrap());
        assert!(first > 0.3, "encoder stage bubble {first}");
        assert!(last > 0.3, "generator stage bubble {last}");
    }
}
