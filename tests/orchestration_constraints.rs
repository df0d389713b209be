//! Constraint safety of the orchestrator (§4.2): every plan any system
//! produces, at any scale, must respect GPU budget, NVLink-confined TP,
//! per-module memory capacity, and batch divisibility.

use disttrain::cluster::ClusterSpec;
use disttrain::core::{SystemKind, TrainingTask};
use disttrain::model::{MllmPreset, ModuleKind};

fn check_plan(task: &TrainingTask, kind: SystemKind) {
    let plan = task.plan(kind).unwrap_or_else(|e| {
        panic!(
            "{kind} failed to plan {} on {} GPUs: {e}",
            task.model.name,
            task.cluster.total_gpus()
        )
    });
    // Re-validate through the public validator.
    let shape = dt_model::mllm::SampleShape {
        text_tokens: 4096,
        image_tokens: 4096,
        image_resolutions: dt_model::mllm::Resolutions::repeat(512, 4),
        gen_images: 2,
        gen_res: task.data.gen_resolution,
    };
    plan.validate(
        task.cluster.total_gpus(),
        task.cluster.node.gpus_per_node,
        task.cluster.node.gpu.hbm_bytes,
        &task.model,
        &shape,
        task.global_batch,
    )
    .unwrap_or_else(|e| panic!("{kind} produced an invalid plan: {e}"));

    // Structural invariants beyond the validator.
    assert!(plan.backbone.pp >= 1 && task.model.backbone.layers.is_multiple_of(plan.backbone.pp));
    for m in ModuleKind::ALL {
        let p = plan.module(m);
        assert!(p.tp.is_power_of_two() && p.tp <= 8);
    }
    assert_eq!(task.global_batch % (plan.backbone.dp * plan.microbatch), 0);
}

#[test]
fn plans_are_valid_across_scales_and_models() {
    for preset in MllmPreset::ALL {
        for (nodes, bs) in [(4u32, 16u32), (12, 48), (30, 240)] {
            // MLLM-72B cannot physically fit below ~96 GPUs (Megatron's
            // monolithic plan needs TP8 × (PP10 + 2 stages)).
            if preset == MllmPreset::Mllm72B && nodes < 12 {
                continue;
            }
            let mut task = TrainingTask::ablation(preset.build(), bs);
            task.cluster = ClusterSpec::production(nodes);
            for kind in [
                SystemKind::DistTrain,
                SystemKind::MegatronLM,
                SystemKind::DistMMStar,
            ] {
                check_plan(&task, kind);
            }
        }
    }
}

#[test]
fn production_scale_plans_are_valid() {
    for preset in MllmPreset::ALL {
        let task = TrainingTask::production(preset.build());
        check_plan(&task, SystemKind::DistTrain);
        check_plan(&task, SystemKind::MegatronLM);
    }
}

#[test]
fn infeasible_tasks_return_a_diagnosis_instead_of_panicking() {
    // 70B with 8 GPUs cannot hold the weights at any parallelism; each
    // planner says why in one line instead of a bare `None` — DistTrain's
    // search dies at the memory gate, Megatron's monolithic layout needs
    // TP8 × (PP+2) stages the cluster cannot offer.
    use disttrain::orchestrator::PlanError;
    let mut task = TrainingTask::ablation(MllmPreset::Mllm72B.build(), 8);
    task.cluster = ClusterSpec::production(1);
    let dt = task
        .plan(SystemKind::DistTrain)
        .expect_err("8 GPUs cannot hold a 72B model");
    assert!(
        matches!(dt, PlanError::NoMemoryFeasiblePoint { .. }),
        "DistTrain: expected a memory diagnosis, got {dt:?}"
    );
    let mg = task
        .plan(SystemKind::MegatronLM)
        .expect_err("8 GPUs cannot host 12 stages");
    assert!(
        matches!(mg, PlanError::ClusterTooSmall { .. }),
        "Megatron-LM: expected a cluster-size diagnosis, got {mg:?}"
    );
    for err in [dt, mg] {
        let s = err.to_string();
        assert!(
            !s.is_empty() && !s.contains('\n'),
            "one-line diagnosis: {s}"
        );
    }
}

#[test]
fn orchestration_objective_never_misses_the_budget() {
    // The plan's GPU count never exceeds the cluster even after trimming
    // and rounding games.
    for nodes in [3u32, 7, 11, 23] {
        let mut task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 48);
        task.cluster = ClusterSpec::production(nodes);
        if let Ok(plan) = task.plan(SystemKind::DistTrain) {
            assert!(
                plan.total_gpus() <= nodes * 8,
                "{} > {}",
                plan.total_gpus(),
                nodes * 8
            );
        }
    }
}
