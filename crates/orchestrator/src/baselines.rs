//! Baseline orchestration strategies.
//!
//! * [`megatron_plan`] — the monolithic strategy of §2.1: encoder and
//!   generator are extra pipeline stages; TP = 8 everywhere (the full
//!   NVLink node); one shared DP size; encoder/generator replicated across
//!   the TP group. The §7.1 experiments pin PP_lm to 1 / 2 / 10 for the
//!   three models; other scales fall back to the smallest memory-feasible
//!   PP.
//! * [`distmm_star_plan`] — DistMM* (§7.2): DistTrain's machinery but with
//!   DistMM's orchestration rule, "resource allocation by model size and
//!   FLOPs" — GPUs split proportionally to each module's training FLOPs,
//!   ignoring the §4.2 performance model.

use crate::error::PlanError;
use crate::formulate::ProblemSpec;
use crate::profiler::TaskProfile;
use dt_model::mllm::{Resolutions, SampleShape};
use dt_model::{ModuleKind, MultimodalLlm};
use dt_parallel::{ModulePlan, OrchestrationPlan};

fn divisors_desc(n: u32) -> Vec<u32> {
    let mut d: Vec<u32> = (1..=n).filter(|k| n.is_multiple_of(*k)).collect();
    d.sort_unstable_by(|a, b| b.cmp(a));
    d
}

/// The paper's fixed Megatron PP_lm choices (§7.1) by backbone layer count.
fn paper_pp_lm(model: &MultimodalLlm) -> Option<u32> {
    match model.backbone.layers {
        32 => Some(1),  // Llama3-7B
        40 => Some(2),  // Llama3-13B
        80 => Some(10), // Llama3-70B
        _ => None,
    }
}

/// The fixed sample the Megatron-LM and proportional-shrink baselines size
/// and validate their plans for: half text, half image tokens over four
/// 512-px images, one generation target.
fn baseline_shape(model: &MultimodalLlm) -> SampleShape {
    SampleShape {
        text_tokens: model.seq_len / 2,
        image_tokens: model.seq_len / 2,
        image_resolutions: Resolutions::repeat(512, 4),
        gen_images: 1,
        gen_res: model.gen_resolution,
    }
}

/// Megatron-LM's monolithic orchestration.
pub fn megatron_plan(
    spec: &ProblemSpec,
    model: &MultimodalLlm,
) -> Result<OrchestrationPlan, PlanError> {
    let tp = spec.gpus_per_node.min(8);
    let shape = baseline_shape(model);
    let bb_mem = model.module_memory(ModuleKind::Backbone, &shape);
    let mut pps: Vec<u32> = (1..=model.backbone.layers)
        .filter(|k| model.backbone.layers.is_multiple_of(*k))
        .collect();
    pps.sort_unstable();
    let pp_tried = pps.len();
    let pp_lm = paper_pp_lm(model)
        .filter(|&pp| bb_mem.fits(spec.hbm_bytes, pp, tp, 1, spec.microbatch))
        .or_else(|| {
            pps.into_iter()
                .find(|&pp| bb_mem.fits(spec.hbm_bytes, pp, tp, 1, spec.microbatch))
        })
        .ok_or(PlanError::NoMemoryFeasiblePoint {
            candidates_evaluated: pp_tried,
            memory_rejected: pp_tried,
        })?;

    // One shared DP across all modules; the pipeline is PP_lm + 2 stages
    // deep, each stage TP GPUs wide per DP replica.
    let stages = pp_lm + 2;
    let dp_cap = spec.total_gpus / (tp * stages);
    let bs_over_m = spec.global_batch / spec.microbatch.max(1);
    let dp = divisors_desc(bs_over_m)
        .into_iter()
        .find(|&d| d <= dp_cap)
        .ok_or(PlanError::ClusterTooSmall {
            total_gpus: spec.total_gpus,
            min_required: tp * stages,
        })?;

    Ok(OrchestrationPlan {
        encoder: ModulePlan::replicated(tp, dp, 1),
        backbone: ModulePlan::new(tp, dp, pp_lm).with_sp(),
        generator: ModulePlan::replicated(tp, dp, 1),
        microbatch: spec.microbatch,
    })
}

/// The naive elastic-shrink baseline: keep the old plan's TP/PP choices and
/// its (x, y, z) GPU *ratios*, scaled down to the degraded cluster — what a
/// system without re-orchestration would do after losing nodes. Each module
/// keeps its parallelism style; only DP widths shrink (the backbone DP to
/// the largest batch divisor within its scaled share). Errs when even the
/// proportional shapes cannot fit.
pub fn proportional_shrink_plan(
    spec: &ProblemSpec,
    model: &MultimodalLlm,
    old: &OrchestrationPlan,
) -> Result<OrchestrationPlan, PlanError> {
    let old_total = old.total_gpus();
    if spec.total_gpus >= old_total {
        return Ok(*old);
    }
    let scale = spec.total_gpus as f64 / old_total as f64;

    // Backbone: same TP and PP; DP shrinks to the largest global-batch
    // divisor whose footprint fits the scaled backbone share.
    let tp = old.backbone.tp;
    let pp = old.backbone.pp;
    let y_budget = (old.backbone.gpus() as f64 * scale).floor() as u32;
    let bs_over_m = spec.global_batch / spec.microbatch.max(1);
    let dp = divisors_desc(bs_over_m)
        .into_iter()
        .find(|&d| d * tp * pp <= y_budget)
        .ok_or(PlanError::ClusterTooSmall {
            total_gpus: spec.total_gpus,
            min_required: tp * pp + 2,
        })?;
    let backbone = if old.backbone.sp {
        ModulePlan::new(tp, dp, pp).with_sp()
    } else {
        ModulePlan::new(tp, dp, pp)
    };

    // Encoder/generator: same group width, DP scaled down (at least one
    // group survives).
    let shrink_small = |m: &ModulePlan| -> ModulePlan {
        let dp = ((m.dp as f64 * scale).round() as u32).max(1);
        ModulePlan { dp, ..*m }
    };
    let mut plan = OrchestrationPlan {
        encoder: shrink_small(&old.encoder),
        backbone,
        generator: shrink_small(&old.generator),
        microbatch: old.microbatch,
    };
    // Rounding can overshoot the budget; trim the widest small module.
    while plan.total_gpus() > spec.total_gpus {
        let (e, g) = (plan.encoder.gpus(), plan.generator.gpus());
        if e >= g && plan.encoder.dp > 1 {
            plan.encoder.dp -= 1;
        } else if plan.generator.dp > 1 {
            plan.generator.dp -= 1;
        } else {
            return Err(PlanError::ClusterTooSmall {
                total_gpus: spec.total_gpus,
                min_required: plan.total_gpus(),
            });
        }
    }
    plan.validate(
        spec.total_gpus,
        spec.gpus_per_node,
        spec.hbm_bytes,
        model,
        &baseline_shape(model),
        spec.global_batch,
    )
    .map_err(|_| PlanError::NoMemoryFeasiblePoint {
        candidates_evaluated: 1,
        memory_rejected: 1,
    })?;
    Ok(plan)
}

/// DistMM*'s FLOPs-proportional orchestration.
pub fn distmm_star_plan(
    spec: &ProblemSpec,
    model: &MultimodalLlm,
    profile: &TaskProfile,
) -> Result<OrchestrationPlan, PlanError> {
    // FLOPs proxy: the profiled per-sample TP=1 training times (pure
    // compute magnitude, exactly what "allocation by model size and FLOPs"
    // sees — it ignores how parallelism changes those times).
    let c_me = profile.encoder.train(1);
    let c_lm = profile.backbone.train(1);
    let c_mg = profile.generator.train(1);
    let total = c_me + c_lm + c_mg;
    if total <= 0.0 {
        return Err(PlanError::InvalidSpec {
            field: "profile",
            reason: "profiled training times must be positive".into(),
        });
    }
    let node = spec.gpus_per_node;
    let n = spec.total_gpus;
    let x = (((n as f64 * c_me / total) / node as f64).round() as u32 * node).max(node);
    let z = (((n as f64 * c_mg / total) / node as f64).round() as u32 * node).max(node);
    let y_budget = n.checked_sub(x + z).ok_or(PlanError::ClusterTooSmall {
        total_gpus: n,
        min_required: x + z + 1,
    })?;

    // Backbone: TP = node width, the largest batch-divisor DP that fits,
    // PP from what remains.
    let tp = node.min(8);
    let bs_over_m = spec.global_batch / spec.microbatch.max(1);
    let shape = &profile.mean_shape;
    let bb_mem = model.module_memory(ModuleKind::Backbone, shape);
    let mut tried = 0usize;
    for dp in divisors_desc(bs_over_m) {
        if dp * tp > y_budget {
            continue;
        }
        tried += 1;
        let pp_budget = y_budget / (dp * tp);
        // Largest layer-divisor PP within budget that satisfies memory.
        let pp = (1..=model.backbone.layers)
            .filter(|k| model.backbone.layers.is_multiple_of(*k) && *k <= pp_budget)
            .filter(|&pp| bb_mem.fits(spec.hbm_bytes, pp, tp, dp, spec.microbatch))
            .max();
        if let Some(pp) = pp {
            return Ok(OrchestrationPlan {
                encoder: ModulePlan::replicated(node, x / node, 1),
                backbone: ModulePlan::new(tp, dp, pp).with_sp(),
                generator: ModulePlan::replicated(node, z / node, 1),
                microbatch: spec.microbatch,
            });
        }
    }
    Err(PlanError::NoMemoryFeasiblePoint {
        candidates_evaluated: tried,
        memory_rejected: tried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::profiler::Profiler;
    use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::MllmPreset;

    fn spec(n: u32, bs: u32) -> ProblemSpec {
        ProblemSpec {
            total_gpus: n,
            gpus_per_node: 8,
            hbm_bytes: 80 * (1 << 30),
            global_batch: bs,
            microbatch: 1,
            vpp: 1,
            pp_hop_secs: 0.0,
        }
    }

    fn profile_of(model: &MultimodalLlm, nodes: u32) -> TaskProfile {
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(nodes));
        let perf = PerfModel::new(model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(model.gen_resolution), 23);
        Profiler.profile(&perf, &data.take(64))
    }

    #[test]
    fn megatron_uses_shared_dp_and_tp8() {
        let model = MllmPreset::Mllm9B.build();
        let p = megatron_plan(&spec(1296, 1920), &model).unwrap();
        assert_eq!(p.backbone.tp, 8);
        assert_eq!(p.encoder.tp, 8);
        assert!(p.encoder.replicate_in_tp_group);
        assert_eq!(p.encoder.dp, p.backbone.dp);
        assert_eq!(p.generator.dp, p.backbone.dp);
        assert_eq!(p.backbone.pp, 1); // paper's 7B setting
        assert!(p.total_gpus() <= 1296);
    }

    #[test]
    fn megatron_pp_matches_paper_for_all_models() {
        for (preset, pp) in [
            (MllmPreset::Mllm9B, 1),
            (MllmPreset::Mllm15B, 2),
            (MllmPreset::Mllm72B, 10),
        ] {
            let model = preset.build();
            let p = megatron_plan(&spec(1296, 1920), &model).unwrap();
            assert_eq!(p.backbone.pp, pp, "{preset:?}");
        }
    }

    #[test]
    fn megatron_wastes_gpus_on_multimodal_stages() {
        // The §7.1 diagnosis: Megatron "assigns too many GPUs to the
        // modality encoder and generator" — 2 of every PP_lm+2 stages.
        let model = MllmPreset::Mllm9B.build();
        let p = megatron_plan(&spec(1296, 1920), &model).unwrap();
        let multimodal = p.encoder.gpus() + p.generator.gpus();
        assert!(
            multimodal * 2 >= p.backbone.gpus(),
            "9B: 2 of 3 stages are multimodal"
        );
    }

    #[test]
    fn distmm_allocates_by_flops_share() {
        let model = MllmPreset::Mllm72B.build();
        let profile = profile_of(&model, 12);
        let p = distmm_star_plan(&spec(96, 40), &model, &profile).unwrap();
        // The 70B backbone dominates FLOPs → most GPUs.
        assert!(p.backbone.gpus() > p.encoder.gpus() + p.generator.gpus());
        assert!(p.total_gpus() <= 96);
    }

    #[test]
    fn proportional_shrink_keeps_shapes_and_fits() {
        let model = MllmPreset::Mllm9B.build();
        let old = OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 2, 1),
            backbone: ModulePlan::new(8, 8, 1).with_sp(),
            generator: ModulePlan::replicated(8, 1, 1),
            microbatch: 1,
        };
        // 96 → 88 GPUs (one node lost).
        let p = proportional_shrink_plan(&spec(88, 128), &model, &old).unwrap();
        assert!(p.total_gpus() <= 88);
        assert_eq!(p.backbone.tp, old.backbone.tp, "naive shrink keeps TP");
        assert_eq!(p.backbone.pp, old.backbone.pp, "naive shrink keeps PP");
        assert!(p.backbone.dp <= old.backbone.dp);
        assert_eq!(128 % p.backbone.dp, 0, "DP stays a batch divisor");
        assert!(p.encoder.replicate_in_tp_group, "module styles survive");
    }

    #[test]
    fn proportional_shrink_is_identity_without_loss() {
        let model = MllmPreset::Mllm9B.build();
        let old = OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 1, 1),
            backbone: ModulePlan::new(8, 8, 1).with_sp(),
            generator: ModulePlan::replicated(8, 1, 1),
            microbatch: 1,
        };
        let p = proportional_shrink_plan(&spec(96, 128), &model, &old).unwrap();
        assert_eq!(p, old);
    }

    #[test]
    fn distmm_gives_multimodal_modules_round_node_counts() {
        let model = MllmPreset::Mllm9B.build();
        let profile = profile_of(&model, 12);
        let p = distmm_star_plan(&spec(96, 128), &model, &profile).unwrap();
        assert_eq!(p.encoder.gpus() % 8, 0);
        assert_eq!(p.generator.gpus() % 8, 0);
    }
}
