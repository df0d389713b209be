//! Orchestration plans: who gets which GPUs with which parallelism.

use dt_model::{memory::ModuleMemory, mllm::SampleShape, ModuleKind, MultimodalLlm};

/// Parallelism assignment of one module (one parallelism unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModulePlan {
    /// Tensor-parallel size (1, 2, 4 or 8 — confined to one NVLink node,
    /// §4.3).
    pub tp: u32,
    /// Data-parallel size.
    pub dp: u32,
    /// Pipeline-parallel size.
    pub pp: u32,
    /// When `true`, the module is small enough that the GPUs of the TP
    /// group each hold a *replica* and process different samples instead of
    /// sharding tensors ("we replicate the modality encoder and generator
    /// across the GPUs within the TP group ... whereas TP itself is not
    /// used", §7.1). TP communication cost is then zero and the group
    /// contributes `tp×` data throughput.
    pub replicate_in_tp_group: bool,
    /// Sequence parallelism within the TP group (§4.1: "to handle long
    /// sequences, \[DistTrain\] integrates sequence parallelism within the
    /// LLM backbone unit"). Splits the non-tensor-parallel activation
    /// regions across the TP ranks, shrinking the 1F1B activation stash.
    pub sp: bool,
    /// Expert-parallel group size for MoE backbones (§4.1: the TP
    /// formulation "remains valid when TP is replaced with EP"). Experts
    /// are sharded across `ep` ranks drawn from the DP dimension; `ep`
    /// must divide `dp`. 1 for dense models.
    pub ep: u32,
}

impl ModulePlan {
    /// A plain TP/DP/PP plan.
    pub fn new(tp: u32, dp: u32, pp: u32) -> Self {
        ModulePlan {
            tp,
            dp,
            pp,
            replicate_in_tp_group: false,
            sp: false,
            ep: 1,
        }
    }

    /// A replicated plan (see `replicate_in_tp_group`).
    pub fn replicated(group: u32, dp: u32, pp: u32) -> Self {
        ModulePlan {
            tp: group,
            dp,
            pp,
            replicate_in_tp_group: true,
            sp: false,
            ep: 1,
        }
    }

    /// Enable sequence parallelism (meaningful when `tp > 1`).
    pub fn with_sp(mut self) -> Self {
        self.sp = self.tp > 1;
        self
    }

    /// Set the expert-parallel width (must divide `dp`).
    pub fn with_ep(mut self, ep: u32) -> Self {
        self.ep = ep.max(1);
        self
    }

    /// GPUs consumed by the unit.
    pub fn gpus(&self) -> u32 {
        self.tp * self.dp * self.pp
    }

    /// Number of independent sample streams the unit can process in
    /// parallel (replication turns TP-group members into extra streams).
    pub fn effective_data_width(&self) -> u32 {
        if self.replicate_in_tp_group {
            self.dp * self.tp
        } else {
            self.dp
        }
    }

    /// TP size used for *sharding* (1 when the group is replicated).
    pub fn shard_tp(&self) -> u32 {
        if self.replicate_in_tp_group {
            1
        } else {
            self.tp
        }
    }

    /// Validate the §4.3 confinement: TP within a node, strictly positive
    /// sizes, EP dividing DP.
    pub fn validate(&self, gpus_per_node: u32) -> Result<(), String> {
        if self.tp == 0 || self.dp == 0 || self.pp == 0 {
            return Err(format!("degenerate plan {self:?}"));
        }
        if self.tp > gpus_per_node {
            return Err(format!(
                "TP {} exceeds the {}-GPU NVLink domain",
                self.tp, gpus_per_node
            ));
        }
        if !self.tp.is_power_of_two() {
            return Err(format!("TP {} not a power of two", self.tp));
        }
        if self.ep == 0 || !self.dp.is_multiple_of(self.ep) {
            return Err(format!("EP {} must divide DP {}", self.ep, self.dp));
        }
        if self.sp && self.tp == 1 {
            return Err("sequence parallelism requires TP > 1".into());
        }
        Ok(())
    }

    /// Peak memory per GPU for a module with `mem` under this plan.
    pub fn peak_memory(&self, mem: &ModuleMemory, microbatch: u32) -> u64 {
        // ZeRO-1 shards optimizer states over DP; a replicated "TP" group
        // behaves as extra DP for sharding purposes.
        let (tp, dp) = if self.replicate_in_tp_group {
            (1, self.dp * self.tp)
        } else {
            (self.tp, self.dp)
        };
        mem.peak_bytes_per_gpu_ext(self.pp, tp, dp, microbatch, self.sp, self.ep)
    }
}

/// Full assignment for one multimodal LLM training task (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchestrationPlan {
    /// Encoder unit plan.
    pub encoder: ModulePlan,
    /// Backbone unit plan.
    pub backbone: ModulePlan,
    /// Generator unit plan.
    pub generator: ModulePlan,
    /// Microbatch size `M` (samples per microbatch per backbone DP rank;
    /// fixed small, §4.2).
    pub microbatch: u32,
}

impl OrchestrationPlan {
    /// The plan of one module.
    pub fn module(&self, m: ModuleKind) -> ModulePlan {
        match m {
            ModuleKind::Encoder => self.encoder,
            ModuleKind::Backbone => self.backbone,
            ModuleKind::Generator => self.generator,
        }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> u32 {
        self.encoder.gpus() + self.backbone.gpus() + self.generator.gpus()
    }

    /// Total pipeline depth (stages across all three units).
    pub fn total_stages(&self) -> u32 {
        self.encoder.pp + self.backbone.pp + self.generator.pp
    }

    /// Validate against cluster size, §4.3 confinement, batch divisibility
    /// and per-module memory capacity.
    pub fn validate(
        &self,
        total_gpus: u32,
        gpus_per_node: u32,
        hbm_bytes: u64,
        model: &MultimodalLlm,
        shape: &SampleShape,
        global_batch: u32,
    ) -> Result<(), String> {
        for (kind, plan) in [
            (ModuleKind::Encoder, self.encoder),
            (ModuleKind::Backbone, self.backbone),
            (ModuleKind::Generator, self.generator),
        ] {
            plan.validate(gpus_per_node)
                .map_err(|e| format!("{kind}: {e}"))?;
            let mem = model.module_memory(kind, shape);
            // The module's per-microbatch sample count: the backbone defines
            // M; encoder/generator see DP_lm·M/DP_me samples (§4.2).
            let samples = match kind {
                ModuleKind::Backbone => self.microbatch,
                _ => {
                    let total = self.backbone.dp as u64 * self.microbatch as u64;
                    total.div_ceil(plan.effective_data_width() as u64) as u32
                }
            };
            let peak = plan.peak_memory(&mem, samples.max(1));
            if peak > hbm_bytes {
                return Err(format!(
                    "{kind}: peak memory {:.1} GiB exceeds {:.1} GiB HBM under {plan:?}",
                    peak as f64 / (1u64 << 30) as f64,
                    hbm_bytes as f64 / (1u64 << 30) as f64,
                ));
            }
        }
        if self.total_gpus() > total_gpus {
            return Err(format!(
                "plan wants {} GPUs, cluster has {total_gpus}",
                self.total_gpus()
            ));
        }
        if !global_batch.is_multiple_of(self.backbone.dp * self.microbatch) {
            return Err(format!(
                "global batch {global_batch} not divisible by DP_lm×M = {}",
                self.backbone.dp * self.microbatch
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_model::MllmPreset;

    fn shape() -> SampleShape {
        SampleShape {
            text_tokens: 6144,
            image_tokens: 2048,
            num_images: 2,
            gen_images: 1,
            image_res: 512,
            gen_res: 512,
        }
    }

    #[test]
    fn gpu_accounting_adds_up() {
        let plan = OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 2, 1),
            backbone: ModulePlan::new(8, 4, 2),
            generator: ModulePlan::new(4, 1, 1),
            microbatch: 1,
        };
        assert_eq!(plan.total_gpus(), 16 + 64 + 4);
        assert_eq!(plan.total_stages(), 4);
    }

    #[test]
    fn replication_boosts_effective_width_and_drops_shard_tp() {
        let p = ModulePlan::replicated(8, 2, 1);
        assert_eq!(p.effective_data_width(), 16);
        assert_eq!(p.shard_tp(), 1);
        assert_eq!(p.gpus(), 16);
        let q = ModulePlan::new(8, 2, 1);
        assert_eq!(q.effective_data_width(), 2);
        assert_eq!(q.shard_tp(), 8);
    }

    #[test]
    fn validation_rejects_oversized_tp() {
        assert!(ModulePlan::new(16, 1, 1).validate(8).is_err());
        assert!(ModulePlan::new(3, 1, 1).validate(8).is_err());
        assert!(ModulePlan::new(8, 1, 1).validate(8).is_ok());
    }

    #[test]
    fn validation_rejects_memory_overflow() {
        let model = MllmPreset::Mllm72B.build();
        // 70B on a single GPU cannot fit.
        let plan = OrchestrationPlan {
            encoder: ModulePlan::new(1, 1, 1),
            backbone: ModulePlan::new(1, 1, 1),
            generator: ModulePlan::new(1, 1, 1),
            microbatch: 1,
        };
        let err = plan
            .validate(1296, 8, 80 * (1 << 30), &model, &shape(), 1920)
            .unwrap_err();
        assert!(err.contains("backbone"), "unexpected error: {err}");
    }

    #[test]
    fn validation_accepts_a_sane_72b_plan() {
        let model = MllmPreset::Mllm72B.build();
        let plan = OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 8, 1),
            backbone: ModulePlan::new(8, 12, 10),
            generator: ModulePlan::new(8, 8, 1),
            microbatch: 1,
        };
        plan.validate(1296, 8, 80 * (1 << 30), &model, &shape(), 1920)
            .expect("plan should fit");
    }

    #[test]
    fn validation_rejects_batch_indivisibility() {
        let model = MllmPreset::Mllm9B.build();
        let plan = OrchestrationPlan {
            encoder: ModulePlan::new(1, 1, 1),
            backbone: ModulePlan::new(8, 7, 1),
            generator: ModulePlan::new(1, 1, 1),
            microbatch: 1,
        };
        let err = plan
            .validate(1296, 8, 80 * (1 << 30), &model, &shape(), 128)
            .unwrap_err();
        assert!(err.contains("divisible"), "unexpected error: {err}");
    }
}
