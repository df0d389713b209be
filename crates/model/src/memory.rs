//! Per-GPU memory accounting — the §4.2 constraint model.
//!
//! Memory on one GPU has four parts (quoting the paper's formulation for
//! the LLM backbone; encoder/generator are analogous):
//!
//! * parameters + gradients: `P / (PP × TP)` — bf16 weights (2 B/param) and
//!   fp32 main gradients (4 B/param) under mixed-precision training \[45\];
//! * optimizer states: `S / (DP × PP × TP)` — ZeRO-1 \[51\] shards the Adam
//!   states (fp32 master copy + two moments = 12 B/param) across DP ranks;
//! * activations: under 1F1B the first PP stage stashes `PP` in-flight
//!   microbatches, so the peak is `PP × L/(PP × TP) × M = L·M / TP` where
//!   `L` is the activation footprint of one sample across the whole module;
//! * a fixed reserve for CUDA context, NCCL buffers and fragmentation.
//!
//! Frozen modules keep bf16 weights but need no gradients or optimizer
//! states.

/// Bytes per parameter for bf16 weights.
pub const WEIGHT_BYTES: u64 = 2;
/// Bytes per parameter for fp32 main gradients.
pub const GRAD_BYTES: u64 = 4;
/// Bytes per parameter for Adam optimizer states under mixed precision
/// (fp32 master weights + first and second moments).
pub const OPTIMIZER_BYTES: u64 = 12;
/// Fixed per-GPU reserve (CUDA context, NCCL, allocator slack).
pub const RESERVED_BYTES: u64 = 6 * (1 << 30);

/// Memory-relevant description of one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleMemory {
    /// Parameter count.
    pub params: u64,
    /// Activation bytes stashed by one *sample* across the whole module.
    pub activation_per_sample: u64,
    /// Frozen (no gradients / optimizer states)?
    pub frozen: bool,
}

impl ModuleMemory {
    /// Describe a module.
    pub fn new(params: u64, activation_per_sample: u64, frozen: bool) -> Self {
        ModuleMemory {
            params,
            activation_per_sample,
            frozen,
        }
    }

    /// Parameter + gradient bytes on one GPU.
    pub fn param_grad_bytes_per_gpu(&self, pp: u32, tp: u32) -> u64 {
        let shard = (pp as u64 * tp as u64).max(1);
        let per_param = if self.frozen {
            WEIGHT_BYTES
        } else {
            WEIGHT_BYTES + GRAD_BYTES
        };
        self.params * per_param / shard
    }

    /// Optimizer-state bytes on one GPU (ZeRO-1 shards across DP).
    pub fn optimizer_bytes_per_gpu(&self, pp: u32, tp: u32, dp: u32) -> u64 {
        if self.frozen {
            return 0;
        }
        let shard = (pp as u64 * tp as u64 * dp as u64).max(1);
        self.params * OPTIMIZER_BYTES / shard
    }

    /// Peak activation bytes on one GPU under 1F1B with `microbatch` samples
    /// per microbatch: the first stage holds `pp` microbatches, each costing
    /// `L·M/(pp·tp)`, i.e. `L·M/tp` total.
    pub fn activation_bytes_per_gpu(&self, tp: u32, microbatch: u32) -> u64 {
        self.activation_per_sample * microbatch as u64 / tp.max(1) as u64
    }

    /// Total peak bytes on one GPU.
    pub fn peak_bytes_per_gpu(&self, pp: u32, tp: u32, dp: u32, microbatch: u32) -> u64 {
        self.peak_bytes_per_gpu_ext(pp, tp, dp, microbatch, true, 1)
    }

    /// Peak bytes with the §4.1 extensions made explicit.
    ///
    /// * `sp` — sequence parallelism: with SP the whole activation stash
    ///   divides by TP; without it only the tensor-parallel regions do
    ///   (~24 of the 34 bytes/token/hidden in the Megatron accounting), so
    ///   the per-GPU share is `(10 + 24/tp)/34` of the full stash.
    /// * `ep` — expert parallelism: experts (the bulk of an MoE module's
    ///   parameters) shard across the EP group in addition to TP×PP.
    pub fn peak_bytes_per_gpu_ext(
        &self,
        pp: u32,
        tp: u32,
        dp: u32,
        microbatch: u32,
        sp: bool,
        ep: u32,
    ) -> u64 {
        let act = if sp || tp <= 1 {
            self.activation_bytes_per_gpu(tp, microbatch)
        } else {
            let full = self.activation_per_sample * microbatch as u64;
            (full as f64 * (10.0 + 24.0 / tp as f64) / 34.0) as u64
        };
        // EP shards weights/gradients further (MoE parameters are
        // dominated by experts); ZeRO-1 optimizer states already shard
        // over the full DP group, which contains the EP ranks.
        let ep = ep.max(1) as u64;
        (self.param_grad_bytes_per_gpu(pp, tp) / ep)
            + self.optimizer_bytes_per_gpu(pp, tp, dp)
            + act
            + RESERVED_BYTES
    }

    /// Does the configuration fit a GPU with `hbm_bytes` of memory?
    pub fn fits(&self, hbm_bytes: u64, pp: u32, tp: u32, dp: u32, microbatch: u32) -> bool {
        self.peak_bytes_per_gpu(pp, tp, dp, microbatch) <= hbm_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    fn seven_b() -> ModuleMemory {
        // ~7B params, ~2 GB activations per 8K-token sample.
        ModuleMemory::new(7_000_000_000, 2 * GB, false)
    }

    #[test]
    fn monolithic_7b_does_not_fit_one_gpu() {
        // 7B × (2+4+12) B = 126 GB ≫ 80 GB: must shard.
        let m = seven_b();
        assert!(!m.fits(80 * GB, 1, 1, 1, 1));
    }

    #[test]
    fn sharding_brings_it_under_capacity() {
        let m = seven_b();
        // PP=1, TP=8, DP=8: 42/8 + 84/64 + 2/8·1 + 6 GB ≈ 12.8 GB.
        assert!(m.fits(80 * GB, 1, 8, 8, 1));
    }

    #[test]
    fn zero1_shards_optimizer_across_dp() {
        let m = seven_b();
        let dp1 = m.optimizer_bytes_per_gpu(1, 8, 1);
        let dp8 = m.optimizer_bytes_per_gpu(1, 8, 8);
        assert_eq!(dp1, 8 * dp8);
    }

    #[test]
    fn frozen_modules_keep_only_weights() {
        let mut m = seven_b();
        m.frozen = true;
        assert_eq!(
            m.param_grad_bytes_per_gpu(1, 1),
            7_000_000_000 * WEIGHT_BYTES
        );
        assert_eq!(m.optimizer_bytes_per_gpu(1, 1, 1), 0);
    }

    #[test]
    fn activation_peak_follows_1f1b_stash_rule() {
        let m = seven_b();
        // Peak is L·M/TP, independent of PP (PP stages × L·M/(PP·TP) each).
        assert_eq!(m.activation_bytes_per_gpu(2, 4), 2 * GB * 4 / 2);
    }

    #[test]
    fn pp_and_tp_shard_params_equally() {
        let m = seven_b();
        assert_eq!(
            m.param_grad_bytes_per_gpu(2, 4),
            m.param_grad_bytes_per_gpu(4, 2)
        );
    }
}
