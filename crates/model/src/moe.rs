//! Mixture-of-experts backbone extension (§4.1, §8).
//!
//! DistTrain "supports expert parallelism (EP) for the LLM backbone.
//! Since EP and TP both perform parallel computation and communication
//! within one layer, our subsequent formulation involving TP remains
//! valid when TP is replaced with EP" (§4.1). This module supplies the
//! model side: a GLaM/Mixtral-style sparse FFN where each token is routed
//! to `top_k` of `experts` feed-forward networks.
//!
//! Cost algebra: parameters multiply by the expert count (every expert
//! holds a full FFN); per-token FLOPs multiply by only `top_k` (sparse
//! activation) plus the router projection. Expert parallelism shards the
//! experts across an EP group and pays two all-to-alls per layer
//! (dispatch + combine) to move each token's hidden state to and from its
//! experts' owners.

/// Sparse-FFN (MoE) configuration attached to a transformer stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeConfig {
    /// Number of experts per MoE layer.
    pub experts: u32,
    /// Experts activated per token.
    pub top_k: u32,
}

impl MoeConfig {
    /// The common 8-expert / top-2 configuration (Mixtral, GLaM-style).
    pub fn eight_top2() -> Self {
        MoeConfig {
            experts: 8,
            top_k: 2,
        }
    }

    /// Multiplier on FFN *parameters* relative to the dense layer.
    pub fn param_multiplier(&self) -> u64 {
        self.experts as u64
    }

    /// Multiplier on FFN *FLOPs* relative to the dense layer.
    pub fn flops_multiplier(&self) -> f64 {
        self.top_k as f64
    }

    /// Router FLOPs per token (one `h × experts` projection).
    pub fn router_flops_per_token(&self, hidden: u64) -> f64 {
        2.0 * hidden as f64 * self.experts as f64
    }

    /// Bytes each token ships through ONE all-to-all (dispatch or
    /// combine): its bf16 hidden state, replicated per activated expert.
    pub fn all_to_all_bytes_per_token(&self, hidden: u64) -> u64 {
        2 * hidden * self.top_k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers_are_sparse() {
        let m = MoeConfig::eight_top2();
        assert_eq!(m.param_multiplier(), 8);
        assert_eq!(m.flops_multiplier(), 2.0);
    }

    #[test]
    fn router_and_dispatch_scale_with_hidden() {
        let m = MoeConfig::eight_top2();
        assert_eq!(m.router_flops_per_token(4096), 2.0 * 4096.0 * 8.0);
        assert_eq!(m.all_to_all_bytes_per_token(4096), 2 * 4096 * 2);
    }
}
