//! Dense transformer parameter/FLOP algebra.
//!
//! Conventions (all counts are for a *single* sample, batch handled by
//! callers):
//!
//! * A matmul of shape `(s × m) · (m × n)` costs `2·s·m·n` FLOPs.
//! * Attention with grouped-query attention (GQA): `heads` query heads,
//!   `kv_groups` key/value groups; K/V projections shrink by
//!   `kv_groups / heads`.
//! * The MLP is gated (SwiGLU, three matmuls — Llama) or plain (two matmuls
//!   — ViT/GPT), selected by `gated_mlp`.
//! * Backward ≈ 2× forward (dgrad + wgrad), the standard estimate Megatron's
//!   MFU accounting uses.

use crate::moe::MoeConfig;

/// Architecture of a dense (non-MoE) transformer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden size `h`.
    pub hidden: u64,
    /// FFN intermediate size `f`.
    pub ffn_hidden: u64,
    /// Number of attention (query) heads `a`.
    pub heads: u32,
    /// Number of key/value groups `g` (GQA; `g == heads` means MHA).
    pub kv_groups: u32,
    /// Vocabulary size (0 when the stack has no token embedding/LM head,
    /// e.g. the ViT encoder).
    pub vocab: u64,
    /// `true` for SwiGLU-style gated MLP (3 matmuls), `false` for plain
    /// GELU MLP (2 matmuls).
    pub gated_mlp: bool,
    /// Sparse mixture-of-experts FFN; `None` for a dense stack. Experts
    /// multiply FFN parameters; only `top_k` of them multiply FLOPs.
    pub moe: Option<MoeConfig>,
}

impl TransformerConfig {
    /// Per-layer parameter count.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden;
        let f = self.ffn_hidden;
        let kv = h * self.kv_groups as u64 / self.heads as u64;
        let attn = h * h      // Q
            + 2 * h * kv      // K, V
            + h * h; // output projection
        let dense_mlp = if self.gated_mlp { 3 * h * f } else { 2 * h * f };
        let mlp = match self.moe {
            Some(moe) => dense_mlp * moe.param_multiplier() + h * moe.experts as u64, // + router
            None => dense_mlp,
        };
        attn + mlp
    }

    /// Total parameters, including the token embedding and (untied) LM head
    /// when `vocab > 0`.
    pub fn params(&self) -> u64 {
        let body = self.params_per_layer() * self.layers as u64;
        body + 2 * self.vocab * self.hidden
    }

    /// Forward FLOPs of **one layer** for a sequence of `seq` tokens.
    ///
    /// Terms: QKV projections, attention score + context matmuls (`4·s²·h`
    /// across all heads combined), output projection, MLP.
    pub fn flops_forward_layer(&self, seq: u64) -> f64 {
        let s = seq as f64;
        let h = self.hidden as f64;
        let f = self.ffn_hidden as f64;
        let kv = h * self.kv_groups as f64 / self.heads as f64;
        let qkv = 2.0 * s * h * (h + 2.0 * kv);
        let attn = 4.0 * s * s * h;
        let out = 2.0 * s * h * h;
        let dense_mlp = if self.gated_mlp {
            6.0 * s * h * f
        } else {
            4.0 * s * h * f
        };
        let mlp = match self.moe {
            Some(moe) => {
                dense_mlp * moe.flops_multiplier() + s * moe.router_flops_per_token(self.hidden)
            }
            None => dense_mlp,
        };
        qkv + attn + out + mlp
    }

    /// Forward FLOPs of the whole stack for `seq` tokens, including the LM
    /// head when present (embedding lookup is free).
    pub fn flops_forward(&self, seq: u64) -> f64 {
        let body = self.flops_forward_layer(seq) * self.layers as f64;
        let head = 2.0 * seq as f64 * self.hidden as f64 * self.vocab as f64;
        body + head
    }

    /// Forward+backward FLOPs for `seq` tokens.
    pub fn flops_fwd_bwd(&self, seq: u64) -> f64 {
        3.0 * self.flops_forward(seq)
    }

    /// Activation bytes stashed per layer per sample of `seq` tokens during
    /// the forward pass. Uses the Megatron estimate `34·s·h` bytes
    /// (Korthikanti et al.) *without* the `5·a·s²` attention-score term:
    /// production training (including the paper's setup) uses
    /// flash/selective-recompute attention, which never materializes the
    /// score matrices — at 8K tokens that term alone would be ~21 GB/layer
    /// and no real configuration would fit.
    pub fn activation_bytes_per_layer(&self, seq: u64) -> u64 {
        34 * seq * self.hidden
    }

    /// Activation bytes for the full stack (one sample, `seq` tokens).
    pub fn activation_bytes(&self, seq: u64) -> u64 {
        self.activation_bytes_per_layer(seq) * self.layers as u64
    }

    /// Bytes of one boundary activation tensor (`s × h`, bf16) — the volume
    /// a pipeline stage ships to its successor per sample.
    pub fn boundary_activation_bytes(&self, seq: u64) -> u64 {
        2 * seq * self.hidden
    }

    /// Bytes moved by *one* tensor-parallel allreduce of the layer output
    /// (`s × h`, bf16). Each transformer layer performs two such allreduces
    /// in forward (attention output + MLP output) and two in backward.
    pub fn tp_allreduce_bytes(&self, seq: u64) -> u64 {
        2 * seq * self.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mha_4layer() -> TransformerConfig {
        TransformerConfig {
            name: "test".into(),
            layers: 4,
            hidden: 64,
            ffn_hidden: 256,
            heads: 8,
            kv_groups: 8,
            vocab: 1000,
            gated_mlp: false,
            moe: None,
        }
    }

    #[test]
    fn params_match_hand_computation() {
        let c = mha_4layer();
        // attn: q 64*64 + kv 2*64*64 + out 64*64 = 4*4096 = 16384
        // mlp: 2*64*256 = 32768 → per layer 49152
        assert_eq!(c.params_per_layer(), 49_152);
        // + embeddings 2*1000*64 = 128000
        assert_eq!(c.params(), 49_152 * 4 + 128_000);
    }

    #[test]
    fn gqa_shrinks_kv_params() {
        let mut c = mha_4layer();
        let mha = c.params_per_layer();
        c.kv_groups = 2; // 4× fewer KV heads
        let gqa = c.params_per_layer();
        // KV params drop from 2*64*64 to 2*64*16.
        assert_eq!(mha - gqa, 2 * 64 * 48);
    }

    #[test]
    fn forward_flops_match_hand_computation() {
        let c = mha_4layer();
        let s = 128u64;
        // qkv: 2*128*64*(64+128)=3,145,728 ; attn: 4*128*128*64=4,194,304
        // out: 2*128*64*64=1,048,576 ; mlp: 4*128*64*256=8,388,608
        let per_layer = 3_145_728.0 + 4_194_304.0 + 1_048_576.0 + 8_388_608.0;
        assert_eq!(c.flops_forward_layer(s), per_layer);
        let head = 2.0 * 128.0 * 64.0 * 1000.0;
        assert_eq!(c.flops_forward(s), per_layer * 4.0 + head);
    }

    #[test]
    fn backward_is_twice_forward() {
        let c = mha_4layer();
        assert_eq!(c.flops_fwd_bwd(64), 3.0 * c.flops_forward(64));
    }

    #[test]
    fn attention_term_is_quadratic_in_seq() {
        let c = mha_4layer();
        // Doubling seq more than doubles FLOPs (quadratic attention term).
        let f1 = c.flops_forward_layer(1024);
        let f2 = c.flops_forward_layer(2048);
        assert!(f2 > 2.0 * f1);
        assert!(f2 < 4.0 * f1);
    }

    #[test]
    fn activation_bytes_are_linear_in_seq() {
        let c = mha_4layer();
        let a1 = c.activation_bytes(1024);
        let a2 = c.activation_bytes(2048);
        assert_eq!(a2, 2 * a1);
        assert_eq!(c.activation_bytes_per_layer(1024), 34 * 1024 * 64);
    }

    #[test]
    fn boundary_tensor_is_bf16_s_by_h() {
        let c = mha_4layer();
        assert_eq!(c.boundary_activation_bytes(100), 2 * 100 * 64);
    }
}
