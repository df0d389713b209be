//! Modality encoder preset: ViT-Huge (0.63 B parameters).
//!
//! The paper segments each image into 16×16 patches, each patch becoming one
//! image token (§2.3), and uses ViT-Huge as the encoder for every MLLM size
//! (§7, *Models*). The ViT is a plain (non-gated) transformer over the patch
//! tokens; its cost therefore scales with `(resolution / 16)²` per image —
//! the root cause of the encoder-side data heterogeneity.

use crate::transformer::TransformerConfig;

/// Vision-transformer encoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VitConfig {
    /// The transformer trunk.
    pub trunk: TransformerConfig,
    /// Square patch edge in pixels.
    pub patch: u32,
}

impl VitConfig {
    /// ViT-Huge: 32 layers, hidden 1280, FFN 5120, 16 heads — 0.63 B params.
    pub fn vit_huge() -> Self {
        VitConfig {
            trunk: TransformerConfig {
                name: "ViT-Huge".into(),
                layers: 32,
                hidden: 1280,
                ffn_hidden: 5120,
                heads: 16,
                kv_groups: 16,
                vocab: 0,
                gated_mlp: false,
                moe: None,
            },
            patch: 16,
        }
    }

    /// Image tokens produced by one `res × res` image.
    pub fn tokens_per_image(&self, res: u32) -> u64 {
        let per_side = (res / self.patch) as u64;
        per_side * per_side
    }

    /// Total parameters (trunk + patch-embedding projection).
    pub fn params(&self) -> u64 {
        let patch_embed = (self.patch as u64 * self.patch as u64 * 3) * self.trunk.hidden;
        self.trunk.params() + patch_embed
    }

    /// Forward FLOPs to encode one `res × res` image. Attention runs over
    /// the image's own patch tokens (images are encoded independently, then
    /// interleaved into the LLM sequence).
    pub fn flops_forward_image(&self, res: u32) -> f64 {
        let t = self.tokens_per_image(res);
        let embed = 2.0
            * t as f64
            * (self.patch as f64 * self.patch as f64 * 3.0)
            * self.trunk.hidden as f64;
        self.trunk.flops_forward(t) + embed
    }

    /// Forward+backward FLOPs for one image.
    pub fn flops_fwd_bwd_image(&self, res: u32) -> f64 {
        3.0 * self.flops_forward_image(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vit_huge_is_0_63b() {
        let p = VitConfig::vit_huge().params() as f64 / 1e9;
        assert!((0.60..0.68).contains(&p), "ViT-Huge preset has {p}B params");
    }

    #[test]
    fn token_math_matches_paper() {
        let v = VitConfig::vit_huge();
        // §2.3: 16×16 patches → a 1024×1024 image is 64×64 = 4096 tokens.
        assert_eq!(v.tokens_per_image(1024), 4096);
        assert_eq!(v.tokens_per_image(512), 1024);
        assert_eq!(v.tokens_per_image(256), 256);
    }

    #[test]
    fn higher_resolution_costs_superlinearly_more() {
        let v = VitConfig::vit_huge();
        let f512 = v.flops_forward_image(512);
        let f1024 = v.flops_forward_image(1024);
        // 4× the tokens, plus quadratic attention → more than 4×.
        assert!(f1024 > 4.0 * f512);
    }
}
