//! Modality generator preset: Stable Diffusion 2.1's latent-diffusion UNet.
//!
//! The paper uses SD 2.1 (≈1 B parameters) as the generator and notes that
//! high-resolution generation (1024×1024 for MLLM-72B) inflates the
//! generator's stage time enough to change the orchestration outcome
//! (§7.1). We therefore model the UNet *structurally* — per-level conv and
//! attention blocks over the latent grid — so its FLOPs grow superlinearly
//! with resolution exactly the way the real network's do (self-attention
//! over `(res/8)²` latent tokens is quadratic in pixel count).
//!
//! One *training* step of a latent-diffusion generator is a single
//! noise-prediction forward+backward per image (no sampling loop), which is
//! what the cost functions here describe.

/// Block-structured UNet description (SD-style).
#[derive(Debug, Clone, PartialEq)]
pub struct UNetConfig {
    /// Name for reports.
    pub name: String,
    /// Channels at the first level.
    pub base_channels: u64,
    /// Channel multiplier per level (SD 2.1: `[1, 2, 4, 4]`).
    pub channel_mult: Vec<u64>,
    /// Residual blocks per level on the encoder side (decoder gets +1).
    pub res_blocks: u32,
    /// Whether each level carries a spatial-transformer (self+cross attn).
    pub attn_at_level: Vec<bool>,
    /// Cross-attention context width (the LLM/projector output dim).
    pub context_dim: u64,
    /// Cross-attention context length (conditioning tokens per image).
    pub context_len: u64,
    /// Latent-space channels (VAE bottleneck).
    pub latent_channels: u64,
    /// Pixel-to-latent downsampling of the VAE (8 for SD).
    pub latent_downsample: u32,
    /// Time-embedding width.
    pub time_embed: u64,
}

impl UNetConfig {
    /// Stable Diffusion 2.1 UNet (≈0.9 B params): base 320, mult `[1,2,4,4]`,
    /// 2 res blocks, attention at the three shallower levels, 1024-wide
    /// cross-attention context.
    pub fn sd21() -> Self {
        UNetConfig {
            name: "SD-2.1-UNet".into(),
            base_channels: 320,
            channel_mult: vec![1, 2, 4, 4],
            res_blocks: 2,
            attn_at_level: vec![true, true, true, false],
            context_dim: 1024,
            context_len: 77,
            latent_channels: 4,
            latent_downsample: 8,
            time_embed: 1280,
        }
    }

    fn level_channels(&self) -> Vec<u64> {
        self.channel_mult
            .iter()
            .map(|m| m * self.base_channels)
            .collect()
    }

    // ---- parameter counts ------------------------------------------------

    fn resblock_params(&self, cin: u64, cout: u64) -> u64 {
        let conv1 = 9 * cin * cout;
        let conv2 = 9 * cout * cout;
        let skip = if cin != cout { cin * cout } else { 0 };
        let time = self.time_embed * cout;
        conv1 + conv2 + skip + time
    }

    fn attn_params(&self, c: u64) -> u64 {
        // proj_in + (self: qkv+out = 4) + (cross: q+out = 2) + proj_out = 8 C²
        // cross K/V from context: 2·ctx·C ; GEGLU FF: C·8C + 4C·C = 12 C².
        8 * c * c + 2 * self.context_dim * c + 12 * c * c
    }

    /// Total UNet parameters.
    pub fn params(&self) -> u64 {
        let chans = self.level_channels();
        let mut p = 9 * self.latent_channels * self.base_channels; // conv_in
        let mut cin = self.base_channels;
        // Encoder (down) path.
        for (lvl, &c) in chans.iter().enumerate() {
            for _ in 0..self.res_blocks {
                p += self.resblock_params(cin, c);
                if self.attn_at_level[lvl] {
                    p += self.attn_params(c);
                }
                cin = c;
            }
            if lvl + 1 < chans.len() {
                p += 9 * c * c; // downsample conv
            }
        }
        // Middle block: res + attn + res at the deepest width.
        let cmid = *chans.last().expect("at least one level");
        p += 2 * self.resblock_params(cmid, cmid) + self.attn_params(cmid);
        // Decoder (up) path: res_blocks+1 blocks, inputs concatenated with
        // skip connections (≈ doubles cin).
        for (lvl, &c) in chans.iter().enumerate().rev() {
            for _ in 0..self.res_blocks + 1 {
                p += self.resblock_params(2 * c, c);
                if self.attn_at_level[lvl] {
                    p += self.attn_params(c);
                }
            }
            if lvl > 0 {
                p += 9 * c * c; // upsample conv
            }
        }
        p += 9 * self.base_channels * self.latent_channels; // conv_out
        p
    }

    // ---- FLOPs -----------------------------------------------------------

    fn resblock_flops(&self, cin: u64, cout: u64, hw: u64) -> f64 {
        let conv1 = 2.0 * 9.0 * cin as f64 * cout as f64 * hw as f64;
        let conv2 = 2.0 * 9.0 * cout as f64 * cout as f64 * hw as f64;
        let skip = if cin != cout {
            2.0 * cin as f64 * cout as f64 * hw as f64
        } else {
            0.0
        };
        conv1 + conv2 + skip
    }

    fn attn_flops(&self, c: u64, hw: u64) -> f64 {
        let t = hw as f64;
        let c = c as f64;
        let ctx = self.context_len as f64;
        let proj = 2.0 * 2.0 * t * c * c; // proj_in + proj_out
        let self_attn = 3.0 * 2.0 * t * c * c + 4.0 * t * t * c + 2.0 * t * c * c;
        let cross = 2.0 * t * c * c                       // Q
            + 2.0 * 2.0 * ctx * self.context_dim as f64 * c // K, V from context
            + 4.0 * t * ctx * c                            // scores + context
            + 2.0 * t * c * c; // out
        let ff = 24.0 * t * c * c; // GEGLU
        proj + self_attn + cross + ff
    }

    /// Latent grid edge for a `res × res` image.
    pub fn latent_edge(&self, res: u32) -> u64 {
        (res / self.latent_downsample) as u64
    }

    /// Forward FLOPs of **one training step for one image** at `res × res`.
    pub fn flops_forward_image(&self, res: u32) -> f64 {
        let chans = self.level_channels();
        let edge0 = self.latent_edge(res);
        let mut flops = 0.0;
        let mut cin = self.base_channels;
        // conv_in
        flops += 2.0
            * 9.0
            * self.latent_channels as f64
            * self.base_channels as f64
            * (edge0 * edge0) as f64;
        // Encoder.
        for (lvl, &c) in chans.iter().enumerate() {
            let edge = edge0 >> lvl;
            let hw = edge * edge;
            for _ in 0..self.res_blocks {
                flops += self.resblock_flops(cin, c, hw);
                if self.attn_at_level[lvl] {
                    flops += self.attn_flops(c, hw);
                }
                cin = c;
            }
            if lvl + 1 < chans.len() {
                let down_edge = edge / 2;
                flops += 2.0 * 9.0 * (c * c) as f64 * (down_edge * down_edge) as f64;
            }
        }
        // Middle.
        let cmid = *chans.last().expect("at least one level");
        let mid_edge = edge0 >> (chans.len() - 1);
        let mid_hw = mid_edge * mid_edge;
        flops += 2.0 * self.resblock_flops(cmid, cmid, mid_hw) + self.attn_flops(cmid, mid_hw);
        // Decoder.
        for (lvl, &c) in chans.iter().enumerate().rev() {
            let edge = edge0 >> lvl;
            let hw = edge * edge;
            for _ in 0..self.res_blocks + 1 {
                flops += self.resblock_flops(2 * c, c, hw);
                if self.attn_at_level[lvl] {
                    flops += self.attn_flops(c, hw);
                }
            }
            if lvl > 0 {
                flops += 2.0 * 9.0 * (c * c) as f64 * hw as f64; // upsample conv
            }
        }
        // conv_out
        flops += 2.0
            * 9.0
            * self.base_channels as f64
            * self.latent_channels as f64
            * (edge0 * edge0) as f64;
        flops
    }

    /// Forward FLOPs of VAE-encoding one `res × res` target image into
    /// latents — a mandatory part of every latent-diffusion *training* step
    /// (the UNet's regression target lives in latent space). The SD VAE
    /// encoder is a plain conv stack costing ≈1.5 MFLOPs/pixel (≈0.4 TFLOPs
    /// at 512²), linear in pixel count.
    pub fn vae_encode_flops(&self, res: u32) -> f64 {
        const VAE_FLOPS_PER_PIXEL: f64 = 1.5e6;
        VAE_FLOPS_PER_PIXEL * (res as f64) * (res as f64)
    }

    /// Activation bytes stashed for one image during forward (bf16): the sum
    /// of feature maps across blocks. Used by the memory model.
    pub fn activation_bytes_image(&self, res: u32) -> u64 {
        let chans = self.level_channels();
        let edge0 = self.latent_edge(res);
        let mut bytes = 0u64;
        for (lvl, &c) in chans.iter().enumerate() {
            let edge = edge0 >> lvl;
            let hw = edge * edge;
            // encoder + decoder blocks at this level, ~4 tensors per block.
            let blocks = (self.res_blocks + self.res_blocks + 1) as u64;
            bytes += 2 * 4 * c * hw * blocks;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sd21_lands_near_one_billion_params() {
        let p = UNetConfig::sd21().params() as f64 / 1e9;
        assert!(
            (0.7..1.2).contains(&p),
            "SD2.1 preset has {p}B params, expected ≈1B"
        );
    }

    #[test]
    fn flops_at_512_match_known_magnitude() {
        // SD-class UNets cost a few hundred GFLOPs per forward at 512².
        let f = UNetConfig::sd21().flops_forward_image(512) / 1e9;
        assert!((150.0..1500.0).contains(&f), "fwd @512 = {f} GFLOPs");
    }

    #[test]
    fn resolution_scaling_is_superlinear() {
        let u = UNetConfig::sd21();
        let f512 = u.flops_forward_image(512);
        let f1024 = u.flops_forward_image(1024);
        // 4× the pixels; self-attention makes it >4×.
        assert!(f1024 > 4.0 * f512, "1024/512 ratio = {}", f1024 / f512);
        assert!(f1024 < 16.0 * f512);
    }

    #[test]
    fn latent_math_matches_sd() {
        let u = UNetConfig::sd21();
        assert_eq!(u.latent_edge(512), 64);
        assert_eq!(u.latent_edge(1024), 128);
    }

    #[test]
    fn activation_bytes_scale_with_resolution() {
        let u = UNetConfig::sd21();
        let a512 = u.activation_bytes_image(512);
        let a1024 = u.activation_bytes_image(1024);
        assert_eq!(a1024, 4 * a512);
    }
}
