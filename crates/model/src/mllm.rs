//! The composed multimodal LLM (Figure 1) and the evaluation presets.
//!
//! A [`MultimodalLlm`] is encoder + input projector + backbone + output
//! projector + generator. §7 pairs ViT-Huge and SD 2.1 with the three
//! Table 2 backbones to form **MLLM-9B**, **MLLM-15B** and **MLLM-72B**;
//! the 72B model generates at 1024×1024, the smaller two at 512×512.
//!
//! [`SampleShape`] describes one training sample the way the cost model
//! needs it: token counts per modality plus the number of images to encode
//! and to generate. `dt-data` produces these shapes from its synthetic
//! LAION-like distributions.

use crate::projector::ProjectorConfig;
use crate::transformer::TransformerConfig;
use crate::unet::UNetConfig;
use crate::vit::VitConfig;
use crate::{llama, memory};

/// The three disaggregatable modules of a multimodal LLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Modality encoder (ViT + input projector).
    Encoder,
    /// LLM backbone (+ LM head).
    Backbone,
    /// Modality generator (output projector + diffusion UNet).
    Generator,
}

impl ModuleKind {
    /// All three modules, pipeline order.
    pub const ALL: [ModuleKind; 3] = [
        ModuleKind::Encoder,
        ModuleKind::Backbone,
        ModuleKind::Generator,
    ];
}

impl std::fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModuleKind::Encoder => write!(f, "encoder"),
            ModuleKind::Backbone => write!(f, "backbone"),
            ModuleKind::Generator => write!(f, "generator"),
        }
    }
}

/// Which modules are frozen (§7.3 *Frozen training*). Frozen modules run
/// forward only: no weight gradients, no optimizer state, backward cost 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreezeConfig {
    /// Encoder weights frozen.
    pub encoder: bool,
    /// Backbone weights frozen.
    pub backbone: bool,
    /// Generator weights frozen.
    pub generator: bool,
}

impl FreezeConfig {
    /// Everything trainable (the §7.1/§7.2 setting).
    pub fn none() -> Self {
        FreezeConfig::default()
    }

    /// Complete module freezing: only projectors train (§7.3 setting 1).
    pub fn all_frozen() -> Self {
        FreezeConfig {
            encoder: true,
            backbone: true,
            generator: true,
        }
    }

    /// Encoder-only training (§7.3 setting 2).
    pub fn encoder_only() -> Self {
        FreezeConfig {
            encoder: false,
            backbone: true,
            generator: true,
        }
    }

    /// LLM-only training (§7.3 setting 3).
    pub fn llm_only() -> Self {
        FreezeConfig {
            encoder: true,
            backbone: false,
            generator: true,
        }
    }

    /// Generator-only training (§7.3 setting 4).
    pub fn generator_only() -> Self {
        FreezeConfig {
            encoder: true,
            backbone: true,
            generator: false,
        }
    }

    /// Is `module` frozen?
    pub fn is_frozen(&self, module: ModuleKind) -> bool {
        match module {
            ModuleKind::Encoder => self.encoder,
            ModuleKind::Backbone => self.backbone,
            ModuleKind::Generator => self.generator,
        }
    }
}

/// Shape of one training sample, as the cost model sees it.
///
/// The paper interleaves modality subsequences into fixed 8192-token
/// sequences (§2.3); `text_tokens + image_tokens == seq_len` always holds
/// for packed samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleShape {
    /// Text tokens in the packed sequence.
    pub text_tokens: u64,
    /// Image tokens in the packed sequence (inputs to the encoder).
    pub image_tokens: u64,
    /// Number of input images the encoder must process.
    pub num_images: u32,
    /// Number of images the generator must produce (diffusion targets).
    pub gen_images: u32,
    /// Resolution of input images (square, pixels).
    pub image_res: u32,
    /// Resolution at which generation targets are produced (square,
    /// pixels). §7 uses 1024×1024 for MLLM-72B and 512×512 for the smaller
    /// models; it is independent of the input-image resolution because the
    /// generator renders in latent space, not from the packed tokens.
    pub gen_res: u32,
}

impl SampleShape {
    /// Total sequence length seen by the LLM backbone.
    pub fn seq_len(&self) -> u64 {
        self.text_tokens + self.image_tokens
    }

    /// A text-only sample of `seq` tokens (useful in tests).
    pub fn text_only(seq: u64) -> Self {
        SampleShape {
            text_tokens: seq,
            image_tokens: 0,
            num_images: 0,
            gen_images: 0,
            image_res: 512,
            gen_res: 512,
        }
    }
}

/// A fully specified multimodal LLM.
#[derive(Debug, Clone, PartialEq)]
pub struct MultimodalLlm {
    /// Name for reports (e.g. "MLLM-9B").
    pub name: String,
    /// Modality encoder.
    pub encoder: VitConfig,
    /// Encoder → backbone projector.
    pub input_projector: ProjectorConfig,
    /// LLM backbone.
    pub backbone: TransformerConfig,
    /// Backbone → generator projector.
    pub output_projector: ProjectorConfig,
    /// Modality generator.
    pub generator: UNetConfig,
    /// Training sequence length (tokens).
    pub seq_len: u64,
    /// Image resolution used for generation in this configuration.
    pub gen_resolution: u32,
    /// Frozen-module configuration.
    pub freeze: FreezeConfig,
}

/// The evaluation presets of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MllmPreset {
    /// Llama3-7B backbone, 512×512 generation.
    Mllm9B,
    /// Llama3-13B backbone, 512×512 generation.
    Mllm15B,
    /// Llama3-70B backbone, 1024×1024 generation.
    Mllm72B,
}

impl MllmPreset {
    /// All presets, small to large.
    pub const ALL: [MllmPreset; 3] = [MllmPreset::Mllm9B, MllmPreset::Mllm15B, MllmPreset::Mllm72B];

    /// Instantiate the preset.
    pub fn build(self) -> MultimodalLlm {
        let (name, backbone, res) = match self {
            MllmPreset::Mllm9B => ("MLLM-9B", llama::llama3_7b(), 512),
            MllmPreset::Mllm15B => ("MLLM-15B", llama::llama3_13b(), 512),
            MllmPreset::Mllm72B => ("MLLM-72B", llama::llama3_70b(), 1024),
        };
        let encoder = VitConfig::vit_huge();
        let enc_h = encoder.trunk.hidden;
        let bb_h = backbone.hidden;
        let generator = UNetConfig::sd21();
        let gen_ctx = generator.context_dim;
        MultimodalLlm {
            name: name.to_string(),
            encoder,
            input_projector: ProjectorConfig::between(enc_h, bb_h),
            backbone,
            output_projector: ProjectorConfig::between(bb_h, gen_ctx),
            generator,
            seq_len: 8192,
            gen_resolution: res,
            freeze: FreezeConfig::none(),
        }
    }

    /// The paper's global batch sizes for the 96-GPU ablations (§7.2).
    pub fn ablation_global_batch(self) -> u32 {
        match self {
            MllmPreset::Mllm9B => 128,
            MllmPreset::Mllm15B => 64,
            MllmPreset::Mllm72B => 40,
        }
    }
}

impl MultimodalLlm {
    /// Instantiate a preset with a freeze setting.
    pub fn preset(p: MllmPreset, freeze: FreezeConfig) -> Self {
        let mut m = p.build();
        m.freeze = freeze;
        m
    }

    /// Parameters of one module (projectors counted with their co-located
    /// module per §4.1: input projector with the encoder, output projector
    /// with the generator).
    pub fn module_params(&self, module: ModuleKind) -> u64 {
        match module {
            ModuleKind::Encoder => self.encoder.params() + self.input_projector.params(),
            ModuleKind::Backbone => self.backbone.params(),
            ModuleKind::Generator => self.generator.params() + self.output_projector.params(),
        }
    }

    /// Total parameters.
    pub fn total_params(&self) -> u64 {
        ModuleKind::ALL.iter().map(|&m| self.module_params(m)).sum()
    }

    /// Forward FLOPs of one `res × res` image in `module`: the ViT for the
    /// encoder, the UNet step plus the VAE encode for the generator. The
    /// backbone has no per-image part (0).
    pub fn image_flops_forward(&self, module: ModuleKind, res: u32) -> f64 {
        match module {
            ModuleKind::Encoder => self.encoder.flops_forward_image(res),
            ModuleKind::Backbone => 0.0,
            ModuleKind::Generator => {
                self.generator.flops_forward_image(res) + self.generator.vae_encode_flops(res)
            }
        }
    }

    /// Forward FLOPs of one module for one sample.
    pub fn module_flops_forward(&self, module: ModuleKind, shape: &SampleShape) -> f64 {
        match module {
            ModuleKind::Encoder => {
                let images =
                    self.image_flops_forward(module, shape.image_res) * shape.num_images as f64;
                let proj = self.input_projector.flops_forward(shape.image_tokens);
                images + proj
            }
            ModuleKind::Backbone => self.backbone.flops_forward(shape.seq_len()),
            ModuleKind::Generator => {
                let per_image = self.image_flops_forward(module, shape.gen_res);
                let images = per_image * shape.gen_images as f64;
                // The output projector maps the generated images' worth of
                // hidden states into conditioning vectors.
                let cond_tokens = shape.gen_images as u64 * self.generator.context_len;
                images + self.output_projector.flops_forward(cond_tokens)
            }
        }
    }

    /// Training FLOPs (forward + backward) of one module for one sample,
    /// honouring the freeze configuration: frozen modules still run forward
    /// (§7.3) but skip the backward pass entirely at the granularity our
    /// cost model resolves. (Strictly, interior frozen modules still
    /// propagate input gradients; treating the frozen backward as free makes
    /// the *baseline* look better, so our reported gains are conservative.)
    pub fn module_flops_train(&self, module: ModuleKind, shape: &SampleShape) -> f64 {
        let fwd = self.module_flops_forward(module, shape);
        if self.freeze.is_frozen(module) {
            fwd
        } else {
            3.0 * fwd
        }
    }

    /// Memory description of one module for the §4.2 constraint model.
    pub fn module_memory(&self, module: ModuleKind, shape: &SampleShape) -> memory::ModuleMemory {
        let params = self.module_params(module);
        let frozen = self.freeze.is_frozen(module);
        let activation = match module {
            ModuleKind::Encoder => {
                self.encoder
                    .trunk
                    .activation_bytes(self.encoder.tokens_per_image(shape.image_res))
                    * shape.num_images as u64
            }
            ModuleKind::Backbone => self.backbone.activation_bytes(shape.seq_len()),
            ModuleKind::Generator => {
                self.generator.activation_bytes_image(shape.gen_res) * shape.gen_images as u64
            }
        };
        memory::ModuleMemory::new(params, activation, frozen)
    }
}

/// One row of Table 1 — the architecture survey of state-of-the-art MLLMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZooEntry {
    /// Model name.
    pub model: String,
    /// Encoder(s).
    pub encoders: Vec<String>,
    /// LLM backbone.
    pub backbone: String,
    /// Generator(s).
    pub generators: Vec<String>,
}

/// Table 1 verbatim: the architecture zoo motivating the three-module
/// decomposition.
pub fn architecture_zoo() -> Vec<ZooEntry> {
    let row = |model: &str, enc: &[&str], bb: &str, gen: &[&str]| ZooEntry {
        model: model.into(),
        encoders: enc.iter().map(|s| s.to_string()).collect(),
        backbone: bb.into(),
        generators: gen.iter().map(|s| s.to_string()).collect(),
    };
    vec![
        row("Flamingo", &["NFNet"], "GPT-3", &["LM-Head"]),
        row("LLaVA", &["CLIP"], "Vicuna", &["LM-Head"]),
        row("PaLM-E", &["ViT"], "PaLM", &["LM-Head"]),
        row("EMU", &["EVA-CLIP"], "Llama", &["LM-Head", "SD"]),
        row("Bagel", &["ViT"], "Qwen2.5", &["LM-Head", "VAE"]),
        row(
            "VideoPoet",
            &["MAGViT", "SoundStream"],
            "GPT",
            &["MAGViT", "SoundStream"],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_land_on_their_nameplates() {
        for (p, lo, hi) in [
            (MllmPreset::Mllm9B, 7.5e9, 10.0e9),
            (MllmPreset::Mllm15B, 13.0e9, 17.0e9),
            (MllmPreset::Mllm72B, 68.0e9, 76.0e9),
        ] {
            let total = p.build().total_params() as f64;
            assert!(
                (lo..hi).contains(&total),
                "{:?} has {:.2}B params",
                p,
                total / 1e9
            );
        }
    }

    fn shape() -> SampleShape {
        SampleShape {
            text_tokens: 4096,
            image_tokens: 4096,
            num_images: 4,
            gen_images: 1,
            image_res: 512,
            gen_res: 512,
        }
    }

    #[test]
    fn backbone_dominates_flops_for_9b() {
        let m = MllmPreset::Mllm9B.build();
        let s = shape();
        let enc = m.module_flops_forward(ModuleKind::Encoder, &s);
        let bb = m.module_flops_forward(ModuleKind::Backbone, &s);
        let gen = m.module_flops_forward(ModuleKind::Generator, &s);
        assert!(bb > enc, "backbone {bb:.3e} vs encoder {enc:.3e}");
        assert!(bb > gen, "backbone {bb:.3e} vs generator {gen:.3e}");
    }

    #[test]
    fn high_res_inflates_generator_share() {
        // §7.1: the 72B model generates at 1024² which inflates the
        // multimodal modules relative to the 512² settings.
        let m72 = MllmPreset::Mllm72B.build();
        let s512 = SampleShape {
            gen_res: 512,
            ..shape()
        };
        let s1024 = SampleShape {
            gen_res: 1024,
            ..shape()
        };
        let g512 = m72.module_flops_forward(ModuleKind::Generator, &s512);
        let g1024 = m72.module_flops_forward(ModuleKind::Generator, &s1024);
        assert!(g1024 > 4.0 * g512);
    }

    #[test]
    fn freezing_cuts_training_flops_to_forward() {
        let mut m = MllmPreset::Mllm9B.build();
        let s = shape();
        let full = m.module_flops_train(ModuleKind::Backbone, &s);
        m.freeze = FreezeConfig::encoder_only(); // backbone frozen
        let frozen = m.module_flops_train(ModuleKind::Backbone, &s);
        assert!((full / frozen - 3.0).abs() < 1e-9);
    }

    #[test]
    fn freeze_presets_cover_the_four_settings() {
        assert!(FreezeConfig::all_frozen().is_frozen(ModuleKind::Encoder));
        assert!(!FreezeConfig::encoder_only().is_frozen(ModuleKind::Encoder));
        assert!(FreezeConfig::encoder_only().is_frozen(ModuleKind::Backbone));
        assert!(!FreezeConfig::llm_only().is_frozen(ModuleKind::Backbone));
        assert!(!FreezeConfig::generator_only().is_frozen(ModuleKind::Generator));
        assert!(FreezeConfig::generator_only().is_frozen(ModuleKind::Backbone));
    }

    #[test]
    fn sample_shape_seq_len_adds_up() {
        assert_eq!(shape().seq_len(), 8192);
        assert_eq!(SampleShape::text_only(100).seq_len(), 100);
    }

    #[test]
    fn zoo_matches_table_1() {
        let zoo = architecture_zoo();
        assert_eq!(zoo.len(), 6);
        assert_eq!(zoo[0].model, "Flamingo");
        assert!(zoo[5].generators.contains(&"SoundStream".to_string()));
    }
}
