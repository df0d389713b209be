//! The composed multimodal LLM (Figure 1) and the evaluation presets.
//!
//! A [`MultimodalLlm`] is encoder + input projector + backbone + output
//! projector + generator. §7 pairs ViT-Huge and SD 2.1 with the three
//! Table 2 backbones to form **MLLM-9B**, **MLLM-15B** and **MLLM-72B**;
//! the 72B model generates at 1024×1024, the smaller two at 512×512.
//!
//! [`SampleShape`] describes one training sample the way the cost model
//! needs it: token counts per modality, the resolution of every image to
//! encode, and the number of images to generate. `dt-data` produces these
//! shapes from its synthetic LAION-like distributions.

use crate::projector::ProjectorConfig;
use crate::transformer::TransformerConfig;
use crate::unet::UNetConfig;
use crate::vit::VitConfig;
use crate::{llama, memory};
use dt_simengine::schema::WireJson;
use dt_simengine::Json;
use std::fmt;
use std::ops::{Deref, DerefMut};

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

/// The most images one sample holds: the §2.3 stream's
/// `max_images_per_sample`, and Figure 17's largest configuration.
pub const MAX_IMAGES: usize = 10;

/// A sample's image resolutions, stored inline: up to [`MAX_IMAGES`]
/// entries, read as a `[u32]` slice. Equality and `Debug` see only the
/// live entries, so it compares and prints as the slice does.
#[derive(Clone, Copy, Default)]
pub struct Resolutions {
    len: u8,
    res: [u32; MAX_IMAGES],
}

impl Resolutions {
    /// `n` images of `res`.
    ///
    /// # Panics
    /// When `n` exceeds [`MAX_IMAGES`].
    #[inline]
    pub fn repeat(res: u32, n: usize) -> Self {
        assert!(
            n <= MAX_IMAGES,
            "a sample holds at most {MAX_IMAGES} images"
        );
        Resolutions {
            len: n as u8,
            res: [res; MAX_IMAGES],
        }
    }

    /// Append `res`.
    ///
    /// # Panics
    /// When [`MAX_IMAGES`] resolutions are already held.
    pub fn push(&mut self, res: u32) {
        let len = usize::from(self.len);
        assert!(
            len < MAX_IMAGES,
            "a sample holds at most {MAX_IMAGES} images"
        );
        self.res[len] = res;
        self.len += 1;
    }

    /// Pixels across the images (the preprocessing work unit).
    pub fn pixels(&self) -> u64 {
        self.iter().map(|&r| u64::from(r) * u64::from(r)).sum()
    }
}

impl Deref for Resolutions {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.res[..usize::from(self.len)]
    }
}

impl DerefMut for Resolutions {
    fn deref_mut(&mut self) -> &mut [u32] {
        &mut self.res[..usize::from(self.len)]
    }
}

impl PartialEq for Resolutions {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Resolutions {}

impl fmt::Debug for Resolutions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Collects by [`Resolutions::push`], so it panics past [`MAX_IMAGES`].
impl FromIterator<u32> for Resolutions {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut list = Resolutions::default();
        for res in iter {
            list.push(res);
        }
        list
    }
}

/// On the wire, an array of at most [`MAX_IMAGES`] resolutions: a longer
/// one is rejected before any entry is read.
impl WireJson for Resolutions {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(u32::to_json).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let items = value.as_array().ok_or("not an array")?;
        if items.len() > MAX_IMAGES {
            return Err(format!(
                "{} images, more than MAX_IMAGES {MAX_IMAGES}",
                items.len()
            ));
        }
        let mut list = Resolutions::default();
        for (i, item) in items.iter().enumerate() {
            list.push(u32::from_json(item).map_err(|e| format!("[{i}]: {e}"))?);
        }
        Ok(list)
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
    /// Resolution of every input image the encoder must process (square
    /// edge, pixels). A sample's shape lists them in ascending order, so
    /// samples with equal multisets have equal shapes; every price and
    /// byte count sums over them, so the order never changes a cost.
    pub image_resolutions: Resolutions,
    /// Number of images the generator must produce (diffusion targets).
    pub gen_images: u32,
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

    /// A text-only sample of `seq` tokens.
    pub fn text_only(seq: u64) -> Self {
        SampleShape {
            text_tokens: seq,
            image_tokens: 0,
            image_resolutions: Resolutions::default(),
            gen_images: 0,
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

    /// Memory description of one module for the §4.2 constraint model.
    pub fn module_memory(&self, module: ModuleKind, shape: &SampleShape) -> memory::ModuleMemory {
        let params = self.module_params(module);
        let frozen = self.freeze.is_frozen(module);
        let activation = match module {
            ModuleKind::Encoder => shape
                .image_resolutions
                .iter()
                .map(|&res| {
                    let tokens = self.encoder.tokens_per_image(res);
                    self.encoder.trunk.activation_bytes(tokens)
                })
                .sum(),
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
            image_resolutions: Resolutions::repeat(512, 4),
            gen_images: 1,
            gen_res: 512,
        }
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
    fn resolutions_compare_and_print_their_live_entries() {
        let mut a: Resolutions = [512, 512].into_iter().collect();
        assert_eq!(format!("{a:?}"), "[512, 512]");
        assert_eq!(format!("{:?}", Resolutions::default()), "[]");
        let stale = Resolutions {
            len: 2,
            res: [512, 512, 1024, 0, 0, 0, 0, 0, 0, 0],
        };
        assert_eq!(a, stale);
        assert_eq!(a, Resolutions::repeat(512, 2));
        assert_ne!(a, Resolutions::repeat(512, 3));
        a[1] = 256;
        assert_ne!(a, stale);
        assert_eq!(a.len(), 2);
        let full: Resolutions = std::iter::repeat_n(256, MAX_IMAGES).collect();
        assert_eq!(full.len(), MAX_IMAGES);
    }

    #[test]
    #[should_panic(expected = "at most 10 images")]
    fn repeating_past_max_images_panics() {
        let _ = Resolutions::repeat(256, MAX_IMAGES + 1);
    }

    #[test]
    #[should_panic(expected = "at most 10 images")]
    fn pushing_past_max_images_panics() {
        let mut full: Resolutions = std::iter::repeat_n(256, MAX_IMAGES).collect();
        full.push(256);
    }

    #[test]
    fn zoo_matches_table_1() {
        let zoo = architecture_zoo();
        assert_eq!(zoo.len(), 6);
        assert_eq!(zoo[0].model, "Flamingo");
        assert!(zoo[5].generators.contains(&"SoundStream".to_string()));
    }
}
