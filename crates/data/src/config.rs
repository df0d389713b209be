//! Dataset distribution parameters.
//!
//! Defaults are calibrated against the qualitative shapes of Figure 5:
//! text subsequences mostly short (tens of tokens) with a long tail, image
//! subsequences clustered at popular resolutions, and the per-sample image
//! count skewed towards few images with a heavy tail.

use dt_model::mllm::MAX_IMAGES;

/// How image resolutions are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolutionMode {
    /// Every image uses one resolution — the §7 training setting
    /// (512×512 for MLLM-9B/15B, 1024×1024 for MLLM-72B).
    Fixed(u32),
    /// Heavy-tailed mix over common resolutions — the §2.3
    /// characterization setting (Figure 5).
    Skewed,
}

/// Parameters of the synthetic LAION-like stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DataConfig {
    /// Packed sequence length in tokens (8192 in the paper).
    pub seq_len: u64,
    /// Patch edge for image tokenization (16 in the paper).
    pub patch: u32,
    /// μ of the log-normal text-subsequence length (in ln-tokens).
    pub text_mu: f64,
    /// σ of the log-normal text-subsequence length.
    pub text_sigma: f64,
    /// Maximum images interleavable into one sample; at most
    /// [`MAX_IMAGES`], which [`crate::SyntheticLaion::new`] asserts.
    pub max_images_per_sample: u32,
    /// Zipf exponent for the images-per-sample draw (higher ⇒ more skew
    /// towards few images).
    pub images_zipf_alpha: f64,
    /// Resolution mode for *input* images.
    pub resolution: ResolutionMode,
    /// Resolution at which generation targets are rendered by the modality
    /// generator (512 for MLLM-9B/15B, 1024 for MLLM-72B; §7 *Models*).
    pub gen_resolution: u32,
    /// Probability that an image in the sample is a *generation target*
    /// (processed by the modality generator rather than only the encoder).
    pub gen_image_prob: f64,
}

impl DataConfig {
    /// The §7 evaluation configuration: 8K sequences, 512×512 inputs,
    /// generation at `gen_res` (512 for the small models, 1024 for
    /// MLLM-72B). Production multimodal-LLM pre-training is
    /// generation-heavy — understanding *and* generating each image (the
    /// EMU/Chameleon-style objective the paper's models train with) — so
    /// most images are generation targets and samples carry several
    /// images, giving the multimodal modules a substantial compute share
    /// (Figure 3's heavy configurations).
    pub fn evaluation(gen_res: u32) -> Self {
        DataConfig {
            resolution: ResolutionMode::Fixed(512),
            gen_resolution: gen_res,
            gen_image_prob: 0.7,
            images_zipf_alpha: 0.6,
            ..Self::characterization()
        }
    }

    /// The §2.3 characterization configuration: skewed resolutions.
    pub fn characterization() -> Self {
        DataConfig {
            seq_len: 8192,
            patch: 16,
            // e^4.8 ≈ 120 tokens median, heavy upper tail.
            text_mu: 4.8,
            text_sigma: 1.1,
            max_images_per_sample: MAX_IMAGES as u32,
            images_zipf_alpha: 1.1,
            resolution: ResolutionMode::Skewed,
            gen_resolution: 512,
            gen_image_prob: 0.25,
        }
    }

    /// Tokens one `res × res` image contributes to the sequence.
    pub fn tokens_per_image(&self, res: u32) -> u64 {
        let side = (res / self.patch) as u64;
        side * side
    }

    /// Every resolution a sample of this stream lists in its
    /// `SampleShape`: the resolutions images are drawn at.
    pub fn shape_resolutions(&self) -> Vec<u32> {
        match self.resolution {
            ResolutionMode::Fixed(res) => vec![res],
            ResolutionMode::Skewed => Self::resolution_palette().iter().map(|&(r, _)| r).collect(),
        }
    }

    /// The resolution palette (with draw weights) for [`ResolutionMode::Skewed`]:
    /// dominated by moderate sizes with a high-resolution tail, mimicking
    /// the LAION mix.
    pub fn resolution_palette() -> &'static [(u32, f64)] {
        &[
            (256, 0.38),
            (384, 0.27),
            (512, 0.20),
            (768, 0.10),
            (1024, 0.05),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_mode_pins_resolutions() {
        let c = DataConfig::evaluation(1024);
        assert_eq!(c.resolution, ResolutionMode::Fixed(512));
        assert_eq!(c.gen_resolution, 1024);
        assert_eq!(c.seq_len, 8192);
    }

    #[test]
    fn token_math_matches_patch_grid() {
        let c = DataConfig::characterization();
        assert_eq!(c.tokens_per_image(512), 1024);
        assert_eq!(c.tokens_per_image(1024), 4096);
    }

    #[test]
    fn shape_resolutions_are_the_drawn_ones() {
        assert_eq!(DataConfig::evaluation(1024).shape_resolutions(), vec![512]);
        let fixed = DataConfig {
            resolution: ResolutionMode::Fixed(336),
            ..DataConfig::evaluation(512)
        };
        assert_eq!(fixed.shape_resolutions(), vec![336]);
        let skewed = DataConfig::characterization().shape_resolutions();
        assert_eq!(skewed, vec![256, 384, 512, 768, 1024]);
    }

    #[test]
    fn palette_weights_sum_to_one() {
        let sum: f64 = DataConfig::resolution_palette()
            .iter()
            .map(|(_, w)| w)
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
