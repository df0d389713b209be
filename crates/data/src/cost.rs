//! Per-sample cost estimation.
//!
//! Two families of costs are derived from a [`TrainSample`]:
//!
//! * **Training FLOPs per module** — exact per-image sums (the
//!   `SampleShape` in `dt-model` carries only a representative resolution;
//!   here we walk the actual image list).
//! * **CPU preprocessing time** — the decode + resize + patchify work §2.3
//!   measures ("preprocessing such samples can take several seconds"),
//!   modeled as throughput constants calibrated to that observation.

use crate::dataset::TrainSample;
use dt_model::{MultimodalLlm, ModuleKind};
use dt_simengine::SimDuration;

/// Exact forward FLOPs of `module` for `sample` under `model`, walking the
/// per-image resolution list.
pub fn module_flops_forward(model: &MultimodalLlm, module: ModuleKind, sample: &TrainSample) -> f64 {
    match module {
        ModuleKind::Encoder => {
            let images: f64 = sample
                .image_resolutions
                .iter()
                .map(|&r| model.encoder.flops_forward_image(r))
                .sum();
            images + model.input_projector.flops_forward(sample.image_tokens())
        }
        ModuleKind::Backbone => model.backbone.flops_forward(sample.seq_len()),
        ModuleKind::Generator => {
            let per_image = model.generator.flops_forward_image(sample.gen_resolution)
                + model.generator.vae_encode_flops(sample.gen_resolution);
            let images: f64 = per_image * sample.gen_targets.len() as f64;
            let cond_tokens = sample.gen_targets.len() as u64 * model.generator.context_len;
            images + model.output_projector.flops_forward(cond_tokens)
        }
    }
}

/// Training (fwd+bwd, or fwd-only when frozen) FLOPs of `module` for
/// `sample`.
pub fn module_flops_train(model: &MultimodalLlm, module: ModuleKind, sample: &TrainSample) -> f64 {
    let fwd = module_flops_forward(model, module, sample);
    if model.freeze.is_frozen(module) {
        fwd
    } else {
        3.0 * fwd
    }
}

/// The `d.size` metric Algorithm 1 partitions on: the sample's total
/// *multimodal* compute (encoder + generator), which is what varies across
/// samples — backbone time is constant for packed sequences (§2.3: "all
/// microbatches within the LLM have the same computation time").
pub fn multimodal_size(model: &MultimodalLlm, sample: &TrainSample) -> f64 {
    module_flops_train(model, ModuleKind::Encoder, sample)
        + module_flops_train(model, ModuleKind::Generator, sample)
}

/// CPU preprocessing throughput model.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessCostModel {
    /// JPEG-class decompression throughput, *output* bytes per second per
    /// worker.
    pub decode_bytes_per_sec: f64,
    /// Resize/augment throughput, pixels per second per worker.
    pub resize_pixels_per_sec: f64,
    /// Patchify/serialize throughput, pixels per second per worker.
    pub patchify_pixels_per_sec: f64,
}

impl Default for PreprocessCostModel {
    fn default() -> Self {
        // Calibrated so ten 1024×1024 images cost ≈2–4 s on one worker,
        // matching §2.3's "several seconds" and Figure 17's seconds-range
        // bars for (10, 1024).
        PreprocessCostModel {
            decode_bytes_per_sec: 30e6,
            resize_pixels_per_sec: 12e6,
            patchify_pixels_per_sec: 60e6,
        }
    }
}

impl PreprocessCostModel {
    /// Single-worker CPU time to preprocess one sample.
    pub fn sample_time(&self, sample: &TrainSample) -> SimDuration {
        let decompressed_bytes = 3.0 * sample.total_pixels() as f64;
        let secs = decompressed_bytes / self.decode_bytes_per_sec
            + sample.total_pixels() as f64 / self.resize_pixels_per_sec
            + sample.total_pixels() as f64 / self.patchify_pixels_per_sec;
        SimDuration::from_secs_f64(secs)
    }

    /// CPU time for a whole microbatch on `workers` parallel workers
    /// (samples are independent, so work divides; the longest single sample
    /// lower-bounds the makespan).
    pub fn batch_time<'a>(
        &self,
        samples: impl IntoIterator<Item = &'a TrainSample>,
        workers: u32,
    ) -> SimDuration {
        let (total, longest) = samples.into_iter().map(|s| self.sample_time(s)).fold(
            (SimDuration::ZERO, SimDuration::ZERO),
            |(total, longest), t| (total + t, longest.max(t)),
        );
        (total / workers.max(1) as u64).max(longest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataConfig;
    use crate::dataset::SyntheticLaion;
    use dt_model::MllmPreset;

    fn sample_with(res: u32, n: usize) -> TrainSample {
        TrainSample {
            id: 0,
            text_subseqs: vec![100],
            image_resolutions: vec![res; n],
            gen_targets: (0..n as u32).collect(),
            gen_resolution: res,
            raw_image_bytes: 0,
            patch: 16,
        }
    }

    #[test]
    fn ten_hires_images_take_seconds() {
        let m = PreprocessCostModel::default();
        let t = m.sample_time(&sample_with(1024, 10)).as_secs_f64();
        assert!((1.0..10.0).contains(&t), "preprocess time {t:.2}s not in the paper's seconds range");
    }

    #[test]
    fn preprocessing_scales_with_pixels() {
        let m = PreprocessCostModel::default();
        let lo = m.sample_time(&sample_with(512, 1));
        let hi = m.sample_time(&sample_with(1024, 1));
        assert_eq!(hi.as_nanos() / lo.as_nanos(), 4);
    }

    #[test]
    fn workers_divide_batch_time_until_longest_sample_binds() {
        let m = PreprocessCostModel::default();
        let samples = vec![sample_with(512, 2); 8];
        let t1 = m.batch_time(&samples, 1);
        let t8 = m.batch_time(&samples, 8);
        assert_eq!(t1.as_nanos(), 8 * t8.as_nanos());
        // With absurd parallelism the longest single sample binds.
        let t_inf = m.batch_time(&samples, 10_000);
        assert_eq!(t_inf, m.sample_time(&samples[0]));
    }

    #[test]
    fn module_flops_agree_with_model_on_uniform_samples() {
        // When every image shares one resolution the exact per-image walk
        // must agree with the SampleShape-based estimate in dt-model.
        let model = MllmPreset::Mllm9B.build();
        let mut stream = SyntheticLaion::new(DataConfig::evaluation(512), 11);
        let s = stream.sample();
        let exact = module_flops_forward(&model, ModuleKind::Encoder, &s);
        let approx = model.module_flops_forward(ModuleKind::Encoder, &s.shape());
        assert!((exact / approx - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multimodal_size_ignores_backbone() {
        let model = MllmPreset::Mllm9B.build();
        let text_only = TrainSample {
            id: 1,
            text_subseqs: vec![8192],
            image_resolutions: vec![],
            gen_targets: vec![],
            gen_resolution: 512,
            raw_image_bytes: 0,
            patch: 16,
        };
        assert_eq!(multimodal_size(&model, &text_only), 0.0);
        let heavy = sample_with(1024, 4);
        assert!(multimodal_size(&model, &heavy) > 0.0);
    }

    #[test]
    fn generator_flops_count_only_targets() {
        let model = MllmPreset::Mllm9B.build();
        let mut s = sample_with(512, 4);
        s.gen_targets = vec![0]; // only one of four images is generated
        let one = module_flops_forward(&model, ModuleKind::Generator, &s);
        s.gen_targets = vec![0, 1, 2, 3];
        let four = module_flops_forward(&model, ModuleKind::Generator, &s);
        assert!(four > 3.5 * one);
    }
}
