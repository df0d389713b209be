//! Per-sample cost estimation.
//!
//! Two families of costs are derived from a [`TrainSample`]:
//!
//! * **Training FLOPs per module** — exact per-image sums, walking the
//!   sample's image list (its `SampleShape` carries the same list, so the
//!   forward times `dt-orchestrator` prices from it are per-image sums too).
//! * **CPU preprocessing time** — the decode + resize + patchify work §2.3
//!   measures ("preprocessing such samples can take several seconds"),
//!   modeled as throughput constants calibrated to that observation.
//!
//! The free functions price one sample. A batch is priced once into
//! [`CostRows`]: one [`CostRow`] per sample, built from per-resolution
//! price tables, so each image resolution is priced once per batch
//! instead of once per image per consumer, and each row once per distinct
//! key ([`LastPriced`]): a §7 batch of 1920 holds about 26 shapes. Every
//! per-batch consumer — Algorithm 1 and 2's sizes, the per-rank pipeline
//! workload, the MFU FLOPs sum and the preprocessing stall — reads the rows.

use crate::dataset::TrainSample;
use dt_model::mllm::{SampleShape, MAX_IMAGES};
use dt_model::{FreezeConfig, ModuleKind, MultimodalLlm};
use dt_simengine::SimDuration;
use std::borrow::Borrow;

/// Exact forward FLOPs of `module` for `sample` under `model`, walking the
/// per-image resolution list.
pub fn module_flops_forward(
    model: &MultimodalLlm,
    module: ModuleKind,
    sample: &TrainSample,
) -> f64 {
    match module {
        ModuleKind::Encoder => {
            let images: f64 = sample
                .image_resolutions
                .iter()
                .map(|&r| model.image_flops_forward(module, r))
                .sum();
            images + model.input_projector.flops_forward(sample.image_tokens())
        }
        ModuleKind::Backbone => model.backbone.flops_forward(sample.seq_len()),
        ModuleKind::Generator => {
            let per_image = model.image_flops_forward(module, sample.gen_resolution);
            generator_flops(model, per_image, sample.gen_images)
        }
    }
}

/// Generator forward FLOPs of `gen_images` targets at `per_image` FLOPs
/// each, plus the output projector's conditioning tokens.
fn generator_flops(model: &MultimodalLlm, per_image: f64, gen_images: u32) -> f64 {
    let images: f64 = per_image * f64::from(gen_images);
    let cond_tokens = u64::from(gen_images) * model.generator.context_len;
    images + model.output_projector.flops_forward(cond_tokens)
}

/// Training FLOPs from forward FLOPs: forward only when `module` is
/// frozen, forward + backward (3×) otherwise.
fn train_flops(freeze: FreezeConfig, module: ModuleKind, fwd: f64) -> f64 {
    if freeze.is_frozen(module) {
        fwd
    } else {
        3.0 * fwd
    }
}

/// Training (fwd+bwd, or fwd-only when frozen) FLOPs of `module` for
/// `sample`.
pub fn module_flops_train(model: &MultimodalLlm, module: ModuleKind, sample: &TrainSample) -> f64 {
    train_flops(
        model.freeze,
        module,
        module_flops_forward(model, module, sample),
    )
}

/// The `d.size` metric Algorithm 1 partitions on: the sample's total
/// *multimodal* compute (encoder + generator), which is what varies across
/// samples — backbone time is constant for packed sequences (§2.3: "all
/// microbatches within the LLM have the same computation time").
pub fn multimodal_size(model: &MultimodalLlm, sample: &TrainSample) -> f64 {
    module_flops_train(model, ModuleKind::Encoder, sample)
        + module_flops_train(model, ModuleKind::Generator, sample)
}

/// One module's per-image forward FLOPs, priced once per resolution. A
/// batch holds few resolutions (the §2.3 palette has five, the §7 setting
/// one), so lookup is a scan of a short list, not a hash.
struct PriceTable {
    module: ModuleKind,
    /// `(resolution, forward FLOPs of one image)`, in first-seen order.
    prices: Vec<(u32, f64)>,
}

impl PriceTable {
    fn new(module: ModuleKind) -> Self {
        PriceTable {
            module,
            prices: Vec::new(),
        }
    }

    /// Forward FLOPs of one `res × res` image, priced on first sight.
    fn image_flops(&mut self, model: &MultimodalLlm, res: u32) -> f64 {
        if let Some(&(_, flops)) = self.prices.iter().find(|&&(r, _)| r == res) {
            return flops;
        }
        let flops = model.image_flops_forward(self.module, res);
        self.prices.push((res, flops));
        flops
    }
}

/// The last value priced per slot (an image or target count) with its
/// key: exact when the value is a pure function of `(slot, key)`. A miss
/// costs one comparison and allocates only past the last slot.
#[derive(Debug)]
pub struct LastPriced<K, V> {
    slots: Vec<Option<(K, V)>>,
}

impl<K, V> Default for LastPriced<K, V> {
    fn default() -> Self {
        LastPriced { slots: Vec::new() }
    }
}

impl<K: Copy + PartialEq, V: Copy> LastPriced<K, V> {
    /// The value of `(slot, key)`: copied when the slot last priced `key`,
    /// otherwise `price()`, kept in the slot.
    pub fn get_or_price(&mut self, slot: usize, key: K, price: impl FnOnce() -> V) -> V {
        match self.slots.get(slot) {
            Some(&Some((k, v))) if k == key => v,
            _ => {
                let v = price();
                if slot >= self.slots.len() {
                    self.slots.resize(slot + 1, None);
                }
                self.slots[slot] = Some((key, v));
                v
            }
        }
    }
}

/// One sample's costs, as the per-batch consumers read them. FLOPs are
/// forward FLOPs; [`CostRows`] applies the freeze configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRow {
    /// Encoder forward FLOPs (every image at its own resolution, plus the
    /// input projector).
    pub enc_flops: f64,
    /// Backbone forward FLOPs.
    pub backbone_flops: f64,
    /// Generator forward FLOPs (targets, plus the output projector).
    pub gen_flops: f64,
    /// Index of the sample's [`TrainSample::shape`], which prices its
    /// forward times under a plan and holds its pixels, in
    /// [`CostRows::shapes`]. Rows with equal indices have equal shapes.
    pub shape: usize,
}

/// One batch priced once: a [`CostRow`] per sample, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRows {
    /// One row per sample.
    pub rows: Vec<CostRow>,
    /// The rows' shapes, each stored once per pricing key, so a row stays
    /// four words.
    pub shapes: Vec<SampleShape>,
    freeze: FreezeConfig,
}

impl CostRows {
    /// Price `samples` under `model`, each image resolution once. The
    /// sums run in the free functions' order, so every column is
    /// bit-identical to them.
    ///
    /// A row's encoder and backbone parts are a pure function of the
    /// sample's `(image_resolutions, text_tokens, patch)`, its generator
    /// part of `(gen_images, gen_resolution)`, and its shape of all five.
    /// The generator part is priced once per key, and so are the other
    /// parts and the shape of a sample whose images share one resolution,
    /// kept per image and target count. A sample whose images differ in
    /// resolution is priced directly and stores its own shape. So a batch
    /// of one-resolution samples, like the §7 stream's, stores each
    /// distinct shape once.
    pub fn new(
        model: &MultimodalLlm,
        samples: impl IntoIterator<Item = impl Borrow<TrainSample>>,
    ) -> Self {
        let mut encoder = PriceTable::new(ModuleKind::Encoder);
        let mut generator = PriceTable::new(ModuleKind::Generator);
        // Packed sequences share one length: price the backbone once.
        let mut backbone = LastPriced::default();
        let mut by_images = LastPriced::default();
        let mut by_targets = LastPriced::default();
        let mut shapes = Vec::new();
        let rows = samples
            .into_iter()
            .map(|s| {
                let s = s.borrow();
                let mut price_images = || {
                    let images: f64 = s
                        .image_resolutions
                        .iter()
                        .map(|&r| encoder.image_flops(model, r))
                        .sum();
                    let seq = s.seq_len();
                    (
                        images + model.input_projector.flops_forward(s.image_tokens()),
                        backbone.get_or_price(0, seq, || model.backbone.flops_forward(seq)),
                    )
                };
                let mut new_shape = || {
                    shapes.push(s.shape());
                    shapes.len() - 1
                };
                let resolutions = &s.image_resolutions;
                let ((enc_flops, backbone_flops), shape) = match resolutions.first() {
                    Some(&res) if resolutions.iter().any(|&r| r != res) => {
                        (price_images(), new_shape())
                    }
                    first => by_images.get_or_price(
                        resolutions.len() * (MAX_IMAGES + 1)
                            + (s.gen_images as usize).min(MAX_IMAGES),
                        (
                            first.copied(),
                            s.text_tokens,
                            s.patch,
                            s.gen_images,
                            s.gen_resolution,
                        ),
                        || (price_images(), new_shape()),
                    ),
                };
                let gen_flops =
                    by_targets.get_or_price(s.gen_images as usize, s.gen_resolution, || {
                        let per_target = generator.image_flops(model, s.gen_resolution);
                        generator_flops(model, per_target, s.gen_images)
                    });
                CostRow {
                    enc_flops,
                    backbone_flops,
                    gen_flops,
                    shape,
                }
            })
            .collect();
        CostRows {
            rows,
            shapes,
            freeze: model.freeze,
        }
    }

    /// The shape of sample `i`.
    pub fn shape(&self, i: usize) -> &SampleShape {
        &self.shapes[self.rows[i].shape]
    }

    /// Rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no sample was priced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// [`multimodal_size`] of every sample, in row order.
    pub fn multimodal_sizes(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                train_flops(self.freeze, ModuleKind::Encoder, r.enc_flops)
                    + train_flops(self.freeze, ModuleKind::Generator, r.gen_flops)
            })
            .collect()
    }

    /// Model FLOPs of sample `i` for MFU accounting: the sum of
    /// [`module_flops_train`] over the three modules.
    pub fn model_flops(&self, i: usize) -> f64 {
        let r = &self.rows[i];
        train_flops(self.freeze, ModuleKind::Encoder, r.enc_flops)
            + train_flops(self.freeze, ModuleKind::Backbone, r.backbone_flops)
            + train_flops(self.freeze, ModuleKind::Generator, r.gen_flops)
    }
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
    /// Single-worker CPU time to preprocess a sample of `pixels` pixels.
    pub fn pixels_time(&self, pixels: u64) -> SimDuration {
        let decompressed_bytes = 3.0 * pixels as f64;
        let secs = decompressed_bytes / self.decode_bytes_per_sec
            + pixels as f64 / self.resize_pixels_per_sec
            + pixels as f64 / self.patchify_pixels_per_sec;
        SimDuration::from_secs_f64(secs)
    }

    /// CPU time for a whole microbatch whose samples hold `pixels` pixels
    /// each, on `workers` parallel workers (samples are independent, so
    /// work divides; the longest single sample lower-bounds the makespan).
    pub fn batch_time(&self, pixels: impl IntoIterator<Item = u64>, workers: u32) -> SimDuration {
        let (total, longest) = pixels.into_iter().map(|p| self.pixels_time(p)).fold(
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
    use crate::Resolutions;
    use dt_model::{MllmPreset, MultimodalLlm};

    fn sample_with(res: u32, n: usize) -> TrainSample {
        TrainSample {
            id: 0,
            text_tokens: 100,
            image_resolutions: std::iter::repeat_n(res, n).collect(),
            gen_images: n as u32,
            gen_resolution: res,
            patch: 16,
        }
    }

    #[test]
    fn ten_hires_images_take_seconds() {
        let m = PreprocessCostModel::default();
        let t = m
            .pixels_time(sample_with(1024, 10).image_resolutions.pixels())
            .as_secs_f64();
        assert!(
            (1.0..10.0).contains(&t),
            "preprocess time {t:.2}s not in the paper's seconds range"
        );
    }

    #[test]
    fn preprocessing_scales_with_pixels() {
        let m = PreprocessCostModel::default();
        let lo = m.pixels_time(sample_with(512, 1).image_resolutions.pixels());
        let hi = m.pixels_time(sample_with(1024, 1).image_resolutions.pixels());
        assert_eq!(hi.as_nanos() / lo.as_nanos(), 4);
    }

    #[test]
    fn workers_divide_batch_time_until_longest_sample_binds() {
        let m = PreprocessCostModel::default();
        let samples = vec![sample_with(512, 2); 8];
        let pixels = || samples.iter().map(|s| s.image_resolutions.pixels());
        let t1 = m.batch_time(pixels(), 1);
        let t8 = m.batch_time(pixels(), 8);
        assert_eq!(t1.as_nanos(), 8 * t8.as_nanos());
        // With absurd parallelism the longest single sample binds.
        let t_inf = m.batch_time(pixels(), 10_000);
        assert_eq!(t_inf, m.pixels_time(samples[0].image_resolutions.pixels()));
    }

    /// 4096 text tokens, four 512² images (4096 image tokens) and one
    /// 512² generation target.
    fn packed_sample() -> TrainSample {
        TrainSample {
            id: 0,
            text_tokens: 4096,
            image_resolutions: [512; 4].into_iter().collect(),
            gen_images: 1,
            gen_resolution: 512,
            patch: 16,
        }
    }

    #[test]
    fn backbone_dominates_flops_for_9b() {
        let m = MllmPreset::Mllm9B.build();
        let s = packed_sample();
        let enc = module_flops_forward(&m, ModuleKind::Encoder, &s);
        let bb = module_flops_forward(&m, ModuleKind::Backbone, &s);
        let gen = module_flops_forward(&m, ModuleKind::Generator, &s);
        assert!(bb > enc, "backbone {bb:.3e} vs encoder {enc:.3e}");
        assert!(bb > gen, "backbone {bb:.3e} vs generator {gen:.3e}");
    }

    #[test]
    fn high_res_inflates_generator_share() {
        // §7.1: the 72B model generates at 1024² which inflates the
        // multimodal modules relative to the 512² settings.
        let m72 = MllmPreset::Mllm72B.build();
        let s512 = TrainSample {
            gen_resolution: 512,
            ..packed_sample()
        };
        let s1024 = TrainSample {
            gen_resolution: 1024,
            ..packed_sample()
        };
        let g512 = module_flops_forward(&m72, ModuleKind::Generator, &s512);
        let g1024 = module_flops_forward(&m72, ModuleKind::Generator, &s1024);
        assert!(g1024 > 4.0 * g512);
    }

    #[test]
    fn freezing_cuts_training_flops_to_forward() {
        let mut m = MllmPreset::Mllm9B.build();
        let s = packed_sample();
        let full = module_flops_train(&m, ModuleKind::Backbone, &s);
        m.freeze = FreezeConfig::encoder_only(); // backbone frozen
        let frozen = module_flops_train(&m, ModuleKind::Backbone, &s);
        assert!((full / frozen - 3.0).abs() < 1e-9);
    }

    /// The rows read the per-resolution tables, the free functions walk
    /// every image: both must give the same bits, for every preset, both
    /// resolution modes and every freeze configuration.
    #[test]
    fn cost_rows_match_the_free_functions_bit_for_bit() {
        use dt_model::FreezeConfig;
        let freezes = [
            FreezeConfig::none(),
            FreezeConfig::all_frozen(),
            FreezeConfig::encoder_only(),
            FreezeConfig::llm_only(),
            FreezeConfig::generator_only(),
        ];
        for preset in MllmPreset::ALL {
            for freeze in freezes {
                let model = MultimodalLlm::preset(preset, freeze);
                for data in [
                    DataConfig::evaluation(model.gen_resolution),
                    DataConfig::characterization(),
                ] {
                    let mut samples = SyntheticLaion::new(data, 7).take(300);
                    samples.push(TrainSample {
                        image_resolutions: Resolutions::default(),
                        gen_images: 0,
                        ..sample_with(512, 0)
                    });
                    samples.push(sample_with(1024, 10));
                    let rows = CostRows::new(&model, &samples);
                    let sizes = rows.multimodal_sizes();
                    assert_eq!(rows.len(), samples.len());
                    for (i, s) in samples.iter().enumerate() {
                        let r = &rows.rows[i];
                        let fwd = |k| module_flops_forward(&model, k, s).to_bits();
                        assert_eq!(r.enc_flops.to_bits(), fwd(ModuleKind::Encoder));
                        assert_eq!(r.backbone_flops.to_bits(), fwd(ModuleKind::Backbone));
                        assert_eq!(r.gen_flops.to_bits(), fwd(ModuleKind::Generator));
                        assert_eq!(sizes[i].to_bits(), multimodal_size(&model, s).to_bits());
                        let model_flops: f64 = ModuleKind::ALL
                            .iter()
                            .map(|&k| module_flops_train(&model, k, s))
                            .sum();
                        assert_eq!(rows.model_flops(i).to_bits(), model_flops.to_bits());
                        assert_eq!(
                            rows.shape(i).image_resolutions.pixels(),
                            s.image_resolutions.pixels()
                        );
                        assert_eq!(*rows.shape(i), s.shape());
                    }
                }
            }
        }
    }

    /// Samples that share a slot — an image or target count — but differ
    /// in one pricing input each, interleaved so each lands on a slot
    /// another just filled: every row still equals the free functions.
    #[test]
    fn rows_sharing_a_slot_but_not_a_key_match_the_free_functions() {
        let base = TrainSample {
            gen_images: 2,
            ..sample_with(512, 3)
        };
        let text_only = TrainSample {
            image_resolutions: Resolutions::default(),
            gen_images: 0,
            ..base
        };
        let variants = [
            TrainSample {
                image_resolutions: [1024; 3].into_iter().collect(),
                ..base
            },
            TrainSample {
                image_resolutions: [512, 512, 1024].into_iter().collect(),
                ..base
            },
            TrainSample {
                image_resolutions: [1024, 512, 512].into_iter().collect(),
                ..base
            },
            TrainSample {
                text_tokens: 200,
                ..base
            },
            TrainSample { patch: 14, ..base },
            TrainSample {
                gen_images: 3,
                ..base
            },
            TrainSample {
                gen_resolution: 1024,
                ..base
            },
            TrainSample {
                text_tokens: 200,
                ..text_only
            },
            TrainSample {
                patch: 14,
                ..text_only
            },
            TrainSample {
                gen_resolution: 1024,
                ..text_only
            },
        ];
        let mut samples = Vec::new();
        for v in &variants {
            let first = if v.image_resolutions.is_empty() {
                &text_only
            } else {
                &base
            };
            samples.extend([first, v, v, first, v]);
        }
        for preset in MllmPreset::ALL {
            let model = preset.build();
            let rows = CostRows::new(&model, &samples);
            for (i, (s, r)) in samples.iter().zip(&rows.rows).enumerate() {
                let fwd = |k| module_flops_forward(&model, k, s).to_bits();
                assert_eq!(r.enc_flops.to_bits(), fwd(ModuleKind::Encoder), "{s:?}");
                assert_eq!(
                    r.backbone_flops.to_bits(),
                    fwd(ModuleKind::Backbone),
                    "{s:?}"
                );
                assert_eq!(r.gen_flops.to_bits(), fwd(ModuleKind::Generator), "{s:?}");
                assert_eq!(
                    rows.shape(i).image_resolutions.pixels(),
                    s.image_resolutions.pixels(),
                    "{s:?}"
                );
                assert_eq!(*rows.shape(i), s.shape(), "{s:?}");
            }
        }
    }

    #[test]
    fn multimodal_size_ignores_backbone() {
        let model = MllmPreset::Mllm9B.build();
        let text_only = TrainSample {
            id: 1,
            text_tokens: 8192,
            image_resolutions: Resolutions::default(),
            gen_images: 0,
            gen_resolution: 512,
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
        s.gen_images = 1; // only one of four images is generated
        let one = module_flops_forward(&model, ModuleKind::Generator, &s);
        s.gen_images = 4;
        let four = module_flops_forward(&model, ModuleKind::Generator, &s);
        assert!(four > 3.5 * one);
    }
}
