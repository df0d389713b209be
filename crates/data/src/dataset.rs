//! The synthetic LAION-like sample stream.
//!
//! Each [`TrainSample`] is one packed training sequence: image subsequences
//! (16×16-patch tokens) interleaved with text subsequences (log-normal
//! lengths) until the fixed `seq_len` is reached — the packing §2.3
//! describes. A sample records its *shape* only: the image resolutions,
//! the number of generation targets, and the text tokens that fill the
//! rest of the sequence. Every cost in the simulation reads that shape.
//! The individual text-subsequence lengths, which only the Figure 5
//! characterization reads, are expanded on demand by
//! [`SyntheticLaion::text_subseqs`].
//!
//! Sample `id` is drawn from its own generator keyed by `(seed, id)`
//! ([`DetRng::keyed`], the counter-based idea of Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC'11), so any sample can be drawn
//! without replaying the stream before it. Its text lengths come from a
//! second keyed family, so expanding them never shifts any sample's shape.

use crate::config::{DataConfig, ResolutionMode, NO_IMAGE_RESOLUTION};
use dt_model::mllm::SampleShape;
use dt_simengine::DetRng;

/// One packed multimodal training sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSample {
    /// Id within the stream: [`SyntheticLaion::sample_at`] redraws it.
    pub id: u64,
    /// Tokens of text packed around the images (the rest of the
    /// sequence). [`SyntheticLaion::text_subseqs`] splits them into
    /// subsequences.
    pub text_tokens: u64,
    /// Per-image resolution (square edge, pixels), in packing order.
    pub image_resolutions: Vec<u32>,
    /// How many of the images are generation targets (at most
    /// `image_resolutions.len()`).
    pub gen_images: u32,
    /// Resolution at which generation targets are rendered.
    pub gen_resolution: u32,
    /// Patch edge used for tokenization (copied from the config so the
    /// sample is self-describing).
    pub patch: u32,
}

impl TrainSample {
    /// Tokens contributed by image subsequences.
    pub fn image_tokens(&self) -> u64 {
        self.image_resolutions
            .iter()
            .map(|&r| {
                let side = (r / self.patch) as u64;
                side * side
            })
            .sum()
    }

    /// Tokens contributed by text subsequences.
    pub fn text_tokens(&self) -> u64 {
        self.text_tokens
    }

    /// Total packed sequence length.
    pub fn seq_len(&self) -> u64 {
        self.image_tokens() + self.text_tokens()
    }

    /// Total pixels across the sample's images (preprocessing work unit).
    pub fn total_pixels(&self) -> u64 {
        self.image_resolutions
            .iter()
            .map(|&r| r as u64 * r as u64)
            .sum()
    }

    /// The [`SampleShape`] consumed by the `dt-model` cost functions. The
    /// representative resolution is the largest in the sample (exact
    /// per-image costs are available via [`crate::cost`]).
    pub fn shape(&self) -> SampleShape {
        SampleShape {
            text_tokens: self.text_tokens(),
            image_tokens: self.image_tokens(),
            num_images: self.image_resolutions.len() as u32,
            gen_images: self.gen_images,
            image_res: self
                .image_resolutions
                .iter()
                .copied()
                .max()
                .unwrap_or(NO_IMAGE_RESOLUTION),
            gen_res: self.gen_resolution,
        }
    }
}

/// Bounded Zipf over ranks `1..=n`: inverse CDF over weights `k^-alpha`
/// computed once, so a draw is one uniform and at most `n` subtractions.
#[derive(Debug, Clone)]
struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    fn new(n: usize, alpha: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-alpha)).collect();
        let total = weights.iter().sum();
        Zipf { weights, total }
    }

    fn draw(&self, rng: &mut DetRng) -> usize {
        let mut target = rng.next_f64() * self.total;
        for (k, w) in (1..).zip(&self.weights) {
            target -= w;
            if target <= 0.0 {
                return k;
            }
        }
        self.weights.len()
    }
}

/// Deterministic generator of packed samples.
#[derive(Debug, Clone)]
pub struct SyntheticLaion {
    config: DataConfig,
    /// Seed of the keyed family each sample's shape is drawn from.
    shape_seed: u64,
    /// Seed of the keyed family each sample's text lengths are drawn from.
    text_seed: u64,
    /// The id [`SyntheticLaion::take`] draws next.
    next_id: u64,
    /// The images-per-sample distribution (Figure 5(c)).
    images_per_sample: Zipf,
}

impl SyntheticLaion {
    /// Create a stream with the given config and seed. Equal seeds produce
    /// identical streams on every platform.
    pub fn new(config: DataConfig, seed: u64) -> Self {
        let images_per_sample = Zipf::new(
            config.max_images_per_sample as usize,
            config.images_zipf_alpha,
        );
        let mut root = DetRng::new(seed);
        SyntheticLaion {
            config,
            shape_seed: root.next_u64(),
            text_seed: root.next_u64(),
            next_id: 0,
            images_per_sample,
        }
    }

    /// Sample `id` of the stream, drawn from its own keyed generator: the
    /// same sample [`SyntheticLaion::take`] returns in position `id`,
    /// whatever was drawn before.
    pub fn sample_at(&self, id: u64) -> TrainSample {
        let cfg = &self.config;
        let mut rng = DetRng::keyed(self.shape_seed, id);

        // 1. Draw the image set (count Zipf-skewed, Figure 5(c)), dropping
        //    images that would overflow the image-token budget (80% of the
        //    sequence must leave room for text).
        let want_images = self.images_per_sample.draw(&mut rng);
        let budget = cfg.seq_len * 8 / 10;
        let mut image_resolutions = Vec::with_capacity(want_images);
        let mut image_tokens = 0u64;
        for _ in 0..want_images {
            let res = draw_resolution(cfg.resolution, &mut rng);
            let t = cfg.tokens_per_image(res);
            if image_tokens + t > budget {
                continue;
            }
            image_tokens += t;
            image_resolutions.push(res);
        }

        // 2. Each image is a generation target with `gen_image_prob`.
        let gen_images = image_resolutions
            .iter()
            .filter(|_| rng.chance(cfg.gen_image_prob))
            .count() as u32;

        // 3. Text fills the remainder, so the sample lands exactly on
        //    `seq_len` (packing is lossless in token count, like the
        //    paper's fixed-length sequences).
        TrainSample {
            id,
            text_tokens: cfg.seq_len - image_tokens,
            image_resolutions,
            gen_images,
            gen_resolution: cfg.gen_resolution,
            patch: cfg.patch,
        }
    }

    /// Generate the next `n` samples.
    pub fn take(&mut self, n: usize) -> Vec<TrainSample> {
        let start = self.next_id;
        self.next_id += n as u64;
        (start..self.next_id).map(|id| self.sample_at(id)).collect()
    }

    /// The text subsequence lengths packed into `sample`, in packing
    /// order: log-normal draws, the last one truncated so they sum to
    /// exactly `sample.text_tokens`. They come from the sample's own keyed
    /// text generator, so they depend only on this stream's seed and
    /// config and on the sample's id and text tokens, never on which
    /// other samples were drawn or expanded.
    pub fn text_subseqs(&self, sample: &TrainSample) -> Vec<u64> {
        let cfg = &self.config;
        let mut rng = DetRng::keyed(self.text_seed, sample.id);
        let mut lens = Vec::new();
        let mut remaining = sample.text_tokens;
        while remaining > 0 {
            let len = rng.lognormal(cfg.text_mu, cfg.text_sigma).round() as u64;
            let len = len.clamp(1, cfg.seq_len).min(remaining);
            lens.push(len);
            remaining -= len;
        }
        lens
    }
}

fn draw_resolution(mode: ResolutionMode, rng: &mut DetRng) -> u32 {
    match mode {
        ResolutionMode::Fixed(res) => res,
        ResolutionMode::Skewed => {
            let palette = DataConfig::resolution_palette();
            let mut t = rng.next_f64();
            for &(res, w) in palette {
                t -= w;
                if t <= 0.0 {
                    return res;
                }
            }
            palette.last().expect("non-empty palette").0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::stats::coefficient_of_variation;

    fn stream() -> SyntheticLaion {
        SyntheticLaion::new(DataConfig::characterization(), 42)
    }

    #[test]
    fn samples_pack_to_exact_seq_len() {
        let mut s = stream();
        for sample in s.take(200) {
            assert_eq!(sample.seq_len(), 8192, "sample {} misfilled", sample.id);
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a = stream().take(50);
        let b = stream().take(50);
        assert_eq!(a, b);
    }

    #[test]
    fn image_token_load_is_heterogeneous() {
        // The whole point of §2.3: per-sample multimodal load varies a lot.
        let mut s = stream();
        let loads: Vec<f64> = s
            .take(500)
            .iter()
            .map(|x| x.image_tokens() as f64)
            .collect();
        let cov = coefficient_of_variation(&loads);
        assert!(
            cov > 0.4,
            "image-token CoV only {cov:.3}; not heterogeneous enough"
        );
    }

    #[test]
    fn text_subsequences_are_skewed() {
        let mut s = stream();
        let mut lens: Vec<f64> = Vec::new();
        for sample in s.take(300) {
            lens.extend(s.text_subseqs(&sample).iter().map(|&t| t as f64));
        }
        let summary = dt_simengine::stats::Summary::from_values(lens.iter().copied());
        // Log-normal: p99 ≫ median.
        assert!(summary.percentile(0.99) > 5.0 * summary.percentile(0.5));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(8, 1.2);
        let mut r = DetRng::new(17);
        let mut counts = [0usize; 8];
        for _ in 0..10_000 {
            counts[zipf.draw(&mut r) - 1] += 1;
        }
        assert!(counts[0] > counts[3]);
        assert!(counts[3] > counts[7]);
    }

    #[test]
    fn fixed_mode_pins_every_resolution() {
        let mut s = SyntheticLaion::new(DataConfig::evaluation(512), 7);
        for sample in s.take(100) {
            assert!(sample.image_resolutions.iter().all(|&r| r == 512));
        }
    }

    #[test]
    fn gen_images_never_exceed_images() {
        let mut s = stream();
        for sample in s.take(200) {
            assert!(sample.gen_images as usize <= sample.image_resolutions.len());
        }
    }

    #[test]
    fn shape_mirrors_sample() {
        let mut s = stream();
        let sample = s.take(1).remove(0);
        let shape = sample.shape();
        assert_eq!(shape.seq_len(), sample.seq_len());
        assert_eq!(shape.num_images as usize, sample.image_resolutions.len());
        assert_eq!(shape.gen_images, sample.gen_images);
    }

    #[test]
    fn sample_at_matches_the_sequential_stream_in_any_order() {
        let sequential = stream().take(64);
        let keyed = stream();
        let mut ids: Vec<u64> = (0..64).collect();
        DetRng::new(5).shuffle(&mut ids);
        for id in ids {
            assert_eq!(keyed.sample_at(id), sequential[id as usize], "sample {id}");
        }
        // Drawing ahead, then resuming, continues the same sequence.
        let mut s = stream();
        let _ = s.take(10);
        assert_eq!(s.take(1)[0], sequential[10]);
    }

    #[test]
    fn text_subseqs_partition_the_text_tokens() {
        let s = stream();
        for sample in (0..200).map(|id| s.sample_at(id)) {
            let lens = s.text_subseqs(&sample);
            assert!(lens.iter().all(|&l| l >= 1), "sample {}", sample.id);
            assert_eq!(lens.iter().sum::<u64>(), sample.text_tokens);
            assert_eq!(lens, s.text_subseqs(&sample), "not deterministic");
        }
    }

    #[test]
    fn text_subseqs_do_not_depend_on_other_draws() {
        let fresh = stream();
        let want = fresh.text_subseqs(&fresh.sample_at(7));
        let mut busy = stream();
        for sample in busy.take(20) {
            let _ = busy.text_subseqs(&sample);
        }
        assert_eq!(busy.text_subseqs(&busy.sample_at(7)), want);
        // Expanding text never shifts a later sample's shape.
        assert_eq!(busy.take(1)[0], fresh.sample_at(20));
    }
}
