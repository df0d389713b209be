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
//! A sample is a fixed-size `Copy` value: its image resolutions sit
//! inline in a [`Resolutions`] of at most [`MAX_IMAGES`] entries, the cap
//! the §2.3 stream draws to. Drawing, cloning, permuting and dropping a
//! 1920-sample batch then allocate nothing per sample.
//!
//! A sample's JSON form, the one the preprocessing plane's batch headers
//! carry, is generated from its field list (`dt_simengine::wire_struct!`).
//! Its decoder rejects a sample no generator could draw: more than
//! [`MAX_IMAGES`] resolutions (checked before any is read), or more
//! generation targets than images.
//!
//! Sample `id` is drawn from its own generator keyed by `(seed, id)`
//! ([`DetRng::keyed`], the counter-based idea of Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC'11), so any sample can be drawn
//! without replaying the stream before it. Its text lengths come from a
//! second keyed family, so expanding them never shifts any sample's shape.

use crate::config::{DataConfig, ResolutionMode, NO_IMAGE_RESOLUTION};
use dt_model::mllm::SampleShape;
use dt_simengine::schema::WireJson;
use dt_simengine::{wire_struct, DetRng, Json};
use std::fmt;
use std::ops::{Deref, DerefMut};

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
}

impl Deref for Resolutions {
    type Target = [u32];

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

/// One packed multimodal training sample: a fixed-size `Copy` value, so
/// cloning, permuting or dropping a batch allocates nothing per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSample {
    /// Id within the stream: [`SyntheticLaion::sample_at`] redraws it.
    pub id: u64,
    /// Tokens of text packed around the images (the rest of the
    /// sequence). [`SyntheticLaion::text_subseqs`] splits them into
    /// subsequences.
    pub text_tokens: u64,
    /// Per-image resolution (square edge, pixels), in packing order; at
    /// most [`MAX_IMAGES`].
    pub image_resolutions: Resolutions,
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

wire_struct!(TrainSample {
    id,
    text_tokens,
    image_resolutions,
    gen_images,
    gen_resolution,
    patch
} check drawable);

/// A decoded sample must be one the generator could draw: no more
/// generation targets than images.
fn drawable(s: &TrainSample) -> Result<(), String> {
    if s.gen_images as usize > s.image_resolutions.len() {
        return Err(format!(
            "sample {} has {} generation targets but {} images",
            s.id,
            s.gen_images,
            s.image_resolutions.len()
        ));
    }
    Ok(())
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
    ///
    /// # Panics
    /// When `config.max_images_per_sample` exceeds [`MAX_IMAGES`]: a
    /// sample holds no more, and a draw is never truncated.
    pub fn new(config: DataConfig, seed: u64) -> Self {
        assert!(
            config.max_images_per_sample as usize <= MAX_IMAGES,
            "max_images_per_sample {} exceeds MAX_IMAGES {MAX_IMAGES}",
            config.max_images_per_sample
        );
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
        let mut image_resolutions = Resolutions::default();
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

    /// The draw as it was while resolutions lived in a `Vec`, kept as the
    /// reference the inline draw must equal: same fields, same rng draws.
    mod vec_draw {
        use super::*;

        #[derive(Debug)]
        pub struct TrainSample {
            pub id: u64,
            pub text_tokens: u64,
            pub image_resolutions: Vec<u32>,
            pub gen_images: u32,
            pub gen_resolution: u32,
            pub patch: u32,
        }

        pub fn sample_at(stream: &SyntheticLaion, id: u64) -> TrainSample {
            let cfg = &stream.config;
            let mut rng = DetRng::keyed(stream.shape_seed, id);
            let want_images = stream.images_per_sample.draw(&mut rng);
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
            let gen_images = image_resolutions
                .iter()
                .filter(|_| rng.chance(cfg.gen_image_prob))
                .count() as u32;
            TrainSample {
                id,
                text_tokens: cfg.seq_len - image_tokens,
                image_resolutions,
                gen_images,
                gen_resolution: cfg.gen_resolution,
                patch: cfg.patch,
            }
        }
    }

    #[test]
    fn inline_draw_matches_the_vec_draw() {
        for data in [DataConfig::evaluation(1024), DataConfig::characterization()] {
            let s = SyntheticLaion::new(data, 42);
            for id in 0..100_000 {
                let (got, want) = (s.sample_at(id), vec_draw::sample_at(&s, id));
                assert_eq!(got.id, want.id);
                assert_eq!(got.text_tokens, want.text_tokens, "sample {id}");
                assert_eq!(
                    *got.image_resolutions, *want.image_resolutions,
                    "sample {id}"
                );
                assert_eq!(got.gen_images, want.gen_images, "sample {id}");
                assert_eq!(got.gen_resolution, want.gen_resolution, "sample {id}");
                assert_eq!(got.patch, want.patch, "sample {id}");
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "sample {id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_IMAGES 10")]
    fn a_cap_above_max_images_is_rejected() {
        let data = DataConfig {
            max_images_per_sample: MAX_IMAGES as u32 + 1,
            ..DataConfig::characterization()
        };
        let _ = SyntheticLaion::new(data, 1);
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
        a[1] = 256;
        assert_ne!(a, stale);
        assert_eq!(a.len(), 2);
        let full: Resolutions = std::iter::repeat_n(256, MAX_IMAGES).collect();
        assert_eq!(full.len(), MAX_IMAGES);
    }

    #[test]
    #[should_panic(expected = "at most 10 images")]
    fn pushing_past_max_images_panics() {
        let mut full: Resolutions = std::iter::repeat_n(256, MAX_IMAGES).collect();
        full.push(256);
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
