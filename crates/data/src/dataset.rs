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
//! Sample `id` is drawn from its own generator, `id`'s member of a keyed
//! family ([`Keyed`], the counter-based idea of Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC'11), so any sample can be drawn
//! without replaying the stream before it. Its text lengths come from a
//! second keyed family, so expanding them never shifts any sample's shape.
//!
//! [`SyntheticLaion::new`] compiles every distribution a sample draws from
//! into integers once, and each draw then compares one 53-bit integer `u`
//! (the uniform `u·2⁻⁵³`) with them. The image count and the skewed
//! resolution are inverse-CDF draws: a loop subtracts each weight from
//! `u·2⁻⁵³·scale` and stops at the entry that takes it to zero. The table
//! holds, for each entry `j`, the first `u` whose loop runs past `j`, so a
//! draw counts the thresholds `u` reaches. That is exact, not an
//! approximation: `u ↦ fl(u·2⁻⁵³·scale)` and each `t ↦ fl(t − w)` are
//! non-decreasing, so the `u` whose loop stops by entry `j` are a prefix
//! of `[0, 2⁵³)`, and the threshold is where that prefix ends. It is found
//! by running the loop itself. A generation target is a [`Chance`], whose
//! threshold is exact too. Every sample is the one the loops draw.

use crate::config::{DataConfig, ResolutionMode};
use dt_model::mllm::{Resolutions, SampleShape, MAX_IMAGES};
use dt_simengine::rng::TWO_53;
use dt_simengine::{wire_struct, Chance, DetRng, Keyed};

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

    /// The [`SampleShape`] consumed by the `dt-model` cost functions: the
    /// sample's own resolutions, in ascending order, so the cost model
    /// prices every image at its own resolution and samples that differ
    /// only in packing order share one shape.
    pub fn shape(&self) -> SampleShape {
        let mut image_resolutions = self.image_resolutions;
        image_resolutions.sort_unstable();
        SampleShape {
            text_tokens: self.text_tokens(),
            image_tokens: self.image_tokens(),
            image_resolutions,
            gen_images: self.gen_images,
            gen_res: self.gen_resolution,
        }
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

/// A weighted draw of `1..=n` (`n ≤ MAX_IMAGES`), compiled from the
/// subtraction loop `t = u·2⁻⁵³·scale; for each weight w: t −= w, stop
/// once t ≤ 0` (the last entry when none stops it). `cuts[j]` is the first
/// `u` whose loop has not stopped by entry `j`, so a draw is
/// `1 + #{j : u ≥ cuts[j]}`, with no data-dependent branch. The entries
/// from `n − 1` on are 2⁵³, which no `u` reaches.
#[derive(Debug, Clone, Copy)]
struct InverseCdf {
    cuts: [u64; MAX_IMAGES],
}

impl InverseCdf {
    /// # Panics
    /// Unless there are 1 to [`MAX_IMAGES`] weights, each finite and
    /// `≥ 0`, and `scale` is finite and `> 0`: the conditions under which
    /// the loop's stopping `u` form a prefix.
    fn new(weights: &[f64], scale: f64) -> Self {
        assert!(
            (1..=MAX_IMAGES).contains(&weights.len()),
            "an inverse CDF needs 1 to {MAX_IMAGES} weights, got {}",
            weights.len()
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && scale.is_finite() && scale > 0.0,
            "inverse CDF needs finite weights >= 0 and a finite scale > 0: {weights:?}, {scale}"
        );
        let mut cuts = [TWO_53; MAX_IMAGES];
        let mut cum = 0.0;
        for (j, w) in weights[..weights.len() - 1].iter().enumerate() {
            cum += w;
            // The real-valued cut, which rounding moves by a few units.
            let guess = ((cum / scale * TWO_53 as f64) as u64).min(TWO_53);
            cuts[j] = first_running_past(guess, |u| {
                let mut t = u as f64 / TWO_53 as f64 * scale;
                !weights[..=j].iter().any(|w| {
                    t -= w;
                    t <= 0.0
                })
            });
        }
        InverseCdf { cuts }
    }

    fn draw(&self, rng: &mut DetRng) -> usize {
        self.rank_of(rng.next_u53())
    }

    /// The entry the draw `u` lands on, `1..=n`.
    fn rank_of(&self, u: u64) -> usize {
        1 + self.cuts.iter().filter(|&&cut| u >= cut).count()
    }
}

/// The first `u` in `[0, 2⁵³)` for which `runs_past` holds, or 2⁵³ when
/// none does, given that the `u` where it fails form a prefix: gallop
/// from `guess` to bracket the cut, then bisect.
fn first_running_past(guess: u64, runs_past: impl Fn(u64) -> bool) -> u64 {
    let past = |u: u64| u >= TWO_53 || runs_past(u);
    // `lo` fails, `hi` holds.
    let (mut lo, mut hi);
    let mut step = 1;
    if past(guess) {
        hi = guess;
        loop {
            if hi == 0 {
                return 0;
            }
            let probe = hi.saturating_sub(step);
            if !past(probe) {
                lo = probe;
                break;
            }
            hi = probe;
            step *= 2;
        }
    } else {
        lo = guess;
        loop {
            let probe = (lo + step).min(TWO_53);
            if past(probe) {
                hi = probe;
                break;
            }
            lo = probe;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if past(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// How a stream draws each image's resolution.
#[derive(Debug, Clone, Copy)]
enum ResolutionDraw {
    /// Every image is `res` and costs `tokens`, and at most `fit` of them
    /// fill the image-token budget. Nothing is drawn per image.
    Fixed { res: u32, tokens: u64, fit: u64 },
    /// One palette draw per image ([`DataConfig::resolution_palette`]).
    Skewed(InverseCdf),
}

/// Deterministic generator of packed samples.
#[derive(Debug, Clone)]
pub struct SyntheticLaion {
    config: DataConfig,
    /// The keyed family each sample's shape is drawn from.
    shape: Keyed,
    /// The keyed family each sample's text lengths are drawn from.
    text: Keyed,
    /// The id [`SyntheticLaion::take`] draws next.
    next_id: u64,
    /// The images-per-sample distribution (Figure 5(c)): bounded Zipf
    /// over ranks `1..=max_images_per_sample`, weights `k^-alpha`.
    images_per_sample: InverseCdf,
    /// How each image's resolution is drawn.
    resolution: ResolutionDraw,
    /// Whether an image is a generation target.
    gen_image: Chance,
}

/// Of a sequence, the image tokens may fill 80%: the rest is text.
fn image_budget(cfg: &DataConfig) -> u64 {
    cfg.seq_len * 8 / 10
}

impl SyntheticLaion {
    /// Create a stream with the given config and seed. Equal seeds produce
    /// identical streams on every platform.
    ///
    /// # Panics
    /// When `config.max_images_per_sample` exceeds [`MAX_IMAGES`] (a
    /// sample holds no more, and a draw is never truncated) or is 0, or
    /// when `config.images_zipf_alpha` makes a weight that is not finite.
    pub fn new(config: DataConfig, seed: u64) -> Self {
        assert!(
            config.max_images_per_sample as usize <= MAX_IMAGES,
            "max_images_per_sample {} exceeds MAX_IMAGES {MAX_IMAGES}",
            config.max_images_per_sample
        );
        let mut zipf = [0.0; MAX_IMAGES];
        let zipf = &mut zipf[..config.max_images_per_sample as usize];
        for (k, w) in (1..).zip(zipf.iter_mut()) {
            *w = f64::from(k).powf(-config.images_zipf_alpha);
        }
        let images_per_sample = InverseCdf::new(zipf, zipf.iter().sum());
        let resolution = match config.resolution {
            ResolutionMode::Fixed(res) => {
                let tokens = config.tokens_per_image(res);
                let fit = image_budget(&config)
                    .checked_div(tokens)
                    .unwrap_or(u64::MAX);
                ResolutionDraw::Fixed { res, tokens, fit }
            }
            ResolutionMode::Skewed => {
                let mut weights = [0.0; MAX_IMAGES];
                let palette = DataConfig::resolution_palette();
                for (w, &(_, p)) in weights.iter_mut().zip(palette) {
                    *w = p;
                }
                ResolutionDraw::Skewed(InverseCdf::new(&weights[..palette.len()], 1.0))
            }
        };
        let mut root = DetRng::new(seed);
        SyntheticLaion {
            gen_image: Chance::new(config.gen_image_prob),
            config,
            shape: Keyed::new(root.next_u64()),
            text: Keyed::new(root.next_u64()),
            next_id: 0,
            images_per_sample,
            resolution,
        }
    }

    /// Sample `id` of the stream, drawn from its own keyed generator: the
    /// same sample [`SyntheticLaion::take`] returns in position `id`,
    /// whatever was drawn before.
    pub fn sample_at(&self, id: u64) -> TrainSample {
        let cfg = &self.config;
        let mut rng = self.shape.rng(id);

        // 1. Draw the image set (count Zipf-skewed, Figure 5(c)), dropping
        //    images that would overflow the image-token budget (80% of the
        //    sequence must leave room for text).
        let want_images = self.images_per_sample.draw(&mut rng);
        let (image_resolutions, image_tokens) = match self.resolution {
            ResolutionDraw::Fixed { res, tokens, fit } => {
                let kept = fit.min(want_images as u64);
                (Resolutions::repeat(res, kept as usize), kept * tokens)
            }
            ResolutionDraw::Skewed(palette) => {
                let budget = image_budget(cfg);
                let mut list = Resolutions::default();
                let mut image_tokens = 0u64;
                for _ in 0..want_images {
                    let res = DataConfig::resolution_palette()[palette.draw(&mut rng) - 1].0;
                    let t = cfg.tokens_per_image(res);
                    if image_tokens + t > budget {
                        continue;
                    }
                    image_tokens += t;
                    list.push(res);
                }
                (list, image_tokens)
            }
        };

        // 2. Each image is a generation target with `gen_image_prob`.
        let gen_images = image_resolutions
            .iter()
            .filter(|_| self.gen_image.fires(&mut rng))
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
        let mut rng = self.text.rng(sample.id);
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
        let weights: Vec<f64> = (1..=8).map(|k| f64::from(k).powf(-1.2)).collect();
        let zipf = InverseCdf::new(&weights, weights.iter().sum());
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
        let mut sorted = sample.image_resolutions.to_vec();
        sorted.sort_unstable();
        assert_eq!(&shape.image_resolutions[..], &sorted[..]);
        assert_eq!(
            shape.image_resolutions.pixels(),
            sample.image_resolutions.pixels()
        );
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

    /// The draw as it was before its distributions were compiled to
    /// integer tables: the image count and the skewed resolution walked by
    /// float subtraction loops, a float comparison per generation target,
    /// a budget check per image, and resolutions in a `Vec`. Kept as the
    /// reference every sample must equal: same fields, same rng draws.
    mod loop_draw {
        use super::*;

        /// The subtraction loop on the uniform `x`: an entry of `1..=n`.
        pub fn rank(weights: &[f64], scale: f64, x: f64) -> usize {
            let mut target = x * scale;
            for (k, w) in (1..).zip(weights) {
                target -= w;
                if target <= 0.0 {
                    return k;
                }
            }
            weights.len()
        }

        /// The palette's weights, in palette order.
        pub fn palette() -> Vec<f64> {
            DataConfig::resolution_palette()
                .iter()
                .map(|&(_, w)| w)
                .collect()
        }

        #[derive(Debug)]
        pub struct TrainSample {
            pub id: u64,
            pub text_tokens: u64,
            pub image_resolutions: Vec<u32>,
            pub gen_images: u32,
            pub gen_resolution: u32,
            pub patch: u32,
        }

        /// A stream's loops: its Zipf weights and their total, and the
        /// palette's weights.
        pub struct Loops {
            pub zipf: Vec<f64>,
            pub total: f64,
            pub palette: Vec<f64>,
        }

        impl Loops {
            pub fn new(cfg: &DataConfig) -> Self {
                let zipf: Vec<f64> = (1..=cfg.max_images_per_sample as usize)
                    .map(|k| (k as f64).powf(-cfg.images_zipf_alpha))
                    .collect();
                let total = zipf.iter().sum();
                Loops {
                    zipf,
                    total,
                    palette: palette(),
                }
            }

            pub fn sample_at(&self, stream: &SyntheticLaion, id: u64) -> TrainSample {
                let cfg = &stream.config;
                let mut rng = stream.shape.rng(id);
                let want_images = rank(&self.zipf, self.total, rng.next_f64());
                let budget = cfg.seq_len * 8 / 10;
                let mut image_resolutions = Vec::with_capacity(want_images);
                let mut image_tokens = 0u64;
                for _ in 0..want_images {
                    let res = match cfg.resolution {
                        ResolutionMode::Fixed(res) => res,
                        ResolutionMode::Skewed => {
                            let k = rank(&self.palette, 1.0, rng.next_f64());
                            DataConfig::resolution_palette()[k - 1].0
                        }
                    };
                    let t = cfg.tokens_per_image(res);
                    if image_tokens + t > budget {
                        continue;
                    }
                    image_tokens += t;
                    image_resolutions.push(res);
                }
                let gen_images = image_resolutions
                    .iter()
                    .filter(|_| rng.next_f64() < cfg.gen_image_prob.clamp(0.0, 1.0))
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
    }

    /// The streams the tables must reproduce: both §7 evaluation configs
    /// and the §2.3 one, and the corners of every table.
    fn corner_configs() -> Vec<DataConfig> {
        let eval = DataConfig::evaluation(512);
        let skewed = DataConfig::characterization();
        vec![
            eval.clone(),
            DataConfig::evaluation(1024),
            skewed.clone(),
            // An image costs 0 tokens, so every image fits.
            DataConfig {
                resolution: ResolutionMode::Fixed(8),
                ..eval.clone()
            },
            // No image fits the budget.
            DataConfig {
                resolution: ResolutionMode::Fixed(4096),
                ..eval.clone()
            },
            DataConfig {
                gen_image_prob: 0.0,
                ..eval.clone()
            },
            DataConfig {
                gen_image_prob: 1.0,
                ..eval.clone()
            },
            DataConfig {
                gen_image_prob: -0.3,
                ..skewed.clone()
            },
            DataConfig {
                gen_image_prob: 0.1 + 0.2,
                ..skewed.clone()
            },
            DataConfig {
                max_images_per_sample: 1,
                ..skewed.clone()
            },
            DataConfig {
                images_zipf_alpha: 0.0,
                ..eval
            },
            DataConfig {
                images_zipf_alpha: 5.0,
                ..skewed
            },
        ]
    }

    #[test]
    fn table_draw_matches_the_loop_draw() {
        for data in corner_configs() {
            let loops = loop_draw::Loops::new(&data);
            for seed in [1, 7, 42] {
                let s = SyntheticLaion::new(data.clone(), seed);
                for id in 0..100_000 {
                    let (got, want) = (s.sample_at(id), loops.sample_at(&s, id));
                    let at = || format!("sample {id} of seed {seed}, {data:?}");
                    assert_eq!(got.id, want.id);
                    assert_eq!(got.text_tokens, want.text_tokens, "{}", at());
                    assert_eq!(*got.image_resolutions, *want.image_resolutions, "{}", at());
                    assert_eq!(got.gen_images, want.gen_images, "{}", at());
                    assert_eq!(got.gen_resolution, want.gen_resolution, "{}", at());
                    assert_eq!(got.patch, want.patch, "{}", at());
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", at());
                }
            }
        }
    }

    /// Random ids almost never land on a cut, so check each one: the loop
    /// still stops by entry `j` one below `cuts[j]`, and runs past it at
    /// `cuts[j]`; the table draws as the loop at both.
    #[test]
    fn every_cut_is_where_the_loop_runs_past_its_entry() {
        let mut tables: Vec<(InverseCdf, Vec<f64>, f64)> = corner_configs()
            .iter()
            .map(|data| {
                let loops = loop_draw::Loops::new(data);
                let s = SyntheticLaion::new(data.clone(), 1);
                (s.images_per_sample, loops.zipf, loops.total)
            })
            .collect();
        let palette = loop_draw::palette();
        tables.push((InverseCdf::new(&palette, 1.0), palette, 1.0));
        let at = |u: u64| u as f64 / TWO_53 as f64;
        for (table, weights, scale) in tables {
            let n = weights.len();
            assert!(table.cuts[n - 1..].iter().all(|&cut| cut == TWO_53));
            for (j, &cut) in table.cuts[..n - 1].iter().enumerate() {
                let below = loop_draw::rank(&weights, scale, at(cut - 1));
                assert!(below <= j + 1, "{weights:?} entry {j}: {below} at cut − 1");
                assert_eq!(table.rank_of(cut - 1), below);
                if cut < TWO_53 {
                    let from = loop_draw::rank(&weights, scale, at(cut));
                    assert!(from > j + 1, "{weights:?} entry {j}: {from} at cut");
                    assert_eq!(table.rank_of(cut), from);
                }
            }
            for u in [0, TWO_53 - 1] {
                assert_eq!(table.rank_of(u), loop_draw::rank(&weights, scale, at(u)));
            }
        }
    }

    #[test]
    fn a_cut_is_found_from_any_guess() {
        // The gallop brackets the cut from either side, and from the ends.
        for cut in [0, 1, 2, 1000, TWO_53 - 1, TWO_53] {
            for guess in [0, 1, 999, 1000, 1001, TWO_53 / 2, TWO_53 - 1, TWO_53] {
                assert_eq!(
                    first_running_past(guess, |u| u >= cut),
                    cut,
                    "guess {guess}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite weights >= 0")]
    fn a_nan_zipf_exponent_is_rejected() {
        let data = DataConfig {
            images_zipf_alpha: f64::NAN,
            ..DataConfig::characterization()
        };
        let _ = SyntheticLaion::new(data, 1);
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
