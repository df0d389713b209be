//! Deterministic pseudo-randomness.
//!
//! Experiment outputs in `EXPERIMENTS.md` must be reproducible across
//! machines and dependency upgrades, so the load-bearing RNG is implemented
//! here: xoshiro256★★ (Blackman & Vigna) seeded through SplitMix64. The
//! distribution helpers (uniform range, Box–Muller normal, log-normal,
//! the 53-bit integer uniform [`DetRng::next_u53`] and the integer
//! Bernoulli draw [`Chance`]) and the keyed families of [`Keyed`] cover
//! everything `dt-data` needs to model the skewed LAION-400M
//! characteristics from §2.3 of the paper.

/// xoshiro256★★ deterministic PRNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

/// 2⁵³: one past the largest [`DetRng::next_u53`].
pub const TWO_53: u64 = 1 << 53;

/// A family of generators, one per `u64` key, seeded by one `seed`. Any
/// key's generator is reachable directly, without drawing the keys before
/// it — the counter-based idea of Salmon et al. ("Parallel Random
/// Numbers: As Easy as 1, 2, 3", SC'11). The key is hashed with the
/// seeded SplitMix64 bijection, so distinct keys under one seed never
/// share a starting state. The seed is mixed once, here, not per key.
#[derive(Debug, Clone, Copy)]
pub struct Keyed {
    mixed: u64,
}

impl Keyed {
    /// The family seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Keyed {
            mixed: splitmix64(&mut sm),
        }
    }

    /// The generator for `key`.
    pub fn rng(self, key: u64) -> DetRng {
        let mut k = key ^ self.mixed;
        DetRng::new(splitmix64(&mut k))
    }
}

/// A Bernoulli draw of probability `p`, compiled to an integer threshold
/// `ceil(p·2⁵³)` with `p` clamped to `[0, 1]`. A draw fires when
/// [`DetRng::next_u53`] is below it, which is exactly `next_f64() < p`:
/// `u·2⁻⁵³ < p ⇔ u < p·2⁵³ ⇔ u < ceil(p·2⁵³)` for an integer `u`, and
/// scaling by 2⁵³ is exact. A NaN `p` never fires.
#[derive(Debug, Clone, Copy)]
pub struct Chance {
    threshold: u64,
}

impl Chance {
    /// The draw that fires with probability `p`.
    pub fn new(p: f64) -> Self {
        // A NaN survives the clamp and casts to 0.
        Chance {
            threshold: (p.clamp(0.0, 1.0) * TWO_53 as f64).ceil() as u64,
        }
    }

    /// Draw once from `rng`.
    pub fn fires(self, rng: &mut DetRng) -> bool {
        rng.next_u53() < self.threshold
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed the generator. Any seed (including 0) produces a healthy state
    /// because seeding goes through SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent child generator; used to give each simulated
    /// component (data loader, fault injector, …) its own stream so adding
    /// draws in one component never perturbs another.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, 2^53)`: the top 53 bits of the next output.
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision:
    /// [`DetRng::next_u53`] times 2⁻⁵³, which is exact.
    pub fn next_f64(&mut self) -> f64 {
        self.next_u53() as f64 * (1.0 / TWO_53 as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire-style rejection keeps the draw unbiased.
        let threshold = span.wrapping_neg() % span;
        loop {
            let r = self.next_u64();
            let (hi128, lo128) = {
                let m = (r as u128) * (span as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo128 >= threshold {
                return lo + hi128;
            }
        }
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`): one
    /// [`Chance::fires`] draw.
    pub fn chance(&mut self, p: f64) -> bool {
        Chance::new(p).fires(self)
    }

    /// Standard normal via Box–Muller (one value per call; the pair's twin
    /// is discarded for simplicity — determinism matters more than speed).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 0.0 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Log-normal sample with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential sample with the given mean (inverse-CDF over `1 − U` so
    /// a zero draw never feeds `ln`). The memoryless distribution behind
    /// per-node MTBF failure models: with mean `m`, inter-failure gaps
    /// average `m` and compose into a Poisson process.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Choose one element uniformly. Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from an empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// `len` independent uniform bytes (fuzz payloads, wire streams).
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector_is_stable() {
        // Pin the first outputs so accidental algorithm changes are caught:
        // experiment reproducibility depends on this stream never changing.
        let mut r = DetRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn keyed_known_vector_is_stable() {
        // Pin keyed outputs the same way: the training data stream draws
        // every sample from `Keyed::new(seed).rng(id)`.
        let first = |seed, key| {
            let mut r = Keyed::new(seed).rng(key);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(first(0, 0), [10108759220886529493, 17605837440599152310]);
        assert_eq!(first(0, 1), [8001808130966065074, 471358147255598595]);
        assert_eq!(first(42, 7), [511687822027273263, 4679140867302755536]);
    }

    #[test]
    fn next_f64_is_next_u53_scaled() {
        let (mut a, mut b) = (DetRng::new(37), DetRng::new(37));
        for _ in 0..1000 {
            let u = a.next_u53();
            assert!(u < TWO_53);
            assert_eq!(b.next_f64(), u as f64 / TWO_53 as f64);
        }
    }

    #[test]
    fn chance_fires_exactly_when_the_float_draw_is_below_p() {
        // The float comparison `chance` made before it had a threshold.
        let by_float = |u: u64, p: f64| (u as f64 / TWO_53 as f64) < p.clamp(0.0, 1.0);
        let ps = [
            0.0,
            -0.0,
            -0.3,
            1.0,
            1.5,
            0.7,
            0.25,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            5e-324,
            1.0 - f64::EPSILON / 2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut r = DetRng::new(41);
        for p in ps {
            let chance = Chance::new(p);
            let t = chance.threshold;
            let mut us: Vec<u64> = vec![0, 1, TWO_53 - 1];
            us.extend(
                [t.saturating_sub(1), t, t + 1]
                    .into_iter()
                    .filter(|&u| u < TWO_53),
            );
            us.extend((0..1000).map(|_| r.next_u53()));
            for u in us {
                let fires = u < t;
                assert_eq!(fires, by_float(u, p), "p {p} u {u}");
            }
        }
        // And `chance` is that threshold draw, output for output.
        let (mut a, mut b) = (DetRng::new(43), DetRng::new(43));
        for _ in 0..1000 {
            assert_eq!(a.chance(0.3), b.next_f64() < 0.3);
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = DetRng::new(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut r = DetRng::new(19);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.exponential(3.0)).collect();
        assert!(xs.iter().all(|&x| x >= 0.0));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        // Memoryless heavy tail: some draws well past the mean.
        assert!(xs.iter().any(|&x| x > 9.0));
    }

    #[test]
    fn pick_stays_in_bounds_and_covers_the_slice() {
        let mut r = DetRng::new(29);
        let items = [10u32, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = *r.pick(&items);
            seen[(v / 10 - 1) as usize] = true;
            assert!(items.contains(&v));
        }
        assert!(
            seen.iter().all(|&s| s),
            "200 draws should hit all 3 elements"
        );
    }

    #[test]
    fn bytes_are_deterministic_and_sized() {
        let a = DetRng::new(31).bytes(64);
        let b = DetRng::new(31).bytes(64);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
        assert!(
            a.iter().any(|&x| x != a[0]),
            "64 bytes should not be constant"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not shuffle to identity"
        );
    }
}
