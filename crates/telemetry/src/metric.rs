//! The three metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are updated with relaxed atomics only — no locks on the
//! update path — so one instance can be hammered from the preprocessing
//! service's real producer/consumer threads and the planner's search
//! workers at once. Counters are exact under concurrency (the stress test
//! asserts it); histograms conserve their total count.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically add an `f64` to a cell holding `f64` bits.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (plus [`Gauge::add`] for
/// up/down accounting such as queue depths).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        } // 0u64 == 0.0f64 bits
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `delta` (negative deltas decrement).
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.bits, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Buckets per factor-of-two of value; the growth factor per bucket is
/// `2^(1/8)` ≈ 9.05%, so a quantile estimate read from the geometric
/// bucket midpoint is within `2^(1/16) − 1` ≈ 4.4% of the exact sample.
pub const BUCKETS_PER_OCTAVE: u32 = 8;
/// Smallest finite bucket boundary: `2^MIN_EXP` (≈ 0.93 ns as seconds).
pub const MIN_EXP: i32 = -30;
/// Largest finite bucket boundary: `2^MAX_EXP` (≈ 34 simulated years).
pub const MAX_EXP: i32 = 30;
/// Number of log-spaced buckets (excluding the zero/negative bucket).
pub const NUM_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as u32 * BUCKETS_PER_OCTAVE) as usize;

/// Representative value of bucket `i`: the geometric midpoint of its
/// bounds, which halves the worst-case relative quantile error.
fn bucket_mid(i: usize) -> f64 {
    2f64.powf(MIN_EXP as f64 + (i as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64)
}

/// Map a positive finite value to its bucket index.
fn bucket_index(v: f64) -> usize {
    let idx = ((v.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor();
    if idx < 0.0 {
        0
    } else {
        (idx as usize).min(NUM_BUCKETS - 1)
    }
}

/// A log-bucketed distribution of non-negative samples (latencies,
/// fractions) with p50/p95/p99 estimation.
///
/// `observe` touches exactly two relaxed atomics plus one CAS loop for the
/// running sum; no lock, no allocation. Zero (and negative, which should
/// not occur) observations land in a dedicated exact bucket so a
/// stall-free run reports a true `p50 = 0`. NaN observations are dropped.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    zeros: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
    /// Largest value observed with a trace id attached (bits), for the
    /// exemplar.
    exemplar_val_bits: AtomicU64,
    /// Trace id of that observation (0 = no exemplar).
    exemplar_trace: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            zeros: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            exemplar_val_bits: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        if v > 0.0 {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        } else {
            self.zeros.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v.max(0.0));
    }

    /// Record one sample carrying the trace id of the request that
    /// produced it. The histogram keeps the id of its *largest* traced
    /// sample as an exemplar, so an anomaly flag on this family links
    /// straight to the offending trace. Atomics only (the value CAS and
    /// the id store are separate, so a racing reader can briefly pair a
    /// fresh value with the previous id — harmless for an exemplar).
    /// `trace_id == 0` degrades to [`observe`](Self::observe).
    pub fn observe_traced(&self, v: f64, trace_id: u64) {
        self.observe(v);
        if trace_id == 0 || v.is_nan() || v <= 0.0 {
            return;
        }
        let mut cur = self.exemplar_val_bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v && self.exemplar_trace.load(Ordering::Relaxed) != 0 {
                return;
            }
            match self.exemplar_val_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.exemplar_trace.store(trace_id, Ordering::Relaxed);
                    return;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// The current exemplar, if any traced sample has been observed:
    /// `(value, trace id)` of the largest traced observation.
    pub fn exemplar(&self) -> Option<(f64, u64)> {
        let trace = self.exemplar_trace.load(Ordering::Relaxed);
        (trace != 0).then(|| {
            (
                f64::from_bits(self.exemplar_val_bits.load(Ordering::Relaxed)),
                trace,
            )
        })
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (negative inputs clamp to zero).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of the distribution (sparse buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            zeros: self.zeros.load(Ordering::Relaxed),
            count: self.count(),
            sum: self.sum(),
            exemplar: self.exemplar(),
        }
    }
}

/// A frozen, sparse copy of a [`Histogram`] — what exposition and the
/// JSON archive carry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Samples that were exactly zero (or negative).
    pub zeros: u64,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// `(value, trace id)` of the largest traced observation, if any —
    /// the link from an anomalous distribution back to the trace that
    /// caused it.
    pub exemplar: Option<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`0 < q ≤ 1`), using the same nearest-rank
    /// rule as [`dt_simengine::stats::Summary::percentile`]; the estimate
    /// is the geometric midpoint of the rank's bucket, so it is within
    /// ~4.4% relative error of the exact order statistic. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count;
        if n == 0 {
            return 0.0;
        }
        // Nearest rank, 1-based — mirrors Summary::percentile.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for &(i, c) in &self.buckets {
            seen += c;
            if rank <= seen {
                return bucket_mid(i as usize);
            }
        }
        // Rounding slack: fall back to the top non-empty bucket.
        self.buckets
            .last()
            .map_or(0.0, |&(i, _)| bucket_mid(i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_monotone_in_value() {
        assert!(bucket_index(1e-3) < bucket_index(1e-2));
        assert!(bucket_index(1.0) < bucket_index(1.1));
        // Way out of range clamps instead of panicking.
        assert_eq!(bucket_index(1e300), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // uniform on (0, 1]
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500.5).abs() < 1e-6);
        let p50 = h.snapshot().quantile(0.50);
        assert!((p50 - 0.5).abs() / 0.5 < 0.05, "p50 {p50}");
        let p99 = h.snapshot().quantile(0.99);
        assert!((p99 - 0.99).abs() / 0.99 < 0.05, "p99 {p99}");
    }

    #[test]
    fn zero_samples_are_exact() {
        let h = Histogram::new();
        for _ in 0..8 {
            h.observe(0.0);
        }
        h.observe(3.0);
        assert_eq!(h.count(), 9);
        assert_eq!(
            h.snapshot().quantile(0.50),
            0.0,
            "majority-zero distribution has an exact zero median"
        );
        assert!(h.snapshot().quantile(0.99) > 2.5);
    }

    #[test]
    fn nan_is_dropped() {
        let h = Histogram::new();
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn exemplar_tracks_the_largest_traced_sample() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.observe(100.0); // untraced: never becomes an exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_traced(1.0, 0xA);
        assert_eq!(h.exemplar(), Some((1.0, 0xA)));
        h.observe_traced(0.5, 0xB); // smaller: ignored
        assert_eq!(h.exemplar(), Some((1.0, 0xA)));
        h.observe_traced(2.0, 0xC); // larger: replaces
        assert_eq!(h.exemplar(), Some((2.0, 0xC)));
        h.observe_traced(3.0, 0); // zero trace id degrades to observe
        assert_eq!(h.exemplar(), Some((2.0, 0xC)));
        h.observe_traced(0.0, 0xD); // zero value: counted, no exemplar
        assert_eq!(h.exemplar(), Some((2.0, 0xC)));
        assert_eq!(h.count(), 6);
        assert_eq!(h.snapshot().exemplar, Some((2.0, 0xC)));
    }

    #[test]
    fn snapshot_conserves_count() {
        let h = Histogram::new();
        for i in 0..100 {
            h.observe(i as f64);
        }
        let s = h.snapshot();
        let bucketed: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucketed + s.zeros, s.count);
    }
}
