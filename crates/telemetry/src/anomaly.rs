//! [`AnomalyDetector`]: rolling median/MAD scan over the per-iteration
//! time-series, flagging the pathologies DistTrain fights.
//!
//! Three detectors run over aligned series:
//!
//! * **Straggler iterations** — an iteration time far above the rolling
//!   median of the preceding window. "Far" requires *both* a robust
//!   z-score above [`AnomalyConfig::mad_k`] (MAD-based, so one earlier
//!   spike does not poison the baseline) *and* a relative excess above
//!   [`AnomalyConfig::min_rel_excess`]; the second guard keeps the
//!   near-zero-MAD series a deterministic simulator produces from
//!   flagging micro-jitter.
//! * **Sustained MFU regressions** — a run of consecutive iterations
//!   below `(1 − mfu_drop) ×` the baseline median MFU.
//! * **Preprocessing-stall bursts** — consecutive iterations whose stall
//!   time is both large in absolute terms and a multiple of the rolling
//!   median stall.
//!
//! dt-elastic's `telemetry_anomaly` integration test validates the
//! defaults on an elastic run: a node failure's crash/restart spike and
//! the precursor stalls its ailing node injects before it are flagged,
//! while the clean run of the same seed produces zero anomalies.

/// Tuning for [`AnomalyDetector`]. `Default` matches the injected-fault
/// validation tests.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Rolling window length (points of history considered).
    pub window: usize,
    /// Minimum history before a point can be judged at all.
    pub min_history: usize,
    /// Robust z-score threshold: flag when `x > median + mad_k · 1.4826 · MAD`.
    pub mad_k: f64,
    /// Relative-excess guard: also require `x > median · (1 + min_rel_excess)`.
    pub min_rel_excess: f64,
    /// MFU regression threshold as a fraction below the baseline median.
    pub mfu_drop: f64,
    /// Consecutive low-MFU points needed to call it sustained.
    pub mfu_run: usize,
    /// Stall-burst multiple of the rolling median stall.
    pub stall_ratio: f64,
    /// Absolute stall floor in seconds — bursts below this are noise.
    pub stall_min_secs: f64,
    /// Consecutive high-stall points needed to call it a burst.
    pub stall_run: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            window: 8,
            min_history: 3,
            mad_k: 5.0,
            min_rel_excess: 0.25,
            mfu_drop: 0.10,
            mfu_run: 3,
            stall_ratio: 8.0,
            stall_min_secs: 0.05,
            stall_run: 2,
        }
    }
}

/// What kind of pathology an [`Anomaly`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// One iteration far slower than its rolling baseline.
    StragglerIteration,
    /// A sustained run of iterations below baseline MFU.
    MfuRegression,
    /// A burst of iterations dominated by preprocessing stall.
    PreprocessStallBurst,
}

impl AnomalyKind {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::StragglerIteration => "straggler-iteration",
            AnomalyKind::MfuRegression => "mfu-regression",
            AnomalyKind::PreprocessStallBurst => "preprocess-stall-burst",
        }
    }
}

/// One flagged region of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// First series index involved.
    pub start_index: usize,
    /// Last series index involved (== `start_index` for point anomalies).
    pub end_index: usize,
    /// The offending value (peak iter-time, trough MFU, peak stall).
    pub value: f64,
    /// The rolling baseline it was judged against.
    pub baseline: f64,
}

/// Robust baseline scanner over per-iteration series.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnomalyDetector {
    /// Thresholds and window sizes.
    pub config: AnomalyConfig,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

/// Median absolute deviation around `m`.
fn mad_of(values: &[f64], m: f64) -> f64 {
    let mut devs: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    devs.sort_by(f64::total_cmp);
    median(&devs)
}

/// The finite points of a baseline window. NaN/∞ samples (a torn read, a
/// divide-by-zero upstream) must neither poison the median nor be judged
/// themselves — the healer acts on these verdicts, so a degenerate
/// baseline is worse than no verdict at all.
fn finite(values: &[f64]) -> Vec<f64> {
    values.iter().copied().filter(|v| v.is_finite()).collect()
}

impl AnomalyDetector {
    /// A detector with the given config.
    pub fn new(config: AnomalyConfig) -> Self {
        AnomalyDetector { config }
    }

    /// Scan an iteration-time series for stragglers.
    pub fn stragglers(&self, iter_times: &[f64]) -> Vec<Anomaly> {
        let c = &self.config;
        let mut out = Vec::new();
        for i in c.min_history.max(1)..iter_times.len() {
            let lo = i.saturating_sub(c.window);
            let win = finite(&iter_times[lo..i]);
            // A window too short (or too NaN-ridden) to carry min_history
            // finite points cannot define a baseline; neither can a
            // non-positive median (relative excess is meaningless), and a
            // non-finite point is never itself a verdict.
            if win.len() < c.min_history.max(1) {
                continue;
            }
            let m = median_of(&win);
            let mad = mad_of(&win, m);
            let x = iter_times[i];
            if !x.is_finite() || m <= 0.0 {
                continue;
            }
            // 1.4826 scales MAD to a stddev-equivalent for normal data.
            let robust_cut = m + c.mad_k * 1.4826 * mad;
            if x > robust_cut && x > m * (1.0 + c.min_rel_excess) {
                out.push(Anomaly {
                    kind: AnomalyKind::StragglerIteration,
                    start_index: i,
                    end_index: i,
                    value: x,
                    baseline: m,
                });
            }
        }
        out
    }

    /// Scan an MFU series for sustained regressions. The baseline is the
    /// median of the points before the run starts.
    pub fn mfu_regressions(&self, mfu: &[f64]) -> Vec<Anomaly> {
        let c = &self.config;
        let mut out = Vec::new();
        let mut i = c.min_history.max(1);
        while i < mfu.len() {
            let lo = i.saturating_sub(c.window);
            let win = finite(&mfu[lo..i]);
            if win.len() < c.min_history.max(1) {
                i += 1;
                continue;
            }
            let baseline = median_of(&win);
            // A non-positive baseline cannot regress; NaN points compare
            // false against any cut and so never open or extend a run.
            if baseline <= 0.0 {
                i += 1;
                continue;
            }
            let cut = baseline * (1.0 - c.mfu_drop);
            if mfu[i] < cut {
                // Extend the run against the *same* baseline.
                let mut j = i;
                while j + 1 < mfu.len() && mfu[j + 1] < cut {
                    j += 1;
                }
                if j - i + 1 >= c.mfu_run {
                    let trough = mfu[i..=j].iter().copied().fold(f64::INFINITY, f64::min);
                    out.push(Anomaly {
                        kind: AnomalyKind::MfuRegression,
                        start_index: i,
                        end_index: j,
                        value: trough,
                        baseline,
                    });
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Scan a preprocessing-stall series for bursts.
    pub fn stall_bursts(&self, stalls: &[f64]) -> Vec<Anomaly> {
        let c = &self.config;
        let mut out = Vec::new();
        let mut i = c.min_history.max(1);
        while i < stalls.len() {
            let lo = i.saturating_sub(c.window);
            let win = finite(&stalls[lo..i]);
            if win.len() < c.min_history.max(1) {
                i += 1;
                continue;
            }
            let m = median_of(&win);
            // The absolute floor keeps an all-zero (MAD = 0) stall
            // baseline from flagging noise; NaN points compare false.
            let cut = c.stall_min_secs.max(m * c.stall_ratio);
            if stalls[i] > cut {
                let mut j = i;
                while j + 1 < stalls.len() && stalls[j + 1] > cut {
                    j += 1;
                }
                if j - i + 1 >= c.stall_run {
                    let peak = stalls[i..=j].iter().copied().fold(0.0, f64::max);
                    out.push(Anomaly {
                        kind: AnomalyKind::PreprocessStallBurst,
                        start_index: i,
                        end_index: j,
                        value: peak,
                        baseline: m,
                    });
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Run all three detectors over aligned series (any may be empty) and
    /// return the findings ordered by start index.
    pub fn scan(&self, iter_times: &[f64], mfu: &[f64], stalls: &[f64]) -> Vec<Anomaly> {
        let mut out = self.stragglers(iter_times);
        out.extend(self.mfu_regressions(mfu));
        out.extend(self.stall_bursts(stalls));
        out.sort_by_key(|a| (a.start_index, a.end_index));
        out
    }
}

/// [`AnomalyDetector`] run *online*: push one aligned sample
/// (iteration time, MFU, preprocessing stall) per committed iteration
/// and get back only the verdicts that end at the newest point — the
/// shape a healer needs to convert detection into action while the run
/// is still going.
///
/// Indices in returned [`Anomaly`] values are absolute (the number of
/// pushes before the sample), even though internally the history is
/// bounded: points older than several windows/runs are dropped, so
/// memory is O(config) regardless of run length while rolling baselines
/// (which only look back `window` points) are unaffected.
/// Note that an *ongoing* burst/regression re-emits
/// an (extended) verdict on every push while it lasts — callers that act
/// on verdicts need their own hysteresis.
#[derive(Debug, Clone)]
pub struct OnlineAnomalyDetector {
    detector: AnomalyDetector,
    iter_times: Vec<f64>,
    mfu: Vec<f64>,
    stalls: Vec<f64>,
    /// Absolute index of the first retained point.
    offset: usize,
}

impl OnlineAnomalyDetector {
    /// An online detector with the given thresholds.
    pub fn new(config: AnomalyConfig) -> Self {
        OnlineAnomalyDetector {
            detector: AnomalyDetector::new(config),
            iter_times: Vec::new(),
            mfu: Vec::new(),
            stalls: Vec::new(),
            offset: 0,
        }
    }

    /// Total samples ever pushed.
    pub fn len(&self) -> usize {
        self.offset + self.iter_times.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one aligned sample and return the verdicts that end at it
    /// (empty while the series is clean), with absolute indices.
    pub fn push(&mut self, iter_time: f64, mfu: f64, stall: f64) -> Vec<Anomaly> {
        self.iter_times.push(iter_time);
        self.mfu.push(mfu);
        self.stalls.push(stall);
        let newest = self.iter_times.len() - 1;
        let mut out = self
            .detector
            .scan(&self.iter_times, &self.mfu, &self.stalls);
        out.retain(|a| a.end_index == newest);
        for a in &mut out {
            a.start_index += self.offset;
            a.end_index += self.offset;
        }
        self.trim();
        out
    }

    /// Bound the retained history: no window or run can look back further
    /// than `keep` points, so dropping older ones never changes a future
    /// verdict. Amortized: drain only once the buffer doubles.
    fn trim(&mut self) {
        let c = &self.detector.config;
        let keep = 4 * (c.window + c.min_history.max(1) + c.mfu_run.max(c.stall_run)).max(1);
        let n = self.iter_times.len();
        if n > 2 * keep {
            let drop = n - keep;
            self.iter_times.drain(..drop);
            self.mfu.drain(..drop);
            self.stalls.drain(..drop);
            self.offset += drop;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_is_clean() {
        let d = AnomalyDetector::default();
        let flat = vec![1.0; 32];
        assert!(d.scan(&flat, &flat, &[0.0; 32]).is_empty());
    }

    #[test]
    fn tiny_jitter_is_clean() {
        let d = AnomalyDetector::default();
        // ±1% jitter around 1.0 — the relative-excess guard must hold even
        // though MAD is tiny.
        let jitter: Vec<f64> = (0..32)
            .map(|i| 1.0 + 0.01 * ((i % 3) as f64 - 1.0))
            .collect();
        assert!(d.stragglers(&jitter).is_empty());
    }

    #[test]
    fn single_spike_is_a_straggler() {
        let d = AnomalyDetector::default();
        let mut xs = vec![1.0; 16];
        xs[9] = 4.0;
        let found = d.stragglers(&xs);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::StragglerIteration);
        assert_eq!(found[0].start_index, 9);
        assert!((found[0].baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_mfu_drop_is_flagged_but_a_blip_is_not() {
        let d = AnomalyDetector::default();
        let mut mfu = vec![0.5; 20];
        mfu[6] = 0.40; // single blip: shorter than mfu_run
        assert!(d.mfu_regressions(&mfu).is_empty());
        for v in mfu.iter_mut().take(15).skip(10) {
            *v = 0.40; // 5 consecutive ≥ mfu_run
        }
        let found = d.mfu_regressions(&mfu);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::MfuRegression);
        assert_eq!((found[0].start_index, found[0].end_index), (10, 14));
        assert!((found[0].value - 0.40).abs() < 1e-9);
    }

    #[test]
    fn stall_burst_needs_consecutive_points() {
        let d = AnomalyDetector::default();
        let mut stalls = vec![0.001; 20];
        stalls[8] = 0.5; // one point: below stall_run
        assert!(d.stall_bursts(&stalls).is_empty());
        stalls[9] = 0.6;
        let found = d.stall_bursts(&stalls);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::PreprocessStallBurst);
        assert_eq!((found[0].start_index, found[0].end_index), (8, 9));
        assert!((found[0].value - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_stall_baseline_uses_absolute_floor() {
        let d = AnomalyDetector::default();
        // All-zero baseline: only stalls above stall_min_secs can fire.
        let mut stalls = vec![0.0; 20];
        stalls[10] = 0.04;
        stalls[11] = 0.04; // below the 0.05 floor
        assert!(d.stall_bursts(&stalls).is_empty());
        stalls[10] = 0.2;
        stalls[11] = 0.2;
        assert_eq!(d.stall_bursts(&stalls).len(), 1);
    }

    #[test]
    fn empty_and_single_point_series_are_clean() {
        let d = AnomalyDetector::default();
        assert!(d.scan(&[], &[], &[]).is_empty());
        assert!(d.scan(&[1.0], &[0.5], &[0.0]).is_empty());
        // min_history = 0 must not judge against an empty window.
        let degenerate = AnomalyDetector::new(AnomalyConfig {
            min_history: 0,
            ..AnomalyConfig::default()
        });
        assert!(degenerate.scan(&[1.0], &[0.5], &[0.2]).is_empty());
        assert!(degenerate.stragglers(&[5.0, 5.0]).is_empty());
    }

    #[test]
    fn window_shorter_than_min_history_is_never_judged() {
        let d = AnomalyDetector::default(); // min_history = 3
                                            // Two points of history: even an outrageous spike has no baseline.
        assert!(d.stragglers(&[1.0, 1.0, 100.0]).is_empty());
        assert!(d.mfu_regressions(&[0.5, 0.5, 0.01]).is_empty());
        assert!(d.stall_bursts(&[0.0, 0.0, 9.0]).is_empty());
    }

    #[test]
    fn mad_zero_baseline_still_flags_real_excess_only() {
        let d = AnomalyDetector::default();
        // Constant history → MAD = 0 → robust_cut collapses to the
        // median; only the relative-excess guard stands. 10% above the
        // baseline is under the 25% guard and must stay clean…
        let mut xs = vec![2.0; 16];
        xs[12] = 2.2;
        assert!(d.stragglers(&xs).is_empty());
        // …while a genuine 2× excursion is flagged.
        xs[12] = 4.0;
        let found = d.stragglers(&xs);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].start_index, 12);
    }

    #[test]
    fn nan_points_are_rejected_not_flagged() {
        let d = AnomalyDetector::default();
        // NaN must neither be a straggler itself nor poison the baseline
        // for the genuine spike after it.
        let mut xs = vec![1.0; 16];
        xs[8] = f64::NAN;
        xs[12] = 4.0;
        let found = d.stragglers(&xs);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].start_index, 12);
        assert!(found[0].baseline.is_finite());
        // A window of nothing but NaN has no baseline at all.
        let all_nan = vec![f64::NAN; 10];
        assert!(d.scan(&all_nan, &all_nan, &all_nan).is_empty());
        // NaN never opens an MFU-regression or stall run.
        let mut mfu = vec![0.5; 20];
        for v in mfu.iter_mut().take(15).skip(10) {
            *v = f64::NAN;
        }
        assert!(d.mfu_regressions(&mfu).is_empty());
    }

    #[test]
    fn scan_orders_by_start_index() {
        let d = AnomalyDetector::default();
        let mut iter = vec![1.0; 24];
        iter[20] = 5.0;
        let mut stalls = vec![0.0; 24];
        stalls[5] = 0.3;
        stalls[6] = 0.3;
        let found = d.scan(&iter, &[], &stalls);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].kind, AnomalyKind::PreprocessStallBurst);
        assert_eq!(found[1].kind, AnomalyKind::StragglerIteration);
    }

    #[test]
    fn online_detector_emits_only_newest_verdicts() {
        let mut d = OnlineAnomalyDetector::new(AnomalyConfig::default());
        for _ in 0..10 {
            assert!(d.push(1.0, 0.5, 0.0).is_empty(), "clean series stays clean");
        }
        // A straggler fires on the push that commits it, not later.
        let found = d.push(4.0, 0.5, 0.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::StragglerIteration);
        assert_eq!(found[0].start_index, 10);
        // The next clean push does not re-report it.
        assert!(d.push(1.0, 0.5, 0.0).is_empty());
    }

    #[test]
    fn online_detector_flags_bursts_as_they_grow() {
        let mut d = OnlineAnomalyDetector::new(AnomalyConfig::default());
        for _ in 0..8 {
            assert!(d.push(1.0, 0.5, 0.001).is_empty());
        }
        // stall_run = 2: the first burst point alone is not a verdict…
        assert!(d.push(1.0, 0.5, 0.5).is_empty());
        // …the second completes it (an ongoing burst re-emits extended).
        let found = d.push(1.0, 0.5, 0.6);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::PreprocessStallBurst);
        assert_eq!((found[0].start_index, found[0].end_index), (8, 9));
    }

    #[test]
    fn online_detector_matches_batch_scan_and_stays_bounded() {
        // Absolute indices survive trimming: a long clean prefix, then a
        // spike — the online verdict must agree with a full batch scan.
        let mut online = OnlineAnomalyDetector::new(AnomalyConfig::default());
        let mut series = Vec::new();
        let mut online_hits = Vec::new();
        for i in 0..500usize {
            let x = if i == 450 { 5.0 } else { 1.0 };
            series.push(x);
            online_hits.extend(online.push(x, 0.5, 0.0));
        }
        let batch = AnomalyDetector::default().stragglers(&series);
        assert_eq!(online_hits, batch);
        assert_eq!(online.len(), 500);
        // Bounded memory: far less history retained than pushed.
        assert!(online.iter_times.len() < 200, "history must stay bounded");
    }

    #[test]
    fn online_detector_is_deterministic() {
        let run = || {
            let mut d = OnlineAnomalyDetector::new(AnomalyConfig::default());
            let mut all = Vec::new();
            for i in 0..200usize {
                let iter = if i % 37 == 0 { 3.0 } else { 1.0 };
                let mfu = if (90..110).contains(&i) { 0.3 } else { 0.5 };
                let stall = if (150..154).contains(&i) { 0.4 } else { 0.0 };
                all.extend(d.push(iter, mfu, stall));
            }
            all
        };
        assert_eq!(run(), run());
    }
}
