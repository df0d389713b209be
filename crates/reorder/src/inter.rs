//! Algorithm 2 — inter-microbatch reordering.
//!
//! In 1F1B, stage 0's timeline alternates backward passes separated by
//! *intervals* that forwards can fill (Figure 12). Heterogeneous microbatch
//! times in the modality encoder/generator leave intervals unfilled
//! (bubbles) and inflate the last `p−1` intervals, which can never be
//! filled. Algorithm 2 permutes the local batch of one DP rank:
//!
//! 1. smallest microbatch first, so every stage activates promptly;
//! 2. the `p−1` smallest of the remainder reserved for the rear, shrinking
//!    the unfillable intervals (insight 1, §5.3);
//! 3. the first interval greedily filled with `p−1` microbatches whose
//!    aggregate forward time best matches the interval volume, later
//!    intervals with the single best-fitting microbatch (insight 2).
//!
//! The interval volumes come from `GETINTERVAL` ([`get_interval`],
//! [`InterReorderConfig::interval`]), which probes `dt-pipeline`'s 1F1B
//! [`Engine`] over the proxy pipeline of [`InterReorderConfig::pipeline`]:
//! `P = p·vpp` (virtual) stages with zero hops. Interval `j` depends only on
//! stage-0 positions `0..=j+P−1`, so Algorithm 2 commits each chosen
//! microbatch once and evaluates each target by pushing only that much of
//! the tentative tail (mean placeholders, then the reserved rear) before
//! rolling the engine back to its `O(P)` mark. Each push replays the
//! engine's firing list for the shape, built once per `(P, l)`, and the
//! probe's last push replays it only up to backward `j` of stage 0
//! ([`Engine::push_until`]): for plain 1F1B a probe runs two ops, and a
//! placement costs the commit push's `O(P)` amortized op updates, with no
//! readiness test — `O(l·p)` per rank, as in the paper — and no per-step
//! allocation; with VPP each probe pushes up to `p·(vpp−1)+1` tail
//! positions. The proxy's spec and downstream pair are converted to
//! [`SimDuration`] once per planner, each microbatch's stage-0 pair once
//! per rank. dt-check's event simulator is the reference the
//! `reorder.alg2_interval_matches_simulate` oracle compares the volumes
//! against, to the nanosecond. Like Algorithm 1 this is a pure permutation
//! of the local batch, so convergence semantics are untouched.
//!
//! Over a batch, Algorithm 2 runs once per distinct rank stream, and
//! equal streams are adjacent (Algorithm 1 deals each group its sizes in
//! descending order), so `InterReorder` keeps only the last rank's order.

use crate::intra::cmp_f64;
use dt_pipeline::{simulate, Engine, OpKind, PipelineSpec, Schedule, Workload};
use dt_simengine::SimDuration;

/// Pipeline shape Algorithm 2 optimizes against.
#[derive(Debug, Clone, PartialEq)]
pub struct InterReorderConfig {
    /// Total pipeline stages `p` (multimodal stage 0 + downstream stages).
    pub stages: usize,
    /// Forward time of each *downstream* (homogeneous) stage per
    /// microbatch, seconds.
    pub uniform_fwd: f64,
    /// Backward time of each downstream stage per microbatch, seconds.
    pub uniform_bwd: f64,
    /// Backward/forward ratio of the heterogeneous stage 0 (2.0 for a
    /// trainable module, ~0 for a frozen one).
    pub stage0_bwd_factor: f64,
    /// Virtual-pipeline size (1 = plain 1F1B). With VPP, each interval is
    /// filled by `vpp` forwards of a single microbatch, so targets shrink
    /// accordingly (§5.3's retrofit).
    pub vpp: u32,
}

impl InterReorderConfig {
    /// Plain 1F1B with trainable stage 0.
    pub fn new(stages: usize, uniform_fwd: f64, uniform_bwd: f64) -> Self {
        InterReorderConfig {
            stages,
            uniform_fwd,
            uniform_bwd,
            stage0_bwd_factor: 2.0,
            vpp: 1,
        }
    }

    /// The pipeline `GETINTERVAL` models, as `dt-pipeline` inputs: zero
    /// hops, `stage0_fwd` at stage 0 (backward scaled by
    /// `stage0_bwd_factor`), uniform downstream stages, interleaved when
    /// `vpp > 1`. [`simulated_makespan`] runs it.
    pub fn pipeline(&self, stage0_fwd: &[f64]) -> (PipelineSpec, Workload) {
        let p = self.stages.max(1);
        let (mut fwd, mut bwd) = (vec![Vec::new(); p], vec![Vec::new(); p]);
        for &t in stage0_fwd {
            for (s, (f, b)) in self.column(t).enumerate() {
                fwd[s].push(f);
                bwd[s].push(b);
            }
        }
        (self.spec(), Workload { fwd, bwd })
    }

    /// The proxy's schedule and its zero hops.
    fn spec(&self) -> PipelineSpec {
        let schedule = match self.vpp {
            0 | 1 => Schedule::OneFOneB,
            vpp => Schedule::Interleaved { vpp },
        };
        PipelineSpec::uniform(schedule, self.stages.max(1), SimDuration::ZERO)
    }

    /// A downstream stage's `(forward, backward)`.
    fn uniform(&self) -> Pair {
        let d = SimDuration::from_secs_f64;
        (d(self.uniform_fwd), d(self.uniform_bwd))
    }

    /// Stage 0's `(forward, backward)` for a forward of `secs`.
    fn stage0(&self, secs: f64) -> Pair {
        let d = SimDuration::from_secs_f64;
        (d(secs), d(secs * self.stage0_bwd_factor))
    }

    /// The proxy's `(forward, backward)` per stage for a microbatch whose
    /// stage-0 forward takes `secs`: the column [`Engine::push`] takes.
    pub fn column(&self, secs: f64) -> impl Iterator<Item = Pair> {
        column(self.stage0(secs), self.uniform(), self.stages)
    }

    /// `GETINTERVAL` on an engine holding committed positions: the volume
    /// of stage-0 interval `j` (see [`get_interval`]) when `tail` follows
    /// them. Pushes only as much of `tail` as interval `j` depends on, then
    /// rolls the engine back to the committed positions.
    pub fn interval(&self, e: &mut Engine, j: usize, tail: impl Iterator<Item = f64>) -> f64 {
        probe(e, j, tail.map(|secs| self.column(secs)))
    }
}

/// A stage's `(forward, backward)` durations.
type Pair = (SimDuration, SimDuration);

/// The proxy column of a microbatch: `stage0` at stage 0, `uniform` at the
/// other `stages − 1`.
fn column(stage0: Pair, uniform: Pair, stages: usize) -> impl Iterator<Item = Pair> {
    std::iter::once(stage0).chain(std::iter::repeat_n(uniform, stages.max(1) - 1))
}

/// [`InterReorderConfig::interval`] over proxy columns: push `tail` until
/// backward `j` of stage 0 has run, the last push only up to it
/// ([`Engine::push_until`]), read the interval and roll back.
fn probe<C>(e: &mut Engine, j: usize, mut tail: impl Iterator<Item = C>) -> f64
where
    C: IntoIterator<Item = Pair>,
{
    e.mark();
    let mut right = e.op(0, OpKind::Backward, j);
    while right.is_none() {
        let Some(column) = tail.next() else { break };
        right = e.push_until(column, 0, OpKind::Backward, j);
    }
    // Interval `j` starts where forward 0 (`j = 0`) or backward `j − 1`
    // ends; stage 0 runs either before backward `j`.
    let left = match j {
        0 => e.op(0, OpKind::Forward, 0),
        _ => e.op(0, OpKind::Backward, j - 1),
    };
    let volume = right.zip(left);
    e.rollback();
    volume.map_or(0.0, |(b, a)| (b.start - a.end).as_secs_f64())
}

/// The `GETINTERVAL` dynamic program: volume of stage-0 interval `j`
/// (0-indexed) for the given stage-0 forward-time order.
///
/// Interval semantics follow §5.3 / Figure 12 (shifted to 0-indexing):
///
/// * interval `0` is the gap between the end of forward 0 and the start of
///   backward 0 at stage 0 — the paper's "first interval", filled by
///   forwards `1..p−1`;
/// * interval `j ≥ 1` is the gap between the end of backward `j−1` and the
///   start of backward `j` — the slot in which forward `j+p−1` executes.
///
/// With VPP, `p` above is the virtual stage count `p·vpp` and the intervals
/// are those of virtual stage 0. Positions not yet decided by the caller
/// should be filled with an estimate (Algorithm 2 passes the mean of the
/// remaining pool). Only positions `0..=j+p·vpp−1` are read.
pub fn get_interval(cfg: &InterReorderConfig, stage0_fwd: &[f64], j: usize) -> f64 {
    let mut engine = Engine::new(&cfg.spec(), cfg.stages.max(1), stage0_fwd.len());
    cfg.interval(&mut engine, j, stage0_fwd.iter().copied())
}

/// Algorithm 2: reorder the `mb_fwd` stage-0 forward times of one DP rank's
/// microbatches; returns the permutation (new order as indices into the
/// input). Times are expected finite (the planner rejects non-finite
/// sizes up front); a NaN compares equal to everything, so it never
/// panics, but places arbitrarily.
pub fn inter_reorder(cfg: &InterReorderConfig, mb_fwd: &[f64]) -> Vec<usize> {
    InterReorder::new(cfg).order(mb_fwd).to_vec()
}

/// Remove and return the pool entry with the smallest `key`, the first
/// one on ties.
fn take_min(pool: &mut Vec<usize>, key: impl Fn(usize) -> f64) -> Option<usize> {
    let k = (0..pool.len()).min_by(|&a, &b| cmp_f64(key(pool[a]), key(pool[b])))?;
    Some(pool.swap_remove(k))
}

/// Algorithm 2 over many DP ranks of one pipeline shape, on one [`Engine`]
/// reset per evaluation (equal-length ranks build its firing list once).
/// A rank whose stage-0 times repeat the previous rank's bit for bit (the
/// key is their [`f64::to_bits`], length included) gets the previous
/// order back: exact, since an evaluation resets the engine and every
/// buffer, so an order is a pure function of `(cfg, mb_fwd)`. A miss
/// costs the compare and a copy of the key. The spec and downstream pair
/// are built once, each evaluated rank's stage-0 pairs once.
pub(crate) struct InterReorder<'c> {
    cfg: &'c InterReorderConfig,
    spec: PipelineSpec,
    uniform: Pair,
    stage0: Vec<Pair>,
    engine: Engine,
    /// The last evaluated rank's stage-0 times as bits: `ret`'s key.
    last: Vec<u64>,
    pool: Vec<usize>,
    rear: Vec<usize>,
    ret: Vec<usize>,
}

impl<'c> InterReorder<'c> {
    /// Algorithm 2 for the pipeline shape `cfg`.
    pub(crate) fn new(cfg: &'c InterReorderConfig) -> Self {
        InterReorder {
            cfg,
            spec: cfg.spec(),
            uniform: cfg.uniform(),
            stage0: Vec::new(),
            engine: Engine::default(),
            last: Vec::new(),
            pool: Vec::new(),
            rear: Vec::new(),
            ret: Vec::new(),
        }
    }

    /// [`inter_reorder`] of one rank's stage-0 forward times; the previous
    /// rank's order when the times repeat it bit for bit.
    pub(crate) fn order(&mut self, mb_fwd: &[f64]) -> &[usize] {
        let key = mb_fwd.iter().map(|t| t.to_bits());
        if key.clone().eq(self.last.iter().copied()) {
            return &self.ret;
        }
        self.last.clear();
        self.last.extend(key);
        let cfg = self.cfg;
        let l = mb_fwd.len();
        let p = cfg.stages;
        let (pool, rear, ret) = (&mut self.pool, &mut self.rear, &mut self.ret);
        ret.clear();
        // Degenerate short pipelines: just run smallest-first (every
        // interval is a rear interval).
        if l <= 1 || l <= p || p <= 1 {
            ret.extend(0..l);
            ret.sort_by(|&a, &b| cmp_f64(mb_fwd[a], mb_fwd[b]));
            return ret;
        }
        pool.clear();
        pool.extend(0..l);

        // The engine mirrors the chosen prefix `ret`: every placement is
        // pushed into it once.
        let (engine, uniform, stage0) = (&mut self.engine, self.uniform, &mut self.stage0);
        stage0.clear();
        stage0.extend(mb_fwd.iter().map(|&t| cfg.stage0(t)));
        engine.reset(&self.spec, p, l);

        // Line 3: smallest first.
        if let Some(first) = take_min(pool, |i| mb_fwd[i]) {
            engine.push(column(stage0[first], uniform, p));
            ret.push(first);
        }
        // Line 4: reserve the p−1 smallest for the rear.
        let rear_n = (p - 1).min(pool.len());
        rear.clear();
        rear.extend((0..rear_n).filter_map(|_| take_min(pool, |i| mb_fwd[i])));

        // Main loop (lines 5–11): fill intervals best-fit.
        let mut first_fill = true;
        while !pool.is_empty() {
            // The order estimate behind the target: chosen prefix + mean
            // placeholders for undecided slots + the reserved rear.
            let mean = pool.iter().map(|&i| mb_fwd[i]).sum::<f64>() / pool.len() as f64;
            let tail = std::iter::repeat_n(cfg.stage0(mean), pool.len())
                .chain(rear.iter().map(|&i| stage0[i]))
                .map(|s0| column(s0, uniform, p));
            // Forward at position `pos` executes inside interval
            // `pos − p + 1` (see `get_interval`); the first fill targets
            // interval 0.
            let interval_idx = (ret.len() + 1).saturating_sub(p);
            let mut target = probe(engine, interval_idx, tail);
            if cfg.vpp > 1 {
                target /= cfg.vpp as f64;
            }

            // The first interval takes p−1 microbatches whose aggregate
            // best matches the target, greedily (closest marginal fit one
            // at a time); every later interval takes the single best fit.
            let want = if first_fill { p - 1 } else { 1 };
            first_fill = false;
            let mut sum = 0.0;
            for _ in 0..want {
                let Some(idx) = take_min(pool, |i| (sum + mb_fwd[i] - target).abs()) else {
                    break;
                };
                sum += mb_fwd[idx];
                engine.push(column(stage0[idx], uniform, p));
                ret.push(idx);
            }
        }

        // Line 12: append the reserved rear, smallest last (tightest tail).
        rear.sort_by(|&a, &b| cmp_f64(mb_fwd[b], mb_fwd[a]));
        ret.extend_from_slice(rear);
        ret
    }
}

/// Simulated iteration makespan of a stage-0 order under `cfg` — the metric
/// Algorithm 2 improves; exposed for experiments and tests.
pub fn simulated_makespan(cfg: &InterReorderConfig, stage0_fwd: &[f64]) -> f64 {
    let (spec, w) = cfg.pipeline(stage0_fwd);
    simulate(&spec, &w).makespan.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::DetRng;

    fn cfg(p: usize) -> InterReorderConfig {
        InterReorderConfig::new(p, 1.0, 2.0)
    }

    fn apply(order: &[usize], times: &[f64]) -> Vec<f64> {
        order.iter().map(|&i| times[i]).collect()
    }

    #[test]
    fn smallest_microbatch_goes_first() {
        let times = [5.0, 0.5, 3.0, 4.0, 2.0, 6.0, 1.0, 2.5];
        let order = inter_reorder(&cfg(4), &times);
        assert_eq!(order[0], 1, "order {order:?}");
    }

    #[test]
    fn rear_holds_small_microbatches() {
        let times = [5.0, 0.5, 3.0, 4.0, 2.0, 6.0, 1.0, 2.5];
        let p = 4;
        let order = inter_reorder(&cfg(p), &times);
        let rear: Vec<f64> = order[order.len() - (p - 1)..]
            .iter()
            .map(|&i| times[i])
            .collect();
        // The rear are the p−1 smallest after removing the very smallest.
        let mut sorted = times.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = sorted[1..p].to_vec();
        let mut rear_sorted = rear.clone();
        rear_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rear_sorted, expected);
    }

    #[test]
    fn reordering_reduces_average_makespan() {
        // Statistical check over many heterogeneous workloads: Algorithm 2
        // must beat the random (identity) order on average, which is
        // exactly the §7.2 disaggregated-preprocessing ablation claim.
        let c = cfg(4);
        let mut rng = DetRng::new(99);
        let mut base_total = 0.0;
        let mut reord_total = 0.0;
        for _ in 0..30 {
            let times: Vec<f64> = (0..16).map(|_| rng.lognormal(0.0, 0.8)).collect();
            base_total += simulated_makespan(&c, &times);
            let order = inter_reorder(&c, &times);
            reord_total += simulated_makespan(&c, &apply(&order, &times));
        }
        assert!(
            reord_total < base_total,
            "reordered mean {reord_total:.3} !< random mean {base_total:.3}"
        );
    }

    #[test]
    fn homogeneous_workload_is_unharmed() {
        let c = cfg(4);
        let times = vec![2.0; 12];
        let base = simulated_makespan(&c, &times);
        let order = inter_reorder(&c, &times);
        let after = simulated_makespan(&c, &apply(&order, &times));
        assert!((after - base).abs() < 1e-9);
    }

    #[test]
    fn short_batches_fall_back_to_ascending() {
        let times = [3.0, 1.0, 2.0];
        let order = inter_reorder(&cfg(4), &times);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn get_interval_is_zero_past_the_end() {
        assert_eq!(get_interval(&cfg(4), &[1.0; 6], 7), 0.0);
    }

    #[test]
    fn interval_volume_tracks_the_microbatch_that_fills_it() {
        // §5.3's positive correlation: forward `j+p−1` executes inside
        // interval `j`, so growing that microbatch grows the interval.
        let c = cfg(4);
        let p = 4;
        let j = 2;
        let small = vec![1.0; 10];
        let mut big = small.clone();
        big[j + p - 1] = 4.0;
        let a = get_interval(&c, &small, j);
        let b = get_interval(&c, &big, j);
        assert!(
            b > a + 2.0,
            "interval {j} should grow with microbatch {}: {a} vs {b}",
            j + p - 1
        );
    }

    #[test]
    fn first_interval_has_volume_for_warmup_forwards() {
        // Interval 0 spans from forward 0's end to backward 0's start: with
        // p=4 uniform stages it must hold roughly the p−1 warm-up forwards.
        let v = get_interval(&cfg(4), &[1.0; 10], 0);
        assert!(v >= 3.0, "first interval {v} too small");
    }

    fn random_cfg(rng: &mut DetRng) -> InterReorderConfig {
        InterReorderConfig {
            stages: rng.range_usize(1, 9),
            uniform_fwd: rng.range_f64(0.0, 2.0),
            uniform_bwd: rng.range_f64(0.0, 4.0),
            stage0_bwd_factor: [0.0, 1.0, 2.0][rng.range_usize(0, 3)],
            vpp: rng.range_usize(1, 4) as u32,
        }
    }

    /// One `InterReorder` serving many ranks — the planner's usage, with
    /// the engine reset between them, including across rank lengths —
    /// places exactly what a fresh one per rank places. Each seed then
    /// feeds a rank twice in a row (the repeat path) and ranks that nearly
    /// repeat their predecessor: one ulp off in the last entry (which ties
    /// the minimum, so the ulp moves it first), `0.0` swapped for `-0.0`,
    /// a prefix, and one microbatch longer.
    #[test]
    fn a_reused_evaluator_matches_a_fresh_one() {
        for seed in 0u64..100 {
            let mut rng = DetRng::new(seed);
            let c = random_cfg(&mut rng);
            let mut reused = InterReorder::new(&c);
            let mut ranks: Vec<Vec<f64>> = (0..6)
                .map(|_| {
                    let l = rng.range_usize(1, 30);
                    (0..l).map(|_| rng.lognormal(0.0, 0.8)).collect()
                })
                .collect();
            let mut tied = ranks[5].clone();
            let last = tied.len() - 1;
            tied[last] = tied.iter().copied().fold(f64::INFINITY, f64::min);
            let mut ulp = tied.clone();
            ulp[last] = f64::from_bits(ulp[last].to_bits() - 1);
            let mut zero = tied.clone();
            zero[last] = 0.0;
            let mut negative = tied.clone();
            negative[last] = -0.0;
            let prefix = negative[..last].to_vec();
            let mut longer = prefix.clone();
            longer.push(rng.lognormal(0.0, 0.8));
            ranks.extend([tied.clone(), tied, ulp, zero, negative, prefix, longer]);
            for (rank, times) in ranks.iter().enumerate() {
                assert_eq!(
                    reused.order(times),
                    inter_reorder(&c, times),
                    "seed {seed} rank {rank} {c:?} l={}",
                    times.len()
                );
            }
        }
    }

    /// Convergence-semantics invariant: always a permutation
    /// (seed-swept property over batch lengths and pipeline depths).
    #[test]
    fn inter_reorder_is_a_permutation() {
        for seed in 0u64..300 {
            let mut rng = DetRng::new(seed);
            let l = rng.range_usize(1, 20);
            let p = rng.range_usize(1, 6);
            let times: Vec<f64> = (0..l).map(|_| rng.range_f64(0.1, 10.0)).collect();
            let order = inter_reorder(&cfg(p), &times);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..l).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// Reordering never catastrophically regresses: the reordered
    /// makespan is bounded by the random order's plus the largest
    /// single microbatch (a slack bound that catches algorithmic
    /// regressions without over-fitting the heuristic).
    #[test]
    fn reorder_never_blows_up() {
        for seed in 0u64..100 {
            let c = cfg(4);
            let mut rng = DetRng::new(seed);
            let l = rng.range_usize(6, 16);
            let times: Vec<f64> = (0..l).map(|_| rng.lognormal(0.0, 1.0)).collect();
            let base = simulated_makespan(&c, &times);
            let order = inter_reorder(&c, &times);
            let after = simulated_makespan(&c, &apply(&order, &times));
            let biggest = times.iter().copied().fold(0.0, f64::max);
            assert!(
                after <= base + 3.0 * biggest + 1e-9,
                "seed {seed}: reorder exploded: {after} vs base {base}"
            );
        }
    }
}
