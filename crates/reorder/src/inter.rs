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
//! The interval volumes come from the `GETINTERVAL` evaluator behind
//! [`get_interval`]: an exact, incremental replay of the 1F1B dependency
//! recurrence over `P = p·vpp` (virtual) stages with zero hops. Interval
//! `j` depends only on stage-0 positions `0..=j+P−1`, so Algorithm 2
//! commits each chosen microbatch once and evaluates each target by
//! pushing only that much of the tentative tail (mean placeholders, then
//! the reserved rear) before rolling back an `O(P)` snapshot. A placement
//! costs `O(P)` amortized work for plain 1F1B — `O(l·p)` per rank, as in
//! the paper — with no per-step allocation; with VPP each probe pushes
//! `p·(vpp−1)+1` tail positions. The volumes are nanosecond-identical to
//! reading `dt_pipeline::simulate`'s timeline, which stays the reference
//! the tests and the `reorder.alg2_interval_matches_simulate` oracle
//! compare against. Like Algorithm 1 this is a pure permutation of the
//! local batch, so convergence semantics are untouched.

use crate::intra::cmp_f64;
use dt_pipeline::schedule::StageOp;
use dt_pipeline::{simulate, PipelineSpec, Schedule, Workload};
use dt_simengine::{SimDuration, SimTime};

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
    /// `vpp > 1`. [`simulated_makespan`] runs it; `dt_pipeline::simulate`
    /// over it is the reference the incremental evaluator is tested
    /// against.
    pub fn pipeline(&self, stage0_fwd: &[f64]) -> (PipelineSpec, Workload) {
        let l = stage0_fwd.len();
        let mut fwd = Vec::with_capacity(self.stages);
        let mut bwd = Vec::with_capacity(self.stages);
        fwd.push(
            stage0_fwd
                .iter()
                .map(|&t| SimDuration::from_secs_f64(t))
                .collect(),
        );
        bwd.push(
            stage0_fwd
                .iter()
                .map(|&t| SimDuration::from_secs_f64(t * self.stage0_bwd_factor))
                .collect(),
        );
        for _ in 1..self.stages {
            fwd.push(vec![SimDuration::from_secs_f64(self.uniform_fwd); l]);
            bwd.push(vec![SimDuration::from_secs_f64(self.uniform_bwd); l]);
        }
        let w = Workload { fwd, bwd };
        let schedule = if self.vpp > 1 {
            Schedule::Interleaved { vpp: self.vpp }
        } else {
            Schedule::OneFOneB
        };
        (
            PipelineSpec::uniform(schedule, w.stages(), SimDuration::ZERO),
            w,
        )
    }
}

/// The incremental `GETINTERVAL` evaluator: an exact 1F1B replay that
/// advances one stage-0 position at a time.
///
/// It models the pipeline of [`InterReorderConfig::pipeline`] exactly as
/// `dt_pipeline::simulate` runs it: `P = p·vpp` stages in
/// `Schedule::stage_order`'s 1F1B order (warm-up `P − s`), virtual stage
/// `s` carrying stage 0's heterogeneous durations when `s % p == 0` and
/// the uniform ones otherwise, every duration divided by `vpp` in integer
/// nanoseconds. Op times are the longest-path values of the dependency
/// DAG, so the order in which ready ops run does not change them.
///
/// The state is, per stage, a program counter, the time the stage is next
/// free and the forward/backward end times computed so far. An op whose
/// position is below its stage's counter is done; entries past it are
/// stale and never read, which is what makes rolling back a probe an
/// `O(P)` copy of the counters and free times.
struct IntervalEvaluator {
    /// Physical stages `p`.
    phys: usize,
    /// Simulated (virtual) stages `P = p·vpp`.
    stages: usize,
    /// Microbatches `l`.
    l: usize,
    vpp: u64,
    bwd_factor: f64,
    uniform_fwd: SimDuration,
    uniform_bwd: SimDuration,
    /// Stage-0-class forward/backward durations of the pushed positions.
    fwd0: Vec<SimDuration>,
    bwd0: Vec<SimDuration>,
    pc: Vec<usize>,
    avail: Vec<SimTime>,
    /// `[s·l + i]` end times of `F(s, i)` / `B(s, i)`.
    fwd_end: Vec<SimTime>,
    bwd_end: Vec<SimTime>,
    /// Start times of stage 0's backwards (the interval right edges).
    bwd0_start: Vec<SimTime>,
    saved_pc: Vec<usize>,
    saved_avail: Vec<SimTime>,
    /// Worklist of stages that may have become ready.
    ready: Vec<usize>,
}

impl IntervalEvaluator {
    fn new(cfg: &InterReorderConfig, l: usize) -> Self {
        let phys = cfg.stages.max(1);
        let vpp = if cfg.vpp > 1 { cfg.vpp as u64 } else { 1 };
        let stages = phys * vpp as usize;
        IntervalEvaluator {
            phys,
            stages,
            l,
            vpp,
            bwd_factor: cfg.stage0_bwd_factor,
            uniform_fwd: SimDuration::from_secs_f64(cfg.uniform_fwd) / vpp,
            uniform_bwd: SimDuration::from_secs_f64(cfg.uniform_bwd) / vpp,
            fwd0: Vec::with_capacity(l),
            bwd0: Vec::with_capacity(l),
            pc: vec![0; stages],
            avail: vec![SimTime::ZERO; stages],
            fwd_end: vec![SimTime::ZERO; stages * l],
            bwd_end: vec![SimTime::ZERO; stages * l],
            bwd0_start: vec![SimTime::ZERO; l],
            saved_pc: vec![0; stages],
            saved_avail: vec![SimTime::ZERO; stages],
            ready: Vec::with_capacity(2 * stages),
        }
    }

    /// Empty the evaluator for a fresh order of `l` microbatches. Only the
    /// counters, the free times and the pushed positions are cleared: end
    /// times past a counter are stale and never read.
    fn reset(&mut self, l: usize) {
        if l != self.l {
            self.l = l;
            self.fwd_end.resize(self.stages * l, SimTime::ZERO);
            self.bwd_end.resize(self.stages * l, SimTime::ZERO);
            self.bwd0_start.resize(l, SimTime::ZERO);
        }
        self.fwd0.clear();
        self.bwd0.clear();
        self.pc.fill(0);
        self.avail.fill(SimTime::ZERO);
    }

    /// Stage `s`'s 1F1B warm-up depth.
    fn warm(&self, s: usize) -> usize {
        (self.stages - s).min(self.l)
    }

    /// The op at position `q` of stage `s`'s order: `warm` forwards, then
    /// alternating backward/forward while forwards remain, then the
    /// remaining backwards.
    fn op_at(&self, s: usize, q: usize) -> StageOp {
        let w = self.warm(s);
        if q < w {
            return StageOp::Fwd(q);
        }
        let k = q - w;
        if k < 2 * (self.l - w) {
            if k.is_multiple_of(2) {
                StageOp::Bwd(k / 2)
            } else {
                StageOp::Fwd(w + k / 2)
            }
        } else {
            StageOp::Bwd(k - (self.l - w))
        }
    }

    /// Position of `F(s, i)` in stage `s`'s order.
    fn fwd_pos(&self, s: usize, i: usize) -> usize {
        let w = self.warm(s);
        if i < w {
            i
        } else {
            w + 2 * (i - w) + 1
        }
    }

    /// Position of `B(s, i)` in stage `s`'s order.
    fn bwd_pos(&self, s: usize, i: usize) -> usize {
        let w = self.warm(s);
        w + i + i.min(self.l - w)
    }

    /// Run every op of stage `s` whose dependencies are done; returns
    /// whether any ran.
    fn drain(&mut self, s: usize) -> bool {
        let l = self.l;
        let heterogeneous = s.is_multiple_of(self.phys);
        let mut ran = false;
        while self.pc[s] < 2 * l {
            let op = self.op_at(s, self.pc[s]);
            let dep = match op {
                StageOp::Fwd(i) if s == 0 => {
                    if i >= self.fwd0.len() {
                        break;
                    }
                    SimTime::ZERO
                }
                StageOp::Fwd(i) => {
                    if self.pc[s - 1] <= self.fwd_pos(s - 1, i) {
                        break;
                    }
                    self.fwd_end[(s - 1) * l + i]
                }
                // The last stage's own forward precedes it in stage order.
                StageOp::Bwd(i) if s + 1 == self.stages => self.fwd_end[s * l + i],
                StageOp::Bwd(i) => {
                    if self.pc[s + 1] <= self.bwd_pos(s + 1, i) {
                        break;
                    }
                    self.bwd_end[(s + 1) * l + i]
                }
            };
            let start = self.avail[s].max(dep);
            let end = match op {
                StageOp::Fwd(i) => {
                    let d = if heterogeneous {
                        self.fwd0[i]
                    } else {
                        self.uniform_fwd
                    };
                    self.fwd_end[s * l + i] = start + d;
                    start + d
                }
                StageOp::Bwd(i) => {
                    let d = if heterogeneous {
                        self.bwd0[i]
                    } else {
                        self.uniform_bwd
                    };
                    self.bwd_end[s * l + i] = start + d;
                    if s == 0 {
                        self.bwd0_start[i] = start;
                    }
                    start + d
                }
            };
            self.avail[s] = end;
            self.pc[s] += 1;
            ran = true;
        }
        ran
    }

    /// Append the next stage-0 position (forward time `secs`) and run
    /// every op that becomes ready. Only `F(0, i)` is newly unblocked;
    /// each stage that makes progress may unblock its two neighbours.
    fn push(&mut self, secs: f64) {
        debug_assert!(self.fwd0.len() < self.l, "more positions than microbatches");
        self.fwd0.push(SimDuration::from_secs_f64(secs) / self.vpp);
        self.bwd0
            .push(SimDuration::from_secs_f64(secs * self.bwd_factor) / self.vpp);
        self.ready.push(0);
        while let Some(s) = self.ready.pop() {
            if self.drain(s) {
                if s > 0 {
                    self.ready.push(s - 1);
                }
                if s + 1 < self.stages {
                    self.ready.push(s + 1);
                }
            }
        }
    }

    /// Whether interval `j` (`j < l`) is determined: stage 0 ran `B(0, j)`.
    fn determined(&self, j: usize) -> bool {
        self.pc[0] > self.bwd_pos(0, j)
    }

    /// Volume of stage-0 interval `j` given the committed positions
    /// followed by `tail`; pushes only as much of `tail` as interval `j`
    /// depends on, then rolls the state back to the committed prefix.
    fn probe(&mut self, j: usize, tail: impl IntoIterator<Item = f64>) -> f64 {
        if j >= self.l {
            return 0.0;
        }
        let committed = self.fwd0.len();
        self.saved_pc.copy_from_slice(&self.pc);
        self.saved_avail.copy_from_slice(&self.avail);
        let mut tail = tail.into_iter();
        while !self.determined(j) {
            match tail.next() {
                Some(secs) => self.push(secs),
                None => break,
            }
        }
        let volume = if !self.determined(j) {
            0.0
        } else {
            let left = if j == 0 {
                self.fwd_end[0]
            } else {
                self.bwd_end[j - 1]
            };
            (self.bwd0_start[j] - left).as_secs_f64()
        };
        self.pc.copy_from_slice(&self.saved_pc);
        self.avail.copy_from_slice(&self.saved_avail);
        self.fwd0.truncate(committed);
        self.bwd0.truncate(committed);
        volume
    }
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
    IntervalEvaluator::new(cfg, stage0_fwd.len()).probe(j, stage0_fwd.iter().copied())
}

/// Algorithm 2: reorder the `mb_fwd` stage-0 forward times of one DP rank's
/// microbatches; returns the permutation (new order as indices into the
/// input). Times are expected finite (the planner rejects non-finite
/// sizes up front); a NaN compares equal to everything, so it never
/// panics, but places arbitrarily.
pub fn inter_reorder(cfg: &InterReorderConfig, mb_fwd: &[f64]) -> Vec<usize> {
    InterReorder::new(cfg).order(mb_fwd)
}

/// Remove and return the pool entry with the smallest `key`, the first
/// one on ties.
fn take_min(pool: &mut Vec<usize>, key: impl Fn(usize) -> f64) -> Option<usize> {
    let k = (0..pool.len()).min_by(|&a, &b| cmp_f64(key(pool[a]), key(pool[b])))?;
    Some(pool.swap_remove(k))
}

/// Algorithm 2 over many DP ranks of one pipeline shape: the
/// `GETINTERVAL` evaluator is allocated on first use and reset for each
/// rank, so a global batch allocates it once.
pub(crate) struct InterReorder<'c> {
    cfg: &'c InterReorderConfig,
    eval: Option<IntervalEvaluator>,
}

impl<'c> InterReorder<'c> {
    pub(crate) fn new(cfg: &'c InterReorderConfig) -> Self {
        InterReorder { cfg, eval: None }
    }

    /// [`inter_reorder`] of one rank's stage-0 forward times.
    pub(crate) fn order(&mut self, mb_fwd: &[f64]) -> Vec<usize> {
        let cfg = self.cfg;
        let l = mb_fwd.len();
        let p = cfg.stages;
        let mut pool: Vec<usize> = (0..l).collect();
        // Degenerate short pipelines: just run smallest-first (every
        // interval is a rear interval).
        if l <= 1 || l <= p || p <= 1 {
            pool.sort_by(|&a, &b| cmp_f64(mb_fwd[a], mb_fwd[b]));
            return pool;
        }

        // The evaluator mirrors the chosen prefix `ret`: every placement
        // is pushed into it once.
        let eval = match &mut self.eval {
            Some(eval) => {
                eval.reset(l);
                eval
            }
            empty => empty.insert(IntervalEvaluator::new(cfg, l)),
        };
        let mut ret = Vec::with_capacity(l);

        // Line 3: smallest first.
        if let Some(first) = take_min(&mut pool, |i| mb_fwd[i]) {
            eval.push(mb_fwd[first]);
            ret.push(first);
        }
        // Line 4: reserve the p−1 smallest for the rear.
        let rear_n = (p - 1).min(pool.len());
        let mut rear: Vec<usize> = (0..rear_n)
            .filter_map(|_| take_min(&mut pool, |i| mb_fwd[i]))
            .collect();

        // Main loop (lines 5–11): fill intervals best-fit.
        let mut first_fill = true;
        while !pool.is_empty() {
            // The order estimate behind the target: chosen prefix + mean
            // placeholders for undecided slots + the reserved rear.
            let mean = pool.iter().map(|&i| mb_fwd[i]).sum::<f64>() / pool.len() as f64;
            let tail = std::iter::repeat_n(mean, pool.len()).chain(rear.iter().map(|&i| mb_fwd[i]));
            // Forward at position `pos` executes inside interval
            // `pos − p + 1` (see `get_interval`); the first fill targets
            // interval 0.
            let interval_idx = (ret.len() + 1).saturating_sub(p);
            let mut target = eval.probe(interval_idx, tail);
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
                let Some(idx) = take_min(&mut pool, |i| (sum + mb_fwd[i] - target).abs()) else {
                    break;
                };
                sum += mb_fwd[idx];
                eval.push(mb_fwd[idx]);
                ret.push(idx);
            }
        }

        // Line 12: append the reserved rear, smallest last (tightest tail).
        rear.sort_by(|&a, &b| cmp_f64(mb_fwd[b], mb_fwd[a]));
        ret.extend(rear);
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

    /// Every stage-0 interval read off `dt_pipeline::simulate`'s timeline:
    /// interval 0 from forward 0's end, the rest via `stage0_intervals`.
    fn simulated_intervals(cfg: &InterReorderConfig, stage0_fwd: &[f64]) -> Vec<f64> {
        let (spec, w) = cfg.pipeline(stage0_fwd);
        let result = simulate(&spec, &w);
        let stage0 = |kind| result.stage_ops(0).filter(move |op| op.kind == kind);
        let Some(f0) = stage0(dt_pipeline::OpKind::Forward).find(|op| op.microbatch == 0) else {
            return Vec::new();
        };
        let b0 = stage0(dt_pipeline::OpKind::Backward)
            .min_by_key(|op| op.start)
            .expect("b0");
        std::iter::once(b0.start - f0.end)
            .chain(result.stage0_intervals())
            .map(SimDuration::as_secs_f64)
            .collect()
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

    #[test]
    fn closed_form_order_matches_stage_order() {
        let cfg = |stages| InterReorderConfig::new(stages, 1.0, 2.0);
        for stages in 1..9 {
            for l in 1..14 {
                let eval = IntervalEvaluator::new(&cfg(stages), l);
                for s in 0..stages {
                    let order = Schedule::OneFOneB.stage_order(s, stages, l);
                    for (q, &op) in order.iter().enumerate() {
                        assert_eq!(eval.op_at(s, q), op, "P={stages} l={l} s={s} q={q}");
                        let pos = match op {
                            StageOp::Fwd(i) => eval.fwd_pos(s, i),
                            StageOp::Bwd(i) => eval.bwd_pos(s, i),
                        };
                        assert_eq!(pos, q, "P={stages} l={l} s={s} op={op:?}");
                    }
                }
            }
        }
    }

    /// Algorithm 2's usage: commit a prefix, then probe with tentative
    /// tails. Every probe must equal a full simulation of prefix + tail,
    /// and must leave the committed state untouched.
    #[test]
    fn probes_after_commits_match_the_simulator() {
        for seed in 0u64..200 {
            let mut rng = DetRng::new(seed);
            let c = random_cfg(&mut rng);
            let l = rng.range_usize(1, 24);
            let order: Vec<f64> = (0..l).map(|_| rng.range_f64(0.0, 3.0)).collect();
            let mut eval = IntervalEvaluator::new(&c, l);
            for n in 0..l {
                for _ in 0..2 {
                    let tail: Vec<f64> = (n..l).map(|_| rng.range_f64(0.0, 3.0)).collect();
                    let est: Vec<f64> = order[..n].iter().chain(&tail).copied().collect();
                    let reference = simulated_intervals(&c, &est);
                    let j = rng.range_usize(0, l);
                    let got = eval.probe(j, tail.iter().copied());
                    assert_eq!(got, reference[j], "seed {seed} {c:?} l={l} n={n} j={j}");
                }
                eval.push(order[n]);
            }
        }
    }

    /// One `InterReorder` serving many ranks — the planner's usage, with
    /// the evaluator reset between them, including across rank lengths —
    /// places exactly what a fresh evaluator per rank places.
    #[test]
    fn a_reused_evaluator_matches_a_fresh_one() {
        for seed in 0u64..100 {
            let mut rng = DetRng::new(seed);
            let c = random_cfg(&mut rng);
            let mut reused = InterReorder::new(&c);
            for rank in 0..6 {
                let l = rng.range_usize(1, 30);
                let times: Vec<f64> = (0..l).map(|_| rng.lognormal(0.0, 0.8)).collect();
                assert_eq!(
                    reused.order(&times),
                    inter_reorder(&c, &times),
                    "seed {seed} rank {rank} {c:?} l={l}"
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
