//! The 1F1B engine: the one dependency-exact replay of a pipeline schedule.
//!
//! Each stage runs its [`Schedule::stage_order`] serially; `F(s, i)` needs
//! `F(s−1, i)` and `B(s, i)` needs `B(s+1, i)`, each plus the boundary's
//! hop. [`Engine`] takes one microbatch column at a time and runs each op
//! once its dependencies are done, at its longest-path time in the DAG.
//! Every op of microbatch `i` waits on `F(0, i)`, so a pushed prefix is
//! final: a caller can mark the frontier in `O(P)`, push a tentative tail,
//! read its op times and roll back (Algorithm 2's `GETINTERVAL` probe).
//! A probe that reads one op stops there: [`Engine::push_until`] replays
//! the push only up to that op, and the ops after it stay unrun until the
//! rollback.
//!
//! Which ops a push makes ready depends only on the schedule's shape,
//! never on durations: a pushed prefix fixes exactly which ops can run. So
//! readiness is decided once per shape. At a reset to a new shape a plan
//! pass records each push's *firing list*: the ops it runs, each after the
//! op it waits on, with that op and the hop between them. `push` replays
//! its list, starting each op at `max(stage free, dependency end + hop)`.
//! Op times are longest-path values of the DAG, so the order in which
//! ready ops run does not change them and the replay is exact.
//!
//! Interleaved 1F1B (VPP) runs as 1F1B over `P = p·vpp` virtual stages
//! (§4.3): virtual stage `c·p + s` is chunk `c` of stage `s` and takes
//! `1/vpp` of its durations in integer nanoseconds; the wrap-around hop
//! back to stage 0 costs the same as the last boundary.

use crate::result::{bubble_fraction, OpKind, OpRecord, PipelineResult};
use crate::schedule::{Schedule, StageOp};
use dt_simengine::{SimDuration, SimTime};

/// Static description of the simulated pipeline.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// The schedule to execute.
    pub schedule: Schedule,
    /// Per-boundary point-to-point hop cost (length `stages − 1`); applied
    /// to both forward activations and backward gradients. Boundaries that
    /// cross parallelism units carry the communication-broker hop here.
    pub comm: Vec<SimDuration>,
}

impl PipelineSpec {
    /// A spec with uniform hop cost.
    pub fn uniform(schedule: Schedule, stages: usize, hop: SimDuration) -> Self {
        PipelineSpec {
            schedule,
            comm: vec![hop; stages.saturating_sub(1)],
        }
    }
}

/// Per-stage, per-microbatch durations.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `fwd[stage][microbatch]` forward durations.
    pub fwd: Vec<Vec<SimDuration>>,
    /// `bwd[stage][microbatch]` backward durations.
    pub bwd: Vec<Vec<SimDuration>>,
}

impl Workload {
    /// Homogeneous workload: every microbatch costs the same per stage.
    pub fn homogeneous(fwd: &[SimDuration], bwd: &[SimDuration], microbatches: usize) -> Self {
        Workload {
            fwd: fwd.iter().map(|&f| vec![f; microbatches]).collect(),
            bwd: bwd.iter().map(|&b| vec![b; microbatches]).collect(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.fwd.len()
    }

    /// Number of microbatches.
    pub fn microbatches(&self) -> usize {
        self.fwd.first().map_or(0, Vec::len)
    }

    fn validate(&self) {
        assert_eq!(
            self.fwd.len(),
            self.bwd.len(),
            "fwd/bwd stage counts differ"
        );
        let l = self.microbatches();
        for (s, (f, b)) in self.fwd.iter().zip(&self.bwd).enumerate() {
            assert_eq!(f.len(), l, "stage {s} fwd microbatch count differs");
            assert_eq!(b.len(), l, "stage {s} bwd microbatch count differs");
        }
    }
}

/// Execute `workload` under `spec` and return the exact timeline.
pub fn simulate(spec: &PipelineSpec, workload: &Workload) -> PipelineResult {
    Engine::default().run(spec, workload).result()
}

/// Incremental replay of one iteration's schedule (see the module docs).
///
/// The firing list is keyed by `(P, l, gpipe)`: a reset to a new shape
/// runs the plan pass, a reset to the shape it already has keeps the list
/// and only rebuilds the hops, so one engine serves every DP rank of an
/// iteration.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Physical stages `p`, virtual stages `P = p·vpp`, microbatches `l`.
    phys: usize,
    stages: usize,
    l: usize,
    vpp: u64,
    gpipe: bool,
    /// `[2(i·P + s) + kind]`: op `kind` of microbatch `i` on stage `s`,
    /// then a zero sentinel op that stage 0's forwards wait on.
    ops: Vec<Op>,
    /// `[2(i·P + s) + kind]`: that op's entry in `fires`.
    fire_at: Vec<u32>,
    /// `fires[starts[i]..starts[i + 1]]`: the ops push `i` runs, in order.
    fires: Vec<Fire>,
    starts: Vec<u32>,
    /// `comm[s]`: the hop after virtual stage `s`, then a zero hop.
    comm: Vec<SimDuration>,
    /// Microbatches pushed, `fires` entries replayed (an op has run iff
    /// its entry has), and per-stage progress, now and at the mark.
    pushed: usize,
    fired: usize,
    now: Vec<Frontier>,
    marked: (usize, Vec<Frontier>),
}

/// An op's duration and start (stale until it runs).
#[derive(Debug, Clone, Copy, Default)]
struct Op {
    dur: SimDuration,
    start: SimTime,
}

/// A firing-list entry: `ops[op]` runs on `stage` once it is free and
/// `comm[hop]` after `ops[dep]` ends.
#[derive(Debug, Clone, Copy)]
struct Fire {
    stage: u32,
    op: u32,
    dep: u32,
    hop: u32,
}

/// One stage's progress: when it is next free, time spent busy.
#[derive(Debug, Clone, Copy, Default)]
struct Frontier {
    avail: SimTime,
    busy: SimDuration,
}

impl Engine {
    /// An engine reset for `stages` physical stages and `microbatches`.
    pub fn new(spec: &PipelineSpec, stages: usize, microbatches: usize) -> Self {
        let mut engine = Engine::default();
        engine.reset(spec, stages, microbatches);
        engine
    }

    /// Empty the engine for `microbatches` over `stages` physical stages
    /// under `spec`, and mark the empty state.
    pub fn reset(&mut self, spec: &PipelineSpec, stages: usize, microbatches: usize) {
        let vpp = match spec.schedule {
            Schedule::Interleaved { vpp } if vpp > 1 => vpp as usize,
            _ => 1,
        };
        let (p, l, n) = (stages, microbatches, stages * vpp);
        let (c, b) = (spec.comm.len(), p.saturating_sub(1));
        assert!(
            vpp > 1 || l == 0 || c >= b,
            "comm vector has {c} entries for {b} boundaries"
        );
        let gpipe = spec.schedule == Schedule::GPipe;
        if (n, l, gpipe) != (self.stages, self.l, self.gpipe) {
            // Interleaved runs 1F1B's order, so only GPipe keys the list.
            assert!(2 * n * l < u32::MAX as usize, "firing list overflows u32");
            (self.stages, self.l, self.gpipe) = (n, l, gpipe);
            self.ops = vec![Op::default(); 2 * n * l + 1];
            self.plan(spec.schedule);
        }
        (self.phys, self.vpp, self.pushed, self.fired) = (p, vpp as u64, 0, 0);
        // Virtual boundary `v` is physical boundary `v % p`, or the last
        // one where it wraps around to stage 0.
        let hop = |v: usize| match v % p + 1 < p {
            true => spec.comm.get(v % p).copied(),
            false => spec.comm.last().copied(),
        };
        self.comm.clear();
        self.comm.extend(
            (1..n)
                .map(|v| hop(v - 1).unwrap_or_default())
                .chain([SimDuration::ZERO]),
        );
        self.now.clear();
        self.now.resize(n, Frontier::default());
        self.mark();
    }

    /// The plan pass: for each push, record the ops it makes ready, each
    /// after the op it waits on. An op is ready once its stage has run the
    /// ops before it in its [`Schedule::stage_order`] and its dependency
    /// has run: for `F(0, i)`, once microbatch `i` is pushed.
    fn plan(&mut self, schedule: Schedule) {
        let (n, l) = (self.stages, self.l);
        let (sentinel, zero_hop) = (2 * n * l, n.saturating_sub(1));
        let orders: Vec<_> = (0..n).map(|s| schedule.stage_order(s, n, l)).collect();
        let (mut pc, mut ready) = (vec![0; n], Vec::new());
        self.fire_at.clear();
        self.fire_at.resize(sentinel, u32::MAX);
        self.fires.clear();
        self.fires.reserve(sentinel);
        self.starts.clear();
        self.starts.reserve(l + 1);
        self.starts.push(0);
        for push in 0..l {
            ready.extend((n > 0).then_some(0));
            while let Some(s) = ready.pop() {
                let before = pc[s];
                while let Some(&next) = orders[s].get(pc[s]) {
                    let (kind, i) = match next {
                        StageOp::Fwd(i) => (OpKind::Forward, i),
                        StageOp::Bwd(i) => (OpKind::Backward, i),
                    };
                    let ran = |s: usize| self.fire_at[self.at(s, kind, i)] != u32::MAX;
                    let dep = match kind {
                        OpKind::Forward if s == 0 => (i <= push).then_some((sentinel, zero_hop)),
                        OpKind::Forward => ran(s - 1).then(|| (self.at(s - 1, kind, i), s - 1)),
                        // The last stage's own forward ran earlier in its order.
                        OpKind::Backward if s + 1 == n => {
                            Some((self.at(s, OpKind::Forward, i), zero_hop))
                        }
                        OpKind::Backward => ran(s + 1).then(|| (self.at(s + 1, kind, i), s)),
                    };
                    let Some((dep, hop)) = dep else { break };
                    let op = self.at(s, kind, i);
                    self.fire_at[op] = self.fires.len() as u32;
                    let [stage, op, dep, hop] = [s, op, dep, hop].map(|x| x as u32);
                    self.fires.push(Fire {
                        stage,
                        op,
                        dep,
                        hop,
                    });
                    pc[s] += 1;
                }
                if pc[s] > before {
                    ready.extend(s.checked_sub(1));
                    ready.extend(Some(s + 1).filter(|&next| next < n));
                }
            }
            self.starts.push(self.fires.len() as u32);
        }
    }

    /// Reset for `workload` under `spec` and push every microbatch.
    pub fn run(&mut self, spec: &PipelineSpec, workload: &Workload) -> &mut Self {
        workload.validate();
        self.reset(spec, workload.stages(), workload.microbatches());
        let (fwd, bwd) = (&workload.fwd, &workload.bwd);
        for i in 0..workload.microbatches() {
            self.push((0..fwd.len()).map(|s| (fwd[s][i], bwd[s][i])));
        }
        self
    }

    /// Append the next microbatch as one `(forward, backward)` pair per
    /// physical stage, and run every op that becomes ready: replay the
    /// push's firing list, each op at `max(stage free, dependency end + hop)`.
    pub fn push(&mut self, column: impl IntoIterator<Item = (SimDuration, SimDuration)>) {
        self.load(column);
        self.replay(self.start(self.pushed));
    }

    /// [`Engine::push`], but stop replaying once op `kind` of `microbatch`
    /// on (virtual) stage `stage` has run, and return it if it has. A
    /// target this push does not run (one already run, or one a later push
    /// runs) gets the whole push. After an early stop only the target and
    /// the ops fired before it are valid: the next call must be
    /// [`Engine::rollback`] or [`Engine::reset`], never a push or a mark
    /// (debug builds assert it). Algorithm 2's `GETINTERVAL` probe
    /// (`dt_reorder::InterReorderConfig::interval`) reads one op of its
    /// last push, so it ends each probe here.
    pub fn push_until(
        &mut self,
        column: impl IntoIterator<Item = (SimDuration, SimDuration)>,
        stage: usize,
        kind: OpKind,
        microbatch: usize,
    ) -> Option<OpRecord> {
        self.load(column);
        let end = self.start(self.pushed);
        let valid = stage < self.stages && microbatch < self.l;
        let target = valid.then(|| self.fire_at[self.at(stage, kind, microbatch)] as usize);
        self.replay(match target {
            Some(k) if (self.fired..end).contains(&k) => k + 1,
            _ => end,
        });
        self.op(stage, kind, microbatch)
    }

    /// Write the next microbatch's column into its ops and count the push.
    fn load(&mut self, column: impl IntoIterator<Item = (SimDuration, SimDuration)>) {
        let (i, n, p, vpp) = (self.pushed, self.stages, self.phys, self.vpp);
        assert!(i < self.l, "more microbatches pushed than reset for");
        debug_assert!(self.whole(), "push after a partial push_until");
        let (row, mut column) = (&mut self.ops[2 * i * n..][..2 * n], column.into_iter());
        for op in row[..2 * p].chunks_exact_mut(2) {
            let (f, b) = column.next().expect("one column entry per stage");
            (op[0].dur, op[1].dur) = if vpp > 1 { (f / vpp, b / vpp) } else { (f, b) };
        }
        assert!(column.next().is_none(), "one column entry per stage");
        // Virtual stage `v ≥ p` is a later chunk of stage `v − p`.
        for k in 2 * p..2 * n {
            row[k].dur = row[k - 2 * p].dur;
        }
        self.pushed += 1;
    }

    /// Run the firing-list entries from the last one run up to `end`.
    fn replay(&mut self, end: usize) {
        let (ops, comm, now) = (&mut self.ops, &self.comm, &mut self.now);
        for fire in &self.fires[self.fired..end] {
            let dep = ops[fire.dep as usize];
            let (op, at) = (&mut ops[fire.op as usize], &mut now[fire.stage as usize]);
            op.start = at.avail.max(dep.start + dep.dur + comm[fire.hop as usize]);
            (at.avail, at.busy) = (op.start + op.dur, at.busy + op.dur);
        }
        self.fired = end;
    }

    /// Where push `i`'s firing list starts in `fires` (and push `i − 1`'s
    /// ends).
    fn start(&self, i: usize) -> usize {
        self.starts.get(i).map_or(0, |&k| k as usize)
    }

    /// Whether every pushed microbatch's firing list has run in full.
    fn whole(&self) -> bool {
        self.fired == self.start(self.pushed)
    }

    /// Index into `ops` of op `kind` of microbatch `i` on stage `s`.
    fn at(&self, s: usize, kind: OpKind, i: usize) -> usize {
        2 * (i * self.stages + s) + kind as usize
    }

    /// Remember the current frontier for [`Engine::rollback`].
    pub fn mark(&mut self) {
        debug_assert!(self.whole(), "mark after a partial push_until");
        self.marked.0 = self.pushed;
        self.marked.1.clone_from(&self.now);
    }

    /// Return to the last mark (a reset marks) in `O(P)`.
    pub fn rollback(&mut self) {
        self.pushed = self.marked.0;
        self.fired = self.start(self.pushed);
        self.now.copy_from_slice(&self.marked.1);
    }

    /// Makespan of the ops run so far.
    pub fn makespan(&self) -> SimDuration {
        self.now.iter().map(|f| f.avail).max().unwrap_or_default() - SimTime::ZERO
    }

    /// [`PipelineResult::mean_bubble_fraction`] of the ops run so far.
    pub fn mean_bubble_fraction(&self) -> f64 {
        bubble_fraction(self.now.iter().map(|f| f.busy), self.makespan())
    }

    /// Op `kind` of `microbatch` on (virtual) stage `stage`, if it ran.
    pub fn op(&self, stage: usize, kind: OpKind, microbatch: usize) -> Option<OpRecord> {
        let valid = stage < self.stages && microbatch < self.l;
        let at = valid.then(|| self.at(stage, kind, microbatch))?;
        let Op { dur, start } = self.ops[at];
        ((self.fire_at[at] as usize) < self.fired).then_some(OpRecord {
            stage,
            microbatch,
            kind,
            start,
            end: start + dur,
        })
    }

    /// The ops run so far as a [`PipelineResult`]: stage-major, each
    /// stage's ops in its [`Schedule::stage_order`].
    pub fn result(&self) -> PipelineResult {
        // A stage runs its ops in its order, so sorting the pushes' firing
        // lists by stage (stably) lists each stage's ops in that order.
        let mut timeline: Vec<OpRecord> = self.fires[..self.fired]
            .iter()
            .filter_map(|fire| {
                let (q, kind) = (fire.op as usize / 2, fire.op % 2);
                let kind = [OpKind::Forward, OpKind::Backward][kind as usize];
                self.op(fire.stage as usize, kind, q / self.stages)
            })
            .collect();
        timeline.sort_by_key(|op| op.stage);
        PipelineResult {
            stages: self.stages,
            microbatches: self.l,
            timeline,
            makespan: self.makespan(),
        }
    }
}

/// Closed-form 1F1B makespan for a *homogeneous* pipeline (no comm):
/// `(l + p − 1) · (f + b)` — used to validate the simulator.
pub fn homogeneous_1f1b_makespan(
    p: usize,
    l: usize,
    f: SimDuration,
    b: SimDuration,
) -> SimDuration {
    (f + b) * ((l + p - 1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    fn uniform(p: usize, l: usize, f: u64, b: u64) -> (PipelineSpec, Workload) {
        (
            PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            Workload::homogeneous(&vec![d(f); p], &vec![d(b); p], l),
        )
    }

    #[test]
    fn single_stage_is_serial_execution() {
        let (spec, w) = uniform(1, 5, 10, 20);
        let r = simulate(&spec, &w);
        assert_eq!(r.makespan, d(5 * 30));
        assert_eq!(r.mean_bubble_fraction(), 0.0);
    }

    #[test]
    fn homogeneous_1f1b_matches_closed_form() {
        for (p, l) in [(2, 2), (4, 6), (4, 16), (8, 8), (3, 12)] {
            let (spec, w) = uniform(p, l, 100, 200);
            let r = simulate(&spec, &w);
            assert_eq!(
                r.makespan,
                homogeneous_1f1b_makespan(p, l, d(100), d(200)),
                "p={p} l={l}"
            );
        }
    }

    #[test]
    fn gpipe_equals_1f1b_makespan_when_homogeneous() {
        // Without memory limits the two schedules have identical bubbles.
        let p = 4;
        let l = 8;
        let w = Workload::homogeneous(&vec![d(100); p], &vec![d(200); p], l);
        let g = simulate(
            &PipelineSpec::uniform(Schedule::GPipe, p, SimDuration::ZERO),
            &w,
        );
        let f = simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        );
        assert_eq!(g.makespan, f.makespan);
    }

    #[test]
    fn comm_hops_delay_the_pipeline() {
        let p = 4;
        let l = 4;
        let w = Workload::homogeneous(&vec![d(100); p], &vec![d(200); p], l);
        let free = simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        );
        let slow = simulate(&PipelineSpec::uniform(Schedule::OneFOneB, p, d(50)), &w);
        assert!(slow.makespan > free.makespan);
    }

    #[test]
    fn straggler_microbatch_creates_bubble() {
        // Figure 7: one slow encoder microbatch delays downstream stages.
        let p = 2;
        let l = 6;
        let mut w = Workload::homogeneous(&[d(100), d(100)], &[d(200), d(200)], l);
        let base = simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        )
        .makespan;
        w.fwd[0][0] = d(1000); // microbatch 0 is a straggler at stage 0
        let strag = simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        )
        .makespan;
        assert!(
            strag > base + d(800),
            "straggler delay should propagate: {strag} vs {base}"
        );
    }

    #[test]
    fn interleaving_reduces_warmup() {
        // Same total work; VPP should cut into the warm-up bubble for a
        // pipeline with many stages and few microbatches.
        let p = 8;
        let l = 8;
        let w = Workload::homogeneous(&vec![d(800); p], &vec![d(1600); p], l);
        let plain = simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        );
        let vpp = simulate(
            &PipelineSpec::uniform(Schedule::Interleaved { vpp: 4 }, p, SimDuration::ZERO),
            &w,
        );
        assert!(
            vpp.makespan < plain.makespan,
            "{} !< {}",
            vpp.makespan,
            plain.makespan
        );
    }

    #[test]
    fn warmup_end_tracks_first_microbatch() {
        let (spec, w) = uniform(4, 8, 100, 200);
        let mut engine = Engine::default();
        engine.run(&spec, &w);
        let f0 = engine.op(3, OpKind::Forward, 0).expect("every op ran");
        assert_eq!(f0.end.as_nanos(), 400); // 4 stages × 100ns fwd
    }

    /// One engine, reset through a seeded sequence of shapes, matches a
    /// fresh [`simulate`] after every reset, with a probe pushed past a
    /// mark and rolled back in between. The sequence flips GPipe ↔ 1F1B
    /// at the same `(P, l)` and draws new hops at an unchanged shape, so a
    /// firing list keyed without the schedule or hops kept across a
    /// same-shape reset both fail it.
    #[test]
    fn a_reused_engine_matches_a_fresh_simulate() {
        use dt_simengine::DetRng;
        fn column(w: &Workload, i: usize) -> impl Iterator<Item = (SimDuration, SimDuration)> + '_ {
            w.fwd.iter().zip(&w.bwd).map(move |(f, b)| (f[i], b[i]))
        }
        let schedules = [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 1 },
            Schedule::Interleaved { vpp: 2 },
            Schedule::Interleaved { vpp: 3 },
        ];
        let mut rng = DetRng::new(34);
        let mut engine = Engine::default();
        let (mut p, mut l, mut schedule) = (1, 0, Schedule::OneFOneB);
        let (mut flips, mut new_hops) = (0, 0);
        for step in 0..600 {
            match rng.range_usize(0, 4) {
                0 | 1 => {
                    (p, l) = (rng.range_usize(1, 7), rng.range_usize(0, 17));
                    schedule = *rng.pick(&schedules);
                }
                2 if matches!(schedule, Schedule::GPipe | Schedule::OneFOneB) => {
                    flips += usize::from(p > 1 && l > 1);
                    schedule = match schedule {
                        Schedule::GPipe => Schedule::OneFOneB,
                        _ => Schedule::GPipe,
                    };
                }
                _ => new_hops += usize::from(p > 1 && l > 0),
            }
            let comm = (1..p).map(|_| d(rng.range_u64(0, 60))).collect();
            let spec = PipelineSpec { schedule, comm };
            let mut draw = |hi| Workload {
                fwd: (0..p)
                    .map(|_| (0..l).map(|_| d(rng.range_u64(1, hi))).collect())
                    .collect(),
                bwd: (0..p)
                    .map(|_| (0..l).map(|_| d(rng.range_u64(1, 2 * hi))).collect())
                    .collect(),
            };
            let (w, probe) = (draw(400), draw(900));
            engine.reset(&spec, p, l);
            let cut = rng.range_usize(0, l + 1);
            (0..cut).for_each(|i| engine.push(column(&w, i)));
            engine.mark();
            (cut..l).for_each(|i| engine.push(column(&probe, i)));
            engine.rollback();
            (cut..l).for_each(|i| engine.push(column(&w, i)));
            let fresh = simulate(&spec, &w);
            let what = format!("step {step}: {schedule:?} p={p} l={l}");
            assert_eq!(engine.result().timeline, fresh.timeline, "{what}");
            assert_eq!(engine.makespan(), fresh.makespan, "{what}");
        }
        assert!(
            flips >= 20 && new_hops >= 20,
            "{flips} flips, {new_hops} new hops"
        );
    }

    /// `push_until` aimed at an op of the next push, after a committed
    /// prefix of a seeded shape (P 1–6, l 0–16, GPipe / 1F1B / VPP 1–3,
    /// random hops), runs that op and every op the full push fires before
    /// it at the full push's times, and no op after it. A target outside
    /// the push (already run, or run by a later push) gets the whole push.
    /// After the rollback the engine equals a fresh replay of the prefix,
    /// and finishing the iteration from there equals [`simulate`]. A
    /// replay that stops one entry early fails the first check.
    #[test]
    fn push_until_runs_the_full_push_up_to_its_target() {
        use dt_simengine::DetRng;
        let schedules = [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 1 },
            Schedule::Interleaved { vpp: 2 },
            Schedule::Interleaved { vpp: 3 },
        ];
        let state = |e: &Engine| {
            let r = e.result();
            (r.timeline, r.makespan, e.mean_bubble_fraction().to_bits())
        };
        let mut rng = DetRng::new(35);
        let (mut engine, mut fresh) = (Engine::default(), Engine::default());
        let (mut early, mut whole) = (0, 0);
        for step in 0..600 {
            let (p, l) = (rng.range_usize(1, 7), rng.range_usize(0, 17));
            let schedule = *rng.pick(&schedules);
            let spec = PipelineSpec {
                schedule,
                comm: (1..p).map(|_| d(rng.range_u64(0, 60))).collect(),
            };
            let mut rows = |hi| -> Vec<Vec<SimDuration>> {
                (0..p)
                    .map(|_| (0..l).map(|_| d(rng.range_u64(1, hi))).collect())
                    .collect()
            };
            let w = Workload {
                fwd: rows(400),
                bwd: rows(800),
            };
            let column = |i: usize| w.fwd.iter().zip(&w.bwd).map(move |(f, b)| (f[i], b[i]));
            engine.reset(&spec, p, l);
            let cut = rng.range_usize(0, l.max(1));
            (0..cut).for_each(|i| engine.push(column(i)));
            let what = format!("step {step}: {schedule:?} p={p} l={l} cut={cut}");
            if cut < l {
                let mut full = engine.clone();
                full.push(column(cut));
                let (from, to) = (engine.start(cut), engine.start(cut + 1));
                // Mostly an op of this push; sometimes any op at all.
                let k = match rng.range_usize(0, 4) {
                    0 => rng.range_usize(0, engine.fires.len()),
                    _ => rng.range_usize(from, to.max(from + 1)),
                };
                if let Some(&Fire { stage, op, .. }) = engine.fires.get(k) {
                    let kind = [OpKind::Forward, OpKind::Backward][op as usize % 2];
                    let (s, i) = (stage as usize, op as usize / 2 / engine.stages);
                    engine.mark();
                    let got = engine.push_until(column(cut), s, kind, i);
                    let stop = if (from..to).contains(&k) { k + 1 } else { to };
                    early += usize::from(stop < to);
                    whole += usize::from(stop == to && k >= to);
                    assert_eq!(got, full.op(s, kind, i).filter(|_| k < to), "{what}");
                    for (n, fire) in engine.fires[from..to].iter().enumerate() {
                        let kind = [OpKind::Forward, OpKind::Backward][fire.op as usize % 2];
                        let (s, i) = (fire.stage as usize, fire.op as usize / 2 / engine.stages);
                        let want = full.op(s, kind, i).filter(|_| from + n < stop);
                        assert_eq!(engine.op(s, kind, i), want, "{what} entry {n}");
                    }
                    engine.rollback();
                }
            }
            fresh.reset(&spec, p, l);
            (0..cut).for_each(|i| fresh.push(column(i)));
            assert!(state(&engine) == state(&fresh), "{what}: rollback");
            (cut..l).for_each(|i| engine.push(column(i)));
            let want = simulate(&spec, &w);
            assert_eq!(engine.result().timeline, want.timeline, "{what}");
            assert_eq!(engine.makespan(), want.makespan, "{what}");
        }
        assert!(
            early >= 200 && whole >= 20,
            "{early} early stops, {whole} whole"
        );
    }

    /// After an early stop the frontiers hold a partial push, so a push
    /// before the rollback would start from them; debug builds reject it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "push after a partial push_until")]
    fn a_push_after_a_partial_push_until_panics() {
        let (spec, _) = uniform(3, 4, 100, 200);
        let mut engine = Engine::new(&spec, 3, 4);
        let column = [(d(100), d(200)); 3];
        // Push 0 runs F(0, 0) first, then the forwards downstream.
        assert!(engine.push_until(column, 0, OpKind::Forward, 0).is_some());
        assert!(engine.op(1, OpKind::Forward, 0).is_none());
        engine.push(column);
    }

    /// A short column would leave the missing stages with the durations of
    /// an earlier rolled-back probe or rank; `push` rejects it instead.
    #[test]
    #[should_panic(expected = "one column entry per stage")]
    fn push_rejects_a_short_column() {
        let (spec, _) = uniform(3, 4, 100, 200);
        Engine::new(&spec, 3, 4).push([(d(100), d(200)); 2]);
    }

    #[test]
    #[should_panic(expected = "one column entry per stage")]
    fn push_rejects_a_long_column() {
        let (spec, _) = uniform(3, 4, 100, 200);
        Engine::new(&spec, 3, 4).push([(d(100), d(200)); 4]);
    }

    /// Regression: an interleaved pipeline with no stages underflowed the
    /// virtual-stage count (`p·vpp − 1` boundaries); every schedule now
    /// returns the empty result for `p = 0` and for `l = 0`.
    #[test]
    fn empty_pipelines_yield_the_empty_result() {
        for schedule in [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 2 },
        ] {
            for (p, l) in [(0, 4), (3, 0)] {
                let spec = PipelineSpec::uniform(schedule, p, d(5));
                let w = Workload::homogeneous(&vec![d(100); p], &vec![d(200); p], l);
                let r = simulate(&spec, &w);
                assert!(r.timeline.is_empty(), "{schedule:?} p={p} l={l}");
                assert_eq!(r.makespan, SimDuration::ZERO, "{schedule:?} p={p} l={l}");
                assert_eq!(r.mean_bubble_fraction(), 0.0, "{schedule:?} p={p} l={l}");
            }
        }
    }

    /// The timeline is stage-major: each stage's ops are contiguous and
    /// follow its `stage_order` (interleaved: over the virtual stages).
    #[test]
    fn timeline_is_stage_major_in_stage_order() {
        let (p, l) = (3, 5);
        for (schedule, vpp) in [
            (Schedule::GPipe, 1),
            (Schedule::OneFOneB, 1),
            (Schedule::Interleaved { vpp: 2 }, 2),
        ] {
            let w = Workload {
                fwd: (0..p)
                    .map(|s| {
                        (0..l)
                            .map(|i| d(10 + 7 * s as u64 + 3 * i as u64))
                            .collect()
                    })
                    .collect(),
                bwd: (0..p)
                    .map(|s| {
                        (0..l)
                            .map(|i| d(20 + 5 * s as u64 + 11 * i as u64))
                            .collect()
                    })
                    .collect(),
            };
            let r = simulate(&PipelineSpec::uniform(schedule, p, d(4)), &w);
            assert_eq!(r.stages, p * vpp);
            let expected: Vec<(usize, StageOp)> = (0..r.stages)
                .flat_map(|s| {
                    schedule
                        .stage_order(s, r.stages, l)
                        .into_iter()
                        .map(move |op| (s, op))
                })
                .collect();
            let got: Vec<(usize, StageOp)> = r
                .timeline
                .iter()
                .map(|op| match op.kind {
                    OpKind::Forward => (op.stage, StageOp::Fwd(op.microbatch)),
                    OpKind::Backward => (op.stage, StageOp::Bwd(op.microbatch)),
                })
                .collect();
            assert_eq!(got, expected, "{schedule:?}");
        }
    }

    #[test]
    fn timeline_respects_dependencies() {
        let (spec, w) = uniform(4, 6, 70, 130);
        let r = simulate(&spec, &w);
        for op in &r.timeline {
            if op.stage > 0 && op.kind == OpKind::Forward {
                let upstream = r
                    .timeline
                    .iter()
                    .find(|o| {
                        o.stage == op.stage - 1
                            && o.microbatch == op.microbatch
                            && o.kind == OpKind::Forward
                    })
                    .unwrap();
                assert!(op.start >= upstream.end);
            }
            if op.stage + 1 < r.stages && op.kind == OpKind::Backward {
                let downstream = r
                    .timeline
                    .iter()
                    .find(|o| {
                        o.stage == op.stage + 1
                            && o.microbatch == op.microbatch
                            && o.kind == OpKind::Backward
                    })
                    .unwrap();
                assert!(op.start >= downstream.end);
            }
        }
    }

    /// Makespan is monotone: growing any op duration never shrinks it.
    /// Seed-swept property.
    #[test]
    fn makespan_is_monotone_in_durations() {
        use dt_simengine::DetRng;
        for seed in 0u64..300 {
            let mut rng = DetRng::new(seed);
            let p = rng.range_usize(1, 5);
            let l = rng.range_usize(1, 7);
            let base = rng.range_u64(1, 500);
            let bump = rng.range_u64(1, 1000);
            let stage_pick = rng.range_usize(0, 5);
            let mb_pick = rng.range_usize(0, 7);
            let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, d(3));
            let w = Workload::homogeneous(&vec![d(base); p], &vec![d(2 * base); p], l);
            let before = simulate(&spec, &w).makespan;
            let mut w2 = w.clone();
            w2.fwd[stage_pick % p][mb_pick % l] += d(bump);
            let after = simulate(&spec, &w2).makespan;
            assert!(after >= before, "seed {seed}");
        }
    }

    /// Makespan is at least the busiest stage's total work and at least
    /// any single microbatch's critical path. Seed-swept property.
    #[test]
    fn makespan_lower_bounds_hold() {
        use dt_simengine::DetRng;
        for seed in 0u64..500 {
            let mut rng = DetRng::new(seed);
            let p = rng.range_usize(1, 5);
            let l = rng.range_usize(1, 7);
            let fwd: Vec<Vec<SimDuration>> = (0..p)
                .map(|_| (0..l).map(|_| d(rng.range_u64(1, 300))).collect())
                .collect();
            let bwd: Vec<Vec<SimDuration>> = (0..p)
                .map(|_| (0..l).map(|_| d(rng.range_u64(1, 600))).collect())
                .collect();
            let w = Workload {
                fwd: fwd.clone(),
                bwd: bwd.clone(),
            };
            let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO);
            let r = simulate(&spec, &w);
            // Lower bound 1: busiest stage.
            for s in 0..p {
                let busy: SimDuration = fwd[s].iter().copied().sum::<SimDuration>()
                    + bwd[s].iter().copied().sum::<SimDuration>();
                assert!(r.makespan >= busy, "seed {seed}");
            }
            // Lower bound 2: any microbatch's full fwd+bwd path.
            for i in 0..l {
                let path: SimDuration = (0..p).map(|s| fwd[s][i] + bwd[s][i]).sum();
                assert!(r.makespan >= path, "seed {seed}");
            }
        }
    }
}
