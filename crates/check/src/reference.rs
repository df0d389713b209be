//! The oracles' references for kernels that replaced simpler code:
//!
//! - the event simulator `dt_pipeline::Engine` replaced: interleaved
//!   pipelines are expanded into virtual stages, then the stage orders
//!   are drained round-robin. It does not validate its input; a `p = 0`
//!   interleaved pipeline underflows;
//! - the manager's plan choice from full trials ([`full_trial_choice`]),
//!   which `TrainingTask::plan`'s bounded trials replaced;
//! - Algorithm 1 on a binary heap of the open groups ([`lpt_heap`]),
//!   which the merge over runs of equal size in
//!   `dt_reorder::intra_reorder_indices` replaced.

use disttrain_core::{SystemKind, TrainingTask};
use dt_parallel::OrchestrationPlan;
use dt_pipeline::schedule::StageOp;
use dt_pipeline::{OpKind, OpRecord, PipelineResult, PipelineSpec, Schedule, Workload};
use dt_reorder::{InterReorderConfig, ReorderError};
use dt_simengine::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// §7.1's selection rule over full trials: every plan in `plans` runs one
/// whole iteration of `task` through the public
/// [`TrainingTask::run_with_plan`] under DistTrain's runtime
/// configuration; among the plans within 12% of the fastest, the one with
/// the smallest GPU-seconds wins (then the faster, then the earlier).
/// `None` for no plans.
pub fn full_trial_choice(
    task: &TrainingTask,
    plans: &[OrchestrationPlan],
) -> Option<OrchestrationPlan> {
    let cfg = task.runtime_config(SystemKind::DistTrain, 1);
    let times: Vec<f64> = plans
        .iter()
        .map(|&plan| {
            let report = task.run_with_plan(plan, cfg.clone());
            report.iterations[0].iter_time.as_secs_f64()
        })
        .collect();
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mut choice: Option<((f64, f64), OrchestrationPlan)> = None;
    for (&plan, &t) in plans.iter().zip(&times) {
        let key = (t * f64::from(plan.total_gpus()), t);
        let better = choice.as_ref().is_none_or(|(chosen, _)| key < *chosen);
        if t <= best * 1.12 && better {
            choice = Some((key, plan));
        }
    }
    choice.map(|(_, plan)| plan)
}

/// Execute `workload` under `spec` and return the event simulator's
/// timeline (ops in round-robin drain order, not stage-major).
pub fn simulate(spec: &PipelineSpec, workload: &Workload) -> PipelineResult {
    let (expanded_spec, expanded) = match spec.schedule {
        Schedule::Interleaved { vpp } if vpp > 1 => expand_interleaved(spec, workload, vpp),
        _ => (spec.clone(), workload.clone()),
    };
    run_1f1b_family(&expanded_spec, &expanded)
}

/// `GETINTERVAL`'s reference: stage 0 of `cfg`'s proxy pipeline runs
/// `F(0, 0)`, then its backwards in order; interval `j` runs from the end
/// of the op before backward `j` among those to backward `j`'s start.
pub fn intervals(cfg: &InterReorderConfig, stage0_fwd: &[f64]) -> Vec<f64> {
    let (spec, w) = cfg.pipeline(stage0_fwd);
    let r = simulate(&spec, &w);
    let mut left = r.stage_ops(0).next().map(|f0| f0.end);
    let bwd = r.stage_ops(0).filter(|op| op.kind == OpKind::Backward);
    bwd.map(|b| (b.start - left.replace(b.end).expect("F(0, 0) ran")).as_secs_f64())
        .collect()
}

/// Approximate interleaved-1F1B by expanding each physical stage into `vpp`
/// virtual stages of `1/vpp` the duration (§4.3 models VPP exactly this
/// way: the warm-up term shrinks by the VPP size while steady-state
/// throughput is unchanged).
fn expand_interleaved(spec: &PipelineSpec, w: &Workload, vpp: u32) -> (PipelineSpec, Workload) {
    let p = w.stages();
    let v = vpp as usize;
    let mut fwd = Vec::with_capacity(p * v);
    let mut bwd = Vec::with_capacity(p * v);
    let mut comm = Vec::with_capacity(p * v - 1);
    for chunk in 0..v {
        for s in 0..p {
            fwd.push(w.fwd[s].iter().map(|&d| d / vpp as u64).collect());
            bwd.push(w.bwd[s].iter().map(|&d| d / vpp as u64).collect());
            let virt = chunk * p + s;
            if virt + 1 < p * v {
                // Hop to the next virtual stage: a real boundary when moving
                // to the next physical stage, a wrap-around hop (same cost
                // class as the last boundary) when re-entering stage 0.
                let hop = if s + 1 < p {
                    spec.comm.get(s).copied().unwrap_or(SimDuration::ZERO)
                } else {
                    spec.comm.last().copied().unwrap_or(SimDuration::ZERO)
                };
                comm.push(hop);
            }
        }
    }
    (
        PipelineSpec {
            schedule: Schedule::OneFOneB,
            comm,
        },
        Workload { fwd, bwd },
    )
}

fn run_1f1b_family(spec: &PipelineSpec, workload: &Workload) -> PipelineResult {
    let p = workload.stages();
    let l = workload.microbatches();
    if p == 0 || l == 0 {
        return PipelineResult {
            stages: p,
            microbatches: l,
            timeline: Vec::new(),
            makespan: SimDuration::ZERO,
        };
    }
    assert!(
        spec.comm.len() >= p - 1,
        "comm vector has {} entries for {} boundaries",
        spec.comm.len(),
        p - 1
    );

    let orders: Vec<Vec<StageOp>> = (0..p).map(|s| spec.schedule.stage_order(s, p, l)).collect();
    let mut pc = vec![0usize; p]; // program counter per stage
    let mut avail = vec![SimTime::ZERO; p]; // when the stage is next free
    let mut fwd_end: Vec<Vec<Option<SimTime>>> = vec![vec![None; l]; p];
    let mut bwd_end: Vec<Vec<Option<SimTime>>> = vec![vec![None; l]; p];
    let mut timeline = Vec::with_capacity(2 * p * l);
    let total_ops = 2 * p * l;
    let mut done = 0usize;

    while done < total_ops {
        let mut progressed = false;
        for s in 0..p {
            // Drain every currently-ready op on stage s before moving on;
            // this keeps the scan O(ops · p) overall.
            while pc[s] < orders[s].len() {
                let op = orders[s][pc[s]];
                // Dependency end time (with comm hop), or None if not ready.
                let dep: Option<SimTime> = match op {
                    StageOp::Fwd(i) => {
                        if s == 0 {
                            Some(SimTime::ZERO)
                        } else {
                            fwd_end[s - 1][i].map(|t| t + spec.comm[s - 1])
                        }
                    }
                    StageOp::Bwd(i) => {
                        if s == p - 1 {
                            // Needs own forward (enforced by stage order, but
                            // be explicit for safety).
                            fwd_end[s][i]
                        } else {
                            bwd_end[s + 1][i].map(|t| t + spec.comm[s])
                        }
                    }
                };
                let Some(dep_time) = dep else { break };
                let start = avail[s].max(dep_time);
                let (i, kind, dur) = match op {
                    StageOp::Fwd(i) => (i, OpKind::Forward, workload.fwd[s][i]),
                    StageOp::Bwd(i) => (i, OpKind::Backward, workload.bwd[s][i]),
                };
                let end = start + dur;
                match kind {
                    OpKind::Forward => fwd_end[s][i] = Some(end),
                    OpKind::Backward => bwd_end[s][i] = Some(end),
                }
                timeline.push(OpRecord {
                    stage: s,
                    microbatch: i,
                    kind,
                    start,
                    end,
                });
                avail[s] = end;
                pc[s] += 1;
                done += 1;
                progressed = true;
            }
        }
        assert!(
            progressed,
            "pipeline deadlock: schedule/dependency mismatch"
        );
    }

    let makespan = timeline
        .iter()
        .map(|op| op.end)
        .fold(SimTime::ZERO, SimTime::max)
        .since(SimTime::ZERO);
    PipelineResult {
        stages: p,
        microbatches: l,
        timeline,
        makespan,
    }
}

/// One DP group that still has room, ordered so that [`BinaryHeap`] (a
/// max-heap) yields the least-loaded group first, ties going to the
/// lowest index — the choice the paper's strict-`<` scan makes.
///
/// Loads compare with [`f64::total_cmp`], which orders them exactly as
/// `<` does here: a load starts at `+0.0` and adds only finite sizes
/// (non-finite ones are rejected up front), so it is never NaN (a finite
/// size added to `±inf` leaves it infinite) and never `-0.0` (a
/// round-to-nearest sum is `-0.0` only when both terms are).
struct Open {
    load: f64,
    group: usize,
}

impl Ord for Open {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .load
            .total_cmp(&self.load)
            .then(other.group.cmp(&self.group))
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Open {}

/// `<`/`>` as an ordering: equal (`0.0` and `-0.0` included) when
/// neither holds, so it never panics.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    if a < b {
        Ordering::Less
    } else if a > b {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// Algorithm 1 as `dt_reorder::intra_reorder_indices` ran it before the
/// run merge: the same contract and errors, each pick a sift of a
/// min-heap keyed by `(load, group index)`. `O(n log n + n log m)`.
pub fn lpt_heap(sizes: &[f64], m: usize) -> Result<Vec<usize>, ReorderError> {
    let n = sizes.len();
    if let Some(index) = sizes.iter().position(|s| !s.is_finite()) {
        return Err(ReorderError::NonFiniteSize { index });
    }
    if m <= 1 || n == 0 {
        return Ok((0..n).collect());
    }
    if !n.is_multiple_of(m) {
        return Err(ReorderError::IndivisibleBatch { n, m });
    }
    let quota = n / m;

    // Line 3: sort in descending order by size.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_f64(sizes[b], sizes[a]));

    // Lines 4–11: greedy assignment to the least-loaded non-full group,
    // each pick written straight to its slot in the concatenated order.
    let mut out = vec![0; n];
    let mut filled = vec![0; m];
    let mut open: BinaryHeap<Open> = (0..m).map(|group| Open { load: 0.0, group }).collect();
    for idx in order {
        // The groups hold exactly `n` samples, so one is always open.
        let Some(mut top) = open.peek_mut() else {
            break;
        };
        let g = top.group;
        out[g * quota + filled[g]] = idx;
        filled[g] += 1;
        if filled[g] == quota {
            PeekMut::pop(top);
        } else {
            top.load += sizes[idx];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_pipeline::Engine;
    use dt_simengine::DetRng;

    fn random_cfg(rng: &mut DetRng) -> InterReorderConfig {
        InterReorderConfig {
            stages: rng.range_usize(1, 9),
            uniform_fwd: rng.range_f64(0.0, 2.0),
            uniform_bwd: rng.range_f64(0.0, 4.0),
            stage0_bwd_factor: [0.0, 1.0, 2.0][rng.range_usize(0, 3)],
            vpp: rng.range_usize(1, 4) as u32,
        }
    }

    /// Algorithm 2's usage: commit a prefix, then probe with tentative
    /// tails. Every probe must equal the reference's interval of prefix +
    /// tail, and must leave the committed state untouched.
    #[test]
    fn probes_after_commits_match_the_simulator() {
        for seed in 0u64..200 {
            let mut rng = DetRng::new(seed);
            let c = random_cfg(&mut rng);
            let l = rng.range_usize(1, 24);
            let order: Vec<f64> = (0..l).map(|_| rng.range_f64(0.0, 3.0)).collect();
            let mut engine = Engine::new(&c.pipeline(&[]).0, c.stages.max(1), l);
            for n in 0..l {
                for _ in 0..2 {
                    let tail: Vec<f64> = (n..l).map(|_| rng.range_f64(0.0, 3.0)).collect();
                    let est: Vec<f64> = order[..n].iter().chain(&tail).copied().collect();
                    let reference = intervals(&c, &est);
                    let j = rng.range_usize(0, l);
                    let got = c.interval(&mut engine, j, tail.iter().copied());
                    assert_eq!(got, reference[j], "seed {seed} {c:?} l={l} n={n} j={j}");
                }
                engine.push(c.column(order[n]));
            }
        }
    }
}
