//! The elastic training driver: MTBF failures against a live run.
//!
//! [`run_elastic`] executes a training run under an [`ElasticPlan`]:
//! iterations commit one at a time through the real
//! [`Runtime`] data path, checkpoints go through
//! the real [`CheckpointManager`], and node failures arrive from the
//! seeded [`FailureStream`]. A failure rolls the run back to the newest
//! durable checkpoint; a hot spare (if any remain) absorbs it in place,
//! otherwise the cluster **shrinks** by the failed node's whole failure
//! domain and the §4 orchestrator re-plans the survivors — warm-started
//! from job-start state ([`TrainingTask::replan_shrunk_warm`]): the cost
//! tables are reused and the running plan seeds the branch-and-bound
//! incumbent, so recovery never profiles or searches cold. The naive
//! proportional shrink is trialed alongside the search's own candidates,
//! so the re-plan never does worse than just keeping the old ratios.
//!
//! Everything is deterministic in `(task.seed, elastic.failure_seed)`:
//! the committed history equals, bit for bit, an uninterrupted run of the
//! same plan sequence — the tests assert it — and every wall-clock second
//! lands in exactly one [`GoodputReport`] bucket.

use crate::goodput::GoodputReport;
use crate::healer::{Healer, HealerAction, HealerEvent};
use crate::policy::ElasticPlan;
use crate::stream::FailureStream;
use crate::timeline::Timeline;
use disttrain_core::{
    record_iteration_metrics, CheckpointManager, IterationReport, Runtime, SystemKind,
    TrainingReport, TrainingState, TrainingTask,
};
use dt_cluster::CollectiveCost;
use dt_parallel::OrchestrationPlan;
use dt_simengine::trace::TraceRecorder;
use dt_simengine::{SimDuration, SimTime};
use dt_telemetry::{names, FlightLog, Telemetry};
use std::path::Path;

/// How a node failure was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A hot spare took over the failed node's slot; same cluster, same
    /// plan.
    SpareSwap,
    /// No spare left: the cluster shrank and the orchestrator re-planned.
    Shrink,
}

/// One survived node failure.
#[derive(Debug, Clone, Copy)]
pub struct FailureEvent {
    /// The failed node slot.
    pub node: u32,
    /// Failure instant on the simulated clock.
    pub at: SimTime,
    /// The iteration that was in flight when the node died.
    pub iteration: u32,
    /// Spare swap or shrink.
    pub action: RecoveryAction,
    /// The checkpointed iteration training resumed from.
    pub resumed_from: u32,
    /// `true` when the node died as part of a correlated domain event
    /// (its whole rack went down at this instant).
    pub correlated: bool,
}

/// One stretch of the run executed under a single plan. Iterations
/// `[from_iteration, next epoch's from_iteration)` of the committed
/// history ran on `plan` over a cluster of `nodes` nodes.
#[derive(Debug, Clone, Copy)]
pub struct PlanEpoch {
    /// First committed iteration of this epoch.
    pub from_iteration: u32,
    /// Cluster size (nodes) during the epoch.
    pub nodes: u32,
    /// The plan in force.
    pub plan: OrchestrationPlan,
    /// Checkpoint cadence (iterations) the policy chose for this epoch.
    pub checkpoint_interval: u32,
}

/// Outcome of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Every committed iteration in final order (length = requested).
    pub report: TrainingReport,
    /// The plan sequence (first epoch is the pre-failure plan).
    pub epochs: Vec<PlanEpoch>,
    /// Every failure, in order.
    pub failures: Vec<FailureEvent>,
    /// Every healer action, in order (empty without a healer).
    pub healer_actions: Vec<HealerEvent>,
    /// Where the wall clock went.
    pub goodput: GoodputReport,
    /// Real host time spent re-orchestrating across all shrinks (host
    /// wall time, not simulated time — the simulated clock charges
    /// `reshard_cost` instead). Each timed replan is the warm-started §4
    /// search *plus* one simulated trial iteration per candidate (up to
    /// 12 shortlisted plans + the naive proportional shrink), so this is
    /// the recovery path's whole planning budget, not solver time alone.
    /// Building the warm state happens outside the timed region.
    pub replan_search: std::time::Duration,
}

impl ElasticReport {
    /// Mean MFU of the committed iterations of each epoch — the "MFU
    /// delta vs the pre-failure plan" is `epoch_mfus()[k] -
    /// epoch_mfus()[0]`.
    pub fn epoch_mfus(&self) -> Vec<f64> {
        let peak = self.report.peak_flops_per_gpu;
        let n = self.report.iterations.len() as u32;
        let mut out = Vec::with_capacity(self.epochs.len());
        for (k, e) in self.epochs.iter().enumerate() {
            let end = self.epochs.get(k + 1).map_or(n, |nx| nx.from_iteration);
            let slice =
                &self.report.iterations[e.from_iteration.min(n) as usize..end.min(n) as usize];
            let mfu = if slice.is_empty() {
                0.0
            } else {
                slice.iter().map(|i| i.mfu(peak)).sum::<f64>() / slice.len() as f64
            };
            out.push(mfu);
        }
        out
    }
}

/// Elastic-run failure modes.
#[derive(Debug)]
pub enum ElasticError {
    /// Checkpoint I/O failed.
    Io(std::io::Error),
    /// No feasible plan exists (initially, or for the shrunken cluster).
    Infeasible(String),
    /// The failure process destroyed every node slot (spare pool dry,
    /// correlated blast radius too large) before the requested
    /// iterations committed: the machine stalled instead of finishing.
    NoProgress {
        /// Iterations durably committed before the stall.
        committed: u32,
        /// Iterations the run was asked for.
        requested: u32,
    },
}

impl From<std::io::Error> for ElasticError {
    fn from(e: std::io::Error) -> Self {
        ElasticError::Io(e)
    }
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            ElasticError::Infeasible(why) => write!(f, "no feasible plan: {why}"),
            ElasticError::NoProgress {
                committed,
                requested,
            } => write!(
                f,
                "no progress: stalled at {committed}/{requested} iterations \
                 (no live node slot remains)"
            ),
        }
    }
}

impl std::error::Error for ElasticError {}

/// Topology-aware hot-spare pool. Spares are parked round-robin across
/// the failure domains; a swap prefers a spare parked *outside* the
/// failing domain (its hardware shares no PDU/ToR with whatever just
/// died), and a correlated domain event destroys the spares parked
/// inside its blast radius before any of them can swap in. Without a
/// topology everything lives in one domain and this degrades to the old
/// scalar pool.
struct SparePool {
    by_domain: Vec<u32>,
}

impl SparePool {
    fn new(total: u32, domains: u32) -> Self {
        let d = domains.max(1) as usize;
        let mut by_domain = vec![0u32; d];
        for i in 0..total {
            by_domain[i as usize % d] += 1;
        }
        SparePool { by_domain }
    }

    /// Take one spare, preferring any domain other than `avoid`; fall
    /// back to `avoid` itself only when nothing else is parked.
    fn take_preferring_other(&mut self, avoid: u32) -> bool {
        let d = self.by_domain.len();
        let avoid = avoid as usize % d;
        for k in 1..d {
            let idx = (avoid + k) % d;
            if self.by_domain[idx] > 0 {
                self.by_domain[idx] -= 1;
                return true;
            }
        }
        if self.by_domain[avoid] > 0 {
            self.by_domain[avoid] -= 1;
            return true;
        }
        false
    }

    /// A correlated event burns every spare parked in its domain; returns
    /// how many were lost.
    fn destroy_in(&mut self, domain: u32) -> u32 {
        let d = self.by_domain.len();
        std::mem::take(&mut self.by_domain[domain as usize % d])
    }
}

/// The optional inputs of [`run_elastic`]. The [`Default`] plans the
/// initial configuration with the DistTrain orchestrator and observes
/// nothing.
#[derive(Default)]
pub struct ElasticOptions<'a> {
    /// The plan the run starts on; `None` plans it with the DistTrain
    /// orchestrator. Sweeps plan once and reuse the plan across cells.
    pub initial_plan: Option<OrchestrationPlan>,
    /// Span sink: committed iterations trace through the runtime as
    /// usual; checkpoints appear on `tid 1` and the elastic machinery
    /// (failure / recovery / re-orchestration) on `tid 2` of the trainer
    /// process, so a Chrome-trace view shows exactly when the run bled
    /// time to faults.
    pub trace: Option<&'a mut TraceRecorder>,
    /// Metrics: every committed iteration records the runtime families
    /// (see [`disttrain_core::record_iteration_metrics`]), the elastic
    /// machinery its failure / spare-swap / shrink / rollback /
    /// checkpoint counters and the host time of each re-plan (search and
    /// trials), and the run closes with goodput-fraction and
    /// degraded-seconds gauges. Histograms and counters record the
    /// committed report; the three anomaly series record what the job
    /// observed — the same `(wall, MFU, stall)` triple the healer is fed,
    /// pacing and precursor stalls included — plus one iteration-time
    /// point per failure for the aborted attempt's lost wall (partial
    /// iteration plus restart overhead), so an offline
    /// [`AnomalyDetector::scan`](dt_telemetry::AnomalyDetector::scan)
    /// sees what actually happened.
    pub telemetry: Telemetry,
    /// Healer actions and failures land in a flight-recorder ring on this
    /// log, dumped per healer action.
    pub flight: FlightLog,
}

/// Run `iterations` elastically, checkpointing into `ckpt_dir`.
pub fn run_elastic(
    task: &TrainingTask,
    iterations: u32,
    elastic: &ElasticPlan,
    ckpt_dir: &Path,
    opts: ElasticOptions<'_>,
) -> Result<ElasticReport, ElasticError> {
    let initial_plan = match opts.initial_plan {
        Some(plan) => plan,
        None => task
            .plan(SystemKind::DistTrain)
            .map_err(|e| ElasticError::Infeasible(format!("initial cluster: {e}")))?,
    };
    let mut untraced = TraceRecorder::disabled();
    let rec = opts.trace.unwrap_or(&mut untraced);
    let (tel, flight) = (&opts.telemetry, &opts.flight);
    let initial_nodes = task.cluster.num_nodes;
    let domains = elastic.topology.map_or(1, |t| t.domains(initial_nodes));
    let mut spares = SparePool::new(elastic.spare_nodes, domains);
    let mut healer = elastic.healer.map(Healer::new);
    let mut healer_actions: Vec<HealerEvent> = Vec::new();
    // Slots currently occupied by a slow replacement spare (only tracked
    // when `spare_slowdown > 1`); while non-empty the whole synchronous
    // job runs at the spare's pace.
    let mut slow_slots: Vec<u32> = Vec::new();
    let frec = flight.recorder("elastic-healer", 64);
    let mut mgr = CheckpointManager::new(ckpt_dir)?;
    let mut tl = Timeline::new(
        FailureStream::with_topology(
            initial_nodes,
            elastic.node_mtbf,
            elastic.failure_seed,
            elastic.topology,
        ),
        elastic.checkpoint_cost,
        elastic.restart_overhead,
        elastic.reshard_cost,
        rec,
        tel,
        u64::from(initial_plan.backbone.dp),
    );

    let mut cur_task = task.clone();
    let mut cur_plan = initial_plan;

    let mut committed: Vec<IterationReport> = Vec::with_capacity(iterations as usize);
    let mut epochs: Vec<PlanEpoch> = Vec::new();
    let mut failures: Vec<FailureEvent> = Vec::new();
    let mut replan_search = std::time::Duration::ZERO;
    // The §4 `WarmStart`, built lazily at the first shrink (from the
    // job-start task, whose profile stays exact on any multi-node
    // survivor set) and reused — with the running plan observed into it —
    // by every later shrink. Construction happens *outside* the timed
    // region, which covers the search and its trial iterations.
    let mut warm = None;
    // Shrink `cur` by `lost` nodes and warm-replan the survivors; `at` is
    // the iteration the run stalls at when no smaller cluster exists.
    let mut replan = |cur: &TrainingTask, plan: &OrchestrationPlan, lost: u32, at: u32| {
        let shrunk = cur.shrunk(lost).ok_or(ElasticError::NoProgress {
            committed: at,
            requested: iterations,
        })?;
        let warm = warm.get_or_insert_with(|| task.warm_start());
        let search_started = std::time::Instant::now();
        let new_plan = shrunk.replan_shrunk_warm(plan, warm).map_err(|e| {
            ElasticError::Infeasible(format!(
                "no plan for {} nodes: {e}",
                shrunk.cluster.num_nodes
            ))
        })?;
        let search_wall = search_started.elapsed();
        replan_search += search_wall;
        tel.with(|r| {
            r.histogram(names::ELASTIC_REPLAN_SEARCH_SECONDS, &[])
                .observe(search_wall.as_secs_f64())
        });
        Ok::<_, ElasticError>((shrunk, new_plan))
    };
    let peak = task.cluster.node.gpu.peak_flops;
    let mut it = 0u32;

    while it < iterations {
        // One plan epoch: bind the runtime to the current cluster + plan
        // and step iterations until the run finishes or a shrink forces a
        // re-bind. The block returns `Some(next)` on shrink.
        let pending: Option<(TrainingTask, OrchestrationPlan)> = {
            let runtime = Runtime {
                model: &cur_task.model,
                cluster: &cur_task.cluster,
                plan: cur_plan,
                data: cur_task.data.clone(),
                cfg: cur_task.runtime_config(SystemKind::DistTrain, iterations),
            };
            let coll = CollectiveCost::new(runtime.cluster.clone());
            let perf = runtime.perf_model(&coll);
            let batches = runtime.batches(&perf);
            // The policy's cadence for this epoch, set from the epoch's
            // first simulated iteration.
            let mut cadence: Option<u32> = None;
            // Save iteration `it` through the real checkpoint manager and
            // charge the write on the timeline.
            let save = |mgr: &mut CheckpointManager, tl: &mut Timeline, it: u32, kind: &str| {
                mgr.save_async(&TrainingState {
                    iteration: it,
                    plan: cur_plan,
                    seed: runtime.cfg.seed,
                })?;
                tl.checkpoint(it, kind);
                Ok::<_, ElasticError>(())
            };

            let mut next: Option<(TrainingTask, OrchestrationPlan)> = None;
            while it < iterations {
                let report = runtime.step(
                    &perf,
                    &batches,
                    it,
                    &mut TraceRecorder::disabled(),
                    &Telemetry::disabled(),
                );
                let interval = *cadence.get_or_insert_with(|| {
                    let interval = elastic.checkpoint.interval(
                        elastic.checkpoint_cost,
                        elastic.node_mtbf,
                        tl.stream().active(),
                        elastic.topology.as_ref(),
                        report.iter_time,
                    );
                    epochs.push(PlanEpoch {
                        from_iteration: it,
                        nodes: cur_task.cluster.num_nodes,
                        plan: cur_plan,
                        checkpoint_interval: interval,
                    });
                    interval
                });
                // A slow replacement spare paces the whole synchronous
                // job; the excess over the plan's own iteration time is
                // lost capacity, not committed work.
                let pace = if slow_slots.is_empty() {
                    1.0
                } else {
                    elastic.spare_slowdown.max(1.0)
                };
                let paced = SimDuration::from_secs_f64(report.iter_time.as_secs_f64() * pace);
                // Precursor symptoms: an ailing node stalls the
                // iterations that land within `precursor_window` of its
                // upcoming failure — the signal the healer's stall-burst
                // detector converts into a preemptive checkpoint.
                let ailing = tl
                    .stream()
                    .peek()
                    .is_some_and(|f| f.at < tl.now() + paced + elastic.precursor_window);
                let precursor = if ailing {
                    elastic.precursor_stall
                } else {
                    SimDuration::ZERO
                };
                let iter_wall = paced + precursor;

                if let Some(victims) = tl.next_failure(iter_wall) {
                    let first = victims[0];
                    frec.record("failure", 0, || {
                        format!(
                            "it={it} victims={} correlated={} first_node={}",
                            victims.len(),
                            first.correlated,
                            first.node
                        )
                    });
                    // Roll back to the newest durable checkpoint: the
                    // committed-but-unsaved iterations become lost work.
                    mgr.wait()?;
                    let state = CheckpointManager::recover(ckpt_dir)?;
                    let resume_at = state.map_or(0, |s: TrainingState| s.iteration);
                    let rolled = committed
                        .drain(resume_at as usize..)
                        .fold(SimDuration::ZERO, |acc, r| acc + r.iter_time);
                    tl.roll_back(&victims, it, resume_at, rolled);

                    // A correlated event destroys the spares parked in
                    // its own domain before any of them can swap in —
                    // the payoff of parking spares across domains.
                    if first.correlated {
                        if let Some(t) = &elastic.topology {
                            let burned = spares.destroy_in(t.domain_of(first.node));
                            if burned > 0 {
                                tel.with(|r| {
                                    r.counter(names::ELASTIC_SPARES_LOST_TOTAL, &[])
                                        .add(u64::from(burned))
                                });
                            }
                        }
                    }
                    let mut shrink_nodes = 0u32;
                    for v in &victims {
                        let domain = elastic.topology.as_ref().map_or(0, |t| t.domain_of(v.node));
                        let action = if spares.take_preferring_other(domain) {
                            // A hot spare takes over the slot in place;
                            // the slot's failure stream continues for the
                            // replacement hardware.
                            tel.with(|r| r.counter(names::ELASTIC_SPARE_SWAPS_TOTAL, &[]).inc());
                            if elastic.spare_slowdown > 1.0 && !slow_slots.contains(&v.node) {
                                slow_slots.push(v.node);
                            }
                            RecoveryAction::SpareSwap
                        } else {
                            tl.retire(v.node);
                            slow_slots.retain(|&n| n != v.node);
                            shrink_nodes += 1;
                            RecoveryAction::Shrink
                        };
                        failures.push(FailureEvent {
                            node: v.node,
                            at: v.at,
                            iteration: it,
                            action,
                            resumed_from: resume_at,
                            correlated: v.correlated,
                        });
                    }
                    it = resume_at;

                    if shrink_nodes > 0 {
                        if tl.stream().active() == 0 {
                            return Err(ElasticError::NoProgress {
                                committed: resume_at,
                                requested: iterations,
                            });
                        }
                        let (shrunk, new_plan) =
                            replan(&cur_task, &cur_plan, shrink_nodes, resume_at)?;
                        tl.reshard(shrink_nodes, || {
                            format!("reorch@{resume_at}:nodes{}", shrunk.cluster.num_nodes)
                        });
                        // Epochs that committed nothing durable vanish
                        // from the final history.
                        while epochs.last().is_some_and(|e| e.from_iteration >= resume_at) {
                            epochs.pop();
                        }
                        next = Some((shrunk, new_plan));
                        break;
                    }
                    continue;
                }

                // Commit. In traced mode step again with span emission —
                // the data path is deterministic, so the traced pass is
                // identical to the decision pass above.
                if let Some(rec) = tl.tracing() {
                    let traced = runtime.step(&perf, &batches, it, rec, &Telemetry::disabled());
                    debug_assert_eq!(traced.iter_time, report.iter_time);
                }
                if pace > 1.0 {
                    // Slow-spare time is degraded capacity until the
                    // healer (or a shrink) evicts the slow slots.
                    tl.degrade();
                }
                tl.commit(report.iter_time, iter_wall);
                // What the job observed: paced wall time, paced-down MFU,
                // and the stall including precursor symptoms. The anomaly
                // series and the healer both see exactly this.
                let observed = (
                    iter_wall.as_secs_f64(),
                    report.mfu(peak) / pace,
                    report.preprocess_stall.as_secs_f64() + precursor.as_secs_f64(),
                );
                record_iteration_metrics(tel, tl.now(), &report, peak, observed);
                committed.push(report);
                it += 1;

                if it.is_multiple_of(interval) {
                    save(&mut mgr, &mut tl, it, "checkpoint")?;
                }

                // The watcher→healer loop: feed the committed iteration's
                // observed series to the online detector and act on its
                // verdicts.
                let Some(h) = healer.as_mut() else { continue };
                let Some((action, trigger)) = h.observe(observed.0, observed.1, observed.2) else {
                    continue;
                };
                match action {
                    HealerAction::PreemptiveCheckpoint => {
                        // Save *now*, off-cadence: the detector predicts
                        // an imminent failure, and a fresh checkpoint
                        // moves the rollback target right next to it.
                        // Nothing to do when the cadence just saved.
                        if it == tl.saved_at() {
                            continue;
                        }
                        save(&mut mgr, &mut tl, it, "heal-checkpoint")?;
                        frec.record("healer-action", 0, || {
                            format!("preemptive-checkpoint@{it} trigger={}", trigger.name())
                        });
                        frec.dump("healer:preemptive-checkpoint");
                    }
                    HealerAction::ProactiveReplan => {
                        // Evict the slow slots and warm-replan the
                        // survivors. Only meaningful while a slow spare
                        // is pacing the job; a verdict with nothing to
                        // evict is ignored.
                        if slow_slots.is_empty() {
                            continue;
                        }
                        // Checkpoint first: the rollback invariant
                        // (newest durable checkpoint ≥ every plan-epoch
                        // boundary) must survive the reshard, or a later
                        // failure would roll back across the boundary
                        // under the wrong plan.
                        if it > tl.saved_at() {
                            save(&mut mgr, &mut tl, it, "heal-checkpoint")?;
                        }
                        let evicted = slow_slots.len() as u32;
                        for n in slow_slots.drain(..) {
                            tl.retire(n);
                        }
                        let (shrunk, new_plan) = replan(&cur_task, &cur_plan, evicted, it)?;
                        tl.reshard(evicted, || {
                            format!("heal-reorch@{it}:nodes{}", shrunk.cluster.num_nodes)
                        });
                        frec.record("healer-action", 0, || {
                            format!(
                                "proactive-replan@{it} evicted={evicted} trigger={}",
                                trigger.name()
                            )
                        });
                        frec.dump("healer:proactive-replan");
                        next = Some((shrunk, new_plan));
                    }
                }
                healer_actions.push(HealerEvent {
                    iteration: it,
                    action,
                    trigger,
                });
                tel.with(|r| {
                    r.counter(names::HEALER_ACTIONS_TOTAL, &[("action", action.name())])
                        .inc()
                });
                if next.is_some() {
                    break;
                }
            }
            next
        };
        if let Some((shrunk, new_plan)) = pending {
            cur_task = shrunk;
            cur_plan = new_plan;
        }
    }
    mgr.wait()?;

    Ok(ElasticReport {
        report: TrainingReport {
            iterations: committed,
            peak_flops_per_gpu: peak,
        },
        epochs,
        failures,
        healer_actions,
        goodput: tl.finish(),
        replan_search,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::healer::HealerConfig;
    use crate::policy::CheckpointPolicy;
    use crate::topology::FailureTopology;
    use disttrain_core::RuntimeConfig;
    use dt_model::MllmPreset;
    use dt_simengine::trace::cat;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dt-elastic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    /// An elastic scenario harsh enough to exhaust the single spare and
    /// shrink the 12-node ablation cluster within a short run.
    fn harsh_plan() -> ElasticPlan {
        ElasticPlan {
            node_mtbf: secs(250.0),
            failure_seed: 5,
            spare_nodes: 1,
            checkpoint: CheckpointPolicy::Fixed(2),
            checkpoint_cost: secs(1.0),
            restart_overhead: secs(5.0),
            reshard_cost: secs(3.0),
            topology: None,
            healer: None,
            precursor_window: SimDuration::ZERO,
            precursor_stall: SimDuration::ZERO,
            spare_slowdown: 1.0,
        }
    }

    fn ablation_task() -> TrainingTask {
        TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32)
    }

    /// The reference: iteration `i` simulated fresh on `(task, plan)` with
    /// the driver's exact batch derivation.
    fn reference_iteration(
        task: &TrainingTask,
        plan: OrchestrationPlan,
        iterations: u32,
        i: u32,
    ) -> IterationReport {
        let runtime = Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan,
            data: task.data.clone(),
            cfg: task.runtime_config(SystemKind::DistTrain, iterations),
        };
        let coll = CollectiveCost::new(task.cluster.clone());
        let perf = runtime.perf_model(&coll);
        runtime.simulate_iteration(&perf, &runtime.batches(&perf).get(i))
    }

    /// [`run_elastic`] metered into a fresh registry: the report and the
    /// registry's snapshot.
    fn metered_run(
        task: &TrainingTask,
        iterations: u32,
        elastic: &ElasticPlan,
        tag: &str,
    ) -> (ElasticReport, dt_telemetry::Snapshot) {
        let dir = tempdir(tag);
        let tel = Telemetry::enabled();
        let opts = ElasticOptions {
            telemetry: tel.clone(),
            ..Default::default()
        };
        let out = run_elastic(task, iterations, elastic, &dir, opts).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (out, tel.snapshot())
    }

    /// The headline acceptance test: a deterministic multi-failure run —
    /// several node failures, the spare pool exhausted at least once —
    /// commits exactly the requested iterations, and every committed
    /// iteration is bit-identical to an uninterrupted run of the same plan
    /// sequence.
    #[test]
    fn multi_failure_run_commits_a_bit_identical_history() {
        let task = ablation_task();
        let elastic = harsh_plan();
        let iterations = 10u32;
        let dir = tempdir("multi");
        let out =
            run_elastic(&task, iterations, &elastic, &dir, ElasticOptions::default()).unwrap();

        assert_eq!(out.report.iterations.len(), iterations as usize);
        assert!(
            out.goodput.failures >= 3,
            "scenario must survive ≥3 failures, got {}",
            out.goodput.failures
        );
        assert!(out.goodput.shrinks >= 1, "the single spare must run out");
        assert!(
            out.failures
                .iter()
                .any(|f| f.action == RecoveryAction::SpareSwap),
            "the spare must absorb the first failure"
        );
        assert!(out.epochs.len() >= 2, "a shrink opens a new plan epoch");
        assert!(out.epochs[1].nodes < out.epochs[0].nodes);
        out.goodput.validate().unwrap();
        assert!(
            out.goodput.degraded > SimDuration::ZERO,
            "post-shrink time is degraded"
        );
        assert!(out.goodput.lost > SimDuration::ZERO);
        assert!(
            out.replan_search > std::time::Duration::ZERO,
            "a shrink must spend real solver time re-orchestrating"
        );

        // Bit-identical committed history: replay each epoch's iterations
        // on a fresh runtime bound to that epoch's cluster + plan.
        let n = out.report.iterations.len() as u32;
        for (k, e) in out.epochs.iter().enumerate() {
            let end = out.epochs.get(k + 1).map_or(n, |nx| nx.from_iteration);
            let epoch_task = task.shrunk(task.cluster.num_nodes - e.nodes).unwrap();
            for i in e.from_iteration..end {
                let reference = reference_iteration(&epoch_task, e.plan, iterations, i);
                let got = out.report.iterations[i as usize];
                assert_eq!(
                    got.iter_time, reference.iter_time,
                    "iteration {i} (epoch {k})"
                );
                assert_eq!(got.model_flops, reference.model_flops, "iteration {i}");
                assert_eq!(got.gpus, reference.gpus, "iteration {i}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_zero() {
        // One failure during iteration 1, the first checkpoint due at 10:
        // nothing durable exists, so the run restarts from iteration 0.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(1360.0);
        elastic.failure_seed = 27;
        elastic.checkpoint = CheckpointPolicy::Fixed(10);
        elastic.restart_overhead = secs(30.0);
        let (out, snap) = metered_run(&task, 3, &elastic, "zero");
        assert_eq!(out.report.iterations.len(), 3);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!(out.failures[0].iteration, 1);
        assert_eq!(out.failures[0].resumed_from, 0);
        assert_eq!(
            snap.counter_value(names::ELASTIC_ROLLED_BACK_ITERATIONS_TOTAL, &[]),
            Some(1)
        );
        out.goodput.validate().unwrap();
    }

    #[test]
    fn stale_checkpoints_cost_lost_iterations() {
        // One failure during iteration 5 with checkpoints every 3: the run
        // resumes from 3, and iterations 3 and 4 are lost.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(680.0);
        elastic.failure_seed = 8;
        elastic.checkpoint = CheckpointPolicy::Fixed(3);
        elastic.restart_overhead = secs(30.0);
        let (out, snap) = metered_run(&task, 6, &elastic, "stale");
        assert_eq!(out.report.iterations.len(), 6);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!(out.failures[0].iteration, 5);
        assert_eq!(out.failures[0].resumed_from, 3);
        assert_eq!(
            snap.counter_value(names::ELASTIC_ROLLED_BACK_ITERATIONS_TOTAL, &[]),
            Some(2)
        );
        // Wall clock strictly exceeds the committed work (lost + restart).
        assert!(out.goodput.total_wall > out.goodput.committed + elastic.restart_overhead);
        out.goodput.validate().unwrap();
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let task = ablation_task();
        let elastic = harsh_plan();
        let d1 = tempdir("det1");
        let d2 = tempdir("det2");
        let a = run_elastic(&task, 6, &elastic, &d1, ElasticOptions::default()).unwrap();
        let b = run_elastic(&task, 6, &elastic, &d2, ElasticOptions::default()).unwrap();
        assert_eq!(a.goodput, b.goodput);
        assert_eq!(a.failures.len(), b.failures.len());
        for (x, y) in a.failures.iter().zip(&b.failures) {
            assert_eq!(
                (x.node, x.at, x.iteration, x.action),
                (y.node, y.at, y.iteration, y.action)
            );
        }
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn quiet_cluster_matches_a_plain_run() {
        // With an (effectively) infinite MTBF the elastic driver reduces
        // to the plain runtime plus checkpoint writes.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(1e12);
        let dir = tempdir("quiet");
        let iterations = 4u32;
        let out =
            run_elastic(&task, iterations, &elastic, &dir, ElasticOptions::default()).unwrap();
        assert_eq!(out.goodput.failures, 0);
        assert_eq!(out.epochs.len(), 1);
        assert_eq!(out.goodput.degraded, SimDuration::ZERO);

        let plan = task.plan(SystemKind::DistTrain).unwrap();
        let plain = task.run_with_plan(plan, RuntimeConfig::disttrain(32, iterations));
        for (a, b) in out.report.iterations.iter().zip(&plain.iterations) {
            assert_eq!(a.iter_time, b.iter_time);
            assert_eq!(a.model_flops, b.model_flops);
        }
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_run_emits_failure_recovery_and_reorch_spans() {
        let task = ablation_task();
        let elastic = harsh_plan();
        let dir = tempdir("spans");
        let mut rec = TraceRecorder::enabled();
        let out = run_elastic(
            &task,
            10,
            &elastic,
            &dir,
            ElasticOptions {
                trace: Some(&mut rec),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.goodput.shrinks >= 1, "need a shrink for a reorch span");
        for c in [cat::FAILURE, cat::RECOVERY, cat::REORCH, cat::CHECKPOINT] {
            assert!(
                rec.spans().iter().any(|s| s.cat == c),
                "missing a `{c}` span in the elastic trace"
            );
        }
        // Recovery spans carry the restart overhead; reorch the re-shard.
        let rcv = rec.spans().iter().find(|s| s.cat == cat::RECOVERY).unwrap();
        assert_eq!(rcv.dur, elastic.restart_overhead);
        let ro = rec.spans().iter().find(|s| s.cat == cat::REORCH).unwrap();
        assert_eq!(ro.dur, elastic.reshard_cost);
        rec.validate_nesting()
            .expect("elastic spans stay disjoint per track");
        // The trace clock ends on the wall clock, one span per checkpoint.
        assert_eq!(rec.origin(), SimTime::ZERO + out.goodput.total_wall);
        let ckpts = rec
            .spans()
            .iter()
            .filter(|s| s.cat == cat::CHECKPOINT)
            .count();
        assert_eq!(ckpts, out.goodput.checkpoints as usize);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn correlated_blast_fails_a_whole_domain_at_once() {
        // Node failures off (astronomical MTBF); only correlated domain
        // events fire. With no spares, one event shrinks the cluster by
        // every live slot in the rack in a single recovery.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(1e12);
        elastic.spare_nodes = 0;
        elastic.failure_seed = 3;
        elastic.topology = Some(FailureTopology::new(4, secs(60.0)));
        let dir = tempdir("blast");
        let out = run_elastic(&task, 8, &elastic, &dir, ElasticOptions::default()).unwrap();

        let correlated: Vec<_> = out.failures.iter().filter(|f| f.correlated).collect();
        assert!(
            correlated.len() >= 2,
            "need a multi-victim blast: {:?}",
            out.failures
        );
        // Every victim of the first blast died at the same instant, in the
        // same domain, and the whole blast restarted the job once.
        let first_at = correlated[0].at;
        let batch: Vec<_> = correlated.iter().filter(|f| f.at == first_at).collect();
        assert!(
            batch.len() >= 2,
            "a domain event must take out several slots"
        );
        let topo = elastic.topology.unwrap();
        let d0 = topo.domain_of(batch[0].node);
        for f in &batch {
            assert_eq!(
                topo.domain_of(f.node),
                d0,
                "blast crossed a domain boundary"
            );
            assert_eq!(f.action, RecoveryAction::Shrink);
            assert_eq!(f.resumed_from, batch[0].resumed_from);
        }
        // One shrink recovery for the whole batch: nodes drop by the batch
        // size between consecutive epochs.
        assert!(out.epochs.len() >= 2);
        assert_eq!(
            out.epochs[0].nodes - out.epochs[1].nodes,
            batch.len() as u32
        );
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spares_prefer_domains_outside_the_blast_radius() {
        // Spares parked round-robin over 3 domains; an independent failure
        // in domain 0 must be absorbed without pulling domain-0 spares
        // first (observable indirectly: a later correlated event in the
        // *same* domain still finds its parked spare to destroy).
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.spare_nodes = 3;
        elastic.topology = Some(FailureTopology::new(4, secs(1e12)));
        let dir = tempdir("spare-topo");
        let out = run_elastic(&task, 8, &elastic, &dir, ElasticOptions::default()).unwrap();
        assert!(out.goodput.failures >= 1);
        // With 3 spares over this failure pattern the first failures are
        // all absorbed in place.
        assert!(out
            .failures
            .iter()
            .any(|f| f.action == RecoveryAction::SpareSwap));
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn healer_preemptively_checkpoints_on_precursor_stall_bursts() {
        // An ailing node stalls for `precursor_window` before it dies; the
        // healer's stall-burst detector must convert that into an
        // off-cadence checkpoint *before* the failure lands, which shrinks
        // the rollback. Flight recorder + metrics observe the action.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.checkpoint = CheckpointPolicy::Fixed(50); // cadence out of the way
        elastic.healer = Some(HealerConfig::default());
        elastic.precursor_window = secs(12.0);
        elastic.precursor_stall = secs(2.0);
        elastic.node_mtbf = secs(400.0);
        elastic.failure_seed = 9;
        let dir = tempdir("heal-ckpt");
        let tel = Telemetry::enabled();
        let flight = FlightLog::new();
        let opts = ElasticOptions {
            telemetry: tel.clone(),
            flight: flight.clone(),
            ..Default::default()
        };
        let out = run_elastic(&task, 16, &elastic, &dir, opts).unwrap();

        let saves: Vec<_> = out
            .healer_actions
            .iter()
            .filter(|e| e.action == HealerAction::PreemptiveCheckpoint)
            .collect();
        assert!(
            !saves.is_empty(),
            "no preemptive checkpoint: {:?}",
            out.healer_actions
        );
        assert!(saves
            .iter()
            .all(|e| e.trigger == dt_telemetry::AnomalyKind::PreprocessStallBurst));
        let snap = tel.snapshot();
        let n = snap
            .counter_value(
                names::HEALER_ACTIONS_TOTAL,
                &[("action", "preemptive-checkpoint")],
            )
            .unwrap_or(0);
        assert_eq!(n, saves.len() as u64, "counter must match the action log");
        assert!(
            flight.dumps_total() >= 1,
            "each healer action dumps the flight ring"
        );
        assert!(flight
            .dumps()
            .iter()
            .any(|d| d.reason == "healer:preemptive-checkpoint"));
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn healer_evicts_a_slow_spare_via_proactive_replan() {
        // A slow replacement spare paces the whole job at 1.6×; the healer
        // must notice the persistent slowness and trade a one-time
        // reshard (evicting the slow slot) for full-pace iterations.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(400.0);
        elastic.failure_seed = 11;
        elastic.spare_nodes = 1;
        elastic.checkpoint = CheckpointPolicy::Fixed(50);
        elastic.healer = Some(HealerConfig::default());
        elastic.spare_slowdown = 1.6;
        let dir = tempdir("heal-evict");
        let out = run_elastic(&task, 14, &elastic, &dir, ElasticOptions::default()).unwrap();

        assert!(
            out.failures
                .iter()
                .any(|f| f.action == RecoveryAction::SpareSwap),
            "the spare must swap in first: {:?}",
            out.failures
        );
        let replans: Vec<_> = out
            .healer_actions
            .iter()
            .filter(|e| e.action == HealerAction::ProactiveReplan)
            .collect();
        assert!(
            !replans.is_empty(),
            "no proactive replan: {:?}",
            out.healer_actions
        );
        // The eviction opens a new (smaller) plan epoch and the time spent
        // paced by the slow spare is attributed as degraded + lost.
        assert!(out.epochs.len() >= 2);
        assert!(out.epochs.last().unwrap().nodes < out.epochs[0].nodes);
        assert!(out.goodput.degraded > SimDuration::ZERO);
        assert!(out.goodput.lost > SimDuration::ZERO);
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The healer's checkpoint before an eviction reshard is charged like
    /// any other: it advances the trace clock with the wall clock and
    /// appears as a checkpoint span.
    #[test]
    fn healer_reshard_checkpoint_stays_on_the_trace_clock() {
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(400.0);
        elastic.failure_seed = 11;
        elastic.spare_nodes = 1;
        elastic.checkpoint = CheckpointPolicy::Fixed(50);
        elastic.healer = Some(HealerConfig::default());
        elastic.spare_slowdown = 1.6;
        let dir = tempdir("heal-trace");
        let mut rec = TraceRecorder::enabled();
        let out = run_elastic(
            &task,
            14,
            &elastic,
            &dir,
            ElasticOptions {
                trace: Some(&mut rec),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.healer_actions
                .iter()
                .any(|e| e.action == HealerAction::ProactiveReplan),
            "scenario must evict via the healer: {:?}",
            out.healer_actions
        );
        assert!(
            out.goodput.checkpoints >= 1,
            "the eviction checkpoints first"
        );
        assert_eq!(rec.origin(), SimTime::ZERO + out.goodput.total_wall);
        let ckpts = rec
            .spans()
            .iter()
            .filter(|s| s.cat == cat::CHECKPOINT)
            .count();
        assert_eq!(ckpts, out.goodput.checkpoints as usize);
        rec.validate_nesting()
            .expect("elastic spans stay disjoint per track");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn anomaly_series_carry_what_the_healer_observed() {
        // A slow spare paces the job and an ailing node stalls it before
        // dying. The anomaly series must carry the healer's observed
        // triple for every committed iteration, plus one iteration-time
        // point per failure, so that replaying the series through a fresh
        // healer reproduces every action the driver took.
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(400.0);
        elastic.failure_seed = 11;
        elastic.checkpoint = CheckpointPolicy::Fixed(50);
        elastic.healer = Some(HealerConfig::default());
        elastic.spare_slowdown = 1.6;
        elastic.precursor_window = secs(12.0);
        elastic.precursor_stall = secs(2.0);
        let (out, snap) = metered_run(&task, 12, &elastic, "series");
        let iter = snap.series_points(names::SERIES_ITER_TIME, &[]).unwrap();
        let mfu = snap.series_points(names::SERIES_MFU, &[]).unwrap();
        let stall = snap.series_values(names::SERIES_STALL, &[]).unwrap();
        let commits = snap
            .counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[])
            .unwrap();
        assert_eq!(
            (mfu.len(), stall.len()),
            (commits as usize, commits as usize)
        );
        assert_eq!(
            iter.len(),
            mfu.len() + out.failures.len(),
            "one extra point per failure"
        );
        assert!(
            stall
                .iter()
                .any(|&s| s >= elastic.precursor_stall.as_secs_f64()),
            "precursor stalls must reach the stall series: {stall:?}"
        );

        // Walk the iteration-time points in order: a point sampled at a
        // commit instant is a committed iteration, any other is the lost
        // wall of a failure (which rolls `it` back to its checkpoint).
        let mut healer = Healer::new(HealerConfig::default());
        let mut replayed = Vec::new();
        let (mut k, mut it, mut failures) = (0usize, 0u32, out.failures.iter());
        for &(at, t) in iter {
            if k < mfu.len() && mfu[k].0 == at {
                it += 1;
                if let Some((action, trigger)) = healer.observe(t, mfu[k].1, stall[k]) {
                    replayed.push(HealerEvent {
                        iteration: it,
                        action,
                        trigger,
                    });
                }
                k += 1;
            } else {
                let f = failures
                    .next()
                    .expect("a lost-wall point without a failure");
                assert!(
                    t >= elastic.restart_overhead.as_secs_f64(),
                    "lost wall {t}s"
                );
                it = f.resumed_from;
            }
        }
        // The driver acts on every verdict except the ones with nothing
        // to do, so its actions are an in-order subsequence of the replay.
        assert!(
            !out.healer_actions.is_empty(),
            "scenario must exercise the healer"
        );
        let mut rest = replayed.iter();
        for taken in &out.healer_actions {
            assert!(
                rest.any(|r| r == taken),
                "action {taken:?} not reproduced from the series: {replayed:?}"
            );
        }
    }

    #[test]
    fn healer_action_sequence_is_bit_reproducible() {
        let task = ablation_task();
        let mut elastic = harsh_plan();
        elastic.node_mtbf = secs(400.0);
        elastic.failure_seed = 11;
        elastic.checkpoint = CheckpointPolicy::Fixed(50);
        elastic.healer = Some(HealerConfig::default());
        elastic.spare_slowdown = 1.6;
        elastic.precursor_window = secs(12.0);
        elastic.precursor_stall = secs(2.0);
        let d1 = tempdir("heal-det1");
        let d2 = tempdir("heal-det2");
        let a = run_elastic(&task, 12, &elastic, &d1, ElasticOptions::default()).unwrap();
        let b = run_elastic(&task, 12, &elastic, &d2, ElasticOptions::default()).unwrap();
        assert_eq!(a.healer_actions, b.healer_actions);
        assert_eq!(a.goodput, b.goodput);
        assert!(
            !a.healer_actions.is_empty(),
            "scenario must exercise the healer"
        );
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn young_daly_policy_picks_a_sane_cadence() {
        let task = ablation_task();
        let mut elastic = ElasticPlan::for_task(&task, secs(200_000.0));
        elastic.checkpoint = CheckpointPolicy::YoungDaly;
        let dir = tempdir("yd");
        let out = run_elastic(&task, 3, &elastic, &dir, ElasticOptions::default()).unwrap();
        let interval = out.epochs[0].checkpoint_interval;
        assert!(interval >= 1, "YD cadence must be at least one iteration");
        out.goodput.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
