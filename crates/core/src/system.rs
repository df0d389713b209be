//! The top-level training system: manager + runtime for each compared
//! system (DistTrain, Megatron-LM, DistMM*).

use crate::metrics::TrainingReport;
use crate::runtime::{Runtime, RuntimeConfig};
use dt_cluster::{ClusterSpec, CollectiveCost};
use dt_data::cost::CostRows;
use dt_data::DataConfig;
use dt_model::MultimodalLlm;
use dt_orchestrator::baselines::{distmm_star_plan, megatron_plan, proportional_shrink_plan};
use dt_orchestrator::formulate::ProblemSpec;
use dt_orchestrator::{Orchestrator, PerfModel, PlanError, Profiler, TaskProfile, WarmStart};
use dt_parallel::OrchestrationPlan;
use dt_simengine::DetRng;

/// Which system's policies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Disaggregated orchestration + disaggregated preprocessing +
    /// two-level reordering.
    DistTrain,
    /// Monolithic orchestration, colocated preprocessing, random order
    /// (§2.1).
    MegatronLM,
    /// DistTrain's machinery with DistMM's FLOPs-proportional
    /// orchestration (§7.2).
    DistMMStar,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::DistTrain => write!(f, "DistTrain"),
            SystemKind::MegatronLM => write!(f, "Megatron-LM"),
            SystemKind::DistMMStar => write!(f, "DistMM*"),
        }
    }
}

/// Where data preprocessing runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreprocessingMode {
    /// On the training nodes, blocking the trainer (§2.1's monolithic
    /// co-location) with this many spare CPU workers.
    Colocated {
        /// CPU workers the trainer can spare.
        workers: u32,
    },
    /// On dedicated CPU nodes with prefetch (§5.1).
    Disaggregated,
}

/// A complete training task description.
///
/// This is the quickstart entry point: describe the task, let the manager
/// plan it, and simulate training (the `examples/quickstart.rs` walkthrough
/// in executable form):
///
/// ```
/// use disttrain_core::{SystemKind, TrainingTask};
/// use dt_model::MllmPreset;
///
/// // MLLM-9B (ViT-Huge + Llama3-7B + SD 2.1) on the §7.2 ablation cluster.
/// let preset = MllmPreset::Mllm9B;
/// let task = TrainingTask::ablation(preset.build(), preset.ablation_global_batch());
///
/// // The manager picks the disaggregated orchestration (§4)…
/// let plan = task.plan(SystemKind::DistTrain).expect("orchestration");
/// assert!(plan.total_gpus() <= task.cluster.total_gpus());
/// assert!(plan.backbone.gpus() > plan.encoder.gpus(), "backbone dominates 9B");
///
/// // …and the runtime simulates training with the full data path (§5).
/// let report = task.run(SystemKind::DistTrain, 1).expect("training run");
/// let mfu = report.mfu();
/// assert!((0.05..0.70).contains(&mfu), "MFU {mfu:.3} must be physical");
/// assert!(report.samples_per_sec() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrainingTask {
    /// The multimodal LLM (with its freeze configuration).
    pub model: MultimodalLlm,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Data distribution.
    pub data: DataConfig,
    /// Global batch size.
    pub global_batch: u32,
    /// Microbatch size `M`.
    pub microbatch: u32,
    /// Stream seed.
    pub seed: u64,
}

impl TrainingTask {
    /// The §7.2 ablation setting: 96 GPUs (12 nodes), the preset's
    /// ablation batch size.
    pub fn ablation(model: MultimodalLlm, global_batch: u32) -> Self {
        let data = DataConfig::evaluation(model.gen_resolution);
        TrainingTask {
            model,
            cluster: ClusterSpec::production(12),
            data,
            global_batch,
            microbatch: 1,
            seed: 42,
        }
    }

    /// The §7.1 production setting: up to 1296 GPUs (162 nodes), batch
    /// 1920.
    pub fn production(model: MultimodalLlm) -> Self {
        let data = DataConfig::evaluation(model.gen_resolution);
        TrainingTask {
            model,
            cluster: ClusterSpec::production(162),
            data,
            global_batch: 1920,
            microbatch: 1,
            seed: 42,
        }
    }

    /// The §4.2/§4.3 problem constants for this task.
    pub fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec {
            total_gpus: self.cluster.total_gpus(),
            gpus_per_node: self.cluster.node.gpus_per_node,
            hbm_bytes: self.cluster.node.gpu.hbm_bytes,
            global_batch: self.global_batch,
            microbatch: self.microbatch,
            vpp: 1,
            pp_hop_secs: self.pp_hop_secs(),
        }
    }

    /// Estimated per-boundary pipeline hop (one microbatch's boundary
    /// activations over the cross-node path) — the Eq. 1 correction term.
    pub fn pp_hop_secs(&self) -> f64 {
        let bytes = self
            .model
            .backbone
            .boundary_activation_bytes(self.model.seq_len)
            * self.microbatch as u64;
        bytes as f64 / self.cluster.cross_node_pair_bw() + self.cluster.inter_node_latency
    }

    /// Plan the task under `kind`'s orchestration policy.
    pub fn plan(&self, kind: SystemKind) -> Result<OrchestrationPlan, PlanError> {
        match kind {
            SystemKind::MegatronLM => megatron_plan(&self.problem_spec(), &self.model),
            SystemKind::DistMMStar => {
                distmm_star_plan(&self.problem_spec(), &self.model, &self.profile())
            }
            SystemKind::DistTrain => Ok(self.select_by_trial(self.trial_candidates()?)),
        }
    }

    /// The plans DistTrain's [`TrainingTask::plan`] trials: the §4
    /// shortlist plus the FLOPs-proportional DistMM* plan.
    pub fn trial_candidates(&self) -> Result<Vec<OrchestrationPlan>, PlanError> {
        let profile = self.profile();
        // DistTrain's search space strictly contains the baselines' points;
        // trialing the FLOPs-proportional plan too guarantees the adaptive
        // search never loses to it.
        let distmm = distmm_star_plan(&self.problem_spec(), &self.model, &profile).ok();
        self.candidates(&WarmStart::new(&self.model, &profile), distmm)
    }

    /// The §4 shortlist over `warm`, plus `extra` when there is one.
    fn candidates(
        &self,
        warm: &WarmStart,
        extra: Option<OrchestrationPlan>,
    ) -> Result<Vec<OrchestrationPlan>, PlanError> {
        let orch = Orchestrator::builder().spec(self.problem_spec()).build()?;
        let mut candidates: Vec<OrchestrationPlan> = orch
            .plan_candidates_warm(&self.model, warm)?
            .into_iter()
            .map(|r| r.plan)
            .collect();
        candidates.extend(extra);
        Ok(candidates)
    }

    /// The §4 task profile. The manager "samples a subset of training
    /// data" (§3); DistTrain (and DistMM*, which reuses its machinery)
    /// train with StepCCL's TP-communication overlap (§6, §A.1).
    fn profile(&self) -> TaskProfile {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = PerfModel::new(&self.model, &self.cluster.node.gpu, &coll).with_stepccl();
        let samples =
            dt_data::SyntheticLaion::new(self.data.clone(), DetRng::new(self.seed).next_u64())
                .take(64);
        Profiler.profile(&perf, &samples)
    }

    /// Trial-based selection among candidate plans (§3's "series of
    /// benchmarking training trials"): simulate one iteration per plan;
    /// among plans within 12% of the fastest, pick the one with the
    /// smallest GPU-seconds footprint (§7.1's resource-efficiency rule:
    /// near-equal throughput with fewer GPUs frees the remainder for
    /// concurrent fine-tuning/inference and maximizes MFU). `plans` is
    /// non-empty: the §4 shortlist always is on `Ok`.
    fn select_by_trial(&self, plans: Vec<OrchestrationPlan>) -> OrchestrationPlan {
        // Trials run the full data path so their ranking matches the
        // production configuration exactly. Every trial sees the stream's
        // first global batch, so it is drawn and priced once and every
        // plan reads the same rows.
        let cfg = self.runtime_config(SystemKind::DistTrain, 1);
        let rows = self.first_batch_rows(&cfg);
        let mut trials: Vec<(f64, u32, OrchestrationPlan)> = Vec::new();
        for plan in plans {
            let report = self.runtime(plan, cfg.clone()).run_batch(&rows);
            trials.push((report.iter_time.as_secs_f64(), plan.total_gpus(), plan));
        }
        let best = trials
            .iter()
            .map(|(t, _, _)| *t)
            .fold(f64::INFINITY, f64::min);
        trials
            .into_iter()
            .filter(|(t, _, _)| *t <= best * 1.12)
            .min_by(|a, b| {
                let ka = (a.0 * a.1 as f64, a.0);
                let kb = (b.0 * b.1 as f64, b.0);
                ka.partial_cmp(&kb).expect("finite")
            })
            .map(|(_, _, plan)| plan)
            .expect("the §4 shortlist is non-empty")
    }

    /// The stream's first global batch under `cfg`, priced into cost rows.
    fn first_batch_rows(&self, cfg: &RuntimeConfig) -> CostRows {
        let stream = dt_data::SyntheticLaion::new(self.data.clone(), cfg.seed);
        CostRows::new(
            &self.model,
            (0..u64::from(cfg.global_batch)).map(|id| stream.sample_at(id)),
        )
    }

    /// The same task on a cluster that has lost `lost_nodes` whole nodes
    /// (the failure domain of §3's node failures). `None` when no node
    /// would remain.
    pub fn shrunk(&self, lost_nodes: u32) -> Option<TrainingTask> {
        let cluster = self.cluster.without_nodes(lost_nodes)?;
        Some(TrainingTask {
            cluster,
            ..self.clone()
        })
    }

    /// The §4 planning state for this task: profile once and freeze the
    /// cost tables. Call it at job start (on the original, un-shrunk task)
    /// and hand it to [`TrainingTask::replan_shrunk_warm`] after each
    /// failure: the profile is cluster-size independent for multi-node
    /// clusters, so the tables stay exact after nodes are lost.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart::new(&self.model, &self.profile())
    }

    /// Re-orchestrate after the cluster shrank: re-run the §4 search over
    /// `warm` on the degraded GPU budget and trial the candidates
    /// *together with* the naive proportional shrink of `old_plan` (what a
    /// non-elastic system would keep running). Because the naive plan is
    /// in the trial set, the elastic re-plan never selects something worse
    /// than it under the §7.1 selection rule. `old_plan` (plus every plan
    /// observed before it) seeds the branch-and-bound incumbent, and the
    /// tables are reused instead of re-profiling, so the result equals a
    /// search over a fresh [`TrainingTask::warm_start`] of this task with
    /// far less work on the recovery critical path. Errs (with the §4
    /// search's own diagnosis) when not even the naive shapes fit the
    /// survivors.
    pub fn replan_shrunk_warm(
        &self,
        old_plan: &OrchestrationPlan,
        warm: &mut WarmStart,
    ) -> Result<OrchestrationPlan, PlanError> {
        warm.observe(old_plan);
        let naive = proportional_shrink_plan(&self.problem_spec(), &self.model, old_plan).ok();
        Ok(self.select_by_trial(self.candidates(warm, naive)?))
    }

    /// The runtime configuration each system uses for data handling
    /// (DistMM* keeps all of DistTrain's data-path techniques, §7.2).
    pub fn runtime_config(&self, kind: SystemKind, iterations: u32) -> RuntimeConfig {
        let mut cfg = match kind {
            SystemKind::MegatronLM => RuntimeConfig::monolithic(self.global_batch, iterations),
            _ => RuntimeConfig::disttrain(self.global_batch, iterations),
        };
        cfg.seed = self.seed;
        cfg
    }

    /// Plan and run `iterations` of training under `kind`. Errs with the
    /// planner's diagnosis when no feasible plan exists.
    pub fn run(&self, kind: SystemKind, iterations: u32) -> Result<TrainingReport, PlanError> {
        let plan = self.plan(kind)?;
        Ok(self.run_with_plan(plan, self.runtime_config(kind, iterations)))
    }

    /// Run with an explicit plan and runtime config (ablations mix and
    /// match, e.g. DistTrain's plan + random data order for Figure 16).
    /// Infallible: planning is where feasibility is decided.
    pub fn run_with_plan(&self, plan: OrchestrationPlan, cfg: RuntimeConfig) -> TrainingReport {
        self.runtime(plan, cfg).run()
    }

    fn runtime(&self, plan: OrchestrationPlan, cfg: RuntimeConfig) -> Runtime<'_> {
        Runtime {
            model: &self.model,
            cluster: &self.cluster,
            plan,
            data: self.data.clone(),
            cfg,
        }
    }
}

/// Convenience facade matching the paper's experiment tables.
pub struct TrainingSystem;

impl TrainingSystem {
    /// Compare all three systems on a task; returns
    /// `(kind, report)` pairs for the systems that could be planned.
    pub fn compare(task: &TrainingTask, iterations: u32) -> Vec<(SystemKind, TrainingReport)> {
        [
            SystemKind::DistTrain,
            SystemKind::MegatronLM,
            SystemKind::DistMMStar,
        ]
        .into_iter()
        .filter_map(|k| task.run(k, iterations).ok().map(|r| (k, r)))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_model::MllmPreset;

    fn task(preset: MllmPreset) -> TrainingTask {
        TrainingTask::ablation(preset.build(), preset.ablation_global_batch())
    }

    #[test]
    fn all_three_systems_plan_the_ablation() {
        let t = task(MllmPreset::Mllm9B);
        for kind in [
            SystemKind::DistTrain,
            SystemKind::MegatronLM,
            SystemKind::DistMMStar,
        ] {
            let plan = t
                .plan(kind)
                .unwrap_or_else(|e| panic!("{kind} failed to plan: {e}"));
            assert!(
                plan.total_gpus() <= 96,
                "{kind} used {} GPUs",
                plan.total_gpus()
            );
        }
    }

    #[test]
    fn disttrain_beats_megatron_on_the_ablation() {
        // The §7.2 headline: 1.3–2.7× higher MFU than the baselines.
        let t = task(MllmPreset::Mllm9B);
        let dt = t.run(SystemKind::DistTrain, 2).unwrap();
        let mg = t.run(SystemKind::MegatronLM, 2).unwrap();
        assert!(
            dt.mfu() > mg.mfu(),
            "DistTrain {:.3} must beat Megatron {:.3}",
            dt.mfu(),
            mg.mfu()
        );
    }

    #[test]
    fn distmm_sits_between_the_two() {
        let t = task(MllmPreset::Mllm15B);
        let dt = t.run(SystemKind::DistTrain, 2).unwrap();
        let dm = t.run(SystemKind::DistMMStar, 2).unwrap();
        let mg = t.run(SystemKind::MegatronLM, 2).unwrap();
        assert!(
            dt.mfu() >= dm.mfu(),
            "DistTrain {:.3} vs DistMM* {:.3}",
            dt.mfu(),
            dm.mfu()
        );
        assert!(
            dm.mfu() > mg.mfu(),
            "DistMM* {:.3} vs Megatron {:.3}",
            dm.mfu(),
            mg.mfu()
        );
    }

    #[test]
    fn trials_on_a_shared_batch_match_one_iteration_runs() {
        // `select_by_trial` prices the first global batch once and hands
        // the rows to every candidate; each trial must be bit-identical to
        // a one-iteration `Runtime::run` of that plan, and to reordering
        // the samples themselves and simulating the reordered batch.
        let t = task(MllmPreset::Mllm9B);
        let cfg = t.runtime_config(SystemKind::DistTrain, 1);
        let rows = t.first_batch_rows(&cfg);
        let batch =
            dt_data::SyntheticLaion::new(t.data.clone(), cfg.seed).take(cfg.global_batch as usize);
        for kind in [
            SystemKind::DistTrain,
            SystemKind::MegatronLM,
            SystemKind::DistMMStar,
        ] {
            let plan = t.plan(kind).expect("ablation task plans");
            let runtime = t.runtime(plan, cfg.clone());
            let trial = runtime.run_batch(&rows);
            let run = t.run_with_plan(plan, cfg.clone());
            assert_eq!(
                format!("{trial:?}"),
                format!("{:?}", run.iterations[0]),
                "{kind}"
            );
            let coll = CollectiveCost::new(t.cluster.clone());
            let perf = runtime.perf_model(&coll);
            let reordered = runtime.planner_for(&perf).reorder(batch.clone());
            let stepped = runtime.simulate_iteration(&perf, &dt_data::GlobalBatch::new(reordered));
            assert_eq!(format!("{trial:?}"), format!("{stepped:?}"), "{kind}");
            assert_eq!(
                trial.iter_time.as_secs_f64().to_bits(),
                run.mean_iter_secs().to_bits()
            );
        }
    }

    #[test]
    fn shrunk_task_loses_whole_nodes() {
        let t = task(MllmPreset::Mllm9B);
        let s = t.shrunk(2).unwrap();
        assert_eq!(s.cluster.num_nodes, 10);
        assert_eq!(s.global_batch, t.global_batch);
        assert!(t.shrunk(12).is_none());
    }

    #[test]
    fn replan_after_shrink_beats_the_naive_plan() {
        // The elastic acceptance scenario: lose one node of the §7.2
        // ablation cluster; re-orchestration must yield MFU at least as
        // high as naively keeping the old (x, y, z) ratios — guaranteed
        // because the naive plan sits in the re-plan's own trial set.
        let t = task(MllmPreset::Mllm9B);
        let old = t.plan(SystemKind::DistTrain).expect("initial plan");
        let shrunk = t.shrunk(1).unwrap();
        let replanned = shrunk
            .replan_shrunk_warm(&old, &mut t.warm_start())
            .expect("re-orchestration");
        let naive = proportional_shrink_plan(&shrunk.problem_spec(), &shrunk.model, &old)
            .expect("naive proportional shrink");
        assert!(replanned.total_gpus() <= shrunk.cluster.total_gpus());
        let run = |p| shrunk.run_with_plan(p, shrunk.runtime_config(SystemKind::DistTrain, 2));
        let re = run(replanned);
        let na = run(naive);
        assert!(
            re.mfu() >= na.mfu(),
            "re-orchestrated MFU {:.4} must not lose to naive {:.4}",
            re.mfu(),
            na.mfu()
        );
    }

    #[test]
    fn warm_replan_matches_the_cold_replan() {
        // Warm state built at job start (12 nodes) and carried across
        // successive shrinks, accumulating observed plans, must drive each
        // replan to the same plan as a fresh `warm_start` of the shrunk
        // task (the cold path): the profile is cluster-size independent
        // for multi-node clusters, and hints never steer the search.
        let t = task(MllmPreset::Mllm9B);
        let mut old = t.plan(SystemKind::DistTrain).expect("initial plan");
        let mut warm = t.warm_start();
        for lost_nodes in [1u32, 4, 9] {
            let shrunk = t.shrunk(lost_nodes).unwrap();
            let cold = shrunk
                .replan_shrunk_warm(&old, &mut shrunk.warm_start())
                .expect("cold replan");
            let warmed = shrunk
                .replan_shrunk_warm(&old, &mut warm)
                .expect("warm replan");
            assert_eq!(cold, warmed, "{lost_nodes} lost nodes");
            assert!(warmed.total_gpus() <= shrunk.cluster.total_gpus());
            old = warmed;
        }
    }

    #[test]
    fn compare_returns_all_planable_systems() {
        let t = task(MllmPreset::Mllm9B);
        let results = TrainingSystem::compare(&t, 1);
        assert_eq!(results.len(), 3);
    }
}
