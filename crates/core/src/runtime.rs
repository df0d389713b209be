//! The training runtime: simulated iterations over the real data path.
//!
//! One iteration (Figure 8, *DistTrain runtime*):
//!
//! 1. draw a global batch from the synthetic LAION stream;
//! 2. reorder it (§5: Algorithm 1 across DP groups, Algorithm 2 within
//!    each rank) — or not, for the Megatron baseline;
//! 3. split into per-rank microbatch streams;
//! 4. build each rank's multi-unit pipeline workload (encoder stages →
//!    broker → backbone stages → broker → generator stages) with exact
//!    per-microbatch times from the task's cost oracle;
//! 5. run the 1F1B schedule simulator per rank; the slowest rank gates the
//!    iteration (that *is* the intra-microbatch straggler);
//! 6. add gradient synchronization and the preprocessing stall of the
//!    configured feeding mode;
//! 7. report iteration time, MFU, and throughput.

use dt_cluster::{ClusterSpec, CollectiveCost};
use dt_data::cost::{module_flops_train, PreprocessCostModel};
use dt_data::{DataConfig, GlobalBatch, Microbatch, SyntheticLaion, TrainSample};
use dt_model::{ModuleKind, MultimodalLlm};
use dt_orchestrator::PerfModel;
use dt_parallel::{BrokerLink, OrchestrationPlan};
use dt_pipeline::{record_pipeline_trace, simulate, PipelineSpec, PipelineTraceOpts, Schedule, Workload};
use dt_preprocess::{ReorderMode, ReorderPlanner};
use dt_reorder::InterReorderConfig;
use dt_pipeline::record_pipeline_metrics;
use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
use dt_simengine::{SimDuration, SimTime};
use dt_telemetry::{names, Telemetry};

use crate::metrics::{IterationReport, TrainingReport};
use crate::system::PreprocessingMode;

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Iterations to simulate.
    pub iterations: u32,
    /// Global batch size.
    pub global_batch: u32,
    /// Data-stream seed.
    pub seed: u64,
    /// Reordering passes (§5).
    pub reorder: ReorderMode,
    /// Where preprocessing runs.
    pub preprocessing: PreprocessingMode,
    /// Pipeline schedule (DistTrain uses 1F1B; §4.2).
    pub schedule: Schedule,
    /// Whether TP communication is overlapped via StepCCL (§A.1) — true
    /// for DistTrain/DistMM*, false for the Megatron-LM baseline.
    pub stepccl: bool,
}

impl RuntimeConfig {
    /// DistTrain defaults: full reordering, disaggregated preprocessing.
    pub fn disttrain(global_batch: u32, iterations: u32) -> Self {
        RuntimeConfig {
            iterations,
            global_batch,
            seed: 42,
            reorder: ReorderMode::Full,
            preprocessing: PreprocessingMode::Disaggregated,
            schedule: Schedule::OneFOneB,
            stepccl: true,
        }
    }

    /// Monolithic (Megatron-LM) defaults: random order, colocated
    /// preprocessing sharing the trainer's CPUs.
    pub fn monolithic(global_batch: u32, iterations: u32) -> Self {
        RuntimeConfig {
            reorder: ReorderMode::None,
            preprocessing: PreprocessingMode::Colocated { workers: 8 },
            stepccl: false,
            ..Self::disttrain(global_batch, iterations)
        }
    }
}

/// The bound runtime.
pub struct Runtime<'a> {
    /// Model under training.
    pub model: &'a MultimodalLlm,
    /// Cluster description.
    pub cluster: &'a ClusterSpec,
    /// The orchestration plan being executed.
    pub plan: OrchestrationPlan,
    /// Data distribution.
    pub data: DataConfig,
    /// Knobs.
    pub cfg: RuntimeConfig,
}

/// Backward/forward cost ratio of one module's pipeline stages under the
/// freeze configuration: trainable stages run full dgrad+wgrad (2×), frozen
/// stages with a trainable module *upstream* still propagate input
/// gradients (1×), and frozen stages with nothing trainable behind them
/// skip backward entirely.
fn bwd_factor(model: &MultimodalLlm, module: ModuleKind) -> f64 {
    let f = model.freeze;
    if !f.is_frozen(module) {
        return 2.0;
    }
    let upstream_trainable = match module {
        ModuleKind::Encoder => false,
        ModuleKind::Backbone => !f.encoder,
        ModuleKind::Generator => !f.encoder || !f.backbone,
    };
    if upstream_trainable {
        1.0
    } else {
        0.0
    }
}

impl<'a> Runtime<'a> {
    /// The reorder planner this runtime configuration implies (public for
    /// drivers that step iterations manually).
    pub fn planner_for(&self, perf: &PerfModel<'_>) -> ReorderPlanner {
        let dp = self.plan.backbone.dp;
        let m = self.plan.microbatch;
        // Uniform downstream stage times for Algorithm 2's interval DP:
        // one backbone PP stage per microbatch.
        let shape = dt_model::mllm::SampleShape {
            text_tokens: self.model.seq_len,
            image_tokens: 0,
            num_images: 0,
            gen_images: 0,
            image_res: 512,
            gen_res: self.data.gen_resolution,
        };
        let stage_fwd = perf.module_fwd_time(ModuleKind::Backbone, &shape, self.plan.backbone.tp).as_secs_f64()
            * m as f64
            / self.plan.backbone.pp as f64;
        let gpu = &self.cluster.node.gpu;
        // Per-rank multimodal service rate: the encoder unit's effective
        // width is shared by all backbone DP ranks.
        let w_me = self.plan.encoder.effective_data_width().max(1) as f64;
        let secs_per_flop = (dp as f64 / w_me) / (gpu.peak_flops * gpu.max_efficiency)
            / 3.0; // multimodal_size is fwd+bwd (3× fwd); Alg 2 sizes forwards
        ReorderPlanner {
            model: self.model.clone(),
            dp,
            microbatch: m,
            inter_cfg: InterReorderConfig {
                stages: self.plan.total_stages() as usize,
                uniform_fwd: stage_fwd,
                uniform_bwd: stage_fwd * 2.0,
                stage0_bwd_factor: bwd_factor(self.model, ModuleKind::Encoder),
                vpp: 1,
            },
            secs_per_flop,
            mode: self.cfg.reorder,
        }
    }

    /// Per-rank forward time of one module for one microbatch.
    fn module_mb_fwd(
        &self,
        perf: &PerfModel<'_>,
        module: ModuleKind,
        mb: &[TrainSample],
    ) -> SimDuration {
        let plan = self.plan.module(module);
        let tp = plan.shard_tp();
        match module {
            ModuleKind::Backbone => {
                // Fixed-length sequences: per-sample time is constant.
                let per_sample = perf.module_fwd_time(module, &mb[0].shape(), tp);
                // MoE backbones pay expert-parallel all-to-alls per layer.
                let a2a = perf.moe_all_to_all_time(self.model.seq_len, plan.ep)
                    * self.model.backbone.layers as u64;
                (per_sample + a2a) * mb.len() as u64
            }
            _ => {
                // Heterogeneous: exact per-sample shapes; the unit's
                // effective width is shared by all backbone ranks, so one
                // rank sees `width / DP_lm` of its streams.
                let total: SimDuration = mb
                    .iter()
                    .map(|s| perf.module_fwd_time(module, &s.shape(), tp))
                    .sum();
                let dp_lm = self.plan.backbone.dp.max(1) as f64;
                let width = plan.effective_data_width().max(1) as f64;
                total.mul_f64(dp_lm / width)
            }
        }
    }

    /// Build the per-rank pipeline workload (public so figure harnesses
    /// can inspect raw per-stage timelines).
    pub fn build_workload_for(&self, perf: &PerfModel<'_>, microbatches: &[Microbatch]) -> Workload {
        let slices: Vec<&[TrainSample]> =
            microbatches.iter().map(|mb| mb.samples.as_slice()).collect();
        self.rank_workload(perf, &slices)
    }

    /// [`Runtime::build_workload_for`] over borrowed microbatches.
    fn rank_workload(&self, perf: &PerfModel<'_>, microbatches: &[&[TrainSample]]) -> Workload {
        let l = microbatches.len();
        let pp_me = self.plan.encoder.pp as usize;
        let pp_lm = self.plan.backbone.pp as usize;
        let pp_mg = self.plan.generator.pp as usize;
        let stages = pp_me + pp_lm + pp_mg;
        let mut fwd = vec![vec![SimDuration::ZERO; l]; stages];
        let mut bwd = vec![vec![SimDuration::ZERO; l]; stages];

        for (i, mb) in microbatches.iter().enumerate() {
            let enc = self.module_mb_fwd(perf, ModuleKind::Encoder, mb);
            let bb = self.module_mb_fwd(perf, ModuleKind::Backbone, mb);
            let gen = self.module_mb_fwd(perf, ModuleKind::Generator, mb);
            let fe = bwd_factor(self.model, ModuleKind::Encoder);
            let fb = bwd_factor(self.model, ModuleKind::Backbone);
            let fg = bwd_factor(self.model, ModuleKind::Generator);
            for s in 0..pp_me {
                fwd[s][i] = enc / pp_me as u64;
                bwd[s][i] = (enc / pp_me as u64).mul_f64(fe);
            }
            for s in 0..pp_lm {
                fwd[pp_me + s][i] = bb / pp_lm as u64;
                bwd[pp_me + s][i] = (bb / pp_lm as u64).mul_f64(fb);
            }
            for s in 0..pp_mg {
                fwd[pp_me + pp_lm + s][i] = gen / pp_mg as u64;
                bwd[pp_me + pp_lm + s][i] = (gen / pp_mg as u64).mul_f64(fg);
            }
        }
        Workload { fwd, bwd }
    }

    /// Build the per-boundary communication-hop vector (public for the
    /// same reason as [`Runtime::build_workload_for`]).
    pub fn build_comm_for(&self, coll: &CollectiveCost) -> Vec<SimDuration> {
        let pp_me = self.plan.encoder.pp as usize;
        let pp_lm = self.plan.backbone.pp as usize;
        let pp_mg = self.plan.generator.pp as usize;
        let stages = pp_me + pp_lm + pp_mg;
        let m = self.plan.microbatch as u64;
        // Boundary tensor of one microbatch at the backbone interface.
        let boundary = self.model.backbone.boundary_activation_bytes(self.model.seq_len) * m;
        let mut comm = Vec::with_capacity(stages - 1);
        for s in 0..stages - 1 {
            let crossing_enc_bb = s + 1 == pp_me;
            let crossing_bb_gen = s + 1 == pp_me + pp_lm;
            if crossing_enc_bb {
                let link = BrokerLink::new(
                    self.plan.encoder.effective_data_width(),
                    self.plan.backbone.dp,
                );
                comm.push(link.hop_time(coll, boundary));
            } else if crossing_bb_gen {
                let link = BrokerLink::new(
                    self.plan.backbone.dp,
                    self.plan.generator.effective_data_width(),
                );
                comm.push(link.hop_time(coll, boundary));
            } else {
                comm.push(coll.p2p(boundary));
            }
        }
        comm
    }

    fn preprocess_stall(&self, rank_samples: &[&TrainSample], tokens_bytes: u64) -> SimDuration {
        match self.cfg.preprocessing {
            PreprocessingMode::Colocated { workers } => {
                // Monolithic: decoding blocks the trainer (§2.3).
                PreprocessCostModel::default().batch_time(rank_samples.iter().copied(), workers)
            }
            PreprocessingMode::Disaggregated => {
                // Only the RPC receive of the prefetched batch remains:
                // token bytes over the node's NIC share plus a fixed RPC
                // round trip (§5.1: "reduces to milliseconds").
                let bw = self.cluster.node.per_gpu_internode_bw();
                SimDuration::from_secs_f64(tokens_bytes as f64 / bw) + SimDuration::from_millis(2)
            }
        }
    }

    /// Per-pipeline-stage module label ("encoder"/"llm"/"generator") under
    /// this plan's PP splits — the `module` dimension of the trace and of
    /// the bench report's time breakdown.
    pub fn stage_modules(&self) -> Vec<String> {
        let mut v = vec!["encoder".to_string(); self.plan.encoder.pp as usize];
        v.extend(vec!["llm".to_string(); self.plan.backbone.pp as usize]);
        v.extend(vec!["generator".to_string(); self.plan.generator.pp as usize]);
        v
    }

    /// One iteration over an already-drawn global batch: reorder it with
    /// [`Runtime::planner_for`]'s planner, then simulate it. [`Runtime::run`]
    /// with one iteration is exactly this over the stream's first batch, so
    /// callers that trial many plans on the same batch draw it once.
    pub(crate) fn run_batch(&self, samples: Vec<TrainSample>) -> IterationReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = self.perf_model(&coll);
        let batch = GlobalBatch::new(self.planner_for(&perf).reorder(samples));
        self.simulate_iteration(&perf, &batch)
    }

    /// The reordered global batch of every iteration, drawn from one
    /// sequential stream: [`IterationBatches::get`]`(i)` is the batch
    /// [`Runtime::run`] trains on at iteration `i`.
    pub fn batches(&self, perf: &PerfModel<'_>) -> IterationBatches {
        let start = SyntheticLaion::new(self.data.clone(), self.cfg.seed);
        IterationBatches {
            gen: start.clone(),
            start,
            next: 0,
            size: self.cfg.global_batch as usize,
            planner: self.planner_for(perf),
        }
    }

    /// Simulate one iteration over `batch` (already reordered).
    pub fn simulate_iteration(&self, perf: &PerfModel<'_>, batch: &GlobalBatch) -> IterationReport {
        self.simulate_iteration_traced(perf, batch, &mut TraceRecorder::disabled())
    }

    /// [`Runtime::simulate_iteration`] with span emission: one Chrome-trace
    /// process per DP rank (stage threads from
    /// [`dt_pipeline::record_pipeline_trace`], padded to the slowest rank's
    /// makespan so every rank tiles the same window), plus a *runtime*
    /// thread (`tid` = stage count) carrying the gradient-sync span and the
    /// rank's preprocessing-stall span. Costs nothing when `rec` is
    /// disabled.
    pub fn simulate_iteration_traced(
        &self,
        perf: &PerfModel<'_>,
        batch: &GlobalBatch,
        rec: &mut TraceRecorder,
    ) -> IterationReport {
        self.simulate_iteration_telemetry(perf, batch, rec, &Telemetry::disabled())
    }

    /// [`Runtime::simulate_iteration_traced`] plus registry metrics: when
    /// `tel` is enabled, every rank's executed pipeline feeds the
    /// per-stage compute/comm/bubble histograms via
    /// [`dt_pipeline::record_pipeline_metrics`]. The iteration-level
    /// runtime families are *not* recorded here — drivers (plain runs,
    /// elastic runs) call [`record_iteration_metrics`] on the
    /// reports they actually commit, which keeps crash-discarded attempts
    /// out of the committed aggregates while still letting the driver
    /// sample them into the anomaly series.
    pub fn simulate_iteration_telemetry(
        &self,
        perf: &PerfModel<'_>,
        batch: &GlobalBatch,
        rec: &mut TraceRecorder,
        tel: &Telemetry,
    ) -> IterationReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let dp = self.plan.backbone.dp;
        let per_rank = batch.split_slices(dp, self.plan.microbatch);
        let comm = self.build_comm_for(&coll);
        let spec = PipelineSpec { schedule: self.cfg.schedule, comm };

        let mut pipeline_time = SimDuration::ZERO;
        let mut bubble_sum = 0.0;
        let mut stall = SimDuration::ZERO;
        let mut results = Vec::new();
        let mut stalls = Vec::new();
        for rank_mbs in &per_rank {
            let workload = self.rank_workload(perf, rank_mbs);
            let result = simulate(&spec, &workload);
            pipeline_time = pipeline_time.max(result.makespan);
            bubble_sum += result.mean_bubble_fraction();
            let rank_samples: Vec<&TrainSample> =
                rank_mbs.iter().flat_map(|mb| mb.iter()).collect();
            let token_bytes: u64 = rank_samples.iter().map(|s| 3 * s.total_pixels()).sum();
            let rank_stall = self.preprocess_stall(&rank_samples, token_bytes);
            stall = stall.max(rank_stall);
            if rec.is_enabled() || tel.is_enabled() {
                results.push(result);
                stalls.push(rank_stall);
            }
        }

        let grad_sync = ModuleKind::ALL
            .iter()
            .map(|&k| {
                let p = self.plan.module(k);
                let (tp, dp_eff) = if p.replicate_in_tp_group {
                    (1, p.dp * p.tp)
                } else {
                    (p.tp, p.dp)
                };
                perf.grad_sync_time(k, dp_eff, tp, p.pp)
            })
            .fold(SimDuration::ZERO, SimDuration::max);

        if rec.is_enabled() {
            let modules = self.stage_modules();
            let runtime_tid = modules.len() as u64;
            for (rank, result) in results.iter().enumerate() {
                let opts = PipelineTraceOpts {
                    pid: rank as u64,
                    pad_to: Some(pipeline_time),
                    stage_modules: modules.clone(),
                };
                record_pipeline_trace(rec, result, &spec.comm, &opts);
                let sync_start = SimTime::ZERO + pipeline_time;
                if !grad_sync.is_zero() {
                    rec.record(TraceSpan::new(
                        "grad_sync".to_string(),
                        cat::GRAD_SYNC,
                        rank as u64,
                        runtime_tid,
                        sync_start,
                        grad_sync,
                    ));
                }
                if !stalls[rank].is_zero() {
                    rec.record(TraceSpan::new(
                        "preprocess_stall".to_string(),
                        cat::STALL,
                        rank as u64,
                        runtime_tid,
                        sync_start + grad_sync,
                        stalls[rank],
                    ));
                }
            }
        }

        if tel.is_enabled() {
            let modules = self.stage_modules();
            for result in &results {
                record_pipeline_metrics(tel, result, &spec.comm, &modules);
            }
        }

        let model_flops: f64 = batch
            .samples
            .iter()
            .map(|s| {
                ModuleKind::ALL
                    .iter()
                    .map(|&k| module_flops_train(self.model, k, s))
                    .sum::<f64>()
            })
            .sum();
        let tokens: u64 = batch.samples.iter().map(|s| s.seq_len()).sum();

        IterationReport {
            iter_time: pipeline_time + grad_sync + stall,
            pipeline_time,
            grad_sync,
            preprocess_stall: stall,
            model_flops,
            bubble_fraction: bubble_sum / per_rank.len().max(1) as f64,
            gpus: self.plan.total_gpus(),
            samples: batch.len() as u32,
            tokens,
        }
    }

    /// The cost oracle this runtime configuration implies.
    pub fn perf_model<'b>(&self, coll: &'b CollectiveCost) -> PerfModel<'b>
    where
        'a: 'b,
    {
        let perf = PerfModel::new(self.model, &self.cluster.node.gpu, coll);
        if self.cfg.stepccl {
            perf.with_stepccl()
        } else {
            perf
        }
    }

    /// Run the configured number of iterations.
    pub fn run(&self) -> TrainingReport {
        self.run_traced(&mut TraceRecorder::disabled())
    }

    /// [`Runtime::run`] with span emission. Iterations are laid out
    /// back-to-back on the trace timeline (the recorder origin advances by
    /// each iteration's `iter_time`), and every iteration additionally gets
    /// one umbrella span on a dedicated process (`pid` = the DP world size)
    /// so trace viewers show the iteration boundaries.
    pub fn run_traced(&self, rec: &mut TraceRecorder) -> TrainingReport {
        self.run_telemetry(rec, &Telemetry::disabled())
    }

    /// [`Runtime::run_traced`] plus registry metrics: per-stage pipeline
    /// histograms from every rank's executed schedule, and the runtime
    /// iteration families (via [`record_iteration_metrics`]) sampled on
    /// the simulated clock as each iteration commits.
    pub fn run_telemetry(&self, rec: &mut TraceRecorder, tel: &Telemetry) -> TrainingReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = self.perf_model(&coll);
        let mut batches = self.batches(&perf);
        let mut iterations = Vec::with_capacity(self.cfg.iterations as usize);
        let mut now = SimTime::ZERO;
        let peak = self.cluster.node.gpu.peak_flops;
        for i in 0..self.cfg.iterations {
            let report = self.simulate_iteration_telemetry(&perf, &batches.get(i), rec, tel);
            if rec.is_enabled() {
                rec.record(TraceSpan::new(
                    format!("iteration {i}"),
                    cat::ITERATION,
                    self.plan.backbone.dp as u64,
                    0,
                    SimTime::ZERO,
                    report.iter_time,
                ));
                rec.set_origin(rec.origin() + report.iter_time);
            }
            now += report.iter_time;
            let observed = (
                report.iter_time.as_secs_f64(),
                report.mfu(peak),
                report.preprocess_stall.as_secs_f64(),
            );
            record_iteration_metrics(tel, now, &report, peak, observed);
            iterations.push(report);
        }
        TrainingReport { iterations, peak_flops_per_gpu: self.cluster.node.gpu.peak_flops }
    }
}

/// The reordered global batch of each iteration, from
/// [`Runtime::batches`]. Reading iterations in order costs one draw each;
/// asking for an earlier iteration (a rollback) re-seeks the stream from
/// its start.
#[derive(Debug)]
pub struct IterationBatches {
    /// The stream at iteration 0, for re-seeking.
    start: SyntheticLaion,
    gen: SyntheticLaion,
    /// The iteration whose batch `gen` draws next.
    next: u32,
    size: usize,
    planner: ReorderPlanner,
}

impl IterationBatches {
    /// The batch of iteration `iteration` (0-based), reordered.
    pub fn get(&mut self, iteration: u32) -> GlobalBatch {
        if iteration < self.next {
            self.gen = self.start.clone();
            self.next = 0;
        }
        for _ in self.next..iteration {
            let _ = self.gen.take(self.size);
        }
        self.next = iteration + 1;
        GlobalBatch::new(self.planner.reorder(self.gen.take(self.size)))
    }
}

/// Record one committed iteration into the runtime metric families: the
/// iter-time/grad-sync/stall/pipeline histograms, the iteration/sample/
/// token counters and the MFU gauge from `report`, and the three
/// anomaly-detector series from `observed` — the iteration's `(wall
/// seconds, MFU, stall seconds)` as the job saw them — sampled at
/// simulated time `at` (the instant the iteration finished). A plain run
/// observes exactly its report.
///
/// Split out of the runtime so the elastic driver — which steps iterations
/// manually, discards crashed attempts, and may pace or stall an
/// iteration beyond its report — records exactly what it commits and what
/// its healer observes. A disabled `tel` makes this free.
pub fn record_iteration_metrics(
    tel: &Telemetry,
    at: SimTime,
    report: &IterationReport,
    peak_flops_per_gpu: f64,
    observed: (f64, f64, f64),
) {
    tel.with(|r| {
        let mfu = report.mfu(peak_flops_per_gpu);
        r.histogram(names::RUNTIME_ITER_TIME_SECONDS, &[]).observe(report.iter_time.as_secs_f64());
        r.histogram(names::RUNTIME_GRAD_SYNC_SECONDS, &[]).observe(report.grad_sync.as_secs_f64());
        r.histogram(names::RUNTIME_PREPROCESS_STALL_SECONDS, &[])
            .observe(report.preprocess_stall.as_secs_f64());
        r.histogram(names::RUNTIME_PIPELINE_SECONDS, &[]).observe(report.pipeline_time.as_secs_f64());
        r.gauge(names::RUNTIME_MFU, &[]).set(mfu);
        r.counter(names::RUNTIME_ITERATIONS_TOTAL, &[]).inc();
        r.counter(names::RUNTIME_SAMPLES_TOTAL, &[]).add(report.samples as u64);
        r.counter(names::RUNTIME_TOKENS_TOTAL, &[]).add(report.tokens);
        let (iter_secs, observed_mfu, stall_secs) = observed;
        r.series(names::SERIES_ITER_TIME, &[]).sample(at, iter_secs);
        r.series(names::SERIES_MFU, &[]).sample(at, observed_mfu);
        r.series(names::SERIES_STALL, &[]).sample(at, stall_secs);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_model::{FreezeConfig, MllmPreset};
    use dt_parallel::ModulePlan;

    fn bound<'a>(
        model: &'a MultimodalLlm,
        cluster: &'a ClusterSpec,
        cfg: RuntimeConfig,
    ) -> Runtime<'a> {
        let plan = OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 8, 2),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        };
        Runtime {
            model,
            cluster,
            plan,
            data: DataConfig::evaluation(model.gen_resolution),
            cfg,
        }
    }

    fn runtime(model: &MultimodalLlm, cluster: &ClusterSpec, cfg: RuntimeConfig) -> TrainingReport {
        bound(model, cluster, cfg).run()
    }

    #[test]
    fn mfu_lands_in_a_physical_band() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let report = runtime(&model, &cluster, RuntimeConfig::disttrain(64, 2));
        let mfu = report.mfu();
        assert!((0.05..0.70).contains(&mfu), "MFU {mfu:.3} is not physical");
    }

    #[test]
    fn reordering_does_not_slow_training() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let mut base_cfg = RuntimeConfig::disttrain(64, 3);
        base_cfg.reorder = ReorderMode::None;
        let base = runtime(&model, &cluster, base_cfg);
        let full = runtime(&model, &cluster, RuntimeConfig::disttrain(64, 3));
        assert!(
            full.mean_iter_secs() <= base.mean_iter_secs() * 1.02,
            "reordered {:.3}s vs random {:.3}s",
            full.mean_iter_secs(),
            base.mean_iter_secs()
        );
    }

    #[test]
    fn colocated_preprocessing_inflates_iterations() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let dis = runtime(&model, &cluster, RuntimeConfig::disttrain(64, 2));
        let mut cfg = RuntimeConfig::disttrain(64, 2);
        cfg.preprocessing = PreprocessingMode::Colocated { workers: 8 };
        let col = runtime(&model, &cluster, cfg);
        assert!(col.mean_iter_secs() > dis.mean_iter_secs());
        let dis_stall = dis.iterations[0].preprocess_stall;
        let col_stall = col.iterations[0].preprocess_stall;
        assert!(
            col_stall.as_secs_f64() > 10.0 * dis_stall.as_secs_f64(),
            "colocated stall {col_stall} vs disaggregated {dis_stall}"
        );
    }

    #[test]
    fn colocated_stall_is_the_slowest_ranks_decode_time() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let rt = bound(&model, &cluster, RuntimeConfig::monolithic(64, 2));
        assert_eq!(rt.cfg.preprocessing, PreprocessingMode::Colocated { workers: 8 });
        let report = rt.run();
        let coll = CollectiveCost::new(cluster.clone());
        let mut batches = rt.batches(&rt.perf_model(&coll));
        let cost = PreprocessCostModel::default();
        for (i, it) in (0u32..).zip(&report.iterations) {
            let batch = batches.get(i);
            let slowest = batch
                .split_slices(rt.plan.backbone.dp, rt.plan.microbatch)
                .iter()
                .map(|rank| cost.batch_time(rank.iter().flat_map(|mb| mb.iter()), 8))
                .max()
                .expect("at least one DP rank");
            assert_eq!(it.preprocess_stall, slowest, "iteration {i}");
        }
    }

    #[test]
    fn frozen_training_is_faster_than_full() {
        let cluster = ClusterSpec::production(20);
        let full_model = MllmPreset::Mllm9B.build();
        let full = runtime(&full_model, &cluster, RuntimeConfig::disttrain(64, 2));
        let frozen_model = MultimodalLlm::preset(MllmPreset::Mllm9B, FreezeConfig::all_frozen());
        let frozen = runtime(&frozen_model, &cluster, RuntimeConfig::disttrain(64, 2));
        assert!(frozen.mean_iter_secs() < full.mean_iter_secs());
    }

    #[test]
    fn runtime_is_deterministic() {
        let model = MllmPreset::Mllm15B.build();
        let cluster = ClusterSpec::production(20);
        let a = runtime(&model, &cluster, RuntimeConfig::disttrain(32, 2));
        let b = runtime(&model, &cluster, RuntimeConfig::disttrain(32, 2));
        assert_eq!(a.mean_iter_secs(), b.mean_iter_secs());
        assert_eq!(a.mfu(), b.mfu());
    }

    #[test]
    fn moe_backbone_trains_with_expert_parallelism() {
        // §4.1: EP slots into the backbone unit; the runtime charges the
        // per-layer all-to-alls, so EP > 1 is slower per step than an
        // (identically shaped) EP=1 run in pure time terms — EP is bought
        // for its memory sharding, not speed.
        let mut model = MllmPreset::Mllm9B.build();
        model.backbone = dt_model::llama::llama3_7b_moe_8x();
        let cluster = ClusterSpec::production(20);
        let run_with_ep = |ep: u32| {
            let plan = OrchestrationPlan {
                encoder: ModulePlan::new(1, 8, 1),
                backbone: ModulePlan::new(8, 8, 2).with_sp().with_ep(ep),
                generator: ModulePlan::new(1, 8, 1),
                microbatch: 1,
            };
            Runtime {
                model: &model,
                cluster: &cluster,
                plan,
                data: DataConfig::evaluation(512),
                cfg: RuntimeConfig::disttrain(32, 1),
            }
            .run()
        };
        let ep1 = run_with_ep(1);
        let ep8 = run_with_ep(8);
        assert!(ep8.mean_iter_secs() > ep1.mean_iter_secs(), "EP must pay all-to-all time");
        assert!(
            ep8.mean_iter_secs() < ep1.mean_iter_secs() * 1.5,
            "all-to-all must not dominate: {:.2}s vs {:.2}s",
            ep8.mean_iter_secs(),
            ep1.mean_iter_secs()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_tiles_iteration_time() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let plan = OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 8, 2),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        };
        let rt = Runtime {
            model: &model,
            cluster: &cluster,
            plan,
            data: DataConfig::evaluation(model.gen_resolution),
            cfg: RuntimeConfig::disttrain(32, 2),
        };
        let mut rec = TraceRecorder::enabled();
        let traced = rt.run_traced(&mut rec);
        let plain = rt.run();
        assert_eq!(traced.mean_iter_secs(), plain.mean_iter_secs(), "tracing must not perturb results");

        rec.validate_nesting().expect("spans disjoint per track");
        let dp = rt.plan.backbone.dp as u64;
        let stages = rt.stage_modules().len() as u64;
        // Stage tracks tile exactly the summed pipeline windows, on every
        // rank — the trace↔IterationReport consistency contract.
        let total_pipeline: SimDuration = traced.iterations.iter().map(|i| i.pipeline_time).sum();
        for rank in 0..dp {
            for tid in 0..stages {
                assert_eq!(
                    rec.track_total(rank, tid, None),
                    total_pipeline,
                    "rank {rank} stage {tid} must tile the pipeline windows"
                );
            }
        }
        // Iteration umbrella spans sum to the end-to-end training time.
        let total_iter: SimDuration = traced.iterations.iter().map(|i| i.iter_time).sum();
        assert_eq!(rec.category_total(cat::ITERATION), total_iter);
        // Gradient sync is recorded once per rank per iteration.
        let total_sync: SimDuration = traced.iterations.iter().map(|i| i.grad_sync).sum();
        assert_eq!(rec.category_total(cat::GRAD_SYNC), total_sync * dp);
        // Per-rank stall never exceeds the (max-over-ranks) reported stall.
        let total_stall: SimDuration =
            traced.iterations.iter().map(|i| i.preprocess_stall).sum();
        let max_stall_track = (0..dp)
            .map(|r| rec.track_total(r, stages, Some(cat::STALL)))
            .max()
            .unwrap();
        assert!(max_stall_track <= total_stall);
        assert!(!max_stall_track.is_zero(), "disaggregated RPC stall is small but nonzero");
    }

    #[test]
    fn stage_modules_follow_the_pp_split() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let rt = Runtime {
            model: &model,
            cluster: &cluster,
            plan: OrchestrationPlan {
                encoder: ModulePlan::new(1, 8, 2),
                backbone: ModulePlan::new(8, 8, 3),
                generator: ModulePlan::new(1, 8, 1),
                microbatch: 1,
            },
            data: DataConfig::evaluation(model.gen_resolution),
            cfg: RuntimeConfig::disttrain(32, 1),
        };
        assert_eq!(
            rt.stage_modules(),
            ["encoder", "encoder", "llm", "llm", "llm", "generator"]
        );
    }

    #[test]
    fn bwd_factor_implements_freeze_semantics() {
        let mut m = MllmPreset::Mllm9B.build();
        assert_eq!(bwd_factor(&m, ModuleKind::Backbone), 2.0);
        m.freeze = FreezeConfig::encoder_only();
        // Backbone frozen but encoder trains → dgrad must flow (1×).
        assert_eq!(bwd_factor(&m, ModuleKind::Backbone), 1.0);
        assert_eq!(bwd_factor(&m, ModuleKind::Generator), 1.0);
        m.freeze = FreezeConfig::generator_only();
        // Nothing upstream of the generator trains → encoder/backbone
        // backwards vanish entirely.
        assert_eq!(bwd_factor(&m, ModuleKind::Encoder), 0.0);
        assert_eq!(bwd_factor(&m, ModuleKind::Backbone), 0.0);
        assert_eq!(bwd_factor(&m, ModuleKind::Generator), 2.0);
    }
}
