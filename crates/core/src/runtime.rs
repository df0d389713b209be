//! The training runtime: simulated iterations over the real data path.
//!
//! One iteration (Figure 8, *DistTrain runtime*):
//!
//! 1. draw a global batch from the synthetic LAION stream;
//! 2. reorder it (§5: Algorithm 1 across DP groups, Algorithm 2 within
//!    each rank) — or not, for the Megatron baseline;
//! 3. split into per-rank microbatch streams;
//! 4. price each rank's microbatches, one pipeline column each, over the
//!    multi-unit pipeline (encoder stages → broker → backbone stages →
//!    broker → generator stages): exact per-stage times from the task's
//!    cost oracle, under plan constants read once per iteration and
//!    per-sample times priced once per distinct key;
//! 5. push each column straight into one reused `dt_pipeline::Engine`,
//!    the 1F1B engine Algorithm 2 probes, reset per rank; the slowest
//!    rank gates the iteration (that *is* the intra-microbatch
//!    straggler);
//! 6. add gradient synchronization and the preprocessing stall of the
//!    configured feeding mode;
//! 7. report iteration time, MFU, and throughput.

use dt_cluster::{ClusterSpec, CollectiveCost};
use dt_data::cost::{CostRows, LastPriced, PreprocessCostModel};
use dt_data::{DataConfig, GlobalBatch, Microbatch, SyntheticLaion, TrainSample};
use dt_model::mllm::SampleShape;
use dt_model::{ModuleKind, MultimodalLlm};
use dt_orchestrator::PerfModel;
use dt_parallel::{BrokerLink, OrchestrationPlan};
use dt_pipeline::record_pipeline_metrics;
use dt_pipeline::{
    record_pipeline_trace, Engine, PipelineSpec, PipelineTraceOpts, Schedule, Workload,
};
use dt_reorder::{InterReorderConfig, ReorderMode, ReorderPlanner};
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

/// Prices microbatches into pipeline columns, one `(forward, backward)`
/// pair per stage, under one plan. [`Runtime::simulate_rows`] pushes each
/// column straight into its engine and [`Runtime::build_workload_for`]
/// collects the same columns, so the two share this one pricing.
/// At its fixed TP a sample's per-module time reads only a few shape
/// fields, so each is priced once per distinct key and then copied.
struct Pricer<'p, 'c> {
    perf: &'p PerfModel<'c>,
    /// Per module, in [`ModuleKind::ALL`] order: pipeline stages, TP size
    /// and [`bwd_factor`].
    pp: [usize; 3],
    tp: [u32; 3],
    bwd: [f64; 3],
    /// The multimodal units' effective width is shared by all backbone
    /// ranks, so one rank sees `DP_lm / width` of their streams.
    share: [f64; 3],
    /// MoE backbones pay expert-parallel all-to-alls per layer.
    a2a: SimDuration,
    /// Packed sequences share one length: the backbone's per-sample time,
    /// priced once per length.
    per_sample_bb: LastPriced<u64, SimDuration>,
    /// Per image count, keyed by `(image_res, image_tokens)`; per target
    /// count, keyed by `gen_res`.
    per_sample_enc: LastPriced<(u32, u64), SimDuration>,
    per_sample_gen: LastPriced<u32, SimDuration>,
}

impl<'p, 'c> Pricer<'p, 'c> {
    fn new(rt: &Runtime<'_>, perf: &'p PerfModel<'c>) -> Self {
        let plan = &rt.plan;
        let dp_lm = plan.backbone.dp.max(1) as f64;
        Pricer {
            perf,
            pp: ModuleKind::ALL.map(|k| plan.module(k).pp as usize),
            tp: ModuleKind::ALL.map(|k| plan.module(k).shard_tp()),
            bwd: ModuleKind::ALL.map(|k| bwd_factor(rt.model, k)),
            share: ModuleKind::ALL
                .map(|k| dp_lm / plan.module(k).effective_data_width().max(1) as f64),
            a2a: perf.moe_all_to_all_time(rt.model.seq_len, plan.backbone.ep)
                * rt.model.backbone.layers as u64,
            per_sample_bb: LastPriced::default(),
            per_sample_enc: LastPriced::default(),
            per_sample_gen: LastPriced::default(),
        }
    }

    /// The column of one microbatch, from its samples' shapes: each
    /// module's time split evenly over its stages.
    fn column(
        &mut self,
        mb: impl IntoIterator<Item = SampleShape>,
    ) -> impl Iterator<Item = (SimDuration, SimDuration)> {
        let [enc_tp, bb_tp, gen_tp] = self.tp;
        let perf = self.perf;
        // Heterogeneous: exact per-sample shapes.
        let (mut enc, mut gen) = (SimDuration::ZERO, SimDuration::ZERO);
        let (mut first, mut samples) = (None, 0u64);
        for shape in mb {
            enc += self.per_sample_enc.get_or_price(
                shape.num_images as usize,
                (shape.image_res, shape.image_tokens),
                || perf.module_fwd_time(ModuleKind::Encoder, &shape, enc_tp),
            );
            gen +=
                self.per_sample_gen
                    .get_or_price(shape.gen_images as usize, shape.gen_res, || {
                        perf.module_fwd_time(ModuleKind::Generator, &shape, gen_tp)
                    });
            first.get_or_insert(shape);
            samples += 1;
        }
        // Fixed-length sequences: per-sample time is constant.
        let bb = first.map_or(SimDuration::ZERO, |shape| {
            let per_sample = self.per_sample_bb.get_or_price(0, shape.seq_len(), || {
                perf.module_fwd_time(ModuleKind::Backbone, &shape, bb_tp)
            });
            (per_sample + self.a2a) * samples
        });
        let times = [enc.mul_f64(self.share[0]), bb, gen.mul_f64(self.share[2])];
        let stages = |k: usize| {
            let fwd = times[k] / self.pp[k] as u64;
            std::iter::repeat_n((fwd, fwd.mul_f64(self.bwd[k])), self.pp[k])
        };
        stages(0).chain(stages(1)).chain(stages(2))
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
        let stage_fwd = perf
            .module_fwd_time(ModuleKind::Backbone, &shape, self.plan.backbone.tp)
            .as_secs_f64()
            * m as f64
            / self.plan.backbone.pp as f64;
        let gpu = &self.cluster.node.gpu;
        // Per-rank multimodal service rate: the encoder unit's effective
        // width is shared by all backbone DP ranks.
        let w_me = self.plan.encoder.effective_data_width().max(1) as f64;
        let secs_per_flop = (dp as f64 / w_me) / (gpu.peak_flops * gpu.max_efficiency) / 3.0; // multimodal_size is fwd+bwd (3× fwd); Alg 2 sizes forwards
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

    /// Build the per-rank pipeline workload (public so figure harnesses
    /// can inspect raw per-stage timelines).
    pub fn build_workload_for(
        &self,
        perf: &PerfModel<'_>,
        microbatches: &[Microbatch],
    ) -> Workload {
        self.rank_workload(
            perf,
            microbatches
                .iter()
                .map(|mb| mb.samples.iter().map(TrainSample::shape)),
        )
    }

    /// One rank's pipeline workload, from the shapes of each microbatch's
    /// samples: the columns [`Runtime::simulate_rows`] pushes, collected.
    fn rank_workload<M>(&self, perf: &PerfModel<'_>, microbatches: M) -> Workload
    where
        M: ExactSizeIterator,
        M::Item: IntoIterator<Item = SampleShape>,
    {
        let mut pricer = Pricer::new(self, perf);
        let stages = pricer.pp.iter().sum();
        let l = microbatches.len();
        let lanes = || {
            (0..stages)
                .map(|_| Vec::with_capacity(l))
                .collect::<Vec<_>>()
        };
        let (mut fwd, mut bwd) = (lanes(), lanes());
        for mb in microbatches {
            for (s, (f, b)) in pricer.column(mb).enumerate() {
                fwd[s].push(f);
                bwd[s].push(b);
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
        let boundary = self
            .model
            .backbone
            .boundary_activation_bytes(self.model.seq_len)
            * m;
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

    /// One rank's preprocessing stall, from its samples' pixel counts.
    fn preprocess_stall(&self, pixels: impl Iterator<Item = u64>) -> SimDuration {
        match self.cfg.preprocessing {
            PreprocessingMode::Colocated { workers } => {
                // Monolithic: decoding blocks the trainer (§2.3).
                PreprocessCostModel::default().batch_time(pixels, workers)
            }
            PreprocessingMode::Disaggregated => {
                // Only the RPC receive of the prefetched batch remains:
                // token bytes over the node's NIC share plus a fixed RPC
                // round trip (§5.1: "reduces to milliseconds").
                let tokens_bytes: u64 = pixels.map(|p| 3 * p).sum();
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
        v.extend(vec![
            "generator".to_string();
            self.plan.generator.pp as usize
        ]);
        v
    }

    /// One iteration over an already-priced global batch: order it with
    /// [`Runtime::planner_for`]'s planner, then simulate it. [`Runtime::run`]
    /// with one iteration is exactly this over the stream's first batch, so
    /// callers that trial many plans on the same batch price it once.
    pub(crate) fn run_batch(&self, rows: &CostRows) -> IterationReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = self.perf_model(&coll);
        let order = self.planner_for(&perf).reorder_indices(rows);
        self.simulate_rows(
            &perf,
            rows,
            &order,
            &mut TraceRecorder::disabled(),
            &Telemetry::disabled(),
        )
    }

    /// The reordered global batch of every iteration, drawn from one
    /// sample stream: [`IterationBatches::get`]`(i)` is the batch
    /// [`Runtime::run`] trains on at iteration `i`.
    pub fn batches(&self, perf: &PerfModel<'_>) -> IterationBatches {
        IterationBatches {
            gen: SyntheticLaion::new(self.data.clone(), self.cfg.seed),
            size: u64::from(self.cfg.global_batch),
            planner: self.planner_for(perf),
        }
    }

    /// Simulate one iteration over `batch` (already reordered).
    pub fn simulate_iteration(&self, perf: &PerfModel<'_>, batch: &GlobalBatch) -> IterationReport {
        let rows = CostRows::new(self.model, &batch.samples);
        let order: Vec<usize> = (0..rows.len()).collect();
        self.simulate_rows(
            perf,
            &rows,
            &order,
            &mut TraceRecorder::disabled(),
            &Telemetry::disabled(),
        )
    }

    /// Iteration `i` of `batches`, priced in stream order and dispatched
    /// in its planner's order: the one iteration step of [`Runtime::run`]
    /// and of the elastic driver.
    ///
    /// With `rec` enabled it records one Chrome-trace process per DP rank
    /// (stage threads from [`dt_pipeline::record_pipeline_trace`], padded
    /// to the slowest rank's makespan so every rank tiles the same
    /// window), plus a *runtime* thread (`tid` = stage count) carrying the
    /// gradient-sync span and the rank's preprocessing-stall span. With
    /// `tel` enabled every rank's executed pipeline feeds the per-stage
    /// compute/comm/bubble histograms via
    /// [`dt_pipeline::record_pipeline_metrics`]. The iteration-level
    /// runtime families are *not* recorded here: drivers call
    /// [`record_iteration_metrics`] on the reports they actually commit,
    /// which keeps crash-discarded attempts out of the committed
    /// aggregates. Disabled handles cost nothing.
    pub fn step(
        &self,
        perf: &PerfModel<'_>,
        batches: &IterationBatches,
        i: u32,
        rec: &mut TraceRecorder,
        tel: &Telemetry,
    ) -> IterationReport {
        let (rows, order) = batches.priced(i);
        self.simulate_rows(perf, &rows, &order, rec, tel)
    }

    /// One iteration over a batch priced into `rows`, dispatched in
    /// `order` (position `k` trains row `order[k]`), observed as
    /// [`Runtime::step`] describes.
    fn simulate_rows(
        &self,
        perf: &PerfModel<'_>,
        rows: &CostRows,
        order: &[usize],
        rec: &mut TraceRecorder,
        tel: &Telemetry,
    ) -> IterationReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let dp = self.plan.backbone.dp.max(1) as usize;
        let m = self.plan.microbatch.max(1) as usize;
        assert!(
            order.len().is_multiple_of(dp * m),
            "global batch {} not divisible by dp {} × microbatch {}",
            order.len(),
            dp,
            m
        );
        let per_rank = (order.len() / dp).max(1);
        let comm = self.build_comm_for(&coll);
        let spec = PipelineSpec {
            schedule: self.cfg.schedule,
            comm,
        };

        let mut pipeline_time = SimDuration::ZERO;
        let mut bubble_sum = 0.0;
        let mut ranks = 0usize;
        let mut stall = SimDuration::ZERO;
        let mut results = Vec::new();
        let mut stalls = Vec::new();
        let mut pricer = Pricer::new(self, perf);
        let stages = pricer.pp.iter().sum();
        let mut engine = Engine::default();
        for rank in order.chunks(per_rank) {
            engine.reset(&spec, stages, rank.len() / m);
            for mb in rank.chunks(m) {
                engine.push(pricer.column(mb.iter().map(|&k| rows.rows[k].shape)));
            }
            pipeline_time = pipeline_time.max(engine.makespan());
            bubble_sum += engine.mean_bubble_fraction();
            ranks += 1;
            let rank_stall = self.preprocess_stall(rank.iter().map(|&k| rows.rows[k].pixels));
            stall = stall.max(rank_stall);
            if rec.is_enabled() || tel.is_enabled() {
                results.push(engine.result());
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

        let model_flops: f64 = order.iter().map(|&k| rows.model_flops(k)).sum();
        let tokens: u64 = rows.rows.iter().map(|r| r.shape.seq_len()).sum();

        IterationReport {
            iter_time: pipeline_time + grad_sync + stall,
            pipeline_time,
            grad_sync,
            preprocess_stall: stall,
            model_flops,
            bubble_fraction: bubble_sum / ranks.max(1) as f64,
            gpus: self.plan.total_gpus(),
            samples: order.len() as u32,
            tokens,
        }
    }

    /// The cost oracle this runtime configuration implies, with the
    /// encoder's and generator's per-image prices tabled for every
    /// resolution the data stream's sample shapes use, at this plan's TP.
    pub fn perf_model<'b>(&self, coll: &'b CollectiveCost) -> PerfModel<'b>
    where
        'a: 'b,
    {
        let mut perf = PerfModel::new(self.model, &self.cluster.node.gpu, coll);
        if self.cfg.stepccl {
            perf = perf.with_stepccl();
        }
        perf.with_image_prices(
            ModuleKind::Encoder,
            &self.data.shape_resolutions(),
            self.plan.encoder.shard_tp(),
        )
        .with_image_prices(
            ModuleKind::Generator,
            &[self.data.gen_resolution],
            self.plan.generator.shard_tp(),
        )
    }

    /// Run the configured number of iterations.
    pub fn run(&self) -> TrainingReport {
        self.run_telemetry(&mut TraceRecorder::disabled(), &Telemetry::disabled())
    }

    /// [`Runtime::run`], observed: each iteration is a [`Runtime::step`]
    /// on `rec` and `tel`. Iterations are laid out back-to-back on the
    /// trace timeline (the recorder origin advances by each iteration's
    /// `iter_time`), and every iteration additionally gets one umbrella
    /// span on a dedicated process (`pid` = the DP world size) so trace
    /// viewers show the iteration boundaries. The runtime iteration
    /// families (via [`record_iteration_metrics`]) are sampled on the
    /// simulated clock as each iteration commits.
    pub fn run_telemetry(&self, rec: &mut TraceRecorder, tel: &Telemetry) -> TrainingReport {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = self.perf_model(&coll);
        let batches = self.batches(&perf);
        let mut iterations = Vec::with_capacity(self.cfg.iterations as usize);
        let mut now = SimTime::ZERO;
        let peak = self.cluster.node.gpu.peak_flops;
        for i in 0..self.cfg.iterations {
            let report = self.step(&perf, &batches, i, rec, tel);
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
        TrainingReport {
            iterations,
            peak_flops_per_gpu: self.cluster.node.gpu.peak_flops,
        }
    }
}

/// The reordered global batch of each iteration, from
/// [`Runtime::batches`]. Iteration `i` trains on samples `i·size ..
/// (i+1)·size` of the stream, each drawn directly from its id, so any
/// iteration, a rollback's included, costs one batch.
#[derive(Debug)]
pub struct IterationBatches {
    gen: SyntheticLaion,
    size: u64,
    planner: ReorderPlanner,
}

impl IterationBatches {
    /// The samples of iteration `iteration`, in stream order.
    fn draw(&self, iteration: u32) -> impl Iterator<Item = TrainSample> + '_ {
        let first = u64::from(iteration) * self.size;
        (first..first + self.size).map(|id| self.gen.sample_at(id))
    }

    /// The batch of iteration `iteration` (0-based), reordered by moving
    /// its samples: the reference form of what [`Runtime::step`] trains
    /// on.
    pub fn get(&self, iteration: u32) -> GlobalBatch {
        GlobalBatch::new(self.planner.reorder(self.draw(iteration).collect()))
    }

    /// The batch of iteration `iteration` priced into cost rows, in
    /// stream order, with the order the planner dispatches them in: what
    /// [`IterationBatches::get`] returns, without moving a sample.
    fn priced(&self, iteration: u32) -> (CostRows, Vec<usize>) {
        let rows = CostRows::new(&self.planner.model, self.draw(iteration));
        let order = self.planner.reorder_indices(&rows);
        (rows, order)
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
        r.histogram(names::RUNTIME_ITER_TIME_SECONDS, &[])
            .observe(report.iter_time.as_secs_f64());
        r.histogram(names::RUNTIME_GRAD_SYNC_SECONDS, &[])
            .observe(report.grad_sync.as_secs_f64());
        r.histogram(names::RUNTIME_PREPROCESS_STALL_SECONDS, &[])
            .observe(report.preprocess_stall.as_secs_f64());
        r.histogram(names::RUNTIME_PIPELINE_SECONDS, &[])
            .observe(report.pipeline_time.as_secs_f64());
        r.gauge(names::RUNTIME_MFU, &[]).set(mfu);
        r.counter(names::RUNTIME_ITERATIONS_TOTAL, &[]).inc();
        r.counter(names::RUNTIME_SAMPLES_TOTAL, &[])
            .add(report.samples as u64);
        r.counter(names::RUNTIME_TOKENS_TOTAL, &[])
            .add(report.tokens);
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
        assert_eq!(
            rt.cfg.preprocessing,
            PreprocessingMode::Colocated { workers: 8 }
        );
        let report = rt.run();
        let coll = CollectiveCost::new(cluster.clone());
        let batches = rt.batches(&rt.perf_model(&coll));
        let cost = PreprocessCostModel::default();
        for (i, it) in (0u32..).zip(&report.iterations) {
            let batch = batches.get(i);
            let slowest = batch
                .split_slices(rt.plan.backbone.dp, rt.plan.microbatch)
                .iter()
                .map(|rank| {
                    let pixels = rank
                        .iter()
                        .flat_map(|mb| mb.iter())
                        .map(|s| s.total_pixels());
                    cost.batch_time(pixels, 8)
                })
                .max()
                .expect("at least one DP rank");
            assert_eq!(it.preprocess_stall, slowest, "iteration {i}");
        }
    }

    #[test]
    fn a_rolled_back_iteration_redraws_its_own_batch() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let rt = bound(&model, &cluster, RuntimeConfig::disttrain(64, 6));
        let coll = CollectiveCost::new(cluster.clone());
        let perf = rt.perf_model(&coll);
        let batches = rt.batches(&perf);
        let _ = batches.get(5);
        let rolled_back = batches.get(2);
        assert_eq!(rolled_back, rt.batches(&perf).get(2));
        let mut ids: Vec<u64> = rolled_back.samples.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (128..192).collect::<Vec<_>>());
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
        assert!(
            ep8.mean_iter_secs() > ep1.mean_iter_secs(),
            "EP must pay all-to-all time"
        );
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
        let traced = rt.run_telemetry(&mut rec, &Telemetry::disabled());
        let plain = rt.run();
        assert_eq!(
            traced.mean_iter_secs(),
            plain.mean_iter_secs(),
            "tracing must not perturb results"
        );

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
        let total_stall: SimDuration = traced.iterations.iter().map(|i| i.preprocess_stall).sum();
        let max_stall_track = (0..dp)
            .map(|r| rec.track_total(r, stages, Some(cat::STALL)))
            .max()
            .unwrap();
        assert!(max_stall_track <= total_stall);
        assert!(
            !max_stall_track.is_zero(),
            "disaggregated RPC stall is small but nonzero"
        );
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

    /// The per-rank workload as it was built before cost rows: every
    /// sample's `module_fwd_time` from an untabled oracle.
    fn per_shape_workload(rt: &Runtime<'_>, perf: &PerfModel<'_>, mbs: &[Microbatch]) -> Workload {
        let (pp_me, pp_lm, pp_mg) = (
            rt.plan.encoder.pp as usize,
            rt.plan.backbone.pp as usize,
            rt.plan.generator.pp as usize,
        );
        let stages = pp_me + pp_lm + pp_mg;
        let mut fwd = vec![vec![SimDuration::ZERO; mbs.len()]; stages];
        let mut bwd = fwd.clone();
        let module_time = |module, mb: &Microbatch| -> SimDuration {
            let plan = rt.plan.module(module);
            let tp = plan.shard_tp();
            if module == ModuleKind::Backbone {
                let per_sample = perf.module_fwd_time(module, &mb.samples[0].shape(), tp);
                let a2a = perf.moe_all_to_all_time(rt.model.seq_len, plan.ep)
                    * rt.model.backbone.layers as u64;
                return (per_sample + a2a) * mb.len() as u64;
            }
            let total: SimDuration = mb
                .samples
                .iter()
                .map(|s| perf.module_fwd_time(module, &s.shape(), tp))
                .sum();
            let width = plan.effective_data_width().max(1) as f64;
            total.mul_f64(rt.plan.backbone.dp.max(1) as f64 / width)
        };
        let spans = [(0, pp_me), (pp_me, pp_lm), (pp_me + pp_lm, pp_mg)];
        for (i, mb) in mbs.iter().enumerate() {
            for (module, (first, n)) in ModuleKind::ALL.into_iter().zip(spans) {
                let t = module_time(module, mb);
                for s in first..first + n {
                    fwd[s][i] = t / n as u64;
                    bwd[s][i] = (t / n as u64).mul_f64(bwd_factor(rt.model, module));
                }
            }
        }
        Workload { fwd, bwd }
    }

    /// `(hits, overwrites)` of a cache keeping the last key per slot, over
    /// `(slot, key)` lookups.
    fn slot_traffic<K: PartialEq>(lookups: impl Iterator<Item = (u32, K)>) -> (usize, usize) {
        let mut last = std::collections::HashMap::new();
        let (mut hits, mut overwrites) = (0, 0);
        for (slot, key) in lookups {
            match last.insert(slot, key) {
                Some(k) if Some(&k) == last.get(&slot) => hits += 1,
                Some(_) => overwrites += 1,
                None => {}
            }
        }
        (hits, overwrites)
    }

    /// The workloads read from a batch's cost rows (inside an iteration)
    /// and from `build_workload_for` (tabled prices) equal the per-shape
    /// `module_fwd_time` workload, for PP splits, TP-replicated units,
    /// frozen modules, Megatron's overlap setting and both data modes.
    /// Batches of 256 samples, also priced as one rank by one pricer, hit,
    /// miss and overwrite the pricer's per-count slots.
    #[test]
    fn row_built_workloads_match_per_shape_pricing() {
        let cluster = ClusterSpec::production(20);
        let plans = [
            OrchestrationPlan {
                encoder: ModulePlan::new(1, 8, 1),
                backbone: ModulePlan::new(8, 8, 2),
                generator: ModulePlan::new(1, 8, 1),
                microbatch: 1,
            },
            OrchestrationPlan {
                encoder: ModulePlan::replicated(2, 4, 2),
                backbone: ModulePlan::new(4, 4, 3),
                generator: ModulePlan::new(2, 4, 2),
                microbatch: 2,
            },
        ];
        let models = [
            MllmPreset::Mllm9B.build(),
            MultimodalLlm::preset(MllmPreset::Mllm72B, FreezeConfig::encoder_only()),
        ];
        for model in &models {
            for (plan, n) in plans.into_iter().flat_map(|p| [(p, 32), (p, 256)]) {
                for (data, cfg) in [
                    (
                        DataConfig::evaluation(model.gen_resolution),
                        RuntimeConfig::disttrain(n, 1),
                    ),
                    (
                        DataConfig::characterization(),
                        RuntimeConfig::monolithic(n, 1),
                    ),
                ] {
                    let rt = Runtime {
                        model,
                        cluster: &cluster,
                        plan,
                        data: data.clone(),
                        cfg,
                    };
                    let coll = CollectiveCost::new(cluster.clone());
                    let tabled = rt.perf_model(&coll);
                    let mut untabled = PerfModel::new(model, &cluster.node.gpu, &coll);
                    untabled.tp_overlap = tabled.tp_overlap;
                    // In the large skewed batch targets also vary in resolution.
                    let skewed = data.resolution == dt_data::ResolutionMode::Skewed;
                    let mut samples = SyntheticLaion::new(data, 5).take(n as usize);
                    if skewed && n == 256 {
                        samples
                            .iter_mut()
                            .step_by(3)
                            .for_each(|s| s.gen_resolution = 1024);
                    }
                    let batch = GlobalBatch::new(samples);
                    let rows = CostRows::new(model, &batch.samples);
                    let order: Vec<usize> = (0..rows.len()).collect();
                    let m = plan.microbatch as usize;
                    let per_rank = rows.len() / plan.backbone.dp as usize;
                    let split = batch.split(plan.backbone.dp, plan.microbatch);
                    let whole = batch.split(1, plan.microbatch);
                    let ranks = order.chunks(per_rank).chain([&order[..]]);
                    for (rank, mbs) in ranks.zip(split.iter().chain(&whole)) {
                        let reference = per_shape_workload(&rt, &untabled, mbs);
                        let from_rows = rt.rank_workload(
                            &tabled,
                            rank.chunks(m)
                                .map(|mb| mb.iter().map(|&k| rows.rows[k].shape)),
                        );
                        let called = rt.build_workload_for(&tabled, mbs);
                        let parts = |w: Workload| (w.fwd, w.bwd);
                        let reference = parts(reference);
                        assert_eq!(parts(from_rows), reference, "{} {plan:?}", model.name);
                        assert_eq!(parts(called), reference, "{} {plan:?}", model.name);
                    }
                    if skewed && n == 256 {
                        let shapes = || rows.rows.iter().map(|r| r.shape);
                        let enc = slot_traffic(
                            shapes().map(|s| (s.num_images, (s.image_res, s.image_tokens))),
                        );
                        let gen = slot_traffic(shapes().map(|s| (s.gen_images, s.gen_res)));
                        assert!(enc.0 > 0 && enc.1 > 0 && gen.0 > 0 && gen.1 > 0);
                    }
                }
            }
        }
    }

    /// One pricing: an iteration's pipeline time and bubble fraction are
    /// the max and the mean over ranks of `dt_pipeline::simulate` on
    /// `build_workload_for`'s workloads, bit for bit. Inputs: every §4
    /// trial candidate of the production MLLM-72B task, trained in full
    /// and with the encoder or the backbone frozen, so `bwd_factor` takes
    /// 0, 1 and 2 and PP splits exceed 1.
    #[test]
    fn an_iteration_prices_as_build_workload_for() {
        use crate::system::{SystemKind, TrainingTask};
        let task = TrainingTask::production(MllmPreset::Mllm72B.build());
        let plans = task
            .trial_candidates()
            .expect("production task has candidates");
        assert!(plans
            .iter()
            .any(|p| ModuleKind::ALL.iter().any(|&k| p.module(k).pp > 1)));
        let batch = GlobalBatch::new(
            SyntheticLaion::new(task.data.clone(), task.seed).take(task.global_batch as usize),
        );
        let coll = CollectiveCost::new(task.cluster.clone());
        let mut factors = Vec::new();
        for freeze in [
            FreezeConfig::none(),
            FreezeConfig {
                encoder: true,
                ..FreezeConfig::none()
            },
            FreezeConfig {
                backbone: true,
                ..FreezeConfig::none()
            },
        ] {
            let model = MultimodalLlm::preset(MllmPreset::Mllm72B, freeze);
            factors.extend(ModuleKind::ALL.map(|k| bwd_factor(&model, k)));
            for &plan in &plans {
                let rt = Runtime {
                    model: &model,
                    cluster: &task.cluster,
                    plan,
                    data: task.data.clone(),
                    cfg: task.runtime_config(SystemKind::DistTrain, 1),
                };
                let perf = rt.perf_model(&coll);
                let report = rt.simulate_iteration(&perf, &batch);
                let spec = PipelineSpec {
                    schedule: rt.cfg.schedule,
                    comm: rt.build_comm_for(&coll),
                };
                let (mut makespan, mut bubbles, mut ranks) = (SimDuration::ZERO, 0.0, 0);
                for mbs in batch.split(plan.backbone.dp, plan.microbatch) {
                    let r = dt_pipeline::simulate(&spec, &rt.build_workload_for(&perf, &mbs));
                    makespan = makespan.max(r.makespan);
                    bubbles += r.mean_bubble_fraction();
                    ranks += 1;
                }
                let what = format!("{freeze:?} {plan:?}");
                assert_eq!(report.pipeline_time, makespan, "{what}");
                let mean = bubbles / ranks as f64;
                assert_eq!(report.bubble_fraction.to_bits(), mean.to_bits(), "{what}");
            }
        }
        for factor in [0.0, 1.0, 2.0] {
            assert!(factors.contains(&factor), "bwd_factor {factor} untested");
        }
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
