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
//!    straggler). A rank whose rows repeat the previous rank's (§5 deals
//!    equal-size samples to neighbouring ranks) is neither priced nor
//!    replayed: it reuses that rank's makespan, bubble fraction and
//!    preprocessing stall;
//! 6. add gradient synchronization and the preprocessing stall of the
//!    configured feeding mode;
//! 7. report iteration time, MFU, and throughput.

use dt_cluster::{ClusterSpec, CollectiveCost};
use dt_data::cost::{CostRows, LastPriced, PreprocessCostModel};
use dt_data::{DataConfig, GlobalBatch, Microbatch, SyntheticLaion, TrainSample};
use dt_model::mllm::{Resolutions, SampleShape};
use dt_model::{ModuleKind, MultimodalLlm};
use dt_orchestrator::PerfModel;
use dt_parallel::{BrokerLink, OrchestrationPlan};
use dt_pipeline::record_pipeline_metrics;
use dt_pipeline::{
    record_pipeline_trace, Engine, PipelineResult, PipelineSpec, PipelineTraceOpts, Schedule,
    Workload,
};
use dt_reorder::{InterReorderConfig, ReorderMode, ReorderPlanner};
use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
use dt_simengine::{SimDuration, SimTime};
use dt_telemetry::{names, Telemetry};
use std::ops::ControlFlow;

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
    /// Per image count, keyed by the shape's resolutions and image tokens;
    /// per target count, keyed by `gen_res`.
    per_sample_enc: LastPriced<(Resolutions, u64), SimDuration>,
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
                shape.image_resolutions.len(),
                (shape.image_resolutions, shape.image_tokens),
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

/// One iteration's DP ranks, simulated as they arrive: the one rank loop
/// behind [`Runtime::simulate_rows`] (over a dispatch order) and
/// [`Runtime::trial`] (as the planner hands each rank over). A rank's
/// columns are priced and pushed into one reused `dt_pipeline::Engine`,
/// reset per rank, and its stall is computed from its samples' pixels;
/// the iteration keeps the slowest makespan and the largest stall.
///
/// A rank whose rows repeat the previous simulated rank's (same length
/// and, position by position, the same shape index, so an equal
/// [`SampleShape`]) reuses its makespan, bubble fraction and stall
/// without pricing, replaying or computing a stall. That is exact: the
/// pricer and the stall read only the shape (pixels are a function of
/// its resolutions), and the engine is a pure function of the spec and
/// the columns. The engine still holds that rank's result, which is this
/// one's, for the trace and the metrics. A miss costs the compare and a
/// copy of the rank's row indices.
struct Ranks<'r> {
    rt: &'r Runtime<'r>,
    rows: &'r CostRows,
    pricer: Pricer<'r, 'r>,
    spec: PipelineSpec,
    stages: usize,
    /// Samples per DP rank and per microbatch.
    per_rank: usize,
    m: usize,
    engine: Engine,
    /// The last simulated rank's rows, and its stall.
    previous: Vec<usize>,
    rank_stall: SimDuration,
    /// The slowest makespan and the largest stall so far.
    pipeline_time: SimDuration,
    stall: SimDuration,
    bubble_sum: f64,
    ranks: usize,
    /// Model FLOPs in dispatch order, summed as `f64`'s `Sum` sums them
    /// (from `-0.0`).
    model_flops: f64,
    /// Every rank's pipeline result and stall, when `keep` (the trace and
    /// the metrics read them).
    keep: bool,
    kept: Vec<(PipelineResult, SimDuration)>,
}

impl<'r> Ranks<'r> {
    fn new(rt: &'r Runtime<'r>, perf: &'r PerfModel<'r>, rows: &'r CostRows, keep: bool) -> Self {
        let coll = CollectiveCost::new(rt.cluster.clone());
        let dp = rt.plan.backbone.dp.max(1) as usize;
        let m = rt.plan.microbatch.max(1) as usize;
        assert!(
            rows.len().is_multiple_of(dp * m),
            "global batch {} not divisible by dp {} × microbatch {}",
            rows.len(),
            dp,
            m
        );
        let pricer = Pricer::new(rt, perf);
        Ranks {
            rt,
            rows,
            stages: pricer.pp.iter().sum(),
            pricer,
            spec: PipelineSpec {
                schedule: rt.cfg.schedule,
                comm: rt.build_comm_for(&coll),
            },
            per_rank: (rows.len() / dp).max(1),
            m,
            engine: Engine::default(),
            previous: Vec::new(),
            rank_stall: SimDuration::ZERO,
            pipeline_time: SimDuration::ZERO,
            stall: SimDuration::ZERO,
            bubble_sum: 0.0,
            ranks: 0,
            model_flops: -0.0,
            keep,
            kept: Vec::new(),
        }
    }

    /// Simulate the next DP rank: the rows `rank` lists, in dispatch order.
    fn push(&mut self, rank: &[usize]) {
        let rows = self.rows;
        let repeats = rank.len() == self.previous.len()
            && rank
                .iter()
                .zip(&self.previous)
                .all(|(&a, &b)| rows.rows[a].shape == rows.rows[b].shape);
        if !repeats {
            #[cfg(test)]
            tests::ENGINE_RUNS.set(tests::ENGINE_RUNS.get() + 1);
            self.engine
                .reset(&self.spec, self.stages, rank.len() / self.m);
            for mb in rank.chunks(self.m) {
                self.engine
                    .push(self.pricer.column(mb.iter().map(|&k| *rows.shape(k))));
            }
            self.rank_stall = self.rt.preprocess_stall(
                rank.iter()
                    .map(|&k| rows.shape(k).image_resolutions.pixels()),
            );
            self.previous.clear();
            self.previous.extend_from_slice(rank);
        }
        self.pipeline_time = self.pipeline_time.max(self.engine.makespan());
        self.bubble_sum += self.engine.mean_bubble_fraction();
        self.ranks += 1;
        self.stall = self.stall.max(self.rank_stall);
        self.model_flops = rank
            .iter()
            .fold(self.model_flops, |sum, &k| sum + rows.model_flops(k));
        if self.keep {
            self.kept.push((self.engine.result(), self.rank_stall));
        }
    }

    /// The iteration over the ranks pushed, plus `grad_sync`.
    fn report(&self, grad_sync: SimDuration) -> IterationReport {
        IterationReport {
            iter_time: self.pipeline_time + grad_sync + self.stall,
            pipeline_time: self.pipeline_time,
            grad_sync,
            preprocess_stall: self.stall,
            model_flops: self.model_flops,
            bubble_fraction: self.bubble_sum / self.ranks.max(1) as f64,
            gpus: self.rt.plan.total_gpus(),
            samples: self.rows.len() as u32,
            tokens: (0..self.rows.len())
                .map(|k| self.rows.shape(k).seq_len())
                .sum(),
        }
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
        let shape = SampleShape::text_only(self.model.seq_len);
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
    /// [`Runtime::step`] describes: [`Ranks`] over `order`'s DP ranks.
    fn simulate_rows(
        &self,
        perf: &PerfModel<'_>,
        rows: &CostRows,
        order: &[usize],
        rec: &mut TraceRecorder,
        tel: &Telemetry,
    ) -> IterationReport {
        let mut ranks = Ranks::new(self, perf, rows, rec.is_enabled() || tel.is_enabled());
        for rank in order.chunks(ranks.per_rank) {
            ranks.push(rank);
        }
        let grad_sync = self.grad_sync(perf);
        let pipeline_time = ranks.pipeline_time;

        if rec.is_enabled() {
            let modules = self.stage_modules();
            let runtime_tid = modules.len() as u64;
            for (rank, (result, stall)) in ranks.kept.iter().enumerate() {
                let opts = PipelineTraceOpts {
                    pid: rank as u64,
                    pad_to: Some(pipeline_time),
                    stage_modules: modules.clone(),
                };
                record_pipeline_trace(rec, result, &ranks.spec.comm, &opts);
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
                if !stall.is_zero() {
                    rec.record(TraceSpan::new(
                        "preprocess_stall".to_string(),
                        cat::STALL,
                        rank as u64,
                        runtime_tid,
                        sync_start + grad_sync,
                        *stall,
                    ));
                }
            }
        }

        if tel.is_enabled() {
            let modules = self.stage_modules();
            for (result, _) in &ranks.kept {
                record_pipeline_metrics(tel, result, &ranks.spec.comm, &modules);
            }
        }

        ranks.report(grad_sync)
    }

    /// A bounded plan trial: the one-iteration report [`Runtime::run`]
    /// gives on `batch`, or `None` as soon as the iteration is sure to
    /// take longer than `cutoff` seconds. Ranks run as the planner hands
    /// them over ([`ReorderPlanner::try_for_each_rank`]); after each, grad
    /// sync plus the slowest makespan and the largest stall so far is a
    /// lower bound on the iteration time that only grows, and the trial
    /// stops once it exceeds `cutoff` in the `f64` seconds the caller
    /// compares. A trial that runs to the end is exactly the full one.
    pub(crate) fn trial(&self, batch: &mut TrialBatch, cutoff: f64) -> Option<IterationReport> {
        let coll = CollectiveCost::new(self.cluster.clone());
        let perf = self.perf_model(&coll);
        let planner = self.planner_for(&perf);
        let grad_sync = self.grad_sync(&perf);
        let TrialBatch {
            rows,
            sizes,
            balanced,
        } = batch;
        let width = match balanced.iter().position(|(dp, _)| *dp == planner.dp) {
            Some(width) => width,
            None => {
                balanced.push((planner.dp, planner.balance(sizes)));
                balanced.len() - 1
            }
        };
        let mut ranks = Ranks::new(self, &perf, rows, false);
        let flow = planner.try_for_each_rank(sizes, balanced[width].1.as_deref(), |rank| {
            ranks.push(rank);
            let bound = ranks.pipeline_time + grad_sync + ranks.stall;
            if bound.as_secs_f64() > cutoff {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        #[cfg(test)]
        tests::TRIAL_RANKS.with_borrow_mut(|log| log.push(ranks.ranks));
        flow.is_continue().then(|| ranks.report(grad_sync))
    }

    /// The slowest module's gradient synchronization: a function of the
    /// plan alone.
    fn grad_sync(&self, perf: &PerfModel<'_>) -> SimDuration {
        ModuleKind::ALL
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
            .fold(SimDuration::ZERO, SimDuration::max)
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

/// The stream's first global batch, as every plan trial reads it
/// ([`Runtime::trial`]): priced once, sized once, and balanced by
/// Algorithm 1 once per backbone DP width.
pub(crate) struct TrialBatch {
    rows: CostRows,
    sizes: Vec<f64>,
    /// Algorithm 1's order ([`ReorderPlanner::balance`]) per DP width
    /// trialled so far.
    balanced: Vec<(u32, Option<Vec<usize>>)>,
}

impl TrialBatch {
    pub(crate) fn new(rows: CostRows) -> Self {
        TrialBatch {
            sizes: rows.multimodal_sizes(),
            rows,
            balanced: Vec::new(),
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
pub(crate) mod tests {
    use super::*;
    use crate::system::{SystemKind, TrainingTask};
    use dt_model::{FreezeConfig, MllmPreset};
    use dt_parallel::ModulePlan;
    use dt_pipeline::PipelineResult;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Ranks [`Ranks`] has priced and replayed on this thread.
        pub(super) static ENGINE_RUNS: Cell<usize> = const { Cell::new(0) };
        /// The ranks each [`Runtime::trial`] on this thread ran, in order.
        pub(crate) static TRIAL_RANKS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// `f`'s result and the ranks it priced and replayed.
    fn engine_runs<R>(f: impl FnOnce() -> R) -> (R, usize) {
        ENGINE_RUNS.set(0);
        let r = f();
        (r, ENGINE_RUNS.get())
    }

    /// Every rank of `rows` dispatched in `order`, priced, replayed and
    /// stalled afresh: its pipeline result and preprocessing stall.
    fn fresh_ranks(
        rt: &Runtime<'_>,
        perf: &PerfModel<'_>,
        rows: &CostRows,
        order: &[usize],
    ) -> Vec<(PipelineResult, SimDuration)> {
        let coll = CollectiveCost::new(rt.cluster.clone());
        let spec = PipelineSpec {
            schedule: rt.cfg.schedule,
            comm: rt.build_comm_for(&coll),
        };
        let m = rt.plan.microbatch as usize;
        let per_rank = order.len() / rt.plan.backbone.dp as usize;
        order
            .chunks(per_rank)
            .map(|rank| {
                let shapes = rank.chunks(m).map(|mb| mb.iter().map(|&k| *rows.shape(k)));
                let result = dt_pipeline::simulate(&spec, &rt.rank_workload(perf, shapes));
                let stall = rt.preprocess_stall(
                    rank.iter()
                        .map(|&k| rows.shape(k).image_resolutions.pixels()),
                );
                (result, stall)
            })
            .collect()
    }

    /// `report` is the max (pipeline time, stall) and the mean (bubble
    /// fraction) over `ranks`, bit for bit.
    fn assert_reports_ranks(report: &IterationReport, ranks: &[(PipelineResult, SimDuration)]) {
        let makespan = ranks.iter().map(|(r, _)| r.makespan).max().unwrap();
        let stall = ranks.iter().map(|&(_, s)| s).max().unwrap();
        let bubbles: f64 = ranks.iter().map(|(r, _)| r.mean_bubble_fraction()).sum();
        let mean = bubbles / ranks.len() as f64;
        assert_eq!(report.pipeline_time, makespan);
        assert_eq!(report.preprocess_stall, stall);
        assert_eq!(report.bubble_fraction.to_bits(), mean.to_bits());
    }

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
                        .map(|s| s.image_resolutions.pixels());
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
                return (per_sample + a2a) * mb.samples.len() as u64;
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
                            rank.chunks(m).map(|mb| mb.iter().map(|&k| *rows.shape(k))),
                        );
                        let called = rt.build_workload_for(&tabled, mbs);
                        let parts = |w: Workload| (w.fwd, w.bwd);
                        let reference = parts(reference);
                        assert_eq!(parts(from_rows), reference, "{} {plan:?}", model.name);
                        assert_eq!(parts(called), reference, "{} {plan:?}", model.name);
                    }
                    if skewed && n == 256 {
                        let shapes = || (0..rows.len()).map(|k| *rows.shape(k));
                        let enc = slot_traffic(shapes().map(|s| {
                            let images = s.image_resolutions;
                            (images.len() as u32, (images, s.image_tokens))
                        }));
                        let gen = slot_traffic(shapes().map(|s| (s.gen_images, s.gen_res)));
                        assert!(enc.0 > 0 && enc.1 > 0 && gen.0 > 0 && gen.1 > 0);
                    }
                }
            }
        }
    }

    /// One pricing: an iteration's pipeline time and bubble fraction are
    /// the max and the mean over ranks of `dt_pipeline::simulate` on
    /// `build_workload_for`'s workloads, and its stall the max over ranks
    /// of a fresh per-rank stall, bit for bit. Inputs: every §4
    /// trial candidate of the production MLLM-72B task, trained in full
    /// and with the encoder or the backbone frozen, so `bwd_factor` takes
    /// 0, 1 and 2 and PP splits exceed 1.
    #[test]
    fn an_iteration_prices_as_build_workload_for() {
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
                let mut stall = SimDuration::ZERO;
                for mbs in batch.split(plan.backbone.dp, plan.microbatch) {
                    let r = dt_pipeline::simulate(&spec, &rt.build_workload_for(&perf, &mbs));
                    makespan = makespan.max(r.makespan);
                    bubbles += r.mean_bubble_fraction();
                    ranks += 1;
                    let pixels = mbs
                        .iter()
                        .flat_map(|mb| &mb.samples)
                        .map(|s| s.image_resolutions.pixels());
                    stall = stall.max(rt.preprocess_stall(pixels));
                }
                let what = format!("{freeze:?} {plan:?}");
                assert_eq!(report.pipeline_time, makespan, "{what}");
                assert_eq!(report.preprocess_stall, stall, "{what}");
                let mean = bubbles / ranks as f64;
                assert_eq!(report.bubble_fraction.to_bits(), mean.to_bits(), "{what}");
            }
        }
        for factor in [0.0, 1.0, 2.0] {
            assert!(factors.contains(&factor), "bwd_factor {factor} untested");
        }
    }

    /// Ranks that repeat their predecessor run the engine once; a rank
    /// that differs from its neighbours only in one image's resolution
    /// (at an equal sequence length, with more pixels) or only in one
    /// sample's `gen_images` is priced, replayed and stalled afresh, and
    /// so is the rank after it. Both feeding modes, against fresh
    /// per-rank results.
    #[test]
    fn near_miss_ranks_are_simulated_afresh() {
        let model = MllmPreset::Mllm9B.build();
        let cluster = ClusterSpec::production(20);
        let mut colocated = RuntimeConfig::disttrain(32, 1);
        colocated.preprocessing = PreprocessingMode::Colocated { workers: 8 };
        for cfg in [RuntimeConfig::disttrain(32, 1), colocated] {
            let rt = bound(&model, &cluster, cfg);
            let coll = CollectiveCost::new(cluster.clone());
            let perf = rt.perf_model(&coll);
            // Eight ranks of the same four samples.
            let four = SyntheticLaion::new(rt.data.clone(), 3).take(4);
            let same = CostRows::new(&model, four.iter().cycle().take(32));
            let order: Vec<usize> = (0..32).collect();
            let simulate = |rows: &CostRows| {
                engine_runs(|| {
                    rt.simulate_rows(
                        &perf,
                        rows,
                        &order,
                        &mut TraceRecorder::disabled(),
                        &Telemetry::disabled(),
                    )
                })
            };
            let (base, runs) = simulate(&same);
            assert_eq!(runs, 1);
            assert_reports_ranks(&base, &fresh_ranks(&rt, &perf, &same, &order));

            // Rank 3 (rows 12..16) differs in one sample only: its image
            // 15 px wider in the sample with the most pixels (still 32
            // patches a side), or one more target.
            let near = |k: usize, edit: fn(&mut SampleShape)| {
                let mut rows = same.clone();
                let mut shape = *rows.shape(k);
                edit(&mut shape);
                rows.shapes.push(shape);
                rows.rows[k].shape = rows.shapes.len() - 1;
                rows
            };
            let k = (12..16)
                .max_by_key(|&k| same.shape(k).image_resolutions.pixels())
                .unwrap();
            let pixels = near(k, |s| s.image_resolutions[0] += 15);
            let targets = near(15, |s| s.gen_images += 1);
            for (what, rows) in [("pixels", pixels), ("gen_images", targets)] {
                let what = format!("{what} {:?}", rt.cfg.preprocessing);
                let (report, runs) = simulate(&rows);
                assert_eq!(runs, 3, "{what}");
                assert_reports_ranks(&report, &fresh_ranks(&rt, &perf, &rows, &order));
                let moved = (report.pipeline_time, report.preprocess_stall)
                    != (base.pipeline_time, base.preprocess_stall);
                assert!(moved, "{what}: the near miss must change the report");
            }
        }
    }

    /// The production task's trial-selected plan with its stream (DP 128).
    fn production_runtime(task: &TrainingTask, iterations: u32) -> Runtime<'_> {
        Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan: task
                .plan(SystemKind::DistTrain)
                .expect("the production task always has a plan"),
            data: task.data.clone(),
            cfg: task.runtime_config(SystemKind::DistTrain, iterations),
        }
    }

    /// At the production train plan the runtime prices and replays only
    /// the ranks whose stream differs from the previous rank's: 22–24 of
    /// 128 in each of the first 8 iterations.
    #[test]
    fn production_ranks_run_the_engine_once_per_distinct_stream() {
        let task = TrainingTask::production(MllmPreset::Mllm72B.build());
        let rt = production_runtime(&task, 8);
        assert_eq!(rt.plan.backbone.dp, 128);
        let coll = CollectiveCost::new(task.cluster.clone());
        let perf = rt.perf_model(&coll);
        let batches = rt.batches(&perf);
        for i in 0..rt.cfg.iterations {
            let (rows, order) = batches.priced(i);
            let key =
                |rank: &[usize]| -> Vec<_> { rank.iter().map(|&k| rows.rows[k].shape).collect() };
            let keys: Vec<_> = order.chunks(order.len() / 128).map(key).collect();
            let distinct = 1 + keys.windows(2).filter(|w| w[0] != w[1]).count();
            let (_, runs) = engine_runs(|| {
                rt.step(
                    &perf,
                    &batches,
                    i,
                    &mut TraceRecorder::disabled(),
                    &Telemetry::disabled(),
                )
            });
            assert_eq!(runs, distinct, "iteration {i}");
            assert!((22..=24).contains(&runs), "iteration {i}: {runs} of 128");
        }
    }

    /// A traced production run: with the recorder and telemetry enabled
    /// it reports what a plain run does, every rank's stage tracks carry
    /// that rank's own fresh pipeline (each stage's compute and the
    /// rank's makespan), and the metrics equal those of fresh per-rank
    /// results.
    #[test]
    fn traced_production_ranks_trace_their_own_pipelines() {
        let task = TrainingTask::production(MllmPreset::Mllm72B.build());
        let rt = production_runtime(&task, 2);
        let mut rec = TraceRecorder::enabled();
        let tel = Telemetry::enabled();
        let traced = rt.run_telemetry(&mut rec, &tel);
        let plain = rt.run();
        assert_eq!(
            format!("{:?}", traced.iterations),
            format!("{:?}", plain.iterations)
        );

        let coll = CollectiveCost::new(task.cluster.clone());
        let perf = rt.perf_model(&coll);
        let batches = rt.batches(&perf);
        let comm = rt.build_comm_for(&coll);
        let modules = rt.stage_modules();
        let stages = modules.len();
        let peak = task.cluster.node.gpu.peak_flops;
        let reference = Telemetry::enabled();
        let mut origin = SimTime::ZERO;
        for (i, report) in (0..).zip(&plain.iterations) {
            let (rows, order) = batches.priced(i);
            let ranks = fresh_ranks(&rt, &perf, &rows, &order);
            assert_reports_ranks(report, &ranks);
            let window = origin..origin + report.iter_time;
            for (pid, (result, _)) in (0u64..).zip(&ranks) {
                record_pipeline_metrics(&reference, result, &comm, &modules);
                let spans = rec
                    .spans()
                    .iter()
                    .filter(|s| s.pid == pid && (s.tid as usize) < stages)
                    .filter(|s| window.contains(&s.start) && s.cat != cat::BUBBLE);
                let mut busy = vec![SimDuration::ZERO; stages];
                let mut end = origin;
                for s in spans {
                    if s.cat != cat::COMM {
                        busy[s.tid as usize] += s.dur;
                    }
                    end = end.max(s.end());
                }
                let fresh: Vec<_> = (0..stages).map(|s| result.stage_busy(s)).collect();
                assert_eq!(busy, fresh, "iteration {i} rank {pid}");
                assert_eq!(
                    end.since(origin),
                    result.makespan,
                    "iteration {i} rank {pid}"
                );
            }
            origin += report.iter_time;
            let observed = (
                report.iter_time.as_secs_f64(),
                report.mfu(peak),
                report.preprocess_stall.as_secs_f64(),
            );
            record_iteration_metrics(&reference, origin, report, peak, observed);
        }
        assert_eq!(
            tel.snapshot().to_prometheus_text(),
            reference.snapshot().to_prometheus_text()
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
