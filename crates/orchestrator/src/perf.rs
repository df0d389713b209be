//! The performance oracle: per-module forward/backward time for one sample
//! under a given TP size.
//!
//! This is the reproduction's stand-in for running a real benchmarking
//! trial on the cluster (§3, "runs a series of benchmarking training
//! trials"). Time =
//!
//! * compute: module FLOPs ÷ TP, issued at per-layer/per-block kernel
//!   granularity so the GPU efficiency ramp penalizes over-sharding
//!   (doubling TP does *not* halve time — the §4.2 observation that equal
//!   FLOPs can yield different times under different parallelism);
//! * plus TP communication: 2 allreduces of the layer output per layer in
//!   forward, 2 in backward (Megatron linear-layer pattern), on NVLink.
//!
//! Replicated modules (TP group used as extra data parallelism) pay no TP
//! cost and no sharding speedup: per-sample time equals the TP=1 time.

use dt_cluster::{CollectiveCost, CollectiveKind, CommDomain, GpuSpec};
use dt_model::{mllm::SampleShape, ModuleKind, MultimodalLlm};
use dt_simengine::SimDuration;

/// Conv-heavy diffusion UNets reach a smaller fraction of peak than the
/// large transformer GEMMs the `GpuSpec` efficiency ramp is calibrated for
/// (mixed 3×3 convs, group norms, and odd-shaped attention typically land
/// near 45% of peak vs ~66% for Megatron-class GEMMs); the generator's
/// compute time is derated accordingly.
pub const UNET_EFFICIENCY_DERATE: f64 = 0.66 / 0.45;

/// Fraction of TP collective time StepCCL hides under computation
/// (§A.1: chunked DMA-engine transfers overlap GEMMs; Figure 22 shows the
/// residual exposed share yields 1.15–1.17× at TP=8, consistent with ~85%
/// hidden).
pub const STEPCCL_TP_OVERLAP: f64 = 0.85;

/// The per-image part of a multimodal module's forward time at one
/// (resolution, TP): what [`PerfModel::module_fwd_time`] charges each
/// image before the per-sample combine.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ImagePrice {
    /// Compute time of one image.
    compute: SimDuration,
    /// One TP allreduce of the image's activations, before overlap.
    allreduce: SimDuration,
}

/// A tabled [`ImagePrice`]: `(module, resolution, TP, price)`.
type TabledPrice = (ModuleKind, u32, u32, ImagePrice);

/// Kernel granularity of a UNet step: it launches many small kernels,
/// approximated as 4 per level per direction plus the middle.
fn generator_blocks(gen: &dt_model::unet::UNetConfig) -> u32 {
    (gen.channel_mult.len() as u32 * 2 + 1) * 4
}

/// Cost oracle bound to a model and a cluster.
#[derive(Debug, Clone)]
pub struct PerfModel<'a> {
    /// The multimodal LLM being trained.
    pub model: &'a MultimodalLlm,
    /// The GPU compute model.
    pub gpu: &'a GpuSpec,
    /// The communication cost model.
    pub coll: &'a CollectiveCost,
    /// Fraction of TP collective time hidden by communication overlap
    /// (0 = Megatron-LM default serialization, [`STEPCCL_TP_OVERLAP`] =
    /// DistTrain with StepCCL).
    pub tp_overlap: f64,
    /// Per-image prices computed up front by
    /// [`PerfModel::with_image_prices`]; a few entries, scanned.
    image_prices: Vec<TabledPrice>,
}

impl<'a> PerfModel<'a> {
    /// Bind the oracle (no communication overlap — the baseline).
    pub fn new(model: &'a MultimodalLlm, gpu: &'a GpuSpec, coll: &'a CollectiveCost) -> Self {
        PerfModel {
            model,
            gpu,
            coll,
            tp_overlap: 0.0,
            image_prices: Vec::new(),
        }
    }

    /// Table `module`'s per-image price at each of `resolutions` under TP
    /// size `tp`, so the forward times of every sample whose shape uses
    /// them read the table instead of re-deriving the image's FLOPs,
    /// kernels and allreduce. A price not in the table is computed on
    /// demand; either way the time is the same.
    pub fn with_image_prices(mut self, module: ModuleKind, resolutions: &[u32], tp: u32) -> Self {
        let tp = tp.max(1);
        for &res in resolutions {
            if self.tabled(module, res, tp).is_none() {
                let price = self.image_price(module, res, tp);
                self.image_prices.push((module, res, tp, price));
            }
        }
        self
    }

    fn tabled(&self, module: ModuleKind, res: u32, tp: u32) -> Option<ImagePrice> {
        self.image_prices
            .iter()
            .find(|&&(m, r, t, _)| m == module && r == res && t == tp)
            .map(|&(_, _, _, price)| price)
    }

    /// Enable StepCCL-style TP communication overlap (§A.1).
    pub fn with_stepccl(mut self) -> Self {
        self.tp_overlap = STEPCCL_TP_OVERLAP;
        self
    }

    fn tp_allreduce(&self, tp: u32, bytes: u64, count: u64) -> SimDuration {
        let one = self
            .coll
            .time(CollectiveKind::AllReduce, tp, bytes, CommDomain::IntraNode);
        self.exposed(tp, one, count)
    }

    /// The share of `count` TP allreduces of `one` each that overlap does
    /// not hide.
    fn exposed(&self, tp: u32, one: SimDuration, count: u64) -> SimDuration {
        if tp <= 1 {
            return SimDuration::ZERO;
        }
        (one * count).mul_f64(1.0 - self.tp_overlap.clamp(0.0, 1.0))
    }

    /// Forward time of `module` for ONE sample under TP size `tp` — the
    /// paper's `C_me/C_lm/C_mg(TP)` function (forward flavor). The
    /// multimodal modules take two steps: the per-image price of each of
    /// the sample's images at its own resolution, tabled when
    /// [`PerfModel::with_image_prices`] covers it, summed in integer
    /// nanoseconds (`n` images of one resolution cost exactly `n ×` its
    /// price); then one per-sample combine, which adds the projector and
    /// the TP allreduces overlap does not hide. The encoder's input
    /// projector is sized by the shape's image tokens, the generator's by
    /// its targets.
    pub fn module_fwd_time(&self, module: ModuleKind, shape: &SampleShape, tp: u32) -> SimDuration {
        let tp = tp.max(1);
        let m = self.model;
        let images = |res, n: usize| {
            let one = self
                .tabled(module, res, tp)
                .unwrap_or_else(|| self.image_price(module, res, tp));
            (one.compute * n as u64, one.allreduce * n as u64)
        };
        let ((compute, allreduce), proj_flops, allreduces) = match module {
            ModuleKind::Encoder => (
                shape
                    .image_resolutions
                    .chunk_by(|a, b| a == b)
                    .map(|run| images(run[0], run.len()))
                    .fold(Default::default(), |(c, a), (dc, da)| (c + dc, a + da)),
                m.input_projector.flops_forward(shape.image_tokens),
                2 * m.encoder.trunk.layers as u64,
            ),
            ModuleKind::Backbone => {
                let bb = &m.backbone;
                let seq = shape.seq_len();
                let compute = self
                    .gpu
                    .compute_time_in_ops(bb.flops_forward(seq) / tp as f64, bb.layers + 1);
                let comm = self.tp_allreduce(tp, bb.tp_allreduce_bytes(seq), 2 * bb.layers as u64);
                return compute + comm;
            }
            ModuleKind::Generator => (
                images(shape.gen_res, shape.gen_images as usize),
                m.output_projector
                    .flops_forward(u64::from(shape.gen_images) * m.generator.context_len),
                generator_blocks(&m.generator) as u64,
            ),
        };
        let proj = self.gpu.compute_time(proj_flops / tp as f64);
        compute + proj + self.exposed(tp, allreduce, allreduces)
    }

    /// The per-image part of the encoder's or generator's forward time
    /// for one `res × res` image under TP size `tp` (at least 1).
    fn image_price(&self, module: ModuleKind, res: u32, tp: u32) -> ImagePrice {
        let m = self.model;
        let per_image = m.image_flops_forward(module, res) / tp as f64;
        let (compute, bytes) = match module {
            ModuleKind::Encoder => {
                let trunk = &m.encoder.trunk;
                // Kernels: one fused region per layer per image.
                let compute = self.gpu.compute_time_in_ops(per_image, trunk.layers);
                (
                    compute,
                    trunk.tp_allreduce_bytes(m.encoder.tokens_per_image(res)),
                )
            }
            ModuleKind::Backbone => (SimDuration::ZERO, 0),
            ModuleKind::Generator => {
                let gen = &m.generator;
                let compute = self
                    .gpu
                    .compute_time_in_ops(per_image, generator_blocks(gen))
                    .mul_f64(UNET_EFFICIENCY_DERATE);
                // TP allreduce volume ≈ one latent feature map per block.
                let latent = gen.latent_edge(res);
                (compute, 2 * latent * latent * gen.base_channels)
            }
        };
        let allreduce = self
            .coll
            .time(CollectiveKind::AllReduce, tp, bytes, CommDomain::IntraNode);
        ImagePrice { compute, allreduce }
    }

    /// Backward time (2× forward compute, same TP communication count).
    /// Frozen modules skip backward entirely (§7.3 cost semantics; see
    /// `dt_data::cost::module_flops_train`).
    pub fn module_bwd_time(&self, module: ModuleKind, shape: &SampleShape, tp: u32) -> SimDuration {
        if self.model.freeze.is_frozen(module) {
            return SimDuration::ZERO;
        }
        self.module_fwd_time(module, shape, tp) * 2
    }

    /// Forward+backward per-sample time — the `C(TP)` flavor the §4.2
    /// objective actually uses ("changing C from forward time functions to
    /// the sum functions of forward and backward time").
    pub fn module_train_time(
        &self,
        module: ModuleKind,
        shape: &SampleShape,
        tp: u32,
    ) -> SimDuration {
        self.module_fwd_time(module, shape, tp) + self.module_bwd_time(module, shape, tp)
    }

    /// Per-layer MoE all-to-all time (dispatch + combine, forward) over an
    /// EP group of `ep` ranks for `seq` tokens: each token's bf16 hidden
    /// state travels to its `top_k` experts' owners and back (§4.1 /
    /// Janus-style expert parallelism \[43\]). EP groups span nodes, so the
    /// transfers ride the RDMA fabric.
    pub fn moe_all_to_all_time(&self, seq: u64, ep: u32) -> SimDuration {
        let Some(moe) = self.model.backbone.moe else {
            return SimDuration::ZERO;
        };
        if ep <= 1 {
            return SimDuration::ZERO;
        }
        let volume = moe.all_to_all_bytes_per_token(self.model.backbone.hidden) * seq;
        let share = (ep - 1) as f64 / ep as f64;
        let bw = self.coll.cluster().cross_node_pair_bw();
        let per_a2a = SimDuration::from_secs_f64(volume as f64 * share / bw)
            + SimDuration::from_secs_f64(self.coll.cluster().inter_node_latency);
        // StepCCL's modular design hides collective time under unrelated
        // computation (§A.1: "we are able to hide the communication with
        // other modules without dependency"); the all-to-all overlaps the
        // attention block the same way.
        (per_a2a * 2).mul_f64(1.0 - self.tp_overlap.clamp(0.0, 1.0))
    }

    /// Gradient-allreduce time of one module at iteration end: hierarchical
    /// two-level ring over the DP group, bf16 gradients.
    pub fn grad_sync_time(&self, module: ModuleKind, dp: u32, tp: u32, pp: u32) -> SimDuration {
        if dp <= 1 || self.model.freeze.is_frozen(module) {
            return SimDuration::ZERO;
        }
        let params = self.model.module_params(module);
        let shard = params / (tp.max(1) as u64 * pp.max(1) as u64);
        let bytes = 2 * shard;
        let gpus_per_node = self.coll.cluster().node.gpus_per_node;
        // DP peers sit on distinct nodes in the Megatron layout (TP fills
        // the node), so the ring is inter-node; small DP that fits in the
        // node's leftover GPUs is the exception.
        if tp >= gpus_per_node || dp > gpus_per_node / tp.max(1) {
            let intra = (gpus_per_node / tp.max(1)).max(1).min(dp);
            let nodes = dp.div_ceil(intra);
            self.coll.allreduce_hierarchical(intra, nodes, bytes)
        } else {
            self.coll
                .time(CollectiveKind::AllReduce, dp, bytes, CommDomain::IntraNode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_cluster::ClusterSpec;
    use dt_model::mllm::Resolutions;
    use dt_model::MllmPreset;

    fn shape() -> SampleShape {
        SampleShape {
            text_tokens: 6144,
            image_tokens: 2048,
            image_resolutions: Resolutions::repeat(512, 2),
            gen_images: 1,
            gen_res: 512,
        }
    }

    fn with_perf<R>(preset: MllmPreset, f: impl FnOnce(&PerfModel<'_>) -> R) -> R {
        let model = preset.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(162));
        f(&PerfModel::new(&model, &gpu, &coll))
    }

    #[test]
    fn backbone_time_shrinks_sublinearly_with_tp() {
        with_perf(MllmPreset::Mllm9B, |p| {
            let t1 = p
                .module_fwd_time(ModuleKind::Backbone, &shape(), 1)
                .as_secs_f64();
            let t8 = p
                .module_fwd_time(ModuleKind::Backbone, &shape(), 8)
                .as_secs_f64();
            assert!(t8 < t1, "TP must speed up the backbone");
            assert!(
                t8 > t1 / 8.0,
                "TP=8 cannot be a perfect 8× (comm + efficiency ramp)"
            );
        });
    }

    #[test]
    fn llm_stage_time_is_input_independent() {
        // Figure 3's key observation: the LLM backbone's time is constant
        // across input mixes (packed sequences are fixed-length)...
        with_perf(MllmPreset::Mllm9B, |p| {
            let a = p.module_fwd_time(ModuleKind::Backbone, &shape(), 8);
            let b = p.module_fwd_time(
                ModuleKind::Backbone,
                &SampleShape {
                    text_tokens: 1024,
                    image_tokens: 7168,
                    image_resolutions: Resolutions::repeat(512, 7),
                    gen_images: 3,
                    gen_res: 512,
                },
                8,
            );
            assert_eq!(a, b);
        });
    }

    #[test]
    fn multimodal_time_varies_with_input() {
        // ...while encoder and generator vary strongly (same figure).
        with_perf(MllmPreset::Mllm9B, |p| {
            let light = SampleShape {
                text_tokens: 8064,
                image_tokens: 128,
                image_resolutions: Resolutions::repeat(256, 1),
                gen_images: 0,
                gen_res: 256,
            };
            let heavy = SampleShape {
                text_tokens: 1024,
                image_tokens: 7168,
                image_resolutions: Resolutions::repeat(1024, 7),
                gen_images: 3,
                gen_res: 1024,
            };
            let el = p.module_fwd_time(ModuleKind::Encoder, &light, 1);
            let eh = p.module_fwd_time(ModuleKind::Encoder, &heavy, 1);
            assert!(eh.as_secs_f64() > 5.0 * el.as_secs_f64());
            let gl = p.module_fwd_time(ModuleKind::Generator, &light, 1);
            let gh = p.module_fwd_time(ModuleKind::Generator, &heavy, 1);
            assert!(gh.as_secs_f64() > 5.0 * gl.as_secs_f64().max(1e-9));
            assert!(gl.is_zero() || gl < gh);
        });
    }

    /// `module_fwd_time` before the price/combine split, one formula per
    /// module, each image priced at its own resolution.
    fn unsplit_fwd_time(
        p: &PerfModel<'_>,
        module: ModuleKind,
        shape: &SampleShape,
        tp: u32,
    ) -> SimDuration {
        let tp = tp.max(1);
        let m = p.model;
        let one = |bytes| {
            p.coll
                .time(CollectiveKind::AllReduce, tp, bytes, CommDomain::IntraNode)
        };
        let exposed = |raw: SimDuration| {
            if tp <= 1 {
                return SimDuration::ZERO;
            }
            raw.mul_f64(1.0 - p.tp_overlap.clamp(0.0, 1.0))
        };
        let allreduce = |bytes, count| exposed(one(bytes) * count);
        match module {
            ModuleKind::Encoder => {
                let trunk = &m.encoder.trunk;
                let (mut compute, mut raw) = (SimDuration::ZERO, SimDuration::ZERO);
                for &res in shape.image_resolutions.iter() {
                    let per_image = m.encoder.flops_forward_image(res) / tp as f64;
                    compute += p.gpu.compute_time_in_ops(per_image, trunk.layers);
                    raw += one(trunk.tp_allreduce_bytes(m.encoder.tokens_per_image(res)));
                }
                let proj = p
                    .gpu
                    .compute_time(m.input_projector.flops_forward(shape.image_tokens) / tp as f64);
                compute + proj + exposed(raw * (2 * trunk.layers as u64))
            }
            ModuleKind::Backbone => {
                let bb = &m.backbone;
                let seq = shape.seq_len();
                let compute = p
                    .gpu
                    .compute_time_in_ops(bb.flops_forward(seq) / tp as f64, bb.layers + 1);
                compute + allreduce(bb.tp_allreduce_bytes(seq), 2 * bb.layers as u64)
            }
            ModuleKind::Generator => {
                let gen = &m.generator;
                let per_image = (gen.flops_forward_image(shape.gen_res)
                    + gen.vae_encode_flops(shape.gen_res))
                    / tp as f64;
                let images = shape.gen_images as u64;
                let blocks = (gen.channel_mult.len() as u32 * 2 + 1) * 4;
                let compute = p
                    .gpu
                    .compute_time_in_ops(per_image, blocks)
                    .mul_f64(UNET_EFFICIENCY_DERATE)
                    * images;
                let cond_tokens = shape.gen_images as u64 * gen.context_len;
                let proj = p
                    .gpu
                    .compute_time(m.output_projector.flops_forward(cond_tokens) / tp as f64);
                let latent = gen.latent_edge(shape.gen_res);
                compute
                    + proj
                    + allreduce(
                        2 * latent * latent * gen.base_channels,
                        blocks as u64 * images,
                    )
            }
        }
    }

    /// The split (per-image price, per-sample combine) and the table both
    /// reproduce the unsplit formula exactly, on one-resolution and on
    /// mixed-resolution samples.
    #[test]
    fn tabled_image_prices_give_the_same_times() {
        let resolutions = [256, 384, 512, 768, 1024];
        for preset in MllmPreset::ALL {
            let model = preset.build();
            let gpu = GpuSpec::ampere();
            let coll = CollectiveCost::new(ClusterSpec::production(162));
            let baseline = PerfModel::new(&model, &gpu, &coll);
            for (plain, tp) in [baseline.clone(), baseline.with_stepccl()]
                .iter()
                .flat_map(|p| [0, 1, 2, 8].map(|tp| (p, tp)))
            {
                let tabled = plain
                    .clone()
                    .with_image_prices(ModuleKind::Encoder, &resolutions, tp)
                    .with_image_prices(ModuleKind::Generator, &resolutions, tp);
                for (&image_res, &gen_res) in resolutions.iter().zip(resolutions.iter().rev()) {
                    let mixed: Resolutions =
                        [image_res, gen_res, 384, gen_res].into_iter().collect();
                    for (image_resolutions, gen_images) in [
                        (Resolutions::repeat(image_res, 0), 0),
                        (Resolutions::repeat(image_res, 1), 0),
                        (Resolutions::repeat(image_res, 3), 2),
                        (Resolutions::repeat(image_res, 10), 10),
                        (mixed, 1),
                    ] {
                        let s = SampleShape {
                            image_resolutions,
                            gen_res,
                            gen_images,
                            ..shape()
                        };
                        for m in ModuleKind::ALL {
                            let unsplit = unsplit_fwd_time(plain, m, &s, tp);
                            assert_eq!(
                                plain.module_fwd_time(m, &s, tp),
                                unsplit,
                                "{preset:?} tp={tp} {m} {s:?}"
                            );
                            assert_eq!(
                                tabled.module_fwd_time(m, &s, tp),
                                unsplit,
                                "{preset:?} tp={tp} {m} {s:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_module_has_zero_backward() {
        let mut model = MllmPreset::Mllm9B.build();
        model.freeze = dt_model::FreezeConfig::llm_only();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(162));
        let p = PerfModel::new(&model, &gpu, &coll);
        assert_eq!(
            p.module_bwd_time(ModuleKind::Encoder, &shape(), 1),
            SimDuration::ZERO
        );
        assert!(p.module_bwd_time(ModuleKind::Backbone, &shape(), 8) > SimDuration::ZERO);
    }

    #[test]
    fn grad_sync_scales_with_params_not_dp() {
        with_perf(MllmPreset::Mllm9B, |p| {
            let small = p.grad_sync_time(ModuleKind::Encoder, 16, 1, 1);
            let big = p.grad_sync_time(ModuleKind::Backbone, 16, 8, 1);
            assert!(big > small);
            // Ring: larger DP barely changes the bandwidth term.
            let dp16 = p
                .grad_sync_time(ModuleKind::Backbone, 16, 8, 1)
                .as_secs_f64();
            let dp32 = p
                .grad_sync_time(ModuleKind::Backbone, 32, 8, 1)
                .as_secs_f64();
            assert!(dp32 < 1.3 * dp16);
        });
    }

    #[test]
    fn backbone_dominates_at_512_but_not_at_1024_per_stage() {
        // §7.1's explanation for the smaller 72B gain: at 1024² the
        // multimodal modules inflate. Compare generator-per-sample to one
        // *PP stage* (1/10th) of the 70B backbone.
        with_perf(MllmPreset::Mllm72B, |p| {
            let stage = p
                .module_fwd_time(ModuleKind::Backbone, &shape(), 8)
                .as_secs_f64()
                / 10.0;
            let gen512 = p
                .module_fwd_time(
                    ModuleKind::Generator,
                    &SampleShape {
                        gen_res: 512,
                        ..shape()
                    },
                    1,
                )
                .as_secs_f64();
            let gen1024 = p
                .module_fwd_time(
                    ModuleKind::Generator,
                    &SampleShape {
                        gen_res: 1024,
                        gen_images: 3,
                        ..shape()
                    },
                    1,
                )
                .as_secs_f64();
            assert!(gen1024 > 4.0 * gen512);
            assert!(
                gen1024 > stage,
                "1024² generation should exceed one LLM stage"
            );
        });
    }
}
