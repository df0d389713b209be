//! The §4.2 problem formulation.
//!
//! For a candidate parallelism choice (TP/DP of each unit) and a GPU
//! allocation `(x, y, z)`, the per-iteration time is
//!
//! ```text
//! T_warmup = M·C_lm(TP_lm) + (DP_lm·M/DP_me)·C_me(TP_me)
//!                          + (DP_lm·M/DP_mg)·C_mg(TP_mg)        (Eq. 1)
//! T_steady = max( DP_lm·TP_lm·M·C_lm/y,
//!                 DP_lm·TP_me·M·C_me/x,
//!                 DP_lm·TP_mg·M·C_mg/z ) · (BS/(DP_lm·M) − 1)   (Eq. 2)
//! ```
//!
//! with `C(·)` the profiled fwd+bwd per-sample time functions. Encoder and
//! generator run as single-PP-stage units (`PP_me = PP_mg = 1`, the
//! configuration used throughout §7), so `DP_me = x/TP_me` and
//! `DP_mg = z/TP_mg`, making both terms pure `1/x`, `1/z` functions —
//! the convexity §4.3 exploits. Replicated units (TP group as data
//! parallelism) evaluate with `TP = 1`: identical algebra, no TP cost.
//!
//! [`predict_plan`] evaluates the same objective for any concrete
//! [`OrchestrationPlan`] (including the Megatron and DistMM* baselines) and
//! adds the gradient-synchronization term, so every system is scored by one
//! formula.

use crate::perf::PerfModel;
use crate::profiler::{TaskProfile, TrainCost};
use dt_model::ModuleKind;
use dt_parallel::{ModulePlan, OrchestrationPlan};

/// Problem constants shared by all candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemSpec {
    /// Total GPUs available (`N`).
    pub total_gpus: u32,
    /// GPUs per NVLink node (TP confinement bound).
    pub gpus_per_node: u32,
    /// Per-GPU HBM bytes.
    pub hbm_bytes: u64,
    /// Global batch size (`BS`).
    pub global_batch: u32,
    /// Microbatch size (`M`, fixed small; §4.2).
    pub microbatch: u32,
    /// Virtual-pipeline size (warm-up divisor; 1 = plain 1F1B).
    pub vpp: u32,
    /// Estimated per-boundary activation hop cost (seconds per microbatch,
    /// fwd+bwd). The closed form of Eq. 1–2 treats PP communication as
    /// free; charging the warm-up/cool-down with `2·hop` per stage keeps
    /// the solver from inflating PP to absurd depths that the real
    /// pipeline (and our simulator) would punish.
    pub pp_hop_secs: f64,
}

/// One point of the finite TP/DP lattice of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Backbone TP.
    pub tp_lm: u32,
    /// Backbone DP (a divisor of `BS/M`).
    pub dp_lm: u32,
    /// Encoder TP (1 ⇒ replicated data-parallel group).
    pub tp_me: u32,
    /// Generator TP (1 ⇒ replicated).
    pub tp_mg: u32,
}

/// Decomposed objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Warm-up phase seconds (Eq. 1, divided by the VPP size).
    pub warmup: f64,
    /// Steady phase seconds (Eq. 2).
    pub steady: f64,
    /// Gradient synchronization seconds (end of iteration).
    pub grad_sync: f64,
}

impl Objective {
    /// Total per-iteration seconds.
    pub fn total(&self) -> f64 {
        self.warmup + self.steady + self.grad_sync
    }
}

/// Number of microbatches per iteration (`BS/(DP_lm·M)`), or `None` when
/// the batch does not divide.
pub fn microbatches(spec: &ProblemSpec, dp_lm: u32) -> Option<u32> {
    let denom = dp_lm * spec.microbatch;
    if denom == 0 || !spec.global_batch.is_multiple_of(denom) {
        None
    } else {
        Some(spec.global_batch / denom)
    }
}

/// Eq. 1 + Eq. 2 for a candidate and allocation `(x, y, z)`; `None` when
/// the allocation is structurally infeasible (zero GPUs or indivisible
/// batch). Memory feasibility is checked separately by the caller against
/// the full plan.
///
/// Generic over the cost source: a [`TaskProfile`] interpolates on every
/// call, a [`crate::cache::PerfCache`] serves the same numbers from its
/// prebuilt table (bit-identical by construction).
pub fn objective<C: TrainCost + ?Sized>(
    spec: &ProblemSpec,
    costs: &C,
    cand: &Candidate,
    x: u32,
    y: u32,
    z: u32,
) -> Option<Objective> {
    if x < cand.tp_me || z < cand.tp_mg || y < cand.tp_lm * cand.dp_lm {
        return None;
    }
    let n_mb = microbatches(spec, cand.dp_lm)? as f64;
    let m = spec.microbatch as f64;
    let dp_lm = cand.dp_lm as f64;
    let c_lm = costs.train_cost(ModuleKind::Backbone, cand.tp_lm);
    let c_me = costs.train_cost(ModuleKind::Encoder, cand.tp_me);
    let c_mg = costs.train_cost(ModuleKind::Generator, cand.tp_mg);
    let (x, y, z) = (x as f64, y as f64, z as f64);

    let pp_lm = y / (cand.tp_lm as f64 * dp_lm);
    let hop_penalty = 2.0 * spec.pp_hop_secs * (pp_lm + 2.0);
    let warmup = (m * c_lm
        + dp_lm * m * cand.tp_me as f64 * c_me / x
        + dp_lm * m * cand.tp_mg as f64 * c_mg / z)
        / spec.vpp.max(1) as f64
        + hop_penalty;
    let t_lm = dp_lm * cand.tp_lm as f64 * m * c_lm / y;
    let t_me = dp_lm * cand.tp_me as f64 * m * c_me / x;
    let t_mg = dp_lm * cand.tp_mg as f64 * m * c_mg / z;
    let steady = t_lm.max(t_me).max(t_mg) * (n_mb - 1.0).max(0.0);
    Some(Objective {
        warmup,
        steady,
        grad_sync: 0.0,
    })
}

fn unit_params(plan: &ModulePlan) -> (u32, u32) {
    // (tp for C(·) lookup, effective data width): a replicated group
    // evaluates at TP=1 with its members counted as data parallelism.
    (plan.shard_tp(), plan.effective_data_width())
}

/// Score a concrete plan (any system's) with the §4.2 objective plus the
/// gradient-sync term. Returns `None` for structurally broken plans.
pub fn predict_plan(
    spec: &ProblemSpec,
    profile: &TaskProfile,
    perf: &PerfModel<'_>,
    plan: &OrchestrationPlan,
) -> Option<Objective> {
    let n_mb = microbatches(spec, plan.backbone.dp)? as f64;
    let m = spec.microbatch as f64;
    let dp_lm = plan.backbone.dp as f64;

    let (tp_me, w_me) = unit_params(&plan.encoder);
    let (tp_mg, w_mg) = unit_params(&plan.generator);
    let c_lm = profile.backbone.train(plan.backbone.tp);
    let c_me = profile.encoder.train(tp_me);
    let c_mg = profile.generator.train(tp_mg);

    // Per-PP-stage steady times.
    let t_lm = m * c_lm / plan.backbone.pp as f64;
    let t_me = dp_lm * m * c_me / (w_me as f64 * plan.encoder.pp as f64);
    let t_mg = dp_lm * m * c_mg / (w_mg as f64 * plan.generator.pp as f64);

    let warmup = (t_lm * plan.backbone.pp as f64
        + t_me * plan.encoder.pp as f64
        + t_mg * plan.generator.pp as f64)
        / spec.vpp.max(1) as f64
        + 2.0 * spec.pp_hop_secs * plan.total_stages() as f64;
    let steady = t_lm.max(t_me).max(t_mg) * (n_mb - 1.0).max(0.0);

    let grad_sync = ModuleKind::ALL
        .iter()
        .map(|&k| {
            let p = plan.module(k);
            let (tp, _) = unit_params(&p);
            let dp = if p.replicate_in_tp_group {
                p.dp * p.tp
            } else {
                p.dp
            };
            perf.grad_sync_time(k, dp, tp, p.pp).as_secs_f64()
        })
        .fold(0.0, f64::max); // modules sync concurrently; the slowest gates
    Some(Objective {
        warmup,
        steady,
        grad_sync,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{ModuleProfile, Profiler};
    use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::{mllm::SampleShape, MllmPreset};

    fn spec() -> ProblemSpec {
        ProblemSpec {
            total_gpus: 96,
            gpus_per_node: 8,
            hbm_bytes: 80 * (1 << 30),
            global_batch: 128,
            microbatch: 1,
            vpp: 1,
            pp_hop_secs: 0.0,
        }
    }

    fn flat_profile(c_me: f64, c_lm: f64, c_mg: f64) -> TaskProfile {
        let flat = |c: f64| ModuleProfile {
            fwd_points: vec![(1, c / 3.0), (8, c / 3.0 / 8.0)],
            train_points: vec![(1, c), (8, c / 8.0)],
        };
        TaskProfile {
            encoder: flat(c_me),
            backbone: flat(c_lm),
            generator: flat(c_mg),
            mean_shape: SampleShape::text_only(8192),
        }
    }

    #[test]
    fn microbatch_count_requires_divisibility() {
        let s = spec();
        assert_eq!(microbatches(&s, 8), Some(16));
        assert_eq!(microbatches(&s, 7), None);
        assert_eq!(microbatches(&s, 128), Some(1));
    }

    #[test]
    fn objective_matches_hand_computation() {
        let s = spec();
        let p = flat_profile(0.8, 8.0, 0.8);
        // C(8) = C(1)/8 per the flat profile above.
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let obj = objective(&s, &p, &cand, 8, 80, 8).unwrap();
        // warmup = M·C_lm(8) + 8·1·1·C_me/8 + 8·1·1·C_mg/8 = 1 + .8 + .8
        assert!((obj.warmup - 2.6).abs() < 1e-9, "warmup {}", obj.warmup);
        // steady = max(8·8·1/80, 8·0.8/8, 8·0.8/8)·15 = max(.8,.8,.8)·15
        assert!((obj.steady - 12.0).abs() < 1e-9, "steady {}", obj.steady);
    }

    #[test]
    fn steady_time_shrinks_with_more_gpus() {
        let s = spec();
        let p = flat_profile(0.8, 8.0, 0.8);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let small = objective(&s, &p, &cand, 4, 80, 4).unwrap();
        let big = objective(&s, &p, &cand, 12, 80, 12).unwrap();
        assert!(big.total() < small.total());
    }

    #[test]
    fn infeasible_allocations_are_rejected() {
        let s = spec();
        let p = flat_profile(0.8, 8.0, 0.8);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 4,
            tp_mg: 1,
        };
        assert!(objective(&s, &p, &cand, 2, 80, 8).is_none()); // x < tp_me
        assert!(objective(&s, &p, &cand, 8, 32, 8).is_none()); // y < tp·dp
        let bad_dp = Candidate {
            tp_lm: 8,
            dp_lm: 7,
            tp_me: 1,
            tp_mg: 1,
        };
        assert!(objective(&s, &p, &bad_dp, 8, 56, 8).is_none()); // 128 % 7 ≠ 0
    }

    #[test]
    fn vpp_divides_warmup_only() {
        let mut s = spec();
        let p = flat_profile(0.8, 8.0, 0.8);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let plain = objective(&s, &p, &cand, 8, 80, 8).unwrap();
        s.vpp = 2;
        let vpp = objective(&s, &p, &cand, 8, 80, 8).unwrap();
        assert!((vpp.warmup - plain.warmup / 2.0).abs() < 1e-9);
        assert_eq!(vpp.steady, plain.steady);
    }

    #[test]
    fn predict_plan_agrees_with_parametric_objective() {
        // For a plan with PP_me = PP_mg = 1, predict_plan's phase terms must
        // equal the candidate objective (grad sync aside).
        let model = MllmPreset::Mllm9B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(12));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 3);
        let profile = Profiler.profile(&perf, &data.take(32));
        let s = spec();
        let plan = OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 8, 1),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        };
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let a = objective(&s, &profile, &cand, 8, 64, 8).unwrap();
        let b = predict_plan(&s, &profile, &perf, &plan).unwrap();
        assert!((a.warmup - b.warmup).abs() < 1e-9);
        assert!((a.steady - b.steady).abs() < 1e-9);
        assert!(b.grad_sync > 0.0);
    }

    #[test]
    fn replicated_plan_scores_like_tp1() {
        let model = MllmPreset::Mllm9B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(12));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 3);
        let profile = Profiler.profile(&perf, &data.take(32));
        let s = spec();
        let base = OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 8, 1),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        };
        let replicated = OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 1, 1),
            ..base
        };
        let a = predict_plan(&s, &profile, &perf, &base).unwrap();
        let b = predict_plan(&s, &profile, &perf, &replicated).unwrap();
        assert!((a.warmup - b.warmup).abs() < 1e-9);
        assert!((a.steady - b.steady).abs() < 1e-9);
    }
}
