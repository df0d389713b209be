//! The training manager's performance profiler (§3).
//!
//! "The training manager ... samples a subset of training data to analyze
//! the data distribution. Utilizing the information, it runs a series of
//! benchmarking training trials and constructs a performance profiler with
//! linear interpolation to estimate each module's computation and
//! communication time."
//!
//! [`Profiler::profile`] does exactly that against the [`PerfModel`]
//! oracle: derive the mean sample shape from a data subset, run one trial
//! per (module, TP) point, and build [`TaskProfile`] — piecewise-linear
//! `C(TP)` functions the §4.2 formulation consumes. Keeping the profiling
//! indirection (instead of calling the oracle from the solver) mirrors the
//! real system's architecture and lets tests inject synthetic profiles.

use crate::perf::PerfModel;
use dt_data::TrainSample;
use dt_model::mllm::{Resolutions, SampleShape};
use dt_model::ModuleKind;

/// TP sizes profiled (one NVIDIA node, §4.3).
pub const TRIAL_TPS: [u32; 4] = [1, 2, 4, 8];

/// Piecewise-linear per-sample time functions of one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleProfile {
    /// `(tp, seconds)` trial points for the forward pass, ascending tp.
    pub fwd_points: Vec<(u32, f64)>,
    /// `(tp, seconds)` trial points for forward+backward.
    pub train_points: Vec<(u32, f64)>,
}

pub(crate) fn interp(points: &[(u32, f64)], tp: u32) -> f64 {
    debug_assert!(!points.is_empty());
    if let Some(&(_, v)) = points.iter().find(|&&(t, _)| t == tp) {
        return v;
    }
    // Linear interpolation in tp; clamp outside the trial range.
    if tp <= points[0].0 {
        return points[0].1;
    }
    if tp >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    for w in points.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if (t0..=t1).contains(&tp) {
            let frac = (tp - t0) as f64 / (t1 - t0) as f64;
            return v0 + frac * (v1 - v0);
        }
    }
    points[points.len() - 1].1
}

impl ModuleProfile {
    /// Interpolated forward+backward seconds per sample at `tp` — the
    /// `C(TP)` of the objective function.
    pub fn train(&self, tp: u32) -> f64 {
        interp(&self.train_points, tp)
    }
}

/// Per-sample forward+backward cost lookup — the `C(TP)` functions the
/// §4.2 objective consumes. Implemented by [`TaskProfile`] (interpolating
/// the trial points on every call) and by
/// [`crate::cache::PerfCache`] (a prebuilt table over the trial TPs,
/// built once per search). The solver and
/// objective are generic over this trait so both paths produce
/// bit-identical numbers.
pub trait TrainCost {
    /// Interpolated forward+backward seconds per sample for `module` at
    /// TP size `tp`.
    fn train_cost(&self, module: ModuleKind, tp: u32) -> f64;
}

/// The full profile for one training task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProfile {
    /// Encoder `C_me`.
    pub encoder: ModuleProfile,
    /// Backbone `C_lm`.
    pub backbone: ModuleProfile,
    /// Generator `C_mg`.
    pub generator: ModuleProfile,
    /// The mean sample shape the trials used (kept for the memory model).
    pub mean_shape: SampleShape,
}

impl TaskProfile {
    /// Profile of one module.
    pub fn module(&self, m: ModuleKind) -> &ModuleProfile {
        match m {
            ModuleKind::Encoder => &self.encoder,
            ModuleKind::Backbone => &self.backbone,
            ModuleKind::Generator => &self.generator,
        }
    }
}

impl TrainCost for TaskProfile {
    fn train_cost(&self, module: ModuleKind, tp: u32) -> f64 {
        self.module(module).train(tp)
    }
}

/// Runs trials against the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiler;

impl Profiler {
    /// Mean sample shape of a data subset — the "data distribution
    /// analysis" step: `round(mean count)` images, each at the RMS
    /// resolution (averaged in *area*, pixel count, so the mean preserves
    /// total pixel work).
    pub fn mean_shape(samples: &[TrainSample]) -> SampleShape {
        assert!(!samples.is_empty(), "cannot profile an empty data subset");
        let n = samples.len() as f64;
        let text = samples.iter().map(|s| s.text_tokens()).sum::<u64>() as f64 / n;
        let image = samples.iter().map(|s| s.image_tokens()).sum::<u64>() as f64 / n;
        let imgs = samples
            .iter()
            .map(|s| s.image_resolutions.len() as u64)
            .sum::<u64>() as f64
            / n;
        let gens = samples.iter().map(|s| u64::from(s.gen_images)).sum::<u64>() as f64 / n;
        let total_imgs: u64 = samples
            .iter()
            .map(|s| s.image_resolutions.len() as u64)
            .sum();
        let mean_area = if total_imgs == 0 {
            512.0 * 512.0
        } else {
            samples
                .iter()
                .map(|s| s.image_resolutions.pixels())
                .sum::<u64>() as f64
                / total_imgs as f64
        };
        let gen_res = samples
            .iter()
            .map(|s| s.gen_resolution)
            .max()
            .unwrap_or(512);
        SampleShape {
            text_tokens: text.round() as u64,
            image_tokens: image.round() as u64,
            image_resolutions: Resolutions::repeat(
                (mean_area.sqrt().round() as u32).max(64),
                imgs.round().max(0.0) as usize,
            ),
            gen_images: gens.round().max(0.0) as u32,
            gen_res,
        }
    }

    /// Run the trial matrix and build the task profile.
    pub fn profile(&self, perf: &PerfModel<'_>, samples: &[TrainSample]) -> TaskProfile {
        let shape = Self::mean_shape(samples);
        let one = |m: ModuleKind| ModuleProfile {
            fwd_points: TRIAL_TPS
                .iter()
                .map(|&tp| (tp, perf.module_fwd_time(m, &shape, tp).as_secs_f64()))
                .collect(),
            train_points: TRIAL_TPS
                .iter()
                .map(|&tp| (tp, perf.module_train_time(m, &shape, tp).as_secs_f64()))
                .collect(),
        };
        TaskProfile {
            encoder: one(ModuleKind::Encoder),
            backbone: one(ModuleKind::Backbone),
            generator: one(ModuleKind::Generator),
            mean_shape: shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::MllmPreset;

    fn task_profile() -> TaskProfile {
        let model = MllmPreset::Mllm9B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(162));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 3);
        Profiler.profile(&perf, &data.take(64))
    }

    #[test]
    fn profile_covers_all_trial_tps() {
        let p = task_profile();
        for m in [&p.encoder, &p.backbone, &p.generator] {
            assert_eq!(m.fwd_points.len(), 4);
            assert!(m.fwd_points.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn train_time_exceeds_forward_time() {
        let p = task_profile();
        for tp in TRIAL_TPS {
            assert!(p.backbone.train(tp) > interp(&p.backbone.fwd_points, tp) * 2.0);
            assert!(p.backbone.train(tp) <= interp(&p.backbone.fwd_points, tp) * 3.0 + 1e-9);
        }
    }

    #[test]
    fn interpolation_is_exact_at_trial_points_and_clamped_outside() {
        let m = ModuleProfile {
            fwd_points: vec![(1, 8.0), (2, 5.0), (4, 3.0), (8, 2.0)],
            train_points: vec![(1, 24.0), (2, 15.0), (4, 9.0), (8, 6.0)],
        };
        assert_eq!(interp(&m.fwd_points, 2), 5.0);
        assert_eq!(interp(&m.fwd_points, 3), 4.0); // midpoint of (2,5) and (4,3)
        assert_eq!(interp(&m.fwd_points, 16), 2.0); // clamped
        assert_eq!(m.train(1), 24.0);
    }

    #[test]
    fn mean_shape_preserves_token_budget() {
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 7);
        let samples = data.take(100);
        let shape = Profiler::mean_shape(&samples);
        let total = shape.text_tokens + shape.image_tokens;
        assert!(
            (8191..=8193).contains(&total),
            "mean shape drifted: {total}"
        );
        assert!(shape.image_resolutions.iter().all(|&r| r == 512));
    }

    #[test]
    #[should_panic(expected = "empty data subset")]
    fn empty_subset_is_rejected() {
        Profiler::mean_shape(&[]);
    }
}
