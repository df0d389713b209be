//! Memoized evaluation cache for the §4.3 search.
//!
//! [`crate::perf::PerfModel`] module times and
//! [`dt_model::MultimodalLlm::module_memory`] results are pure functions of
//! `(module, shape, tp)`, yet the naive lattice search re-derives them —
//! through [`crate::profiler::TaskProfile`]'s linear interpolation — for
//! every lattice point it evaluates (hundreds of thousands of lookups at
//! the Table 3 scales). [`PerfCache`] prebuilds the complete table once per
//! search: one `f64` per `(module, TP choice)`, the profiled mean sample
//! shape, and the backbone memory estimate for the HBM gate. Together
//! these are everything the search reads of the profile. The table is
//! immutable after construction, so a [`crate::orchestrate::WarmStart`]
//! can share one instance across replans; the only mutable state is a
//! pair of `dt_telemetry::Counter`s (relaxed atomics) reported in
//! [`crate::orchestrate::PlanReport`] and mirrored into the planner's
//! metric registry when one is attached.
//!
//! Table entries are the *exact* `f64`s `TaskProfile::train` would return
//! at the trial TPs, so a cached search is bit-identical to an uncached
//! one — the determinism guarantee the serial/pruned equivalence tests
//! rely on.

use crate::profiler::{interp, TaskProfile, TrainCost, TRIAL_TPS};
use dt_model::memory::ModuleMemory;
use dt_model::mllm::SampleShape;
use dt_model::{ModuleKind, MultimodalLlm};
use dt_telemetry::Counter;

/// Prebuilt per-search evaluation table: `C(TP)` for every module at every
/// trial TP, plus the profile's mean sample shape and the backbone memory
/// estimate at it for the §4.2 HBM gate.
#[derive(Debug)]
pub struct PerfCache {
    /// Forward+backward seconds per sample, `[module][trial-tp index]`.
    train: [[f64; TRIAL_TPS.len()]; 3],
    /// The profile's mean sample shape: the shape every shortlisted plan
    /// is validated against (memory of all three modules).
    pub(crate) mean_shape: SampleShape,
    /// Backbone memory estimate at the profiled mean shape (the §4.2
    /// memory-gate operand, computed once instead of once per lattice
    /// point).
    pub backbone_memory: ModuleMemory,
    /// Table lookups served (relaxed; aggregated across searches).
    hits: Counter,
    /// Lookups that fell outside the trial-TP grid and were interpolated.
    misses: Counter,
}

fn module_index(module: ModuleKind) -> usize {
    match module {
        ModuleKind::Encoder => 0,
        ModuleKind::Backbone => 1,
        ModuleKind::Generator => 2,
    }
}

impl PerfCache {
    /// Build the table from a task profile (exact values at [`TRIAL_TPS`]),
    /// recording its mean shape and the model's backbone memory there.
    pub fn build(model: &MultimodalLlm, profile: &TaskProfile) -> Self {
        let mut train = [[0.0; TRIAL_TPS.len()]; 3];
        for module in ModuleKind::ALL {
            let m = module_index(module);
            let p = profile.module(module);
            for (i, &tp) in TRIAL_TPS.iter().enumerate() {
                train[m][i] = p.train(tp);
            }
        }
        PerfCache {
            train,
            mean_shape: profile.mean_shape,
            backbone_memory: model.module_memory(ModuleKind::Backbone, &profile.mean_shape),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Table lookups served so far (the `cache_hits` of `PlanReport`).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed the trial-TP grid (0 during a lattice search —
    /// every candidate TP is a trial TP).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Whether the train-cost table supports the branch-and-bound pruning
    /// algebra: every entry finite and nonnegative.
    ///
    /// The lower bounds in [`crate::solve`] take square roots of cost
    /// sums and divide by remainders, so a NaN, infinite, or negative
    /// entry (possible only with a pathological [`TrainCost`] feeding the
    /// profile) would silently turn "lower bound" into "arbitrary
    /// number" and break the optimality certificate. The pruned search
    /// checks this once per search and falls back to the exhaustive
    /// traversal when it fails — pruning must be disabled for
    /// non-monotone or non-finite cost models.
    pub fn bounds_sound(&self) -> bool {
        self.train
            .iter()
            .flatten()
            .all(|&c| c.is_finite() && c >= 0.0)
    }

    fn lookup(&self, row: &[f64; TRIAL_TPS.len()], tp: u32) -> f64 {
        match TRIAL_TPS.iter().position(|&t| t == tp) {
            Some(i) => {
                self.hits.inc();
                row[i]
            }
            None => {
                // Outside the trial grid: interpolate over the table, the
                // same clamped piecewise-linear rule the profile uses.
                self.misses.inc();
                let points: Vec<(u32, f64)> =
                    TRIAL_TPS.iter().copied().zip(row.iter().copied()).collect();
                interp(&points, tp)
            }
        }
    }
}

impl TrainCost for PerfCache {
    fn train_cost(&self, module: ModuleKind, tp: u32) -> f64 {
        self.lookup(&self.train[module_index(module)], tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::profiler::Profiler;
    use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::MllmPreset;

    fn model_and_profile() -> (MultimodalLlm, TaskProfile) {
        let model = MllmPreset::Mllm9B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(12));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 3);
        let profile = Profiler.profile(&perf, &data.take(64));
        (model, profile)
    }

    #[test]
    fn cache_is_bit_identical_to_the_profile() {
        let (model, profile) = model_and_profile();
        let cache = PerfCache::build(&model, &profile);
        for module in ModuleKind::ALL {
            for tp in TRIAL_TPS {
                assert_eq!(
                    cache.train_cost(module, tp).to_bits(),
                    profile.train_cost(module, tp).to_bits(),
                    "{module:?} tp={tp}"
                );
            }
        }
        assert!(cache.hits() > 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn off_grid_lookups_interpolate_and_count_as_misses() {
        let (model, profile) = model_and_profile();
        let cache = PerfCache::build(&model, &profile);
        let c3 = cache.train_cost(ModuleKind::Backbone, 3);
        assert_eq!(
            c3.to_bits(),
            profile.train_cost(ModuleKind::Backbone, 3).to_bits()
        );
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn real_profiles_are_bounds_sound_and_poisoned_tables_are_not() {
        let (model, profile) = model_and_profile();
        let cache = PerfCache::build(&model, &profile);
        assert!(cache.bounds_sound());
        let mut poisoned = PerfCache::build(&model, &profile);
        poisoned.train[1][2] = f64::NAN;
        assert!(!poisoned.bounds_sound());
        let mut negative = PerfCache::build(&model, &profile);
        negative.train[0][0] = -1.0;
        assert!(!negative.bounds_sound());
    }

    #[test]
    fn backbone_memory_matches_a_direct_call() {
        let (model, profile) = model_and_profile();
        let cache = PerfCache::build(&model, &profile);
        assert_eq!(cache.mean_shape, profile.mean_shape);
        assert_eq!(
            cache.backbone_memory,
            model.module_memory(ModuleKind::Backbone, &profile.mean_shape)
        );
    }
}
