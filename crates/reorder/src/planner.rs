//! The reordering stage: applies Algorithm 1 across DP groups and
//! Algorithm 2 within each DP rank's microbatch stream, using the task's
//! cost model to size samples. The preprocessing producer runs it on the
//! dedicated CPU nodes (§5.1), so it is free to the GPUs; the simulated
//! training runtime runs the same planner in-process.

use crate::{inter_reorder, intra_reorder_indices, InterReorderConfig};
use dt_data::cost::multimodal_size;
use dt_data::TrainSample;
use dt_model::MultimodalLlm;

/// Which reordering passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderMode {
    /// Megatron-LM's behavior: random order as generated.
    None,
    /// Algorithm 1 only (balance DP groups).
    IntraOnly,
    /// Algorithm 1 + Algorithm 2 (the DistTrain default).
    Full,
}

/// Sizes samples and permutes a global batch.
#[derive(Debug, Clone)]
pub struct ReorderPlanner {
    /// The model whose cost function sizes the samples.
    pub model: MultimodalLlm,
    /// Backbone DP size (Algorithm 1's `m`).
    pub dp: u32,
    /// Samples per microbatch.
    pub microbatch: u32,
    /// Pipeline shape for Algorithm 2's interval computation.
    pub inter_cfg: InterReorderConfig,
    /// Seconds per multimodal FLOP at the encoder/generator stage — scales
    /// sample sizes into the same unit as `inter_cfg`'s stage times.
    pub secs_per_flop: f64,
    /// Which passes run.
    pub mode: ReorderMode,
}

impl ReorderPlanner {
    /// Permute one global batch. Always returns a permutation of the input
    /// (the convergence-semantics invariant).
    pub fn reorder(&self, samples: Vec<TrainSample>) -> Vec<TrainSample> {
        if matches!(self.mode, ReorderMode::None) || samples.is_empty() {
            return samples;
        }
        let dp = self.dp.max(1) as usize;
        let m = self.microbatch.max(1) as usize;
        if !samples.len().is_multiple_of(dp * m) {
            // Misconfigured batch: refuse to reorder rather than corrupt
            // the DP split (the trainer validates divisibility anyway).
            // This is the documented pass-through policy for
            // `ReorderError::IndivisibleBatch` — checked up front so the
            // expect below is unreachable.
            return samples;
        }

        // Size every sample once; both passes permute indices into
        // `sizes`, and the samples themselves are moved, never cloned.
        let sizes: Vec<f64> = samples
            .iter()
            .map(|s| multimodal_size(&self.model, s))
            .collect();
        let mut slots: Vec<Option<TrainSample>> = samples.into_iter().map(Some).collect();
        let mut take = |i: usize| slots[i].take().expect("each index placed exactly once");

        // Algorithm 1: balance multimodal load across DP groups.
        let balanced = intra_reorder_indices(&sizes, dp).expect("divisibility checked above");
        if matches!(self.mode, ReorderMode::IntraOnly) {
            return balanced.into_iter().map(take).collect();
        }

        // Algorithm 2: within each DP rank's contiguous chunk, permute
        // whole microbatches to fill the 1F1B intervals.
        let per_rank = balanced.len() / dp;
        let mut out = Vec::with_capacity(balanced.len());
        for chunk in balanced.chunks(per_rank) {
            let microbatches: Vec<&[usize]> = chunk.chunks(m).collect();
            let mb_secs: Vec<f64> = microbatches
                .iter()
                .map(|mb| mb.iter().map(|&i| sizes[i]).sum::<f64>() * self.secs_per_flop)
                .collect();
            for idx in inter_reorder(&self.inter_cfg, &mb_secs) {
                out.extend(microbatches[idx].iter().map(|&i| take(i)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_group_load;
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::MllmPreset;

    fn planner(mode: ReorderMode) -> ReorderPlanner {
        ReorderPlanner {
            model: MllmPreset::Mllm9B.build(),
            dp: 4,
            microbatch: 1,
            inter_cfg: InterReorderConfig::new(4, 0.05, 0.10),
            secs_per_flop: 1e-14,
            mode,
        }
    }

    fn batch(n: usize) -> Vec<TrainSample> {
        SyntheticLaion::new(DataConfig::characterization(), 31).take(n)
    }

    fn ids(samples: &[TrainSample]) -> Vec<u64> {
        let mut v: Vec<u64> = samples.iter().map(|s| s.id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn none_mode_is_identity() {
        let b = batch(16);
        let out = planner(ReorderMode::None).reorder(b.clone());
        assert_eq!(out, b);
    }

    #[test]
    fn full_mode_is_a_permutation() {
        let b = batch(32);
        let out = planner(ReorderMode::Full).reorder(b.clone());
        assert_eq!(ids(&out), ids(&b));
        assert_ne!(out, b, "32 heterogeneous samples should actually move");
    }

    #[test]
    fn intra_pass_balances_dp_groups() {
        let p = planner(ReorderMode::IntraOnly);
        let b = batch(32);
        let sizes = |samples: &[TrainSample]| -> Vec<f64> {
            samples
                .iter()
                .map(|s| multimodal_size(&p.model, s))
                .collect()
        };
        let before = max_group_load(&sizes(&b), 4);
        let out = p.reorder(b);
        let after = max_group_load(&sizes(&out), 4);
        assert!(
            after <= before,
            "Alg 1 must not worsen the max group: {after} vs {before}"
        );
    }

    #[test]
    fn indivisible_batches_pass_through() {
        let b = batch(13); // 13 % 4 ≠ 0
        let out = planner(ReorderMode::Full).reorder(b.clone());
        assert_eq!(out, b);
    }
}
