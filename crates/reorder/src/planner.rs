//! The reordering stage: applies Algorithm 1 across DP groups and
//! Algorithm 2 within each DP rank's microbatch stream, using the task's
//! cost model to size samples. The preprocessing producer runs it on the
//! dedicated CPU nodes (§5.1), so it is free to the GPUs; the simulated
//! training runtime runs the same planner in-process.
//!
//! The passes read a batch priced into [`CostRows`] and only compute a
//! permutation ([`ReorderPlanner::reorder_indices`]); callers that already
//! hold the rows — the runtime's plan trials — never move a sample.
//! Algorithm 2 runs once per distinct rank stream, within one call: at
//! the production shape 104–106 of 128 ranks repeat their predecessor's
//! microbatch times and reuse its order (see [`crate::inter`]).

use crate::inter::InterReorder;
use crate::{intra_reorder_indices, InterReorderConfig};
use dt_data::cost::CostRows;
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
        let order = self.reorder_indices(&CostRows::new(&self.model, &samples));
        permute(samples, &order)
    }

    /// The order [`ReorderPlanner::reorder`] puts a batch in, from its
    /// cost rows (priced under this planner's model): position `k` of the
    /// new order holds sample `order[k]`. A batch the passes cannot split
    /// — not divisible into `dp` ranks of whole microbatches
    /// (`ReorderError::IndivisibleBatch`), or holding a non-finite size
    /// (`ReorderError::NonFiniteSize`) — keeps its order: the trainer
    /// validates divisibility anyway, and reordering must never corrupt
    /// the DP split.
    pub fn reorder_indices(&self, rows: &CostRows) -> Vec<usize> {
        let n = rows.len();
        let dp = self.dp.max(1) as usize;
        let m = self.microbatch.max(1) as usize;
        if matches!(self.mode, ReorderMode::None) || n == 0 || !n.is_multiple_of(dp * m) {
            return (0..n).collect();
        }

        // Algorithm 1: balance multimodal load across DP groups.
        let sizes = rows.multimodal_sizes();
        let Ok(balanced) = intra_reorder_indices(&sizes, dp) else {
            return (0..n).collect();
        };
        if matches!(self.mode, ReorderMode::IntraOnly) {
            return balanced;
        }

        // Algorithm 2: within each DP rank's contiguous chunk, permute
        // whole microbatches to fill the 1F1B intervals.
        let per_rank = n / dp;
        let mut alg2 = InterReorder::new(&self.inter_cfg);
        let mut mb_secs = Vec::with_capacity(per_rank / m);
        let mut order = Vec::with_capacity(n);
        for chunk in balanced.chunks(per_rank) {
            mb_secs.clear();
            mb_secs.extend(
                chunk
                    .chunks(m)
                    .map(|mb| mb.iter().map(|&i| sizes[i]).sum::<f64>() * self.secs_per_flop),
            );
            for &mb in alg2.order(&mb_secs) {
                order.extend_from_slice(&chunk[mb * m..(mb + 1) * m]);
            }
        }
        order
    }
}

/// `samples` rearranged so position `k` holds `samples[order[k]]`, by
/// following `order`'s cycles with swaps: the samples move, never clone.
fn permute<T>(mut samples: Vec<T>, order: &[usize]) -> Vec<T> {
    let mut placed = vec![false; order.len()];
    for start in 0..order.len() {
        let mut k = start;
        while !placed[k] {
            placed[k] = true;
            let src = order[k];
            if src == start {
                break;
            }
            samples.swap(k, src);
            k = src;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inter_reorder, max_group_load};
    use dt_data::cost::multimodal_size;
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
    fn permute_gathers_by_the_order() {
        let mut rng = dt_simengine::DetRng::new(3);
        for n in 0..40 {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.range_usize(0, i + 1));
            }
            let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let expected: Vec<String> = order.iter().map(|&i| items[i].clone()).collect();
            assert_eq!(permute(items, &order), expected, "n={n}");
        }
    }

    #[test]
    fn reorder_applies_reorder_indices() {
        let p = planner(ReorderMode::Full);
        let b = batch(32);
        let order = p.reorder_indices(&CostRows::new(&p.model, &b));
        let expected: Vec<u64> = order.iter().map(|&i| b[i].id).collect();
        let got: Vec<u64> = p.reorder(b).iter().map(|s| s.id).collect();
        assert_eq!(got, expected);
    }

    /// `reorder_indices` is Algorithm 1 followed by a fresh Algorithm 2 per
    /// DP rank, on 1920-sample MLLM-72B batches under the production
    /// planners' shapes (DP 128 / 3 stages, DP 15 / 22 stages) and on the
    /// skewed §2.3 stream. In the DP-128 production case most ranks repeat
    /// their predecessor's stream, so the repeat path runs.
    #[test]
    fn reorder_indices_matches_a_fresh_algorithm_2_per_rank() {
        let model = MllmPreset::Mllm72B.build();
        let train = InterReorderConfig::new(3, 0.8158, 1.6316);
        let deepest = InterReorderConfig::new(22, 0.0801, 0.1602);
        let cases = [
            (DataConfig::evaluation(512), 128, train.clone(), 6.28e-15),
            (DataConfig::evaluation(512), 15, deepest, 2.02e-15),
            (DataConfig::characterization(), 128, train, 6.28e-15),
        ];
        for (case, (data, dp, inter_cfg, secs_per_flop)) in cases.into_iter().enumerate() {
            let samples = SyntheticLaion::new(data, 42).take(1920);
            let p = ReorderPlanner {
                model: model.clone(),
                dp,
                microbatch: 1,
                inter_cfg,
                secs_per_flop,
                mode: ReorderMode::Full,
            };
            let rows = CostRows::new(&p.model, &samples);
            let sizes = rows.multimodal_sizes();
            let balanced = intra_reorder_indices(&sizes, dp as usize).unwrap();
            let mut expected = Vec::new();
            let (mut previous, mut repeats) = (Vec::new(), 0);
            for chunk in balanced.chunks(1920 / dp as usize) {
                let secs: Vec<f64> = chunk.iter().map(|&i| sizes[i] * secs_per_flop).collect();
                let key: Vec<u64> = secs.iter().map(|t| t.to_bits()).collect();
                repeats += usize::from(key == previous);
                let order = inter_reorder(&p.inter_cfg, &secs);
                expected.extend(order.iter().map(|&k| chunk[k]));
                previous = key;
            }
            assert_eq!(p.reorder_indices(&rows), expected, "case {case}");
            if case == 0 {
                assert!(repeats >= 100, "{repeats} of 128 ranks repeat");
            }
        }
    }

    #[test]
    fn non_finite_sizes_pass_through() {
        let p = planner(ReorderMode::Full);
        let b = batch(32);
        let mut rows = CostRows::new(&p.model, &b);
        rows.rows[5].gen_flops = f64::NAN;
        assert_eq!(p.reorder_indices(&rows), (0..32).collect::<Vec<_>>());
        rows.rows[5].gen_flops = f64::INFINITY;
        assert_eq!(p.reorder_indices(&rows), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn indivisible_batches_pass_through() {
        let b = batch(13); // 13 % 4 ≠ 0
        let out = planner(ReorderMode::Full).reorder(b.clone());
        assert_eq!(out, b);
    }
}
