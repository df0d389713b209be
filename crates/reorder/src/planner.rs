//! The reordering stage: applies Algorithm 1 across DP groups and
//! Algorithm 2 within each DP rank's microbatch stream, using the task's
//! cost model to size samples. The preprocessing producer runs it on the
//! dedicated CPU nodes (§5.1), so it is free to the GPUs; the simulated
//! training runtime runs the same planner in-process.
//!
//! The passes read a batch priced into [`CostRows`] and only compute a
//! permutation ([`ReorderPlanner::reorder_indices`]); callers that already
//! hold the rows — the runtime's iterations and plan trials — never move
//! a sample. Algorithm 2 runs once per distinct rank stream, within one
//! call: at the production shape 104–106 of 128 ranks repeat their
//! predecessor's microbatch times and reuse its order (see
//! [`crate::inter`]).
//!
//! The passes also run one DP rank at a time. Algorithm 1's order
//! ([`ReorderPlanner::balance`]) is a pure function of the sizes and the
//! DP width, so it is handed in, and plan trials of one width share it;
//! [`ReorderPlanner::try_for_each_rank`] runs Algorithm 2 rank by rank
//! and hands each rank's order to a callback that can stop the pass. A
//! plan trial stops there once its plan can no longer be chosen.
//! `reorder_indices` is that pass, collected.

use crate::inter::InterReorder;
use crate::{intra_reorder_indices, InterReorderConfig};
use dt_data::cost::CostRows;
use dt_data::TrainSample;
use dt_model::MultimodalLlm;
use std::ops::ControlFlow;

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
        // Samples are `Copy`: gathering them is one copy each.
        order.iter().map(|&i| samples[i]).collect()
    }

    /// The order [`ReorderPlanner::reorder`] puts a batch in, from its
    /// cost rows (priced under this planner's model): position `k` of the
    /// new order holds sample `order[k]`. A batch the passes cannot split
    /// — not divisible into `dp` ranks of whole microbatches
    /// (`ReorderError::IndivisibleBatch`), or holding a non-finite size
    /// (`ReorderError::NonFiniteSize`) — keeps its order: the trainer
    /// validates divisibility anyway, and reordering must never corrupt
    /// the DP split. This is [`ReorderPlanner::try_for_each_rank`]'s
    /// ranks, collected.
    pub fn reorder_indices(&self, rows: &CostRows) -> Vec<usize> {
        if matches!(self.mode, ReorderMode::None) {
            return (0..rows.len()).collect();
        }
        let sizes = rows.multimodal_sizes();
        let mut order = Vec::with_capacity(sizes.len());
        let all = self.try_for_each_rank::<()>(&sizes, self.balance(&sizes).as_deref(), |rank| {
            order.extend_from_slice(rank);
            ControlFlow::Continue(())
        });
        debug_assert!(all.is_continue());
        order
    }

    /// Algorithm 1's order of a batch whose multimodal sizes
    /// ([`CostRows::multimodal_sizes`]) are `sizes`, balanced over this
    /// planner's `dp` groups; `None` when Algorithm 1 cannot split it (an
    /// indivisible batch or a non-finite size), and the passes keep the
    /// batch's order. A pure function of `(sizes, dp)`: planners of one
    /// DP width can share it.
    pub fn balance(&self, sizes: &[f64]) -> Option<Vec<usize>> {
        intra_reorder_indices(sizes, self.dp.max(1) as usize).ok()
    }

    /// [`ReorderPlanner::reorder_indices`], one DP rank at a time: hands
    /// `rank` each rank's slice of the new order, in rank order, and
    /// stops at the first [`ControlFlow::Break`], which it returns.
    /// `balanced` is [`ReorderPlanner::balance`] of `sizes`. Algorithm 2
    /// runs for a rank only once the ranks before it were accepted, so a
    /// caller that stops early skips the rest of the pass. A batch the
    /// passes cannot split arrives in its own order: in ranks when it
    /// divides into `dp` ranks of whole microbatches, else in one slice.
    pub fn try_for_each_rank<B>(
        &self,
        sizes: &[f64],
        balanced: Option<&[usize]>,
        mut rank: impl FnMut(&[usize]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let n = sizes.len();
        let dp = self.dp.max(1) as usize;
        let m = self.microbatch.max(1) as usize;
        let divisible = n.is_multiple_of(dp * m);
        let per_rank = if divisible { n / dp } else { n }.max(1);
        let balanced = match balanced {
            Some(balanced) if divisible && !matches!(self.mode, ReorderMode::None) => balanced,
            _ => {
                let identity: Vec<usize> = (0..n).collect();
                return identity.chunks(per_rank).try_for_each(rank);
            }
        };
        debug_assert_eq!(balanced.len(), n, "Algorithm 1's order of these sizes");
        if matches!(self.mode, ReorderMode::IntraOnly) {
            return balanced.chunks(per_rank).try_for_each(rank);
        }

        // Algorithm 2: within each DP rank's contiguous chunk, permute
        // whole microbatches to fill the 1F1B intervals.
        let mut alg2 = InterReorder::new(&self.inter_cfg);
        let mut mb_secs = Vec::with_capacity(per_rank / m);
        let mut order = Vec::with_capacity(per_rank);
        for chunk in balanced.chunks(per_rank) {
            mb_secs.clear();
            mb_secs.extend(
                chunk
                    .chunks(m)
                    .map(|mb| mb.iter().map(|&i| sizes[i]).sum::<f64>() * self.secs_per_flop),
            );
            order.clear();
            for &mb in alg2.order(&mb_secs) {
                order.extend_from_slice(&chunk[mb * m..(mb + 1) * m]);
            }
            rank(&order)?;
        }
        ControlFlow::Continue(())
    }
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

    /// The per-rank pass hands over `dp` slices, in rank order, that
    /// concatenate to `reorder_indices`, and a break ends it at once.
    #[test]
    fn ranks_arrive_in_order_and_a_break_stops_the_pass() {
        for mode in [ReorderMode::None, ReorderMode::IntraOnly, ReorderMode::Full] {
            let p = planner(mode);
            let rows = CostRows::new(&p.model, batch(32));
            let sizes = rows.multimodal_sizes();
            let balanced = p.balance(&sizes);
            let mut ranks = Vec::new();
            let all = p.try_for_each_rank::<()>(&sizes, balanced.as_deref(), |rank| {
                ranks.push(rank.to_vec());
                ControlFlow::Continue(())
            });
            assert!(all.is_continue());
            assert_eq!(ranks.len(), 4, "{mode:?}");
            assert_eq!(ranks.concat(), p.reorder_indices(&rows), "{mode:?}");
            let mut seen = 0;
            let stopped = p.try_for_each_rank(&sizes, balanced.as_deref(), |_| {
                seen += 1;
                if seen == 2 {
                    ControlFlow::Break(seen)
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!((stopped, seen), (ControlFlow::Break(2), 2), "{mode:?}");
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
