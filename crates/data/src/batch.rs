//! Global batch → DP group → microbatch bookkeeping.
//!
//! One training iteration consumes a *global batch* of `BS` samples. The
//! batch is split into `DP` contiguous chunks (one per data-parallel group);
//! each chunk is consumed as microbatches of `M` samples that flow through
//! the pipeline one after another. Contiguity matters: Algorithm 1 balances
//! the DP groups precisely by permuting the global order so that the
//! contiguous chunks have equal total size, and Algorithm 2 then permutes
//! microbatches *within* one chunk.

use crate::dataset::TrainSample;

/// The samples of one DP rank's microbatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Microbatch {
    /// Samples trained together in one pipeline pass.
    pub samples: Vec<TrainSample>,
}

/// One iteration's worth of training samples, in training order.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalBatch {
    /// All samples, in the (possibly reordered) order they will be
    /// dispatched.
    pub samples: Vec<TrainSample>,
}

impl GlobalBatch {
    /// Wrap a sample list.
    pub fn new(samples: Vec<TrainSample>) -> Self {
        GlobalBatch { samples }
    }

    /// Global batch size.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Split into `dp` contiguous per-rank chunks of microbatches holding
    /// `microbatch` samples each.
    ///
    /// Requires `len == dp × microbatch × k` for integer `k` (the trainer
    /// validates batch divisibility at startup, as Megatron does).
    pub fn split(&self, dp: u32, microbatch: u32) -> Vec<Vec<Microbatch>> {
        self.split_slices(dp, microbatch)
            .into_iter()
            .map(|rank| {
                rank.into_iter()
                    .map(|mb| Microbatch {
                        samples: mb.to_vec(),
                    })
                    .collect()
            })
            .collect()
    }

    /// [`GlobalBatch::split`] without copying: each microbatch is a slice
    /// of `samples`.
    pub fn split_slices(&self, dp: u32, microbatch: u32) -> Vec<Vec<&[TrainSample]>> {
        let dp = dp.max(1) as usize;
        let m = microbatch.max(1) as usize;
        assert!(
            self.samples.len().is_multiple_of(dp * m),
            "global batch {} not divisible by dp {} × microbatch {}",
            self.samples.len(),
            dp,
            m
        );
        let per_rank = self.samples.len() / dp;
        self.samples
            .chunks(per_rank)
            .map(|chunk| chunk.chunks(m).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataConfig;
    use crate::dataset::SyntheticLaion;

    fn batch(n: usize) -> GlobalBatch {
        let mut s = SyntheticLaion::new(DataConfig::characterization(), 5);
        GlobalBatch::new(s.take(n))
    }

    #[test]
    fn split_is_contiguous_and_lossless() {
        let b = batch(16);
        let split = b.split(4, 2);
        assert_eq!(split.len(), 4);
        let mut flat = Vec::new();
        for rank in &split {
            assert_eq!(rank.len(), 2); // 16/(4·2)=2 microbatches per rank
            for mb in rank {
                assert_eq!(mb.samples.len(), 2);
                flat.extend(mb.samples.iter().map(|s| s.id));
            }
        }
        assert_eq!(flat, b.samples.iter().map(|s| s.id).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_batch_is_rejected() {
        batch(10).split(4, 1);
    }
}
