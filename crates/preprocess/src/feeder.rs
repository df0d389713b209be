//! The consumer side: what the GPU training process sees.
//!
//! [`ColocatedFeeder`] is the monolithic baseline — preprocessing runs
//! synchronously on the training thread, so its full cost lands on the
//! iteration (§2.1). DistTrain's path is the prefetching
//! [`crate::consumer::MultiFeeder`], which delivers the same
//! [`PreprocessedBatch`]es from one or more TCP producers. Both report the
//! *stall* they impose on training ([`FeederReport`]), which is exactly
//! the metric Figure 17 plots.

use crate::service::preprocess_parallel;
use dt_data::{DataConfig, GlobalBatch, SyntheticLaion};
use dt_reorder::ReorderPlanner;
use std::time::{Duration, Instant};

/// One preprocessed global batch, as delivered to the trainer.
#[derive(Debug, Clone)]
pub struct PreprocessedBatch {
    /// The samples, in dispatch order (already reordered when the producer
    /// runs a [`ReorderPlanner`]).
    pub batch: GlobalBatch,
    /// Per-sample token-byte lengths.
    pub token_lens: Vec<u64>,
    /// Concatenated token bytes.
    pub tokens: Vec<u8>,
    /// CPU time the producer spent on this batch.
    pub producer_cpu: Duration,
}

/// What one `next_batch` call cost the training thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeederReport {
    /// Wall-clock the training thread was blocked waiting for data — the
    /// per-iteration preprocessing overhead on the GPU side (Figure 17).
    pub stall: Duration,
}

/// Monolithic baseline: generate + reorder + preprocess inline.
pub struct ColocatedFeeder {
    gen: SyntheticLaion,
    planner: Option<ReorderPlanner>,
    workers: u32,
}

impl ColocatedFeeder {
    /// Create the inline feeder. `workers` matches the CPU threads the
    /// training process can spare (it shares the node with the trainer).
    pub fn new(data: DataConfig, seed: u64, planner: Option<ReorderPlanner>, workers: u32) -> Self {
        ColocatedFeeder {
            gen: SyntheticLaion::new(data, seed),
            planner,
            workers,
        }
    }

    /// Produce the next global batch synchronously.
    pub fn next_batch(&mut self, count: u32) -> (PreprocessedBatch, FeederReport) {
        let started = Instant::now();
        let mut samples = self.gen.take(count as usize);
        if let Some(planner) = &self.planner {
            samples = planner.reorder(samples);
        }
        let tokens = preprocess_parallel(&samples, self.workers);
        let token_lens: Vec<u64> = tokens.iter().map(|t| t.len() as u64).collect();
        let payload = tokens.concat();
        let elapsed = started.elapsed();
        (
            PreprocessedBatch {
                batch: GlobalBatch::new(samples),
                token_lens,
                tokens: payload,
                producer_cpu: elapsed,
            },
            FeederReport { stall: elapsed },
        )
    }
}

/// Chrome-trace process id for the consumer's wall-clock spans (prefetch
/// round trips and trainer-visible stalls); adjacent to
/// [`crate::service::PREPROCESS_PID`].
pub const CONSUMER_PID: u64 = 1_001;

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::ResolutionMode;

    fn tiny_data() -> DataConfig {
        DataConfig {
            resolution: ResolutionMode::Fixed(64),
            ..DataConfig::evaluation(64)
        }
    }

    #[test]
    fn colocated_stall_equals_the_work() {
        let mut feeder = ColocatedFeeder::new(tiny_data(), 3, None, 1);
        let (batch, report) = feeder.next_batch(4);
        assert!(
            report.stall >= batch.producer_cpu / 2,
            "inline stall must reflect the work"
        );
        assert!(!report.stall.is_zero());
    }
}
