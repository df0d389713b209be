//! Training metrics: MFU and throughput (§7 *Metrics*).
//!
//! *"MFU measures the percentage of GPU FLOPs that are effectively
//! utilized during training"*: the model FLOPs the batch mathematically
//! requires, divided by (iteration time × allocated GPUs × peak FLOP/s).
//! Throughput is reported in samples/s and tokens/s.

use dt_simengine::SimDuration;

/// Metrics of one simulated training iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterationReport {
    /// End-to-end iteration time.
    pub iter_time: SimDuration,
    /// Pipeline portion of the iteration (no grad sync / stalls).
    pub pipeline_time: SimDuration,
    /// Gradient synchronization time.
    pub grad_sync: SimDuration,
    /// Preprocessing stall charged to the GPUs this iteration.
    pub preprocess_stall: SimDuration,
    /// Model FLOPs the batch required.
    pub model_flops: f64,
    /// Mean pipeline bubble fraction across ranks.
    pub bubble_fraction: f64,
    /// GPUs allocated by the plan.
    pub gpus: u32,
    /// Samples trained.
    pub samples: u32,
    /// Tokens trained.
    pub tokens: u64,
}

impl IterationReport {
    /// Model FLOPs Utilization for the iteration.
    pub fn mfu(&self, peak_flops_per_gpu: f64) -> f64 {
        let denom = self.iter_time.as_secs_f64() * self.gpus as f64 * peak_flops_per_gpu;
        if denom <= 0.0 {
            0.0
        } else {
            self.model_flops / denom
        }
    }
}

/// Aggregate over a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Per-iteration reports, in order.
    pub iterations: Vec<IterationReport>,
    /// Peak FLOP/s of one GPU (for MFU).
    pub peak_flops_per_gpu: f64,
}

impl TrainingReport {
    /// Total run time in seconds.
    fn total_secs(&self) -> f64 {
        self.iterations
            .iter()
            .map(|i| i.iter_time.as_secs_f64())
            .sum()
    }

    /// Run-level MFU, time-weighted: total model FLOPs divided by total
    /// GPU-seconds × peak. An unweighted mean of per-iteration ratios
    /// over-credits short iterations and misreports runs whose iteration
    /// times differ (stragglers, elastic-degraded epochs); the
    /// time-weighted form equals the per-iteration MFU when all
    /// iterations are identical.
    pub fn mfu(&self) -> f64 {
        let gpu_secs: f64 = self
            .iterations
            .iter()
            .map(|i| i.iter_time.as_secs_f64() * i.gpus as f64)
            .sum();
        let denom = gpu_secs * self.peak_flops_per_gpu;
        if denom <= 0.0 {
            return 0.0;
        }
        self.iterations.iter().map(|i| i.model_flops).sum::<f64>() / denom
    }

    /// Run-level samples/s: total samples over total seconds.
    pub fn samples_per_sec(&self) -> f64 {
        let t = self.total_secs();
        if t <= 0.0 {
            return 0.0;
        }
        self.iterations
            .iter()
            .map(|i| i.samples as f64)
            .sum::<f64>()
            / t
    }

    /// Run-level tokens/s: total tokens over total seconds.
    pub fn tokens_per_sec(&self) -> f64 {
        let t = self.total_secs();
        if t <= 0.0 {
            return 0.0;
        }
        self.iterations.iter().map(|i| i.tokens as f64).sum::<f64>() / t
    }

    /// Mean iteration seconds.
    pub fn mean_iter_secs(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations
            .iter()
            .map(|i| i.iter_time.as_secs_f64())
            .sum::<f64>()
            / self.iterations.len() as f64
    }

    /// GPUs used (constant across iterations).
    pub fn gpus(&self) -> u32 {
        self.iterations.first().map_or(0, |i| i.gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(secs: f64, flops: f64, gpus: u32) -> IterationReport {
        IterationReport {
            iter_time: SimDuration::from_secs_f64(secs),
            pipeline_time: SimDuration::from_secs_f64(secs),
            grad_sync: SimDuration::ZERO,
            preprocess_stall: SimDuration::ZERO,
            model_flops: flops,
            bubble_fraction: 0.0,
            gpus,
            samples: 10,
            tokens: 81920,
        }
    }

    #[test]
    fn mfu_matches_hand_computation() {
        // 100 GPUs × 1e12 peak × 2s = 2e14 available; 1e14 used → 50%.
        let i = iter(2.0, 1e14, 100);
        assert!((i.mfu(1e12) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_divides_by_time() {
        let i = TrainingReport {
            iterations: vec![iter(2.0, 1e14, 100)],
            peak_flops_per_gpu: 1e12,
        };
        assert_eq!(i.samples_per_sec(), 5.0);
        assert_eq!(i.tokens_per_sec(), 40960.0);
    }

    #[test]
    fn report_aggregates_are_time_weighted() {
        let r = TrainingReport {
            iterations: vec![iter(1.0, 1e14, 100), iter(3.0, 1e14, 100)],
            peak_flops_per_gpu: 1e12,
        };
        assert!((r.mean_iter_secs() - 2.0).abs() < 1e-12);
        // Total flops 2e14 over 4 s × 100 GPUs × 1e12 peak = 4e14 → 0.5,
        // NOT the unweighted mean of per-iteration ratios (2/3).
        assert!((r.mfu() - 0.5).abs() < 1e-9);
        // 20 samples over 4 s.
        assert!((r.samples_per_sec() - 5.0).abs() < 1e-9);
        assert!((r.tokens_per_sec() - 2.0 * 81920.0 / 4.0).abs() < 1e-6);
        assert_eq!(r.gpus(), 100);
    }

    #[test]
    fn uniform_iterations_match_the_per_iteration_ratio() {
        let r = TrainingReport {
            iterations: vec![iter(2.0, 1e14, 100); 3],
            peak_flops_per_gpu: 1e12,
        };
        assert!((r.mfu() - r.iterations[0].mfu(1e12)).abs() < 1e-12);
        let first = &r.iterations[0];
        let first_samples_per_sec = first.samples as f64 / first.iter_time.as_secs_f64();
        assert!((r.samples_per_sec() - first_samples_per_sec).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = TrainingReport {
            iterations: vec![],
            peak_flops_per_gpu: 1e12,
        };
        assert_eq!(r.mfu(), 0.0);
        assert_eq!(r.gpus(), 0);
    }
}
