//! Simulation output: the executed timeline plus derived metrics.

use dt_simengine::{SimDuration, SimTime};

/// Kind of a timeline operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

/// One executed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Pipeline stage index.
    pub stage: usize,
    /// Microbatch index.
    pub microbatch: usize,
    /// Forward or backward.
    pub kind: OpKind,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

/// The executed pipeline of one iteration.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Number of stages.
    pub stages: usize,
    /// Number of microbatches.
    pub microbatches: usize,
    /// Every executed operation, stage-major, each stage's in its order.
    pub timeline: Vec<OpRecord>,
    /// End-to-end iteration makespan.
    pub makespan: SimDuration,
}

impl PipelineResult {
    /// Operations of one stage, in execution order.
    pub fn stage_ops(&self, stage: usize) -> impl Iterator<Item = &OpRecord> {
        self.timeline.iter().filter(move |op| op.stage == stage)
    }

    /// Busy time of a stage (sum of op durations).
    pub fn stage_busy(&self, stage: usize) -> SimDuration {
        self.stage_ops(stage).map(|op| op.end - op.start).sum()
    }

    /// Bubble fraction of a stage: idle share of the makespan.
    pub fn stage_bubble_fraction(&self, stage: usize) -> f64 {
        bubble_fraction(std::iter::once(self.stage_busy(stage)), self.makespan)
    }

    /// Mean bubble fraction across stages — the pipeline-efficiency number
    /// the Figure 4 discussion is about.
    pub fn mean_bubble_fraction(&self) -> f64 {
        bubble_fraction((0..self.stages).map(|s| self.stage_busy(s)), self.makespan)
    }
}

/// Mean idle share of `makespan` over stages busy for `busy` (0 for no
/// stages or an empty makespan).
pub(crate) fn bubble_fraction(
    busy: impl ExactSizeIterator<Item = SimDuration>,
    makespan: SimDuration,
) -> f64 {
    let (stages, total) = (busy.len(), makespan.as_secs_f64());
    if stages == 0 || total == 0.0 {
        return 0.0;
    }
    busy.map(|b| 1.0 - b.as_secs_f64() / total).sum::<f64>() / stages as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: usize, mb: usize, kind: OpKind, start: u64, end: u64) -> OpRecord {
        OpRecord {
            stage,
            microbatch: mb,
            kind,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    fn toy() -> PipelineResult {
        PipelineResult {
            stages: 2,
            microbatches: 2,
            timeline: vec![
                rec(0, 0, OpKind::Forward, 0, 10),
                rec(0, 1, OpKind::Forward, 10, 20),
                rec(0, 0, OpKind::Backward, 40, 60),
                rec(0, 1, OpKind::Backward, 60, 80),
                rec(1, 0, OpKind::Forward, 10, 20),
                rec(1, 0, OpKind::Backward, 20, 40),
                rec(1, 1, OpKind::Backward, 40, 60),
            ],
            makespan: SimDuration::from_nanos(80),
        }
    }

    #[test]
    fn busy_time_sums_ops() {
        let r = toy();
        assert_eq!(r.stage_busy(0), SimDuration::from_nanos(60));
        assert_eq!(r.stage_busy(1), SimDuration::from_nanos(50));
    }

    #[test]
    fn bubble_fraction_is_idle_share() {
        let r = toy();
        assert!((r.stage_bubble_fraction(0) - 0.25).abs() < 1e-12);
        assert!((r.mean_bubble_fraction() - (0.25 + 0.375) / 2.0).abs() < 1e-12);
    }
}
