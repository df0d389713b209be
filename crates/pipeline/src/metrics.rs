//! Deriving registry metrics from an executed pipeline timeline.
//!
//! [`record_pipeline_metrics`] is the metrics twin of
//! [`crate::trace::record_pipeline_trace`]: instead of spans it feeds
//! three `dt-telemetry` histogram families, labelled per stage (and per
//! module when the caller supplies the stage→module map):
//!
//! * `dt_pipeline_stage_compute_seconds` — one observation per executed
//!   forward/backward op;
//! * `dt_pipeline_stage_comm_seconds` — one observation per stage
//!   boundary, the hop cost the simulation ran with;
//! * `dt_pipeline_stage_bubble_fraction` — one observation per stage per
//!   iteration, `1 − busy/makespan`.
//!
//! A disabled [`Telemetry`] handle skips all of it — not even the label
//! strings are materialised.

use crate::result::PipelineResult;
use dt_simengine::SimDuration;
use dt_telemetry::{names, Telemetry};

/// Record per-stage compute/comm/bubble metrics for one executed pipeline.
///
/// `comm` is the per-boundary hop cost vector the simulation ran with
/// (`PipelineSpec::comm`); `stage_modules` optionally maps each stage to
/// its module label ("encoder"/"llm"/"generator") — stages beyond its
/// length get the label `"?"`.
pub fn record_pipeline_metrics(
    tel: &Telemetry,
    result: &PipelineResult,
    comm: &[SimDuration],
    stage_modules: &[String],
) {
    tel.with(|r| {
        let makespan = result.makespan.as_secs_f64();
        for stage in 0..result.stages {
            let stage_label = stage.to_string();
            let module = stage_modules.get(stage).map_or("?", String::as_str);
            let labels = [("stage", stage_label.as_str()), ("module", module)];

            let compute = r.histogram(names::PIPELINE_STAGE_COMPUTE_SECONDS, &labels);
            for op in result.stage_ops(stage) {
                compute.observe(op.end.since(op.start).as_secs_f64());
            }

            if makespan > 0.0 {
                r.histogram(names::PIPELINE_STAGE_BUBBLE_FRACTION, &labels)
                    .observe(result.stage_bubble_fraction(stage));
            }

            // Boundary `stage` sits between `stage` and `stage + 1`.
            if let Some(hop) = comm.get(stage) {
                r.histogram(names::PIPELINE_STAGE_COMM_SECONDS, &labels)
                    .observe(hop.as_secs_f64());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::sim::{simulate, PipelineSpec, Workload};

    fn run(p: usize, l: usize) -> (PipelineResult, PipelineSpec) {
        let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::from_millis(1));
        let fwd = vec![SimDuration::from_millis(10); p];
        let bwd = vec![SimDuration::from_millis(20); p];
        let result = simulate(&spec, &Workload::homogeneous(&fwd, &bwd, l));
        (result, spec)
    }

    #[test]
    fn compute_observations_cover_every_op() {
        let (result, spec) = run(3, 4);
        let tel = Telemetry::enabled();
        let modules = vec![
            "encoder".to_string(),
            "llm".to_string(),
            "generator".to_string(),
        ];
        record_pipeline_metrics(&tel, &result, &spec.comm, &modules);
        let snap = tel.snapshot();
        let mut total_ops = 0;
        for (stage, module) in modules.iter().enumerate() {
            let labels = [("stage", stage.to_string()), ("module", module.clone())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let h = snap
                .histogram_value(names::PIPELINE_STAGE_COMPUTE_SECONDS, &labels)
                .expect("per-stage compute histogram");
            total_ops += h.count;
            // Per-stage compute sum equals the stage's busy time.
            let busy = result.stage_busy(stage).as_secs_f64();
            assert!((h.sum - busy).abs() / busy < 1e-6, "stage {stage}");
            let bubble = snap
                .histogram_value(names::PIPELINE_STAGE_BUBBLE_FRACTION, &labels)
                .expect("bubble histogram");
            assert_eq!(bubble.count, 1);
        }
        // Each of 4 microbatches runs fwd+bwd on each of 3 stages.
        assert_eq!(total_ops, 24);
    }

    #[test]
    fn comm_histograms_exist_per_boundary() {
        let (result, spec) = run(3, 2);
        let tel = Telemetry::enabled();
        record_pipeline_metrics(&tel, &result, &spec.comm, &[]);
        let snap = tel.snapshot();
        // Boundaries 0 and 1 exist for a 3-stage pipeline; module unknown.
        for stage in 0..2 {
            let stage_label = stage.to_string();
            let h = snap
                .histogram_value(
                    names::PIPELINE_STAGE_COMM_SECONDS,
                    &[("stage", stage_label.as_str()), ("module", "?")],
                )
                .expect("boundary comm histogram");
            assert_eq!(h.count, 1);
            assert!((h.sum - 1e-3).abs() < 1e-9);
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let (result, spec) = run(2, 2);
        let tel = Telemetry::disabled();
        record_pipeline_metrics(&tel, &result, &spec.comm, &[]);
        assert!(tel.snapshot().entries.is_empty());
    }
}
