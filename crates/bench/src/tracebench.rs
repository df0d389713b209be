//! Traced repro runs: the `repro --trace <path>` path.
//!
//! [`traced_run`] plans and runs a small DistTrain training job with the
//! trace recorder enabled, producing everything the observability layer
//! offers in one shot: the Chrome-trace JSON (open in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)), the per-module time-breakdown
//! table, and the per-rank ASCII Gantt.

use crate::report::{module_breakdown, Report};
use disttrain_core::{Runtime, SystemKind, TrainingReport, TrainingTask};
use dt_model::MllmPreset;
use dt_pipeline::render_trace_gantt;
use dt_simengine::TraceRecorder;
use dt_telemetry::Telemetry;

/// Everything one traced run produces.
pub struct TracedRun {
    /// The recorded spans (already origin-stitched across iterations).
    pub recorder: TraceRecorder,
    /// The per-iteration metrics the spans must be consistent with.
    pub report: TrainingReport,
    /// DP world size of the executed plan (one trace process per rank).
    pub ranks: u64,
    /// Per-stage module labels of the executed plan.
    pub stage_modules: Vec<String>,
}

impl TracedRun {
    /// The per-module time-breakdown table.
    pub fn breakdown(&self) -> Report {
        module_breakdown(&self.recorder, self.ranks)
    }

    /// The per-rank ASCII Gantt of the recorded spans.
    pub fn gantt(&self, width: usize) -> String {
        render_trace_gantt(&self.recorder, width)
    }
}

/// Plan `task` under DistTrain's policies and run `iterations` with the
/// trace recorder enabled. Returns `None` when no feasible plan exists.
pub fn traced_run(task: &TrainingTask, iterations: u32) -> Option<TracedRun> {
    let plan = task.plan(SystemKind::DistTrain).ok()?;
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, iterations),
    };
    let mut recorder = TraceRecorder::enabled();
    let report = runtime.run_telemetry(&mut recorder, &Telemetry::disabled());
    Some(TracedRun {
        recorder,
        report,
        ranks: plan.backbone.dp as u64,
        stage_modules: runtime.stage_modules(),
    })
}

/// The default observability demo: the §7.2 ablation task on the 9B
/// preset, two iterations — small enough to run in seconds, rich enough to
/// show warm-up bubbles, broker hops, gradient sync, and the preprocessing
/// stall.
pub fn default_traced_run() -> TracedRun {
    let task = crate::experiments::ablation_task(MllmPreset::Mllm9B);
    traced_run(&task, crate::experiments::MEASURE_ITERS).expect("ablation task must plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::trace::cat;
    use dt_simengine::SimDuration;

    #[test]
    fn traced_run_is_consistent_with_its_report() {
        let run = default_traced_run();
        let rec = &run.recorder;
        rec.validate_nesting().expect("span nesting");

        // Per-rank stage tracks tile the summed pipeline windows exactly.
        let total_pipeline: SimDuration =
            run.report.iterations.iter().map(|i| i.pipeline_time).sum();
        let stages = run.stage_modules.len() as u64;
        for rank in 0..run.ranks {
            for tid in 0..stages {
                assert_eq!(rec.track_total(rank, tid, None), total_pipeline);
            }
        }
        // Iteration umbrella spans sum to end-to-end training time.
        let total_iter: SimDuration = run.report.iterations.iter().map(|i| i.iter_time).sum();
        assert_eq!(rec.category_total(cat::ITERATION), total_iter);
    }

    #[test]
    fn traced_run_round_trips_through_chrome_json() {
        let run = default_traced_run();
        let json = run.recorder.to_chrome_json();
        let back = TraceRecorder::from_chrome_json(&json).expect("valid chrome trace");
        assert_eq!(back.len(), run.recorder.len());
        let total_pipeline: SimDuration =
            run.report.iterations.iter().map(|i| i.pipeline_time).sum();
        assert_eq!(back.track_total(0, 0, None), total_pipeline);
    }

    #[test]
    fn breakdown_covers_all_modules() {
        let run = default_traced_run();
        let table = run.breakdown().render();
        for module in ["encoder", "llm", "generator", "(runtime)"] {
            assert!(table.contains(module), "missing {module} row:\n{table}");
        }
    }

    #[test]
    fn gantt_renders_one_row_per_track() {
        let run = default_traced_run();
        let gantt = run.gantt(72);
        assert_eq!(gantt.lines().count(), run.recorder.tracks().len());
    }
}
