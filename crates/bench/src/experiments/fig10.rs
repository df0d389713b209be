//! Figure 10 — the warm-up/steady decomposition of the training pipeline.
//!
//! Validates the §4.2 analytic objective (Equations 1–2) against the
//! dependency-exact pipeline simulation: the formulation that drives the
//! orchestrator must track what the simulator actually executes.

use crate::experiments::ablation_task;
use crate::report::{fmt_secs, Report};
use disttrain_core::{Runtime, SystemKind};
use dt_cluster::CollectiveCost;
use dt_data::{GlobalBatch, SyntheticLaion};
use dt_model::MllmPreset;
use dt_orchestrator::formulate::predict_plan;
use dt_orchestrator::{PerfModel, Profiler};

/// Compare prediction and simulation; returns `(predicted, simulated)`
/// iteration seconds (pipeline portion).
pub fn predicted_vs_simulated(preset: MllmPreset) -> (f64, f64) {
    let task = ablation_task(preset);
    let plan = task.plan(SystemKind::DistTrain).expect("plan");
    let coll = CollectiveCost::new(task.cluster.clone());
    let perf = PerfModel::new(&task.model, &task.cluster.node.gpu, &coll);
    let mut data = SyntheticLaion::new(task.data.clone(), task.seed);
    let profile = Profiler.profile(&perf, &data.take(64));
    let predicted = predict_plan(&task.problem_spec(), &profile, &perf, &plan)
        .expect("prediction")
        .total();

    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, 1),
    };
    let batch = GlobalBatch::new(data.take(task.global_batch as usize));
    let report = runtime.simulate_iteration(&perf, &batch);
    (predicted, report.iter_time.as_secs_f64())
}

/// Run the validation across presets.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 10 — Eq.1+Eq.2 analytic iteration time vs dependency-exact simulation",
        &["model", "predicted", "simulated", "rel. error"],
    );
    r.note("The orchestration objective must track the executed pipeline;");
    r.note("residual error comes from data heterogeneity and broker hops the");
    r.note("closed form abstracts away.");
    for preset in MllmPreset::ALL {
        let (pred, sim) = predicted_vs_simulated(preset);
        r.row(vec![
            preset.build().name,
            fmt_secs(pred),
            fmt_secs(sim),
            format!("{:+.1}%", (pred - sim) / sim * 100.0),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_tracks_simulation_within_forty_percent() {
        // The analytic form ignores heterogeneity and hop latency, so it
        // under-predicts; it must still be the right magnitude to steer
        // the search.
        let (pred, sim) = predicted_vs_simulated(MllmPreset::Mllm9B);
        let rel = (pred - sim).abs() / sim;
        assert!(
            rel < 0.4,
            "prediction off by {:.0}% ({pred:.2}s vs {sim:.2}s)",
            rel * 100.0
        );
    }
}
