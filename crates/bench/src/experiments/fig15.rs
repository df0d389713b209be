//! Figure 15 — the disaggregated-model-orchestration ablation (§7.2).
//!
//! ≤96 GPUs, global batch 128/64/40; DistTrain's orchestration vs
//! Megatron-LM's monolithic plan vs DistMM* (FLOPs-proportional). All three
//! share DistTrain's data path so the difference is orchestration alone.
//! Paper: DistTrain 1.3–2.7× the baselines; DistMM* beats Megatron but
//! trails DistTrain because it ignores the §4.2 performance model.

use crate::experiments::{ablation_task, MEASURE_ITERS};
use crate::report::{fmt_pct, fmt_ratio, Report};
use disttrain_core::{SystemKind, TrainingReport};
use dt_model::MllmPreset;
use dt_preprocess::ReorderMode;
use std::sync::OnceLock;

type Row = (MllmPreset, TrainingReport, TrainingReport, TrainingReport);

fn results() -> &'static Vec<Row> {
    static CELL: OnceLock<Vec<Row>> = OnceLock::new();
    CELL.get_or_init(|| {
        MllmPreset::ALL
            .into_iter()
            .map(|preset| {
                let task = ablation_task(preset);
                let dt = task
                    .run(SystemKind::DistTrain, MEASURE_ITERS)
                    .expect("DistTrain");
                // DistMM* and the Megatron plan both run with DistTrain's
                // data path (the §7.2 isolation): reordering + disaggregated
                // preprocessing, only the orchestration differs.
                let mut cfg = task.runtime_config(SystemKind::DistTrain, MEASURE_ITERS);
                cfg.reorder = ReorderMode::Full;
                let dm_plan = task.plan(SystemKind::DistMMStar).expect("DistMM* plan");
                let dm = task.run_with_plan(dm_plan, cfg.clone());
                let mg_plan = task.plan(SystemKind::MegatronLM).expect("Megatron plan");
                let mg = task.run_with_plan(mg_plan, cfg);
                (preset, dt, dm, mg)
            })
            .collect()
    })
}

/// Run the orchestration ablation.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 15 — model-orchestration ablation (≤96 GPUs; identical data path)",
        &[
            "model",
            "DistTrain (GPUs)",
            "DistMM* (GPUs)",
            "Megatron-LM (GPUs)",
            "gain vs worst",
        ],
    );
    r.note("Paper: DistTrain 1.3–2.7× higher MFU/throughput; DistMM* in between.");
    for (preset, dt, dm, mg) in results() {
        let worst = dm.mfu().min(mg.mfu());
        r.row(vec![
            preset.build().name,
            format!("{} ({})", fmt_pct(dt.mfu()), dt.gpus()),
            format!("{} ({})", fmt_pct(dm.mfu()), dm.gpus()),
            format!("{} ({})", fmt_pct(mg.mfu()), mg.gpus()),
            fmt_ratio(dt.mfu() / worst),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_disttrain_distmm_megatron() {
        for (preset, dt, dm, mg) in results() {
            assert!(
                dt.mfu() >= dm.mfu() * 0.999,
                "{preset:?}: DistTrain {:.3} < DistMM* {:.3}",
                dt.mfu(),
                dm.mfu()
            );
            assert!(
                dm.mfu() > mg.mfu(),
                "{preset:?}: DistMM* {:.3} ≤ Megatron {:.3}",
                dm.mfu(),
                mg.mfu()
            );
        }
    }
}
