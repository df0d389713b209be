//! Figures 18 & 19 — frozen training (§7.3).
//!
//! Four settings — complete freezing (projectors only), encoder-only,
//! LLM-only, generator-only — across the three models, DistTrain vs
//! Megatron-LM. Paper: 1.4–2.9× MFU and 1.2–2.9× throughput; the gap is
//! *larger* than in full training because the monolithic plan cannot
//! shift resources away from frozen modules while DistTrain re-orchestrates
//! per setting.

use crate::experiments::{ablation_task_with, MEASURE_ITERS};
use crate::report::{fmt_pct, fmt_ratio, Report};
use disttrain_core::{SystemKind, TrainingReport};
use dt_model::{FreezeConfig, MllmPreset, MultimodalLlm};
use std::sync::OnceLock;

/// The §7.3 settings in presentation order.
pub fn settings() -> [(&'static str, FreezeConfig); 4] {
    [
        ("projectors-only", FreezeConfig::all_frozen()),
        ("encoder-only", FreezeConfig::encoder_only()),
        ("LLM-only", FreezeConfig::llm_only()),
        ("generator-only", FreezeConfig::generator_only()),
    ]
}

type Row = (&'static str, MllmPreset, TrainingReport, TrainingReport);

fn results() -> &'static Vec<Row> {
    static CELL: OnceLock<Vec<Row>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rows = Vec::new();
        for (name, freeze) in settings() {
            for preset in MllmPreset::ALL {
                let model = MultimodalLlm::preset(preset, freeze);
                let task = ablation_task_with(model, preset);
                let dt = task
                    .run(SystemKind::DistTrain, MEASURE_ITERS)
                    .expect("DistTrain");
                let mg = task
                    .run(SystemKind::MegatronLM, MEASURE_ITERS)
                    .expect("Megatron");
                rows.push((name, preset, dt, mg));
            }
        }
        rows
    })
}

/// Figure 18: frozen-training MFU.
pub fn run_mfu() -> Report {
    let mut r = Report::new(
        "Figure 18 — MFU under frozen training (≤96 GPUs)",
        &[
            "setting",
            "model",
            "DistTrain (GPUs)",
            "Megatron-LM (GPUs)",
            "gain",
        ],
    );
    r.note("Paper: 1.4–2.9× — larger than full training because the monolithic");
    r.note("plan cannot move GPUs away from frozen modules.");
    for (name, preset, dt, mg) in results() {
        r.row(vec![
            (*name).into(),
            preset.build().name,
            format!("{} ({})", fmt_pct(dt.mfu()), dt.gpus()),
            format!("{} ({})", fmt_pct(mg.mfu()), mg.gpus()),
            fmt_ratio(dt.mfu() / mg.mfu()),
        ]);
    }
    r
}

/// Figure 19: frozen-training throughput.
pub fn run_throughput() -> Report {
    let mut r = Report::new(
        "Figure 19 — throughput under frozen training (≤96 GPUs)",
        &[
            "setting",
            "model",
            "DistTrain samples/s",
            "Megatron-LM samples/s",
            "gain",
        ],
    );
    r.note("Paper: 1.2–2.9×.");
    for (name, preset, dt, mg) in results() {
        r.row(vec![
            (*name).into(),
            preset.build().name,
            format!("{:.2}", dt.samples_per_sec()),
            format!("{:.2}", mg.samples_per_sec()),
            fmt_ratio(dt.samples_per_sec() / mg.samples_per_sec()),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disttrain_wins_every_frozen_setting() {
        for (name, preset, dt, mg) in results() {
            assert!(
                dt.mfu() > mg.mfu(),
                "{name}/{preset:?}: DistTrain {:.3} vs Megatron {:.3}",
                dt.mfu(),
                mg.mfu()
            );
        }
    }
}
