//! Figures 13 & 14 — overall MFU and throughput at production scale.
//!
//! Up to 1296 GPUs (162 nodes), global batch 1920, MLLM-9B/15B/72B:
//! DistTrain vs the retrofitted Megatron-LM. Paper results: DistTrain
//! reaches 51.8–54.7% MFU, beating Megatron-LM by 1.7–2.8× (MFU) and
//! 1.7–2.2× (throughput) on the small/medium models, narrowing to
//! ~1.2×/1.3× on MLLM-72B where 1024² generation inflates the multimodal
//! modules for both systems.

use crate::experiments::{production_task, MEASURE_ITERS};
use crate::report::{fmt_pct, fmt_ratio, Report};
use disttrain_core::{SystemKind, TrainingReport};
use dt_model::MllmPreset;
use std::sync::OnceLock;

type Results = Vec<(MllmPreset, TrainingReport, TrainingReport)>;

fn results() -> &'static Results {
    static CELL: OnceLock<Results> = OnceLock::new();
    CELL.get_or_init(|| {
        MllmPreset::ALL
            .into_iter()
            .map(|preset| {
                let task = production_task(preset);
                let dt = task
                    .run(SystemKind::DistTrain, MEASURE_ITERS)
                    .expect("DistTrain plan");
                let mg = task
                    .run(SystemKind::MegatronLM, MEASURE_ITERS)
                    .expect("Megatron plan");
                (preset, dt, mg)
            })
            .collect()
    })
}

/// Figure 13: MFU.
pub fn run_mfu() -> Report {
    let mut r = Report::new(
        "Figure 13 — overall MFU (production scale, BS=1920, ≤1296 GPUs)",
        &[
            "model",
            "DistTrain MFU (GPUs)",
            "Megatron-LM MFU (GPUs)",
            "gain",
        ],
    );
    r.note("Paper: DistTrain 51.8–54.7% MFU; 1.7–2.8× over Megatron-LM for 9B/15B,");
    r.note("~1.2× for 72B (high-res generation inflates both systems' multimodal stages).");
    for (preset, dt, mg) in results() {
        r.row(vec![
            preset.build().name,
            format!("{} ({})", fmt_pct(dt.mfu()), dt.gpus()),
            format!("{} ({})", fmt_pct(mg.mfu()), mg.gpus()),
            fmt_ratio(dt.mfu() / mg.mfu()),
        ]);
    }
    r
}

/// Figure 14: training throughput.
pub fn run_throughput() -> Report {
    let mut r = Report::new(
        "Figure 14 — overall training throughput (production scale)",
        &[
            "model",
            "DistTrain samples/s",
            "Megatron-LM samples/s",
            "gain",
        ],
    );
    r.note("Paper: 1.7–2.2× for 9B/15B, ~1.3× for 72B.");
    for (preset, dt, mg) in results() {
        r.row(vec![
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
    fn disttrain_wins_at_production_scale_with_the_right_shape() {
        let res = results();
        let mut gains = Vec::new();
        for (preset, dt, mg) in res {
            let gain = dt.mfu() / mg.mfu();
            assert!(
                gain > 1.0,
                "{preset:?}: DistTrain must win (gain {gain:.2})"
            );
            assert!(
                (0.20..0.70).contains(&dt.mfu()),
                "{preset:?}: DistTrain MFU {:.3} outside the plausible band",
                dt.mfu()
            );
            gains.push(gain);
        }
        // The 72B gain must be the smallest (the paper's crossover trend).
        assert!(
            gains[2] < gains[0] && gains[2] < gains[1],
            "72B gain should be smallest: {gains:?}"
        );
    }
}
