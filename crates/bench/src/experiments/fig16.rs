//! Figure 16 — the disaggregated-data-preprocessing ablation (§7.2).
//!
//! DistTrain's optimal plan with its two-level reordering vs the same plan
//! fed in Megatron-LM's random order, everything else equal. Paper:
//! 1.03–1.11× higher MFU/throughput, with the gap growing as the model
//! shrinks (smaller model ⇒ larger DP ⇒ more intra-microbatch
//! heterogeneity to balance).

use crate::experiments::{ablation_task, MEASURE_ITERS};
use crate::report::{fmt_pct, fmt_ratio, Report};
use disttrain_core::SystemKind;
use dt_model::MllmPreset;
use dt_reorder::ReorderMode;
use std::sync::OnceLock;

type Row = (MllmPreset, f64, f64, u32); // (preset, reordered MFU, random MFU, dp)

fn results() -> &'static Vec<Row> {
    static CELL: OnceLock<Vec<Row>> = OnceLock::new();
    CELL.get_or_init(|| {
        MllmPreset::ALL
            .into_iter()
            .map(|preset| {
                let task = ablation_task(preset);
                let plan = task.plan(SystemKind::DistTrain).expect("plan");
                let cfg = task.runtime_config(SystemKind::DistTrain, MEASURE_ITERS);
                let reordered = task.run_with_plan(plan, cfg.clone());
                let mut random_cfg = cfg;
                random_cfg.reorder = ReorderMode::None;
                let random = task.run_with_plan(plan, random_cfg);
                (preset, reordered.mfu(), random.mfu(), plan.backbone.dp)
            })
            .collect()
    })
}

/// Run the reordering ablation.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 16 — data-preprocessing/reordering ablation (DistTrain plan, ≤96 GPUs)",
        &["model", "DP", "reordered MFU", "random MFU", "gain"],
    );
    r.note("Paper: 1.03–1.11×, larger for smaller models (bigger DP ⇒ more");
    r.note("intra-microbatch heterogeneity for Algorithm 1 to remove).");
    for (preset, re, rand, dp) in results() {
        r.row(vec![
            preset.build().name,
            format!("{dp}"),
            fmt_pct(*re),
            fmt_pct(*rand),
            fmt_ratio(re / rand),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_always_helps_and_more_at_larger_dp() {
        let rows = results();
        for (preset, re, rand, _) in rows {
            let gain = re / rand;
            assert!(gain >= 1.0, "{preset:?}: reordering hurt ({gain:.3})");
            assert!(
                gain < 1.5,
                "{preset:?}: implausibly large reorder gain {gain:.3}"
            );
        }
        // Largest-DP (9B) gain ≥ smallest-DP (72B) gain — the paper trend.
        let g9 = rows[0].1 / rows[0].2;
        let g72 = rows[2].1 / rows[2].2;
        assert!(
            g9 >= g72 - 0.005,
            "gain should grow with DP: 9B {g9:.3} vs 72B {g72:.3}"
        );
    }
}
