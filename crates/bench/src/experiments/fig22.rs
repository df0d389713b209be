//! Figure 22 — StepCCL's end effect on one LLM PP stage (§A.1).
//!
//! Iteration time of a single PP stage (one minimal TP group) with and
//! without StepCCL, across TP sizes. Paper: 1.1–1.12× at TP=4 and
//! 1.15–1.17× at TP=8 — gains grow with TP because the hidden
//! communication share grows.

use crate::report::{fmt_ratio, fmt_secs, Report};
use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
use dt_model::llama;
use dt_stepccl::StepCclModel;

/// Run the TP sweep for the 13B and 70B backbones.
pub fn run() -> Report {
    let gpu = GpuSpec::ampere();
    let coll = CollectiveCost::new(ClusterSpec::production(2));
    let model = StepCclModel::default();

    let mut r = Report::new(
        "Figure 22 — StepCCL: per-stage iteration time vs TP size",
        &["backbone", "TP", "baseline", "StepCCL", "speedup"],
    );
    r.note("Paper: 1.1–1.12× at TP=4, 1.15–1.17× at TP=8.");
    for backbone in [llama::llama3_13b(), llama::llama3_70b()] {
        for tp in [2u32, 4, 8] {
            // One PP stage worth of layers: 8 for a 10-stage 80-layer 70B,
            // 8 for a 5-stage 40-layer 13B (representative slices).
            let it = model.stage_iteration(&backbone, &gpu, &coll, 8, 8192, tp, 1);
            r.row(vec![
                backbone.name.clone(),
                format!("{tp}"),
                fmt_secs(it.baseline.as_secs_f64()),
                fmt_secs(it.stepccl.as_secs_f64()),
                fmt_ratio(it.speedup()),
            ]);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_grow_with_tp_and_match_the_band() {
        let r = run();
        // Rows come in (tp=2, 4, 8) groups of three per backbone.
        for chunk in r.rows.chunks(3) {
            let s: Vec<f64> = chunk
                .iter()
                .map(|row| row[4].trim_end_matches('x').parse::<f64>().unwrap())
                .collect();
            assert!(
                s[2] >= s[1] && s[1] >= s[0] - 0.02,
                "gains must grow with TP: {s:?}"
            );
            assert!(
                s[2] > 1.08 && s[2] < 1.30,
                "TP=8 gain {:.3} off the paper band",
                s[2]
            );
        }
    }
}
