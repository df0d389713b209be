//! Figure 6 — the intra-microbatch straggler.
//!
//! Different DP groups draw differently sized samples, so the group with
//! the heaviest multimodal load lags the others and gates the iteration
//! (gradient sync is a barrier). We quantify the per-group load spread of
//! a random order and the iteration-time effect, then show Algorithm 1
//! removing it (the Figure 11 remedy, previewed here as the paper does).

use crate::report::{fmt_ratio, Report};
use dt_data::cost::multimodal_size;
use dt_data::{DataConfig, SyntheticLaion};
use dt_model::MllmPreset;
use dt_reorder::{max_group_load, InterReorderConfig, ReorderMode, ReorderPlanner};

/// Measure the DP-group load spread with and without Algorithm 1.
pub fn spread(dp: u32, batch: usize, seed: u64) -> (f64, f64) {
    let model = MllmPreset::Mllm9B.build();
    let mut gen = SyntheticLaion::new(DataConfig::characterization(), seed);
    let samples = gen.take(batch);
    let sizes = |ss: &[dt_data::TrainSample]| -> Vec<f64> {
        ss.iter().map(|s| multimodal_size(&model, s)).collect()
    };
    let mean_load = sizes(&samples).iter().sum::<f64>() / dp as f64;
    let random_max = max_group_load(&sizes(&samples), dp as usize);

    let planner = ReorderPlanner {
        model: model.clone(),
        dp,
        microbatch: 1,
        inter_cfg: InterReorderConfig::new(4, 0.05, 0.10),
        secs_per_flop: 1e-14,
        mode: ReorderMode::IntraOnly,
    };
    let balanced = planner.reorder(samples);
    let balanced_max = max_group_load(&sizes(&balanced), dp as usize);
    (random_max / mean_load, balanced_max / mean_load)
}

/// Run the straggler quantification.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 6 — intra-microbatch straggler (DP-group multimodal load, normalized to the mean)",
        &["DP size", "random max/mean", "Alg.1 max/mean"],
    );
    r.note("The straggler group's excess over the mean is pure iteration-time loss;");
    r.note("Algorithm 1 (LPT partitioning) drives the ratio to ~1.0.");
    for dp in [4u32, 8, 16, 32] {
        let (random, balanced) = spread(dp, 128, 42);
        r.row(vec![
            format!("{dp}"),
            fmt_ratio(random),
            fmt_ratio(balanced),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_grows_with_dp_and_alg1_removes_it() {
        let (rand_small, _) = spread(4, 128, 3);
        let (rand_big, bal_big) = spread(32, 128, 3);
        assert!(rand_big > rand_small, "more DP groups ⇒ worse straggler");
        assert!(bal_big < rand_big, "Algorithm 1 must shrink the straggler");
        assert!(bal_big < 1.35, "balanced max/mean {bal_big:.2} too high");
    }
}
