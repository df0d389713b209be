//! Figure 7 — the inter-microbatch straggler.
//!
//! With data heterogeneity, one slow microbatch in the modality encoder
//! delays every downstream stage (Figure 7(b)); without it the pipeline is
//! tight (7(a)). We reproduce the pair: same total encoder work, once
//! spread evenly and once concentrated in a straggler microbatch.

use crate::report::{fmt_pct, fmt_secs, Report};
use dt_pipeline::{simulate, PipelineSpec, Schedule, Workload};
use dt_simengine::SimDuration;

/// Simulate an encoder + LLM pipeline with the given per-microbatch
/// encoder forward seconds; returns (makespan secs, mean bubble fraction).
pub fn encoder_pipeline(encoder_fwd: &[f64]) -> (f64, f64) {
    let l = encoder_fwd.len();
    let p = 4usize; // 1 encoder stage + 3 LLM stages, as in the figure
    let llm_fwd = 0.10;
    let mut fwd = vec![encoder_fwd
        .iter()
        .map(|&t| SimDuration::from_secs_f64(t))
        .collect::<Vec<_>>()];
    let mut bwd = vec![encoder_fwd
        .iter()
        .map(|&t| SimDuration::from_secs_f64(2.0 * t))
        .collect::<Vec<_>>()];
    for _ in 1..p {
        fwd.push(vec![SimDuration::from_secs_f64(llm_fwd); l]);
        bwd.push(vec![SimDuration::from_secs_f64(2.0 * llm_fwd); l]);
    }
    let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO);
    let result = simulate(&spec, &Workload { fwd, bwd });
    (result.makespan.as_secs_f64(), result.mean_bubble_fraction())
}

/// Run the comparison.
pub fn run() -> Report {
    let l = 6;
    let even = vec![0.10; l];
    // Same total encoder work (0.6s), concentrated in microbatch 0 ("a").
    let mut skew = vec![0.04; l];
    skew[0] = 0.10 * l as f64 - 0.04 * (l - 1) as f64;

    let (t_even, b_even) = encoder_pipeline(&even);
    let (t_skew, b_skew) = encoder_pipeline(&skew);

    let mut r = Report::new(
        "Figure 7 — inter-microbatch straggler (equal total encoder work)",
        &["scenario", "iteration", "mean bubble"],
    );
    r.note("(a) homogeneous microbatches: tight pipeline.");
    r.note("(b) one straggler microbatch: downstream stages stall behind it.");
    r.row(vec![
        "(a) homogeneous".into(),
        fmt_secs(t_even),
        fmt_pct(b_even),
    ]);
    r.row(vec![
        "(b) straggler mb".into(),
        fmt_secs(t_skew),
        fmt_pct(b_skew),
    ]);
    r.row(vec![
        "slowdown".into(),
        format!("{:.2}x", t_skew / t_even),
        "-".into(),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_slows_the_pipeline_despite_equal_work() {
        let l = 6;
        let even = vec![0.10; l];
        let mut skew = vec![0.04; l];
        skew[0] = 0.10 * l as f64 - 0.04 * (l - 1) as f64;
        let (t_even, _) = encoder_pipeline(&even);
        let (t_skew, b_skew) = encoder_pipeline(&skew);
        assert!(
            t_skew > 1.1 * t_even,
            "straggler should cost >10%: {t_skew} vs {t_even}"
        );
        assert!(b_skew > 0.0);
    }
}
