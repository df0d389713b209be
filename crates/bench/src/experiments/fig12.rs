//! Figure 12 — the 1F1B interval structure at the first PP stage.
//!
//! Shows the stage-0 intervals (`GETINTERVAL`) for a heterogeneous
//! microbatch stream before and after Algorithm 2, plus the resulting
//! stage-0 idle time (bubble volume). The rear intervals shrink because
//! the `p−1` smallest microbatches move to the end; the interior intervals
//! are filled by best-fit forwards.

use crate::report::{fmt_secs, Report};
use dt_reorder::inter::simulated_makespan;
use dt_reorder::{get_interval, inter_reorder, InterReorderConfig};
use dt_simengine::DetRng;

/// Run the interval analysis.
pub fn run() -> Report {
    let cfg = InterReorderConfig::new(4, 0.10, 0.20);
    let mut rng = DetRng::new(5);
    let times: Vec<f64> = (0..10).map(|_| rng.lognormal(-2.3, 0.9)).collect();

    let order = inter_reorder(&cfg, &times);
    let reordered: Vec<f64> = order.iter().map(|&i| times[i]).collect();

    let mut r = Report::new(
        "Figure 12 — stage-0 intervals under 1F1B (p=4, l=10)",
        &["interval", "random order", "Algorithm 2"],
    );
    r.note("interval_0 is filled by warm-up forwards; the last p−1 intervals can");
    r.note("never be filled, so Algorithm 2 parks the smallest microbatches there.");
    for j in 0..times.len() - 1 {
        r.row(vec![
            format!("{j}"),
            fmt_secs(get_interval(&cfg, &times, j)),
            fmt_secs(get_interval(&cfg, &reordered, j)),
        ]);
    }
    r.row(vec![
        "iteration".into(),
        fmt_secs(simulated_makespan(&cfg, &times)),
        fmt_secs(simulated_makespan(&cfg, &reordered)),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_shrinks_the_iteration() {
        let cfg = InterReorderConfig::new(4, 0.10, 0.20);
        let mut rng = DetRng::new(5);
        // Average over several draws: the heuristic may tie on easy ones.
        let mut before = 0.0;
        let mut after = 0.0;
        for _ in 0..10 {
            let times: Vec<f64> = (0..10).map(|_| rng.lognormal(-2.3, 0.9)).collect();
            before += simulated_makespan(&cfg, &times);
            let order = inter_reorder(&cfg, &times);
            let reordered: Vec<f64> = order.iter().map(|&i| times[i]).collect();
            after += simulated_makespan(&cfg, &reordered);
        }
        assert!(
            after < before,
            "Alg.2 should shrink iterations: {after:.3} vs {before:.3}"
        );
    }
}
