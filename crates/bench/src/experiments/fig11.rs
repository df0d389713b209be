//! Figure 11 — intra-microbatch reordering, the worked example.
//!
//! Four samples of descending size, DP = 2: the paper reorders
//! `[1, 2, 3, 4]` → `[1, 3, 2, 4]`-style so each group holds one large and one
//! small sample. We print the exact orders and group loads, then a larger
//! randomized instance.

use crate::report::{fmt_ratio, Report};
use dt_reorder::{intra_reorder_indices, max_group_load};
use dt_simengine::DetRng;

/// Run the worked example plus a randomized instance.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 11 — intra-microbatch reordering (Algorithm 1)",
        &["instance", "order", "max-group/mean"],
    );
    r.note("Worked example: 4 samples, sizes 10≥8≥6≥5, DP=2.");

    let sizes = [10.0, 8.0, 6.0, 5.0];
    let mean = sizes.iter().sum::<f64>() / 2.0;
    let naive = max_group_load(&sizes, 2) / mean;
    r.row(vec![
        "original [1,2,3,4]".into(),
        "[10, 8 | 6, 5]".into(),
        fmt_ratio(naive),
    ]);
    let order = intra_reorder_indices(&sizes, 2).expect("4 samples split into 2 DP groups");
    let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
    let balanced = max_group_load(&reordered, 2) / mean;
    r.row(vec![
        format!(
            "Alg.1 {:?}",
            order.iter().map(|i| i + 1).collect::<Vec<_>>()
        ),
        format!(
            "[{}, {} | {}, {}]",
            reordered[0], reordered[1], reordered[2], reordered[3]
        ),
        fmt_ratio(balanced),
    ]);

    // Randomized 64-sample instance, DP = 8.
    let mut rng = DetRng::new(11);
    let big: Vec<f64> = (0..64).map(|_| rng.lognormal(2.0, 1.0)).collect();
    let mean8 = big.iter().sum::<f64>() / 8.0;
    let naive8 = max_group_load(&big, 8) / mean8;
    let order8 = intra_reorder_indices(&big, 8).expect("64 samples split into 8 DP groups");
    let re8: Vec<f64> = order8.iter().map(|&i| big[i]).collect();
    let bal8 = max_group_load(&re8, 8) / mean8;
    r.row(vec![
        "64 lognormal, DP=8 (random)".into(),
        "-".into(),
        fmt_ratio(naive8),
    ]);
    r.row(vec![
        "64 lognormal, DP=8 (Alg.1)".into(),
        "-".into(),
        fmt_ratio(bal8),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_balances_the_groups() {
        let sizes = [10.0, 8.0, 6.0, 5.0];
        let order = intra_reorder_indices(&sizes, 2).unwrap();
        let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
        assert!(max_group_load(&reordered, 2) < max_group_load(&sizes, 2));
        assert_eq!(max_group_load(&reordered, 2), 15.0); // 10+5 | 8+6 → 15 vs 14… max 15
    }
}
