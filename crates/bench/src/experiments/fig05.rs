//! Figure 5 — data heterogeneity characterization.
//!
//! CDFs of (a) text-subsequence sizes, (b) image-subsequence sizes, and
//! (c) image count per training sample, over the synthetic LAION-400M
//! stand-in in characterization mode. The target shape: all three heavily
//! skewed (long upper tails).

use crate::report::Report;
use dt_data::{DataConfig, SyntheticLaion};
use dt_simengine::stats::Summary;

/// Characterize `n_samples` packed sequences.
pub fn characterize(n_samples: usize, seed: u64) -> (Summary, Summary, Summary) {
    let mut gen = SyntheticLaion::new(DataConfig::characterization(), seed);
    let mut text = Vec::new();
    let mut image = Vec::new();
    let mut count = Vec::new();
    for s in gen.take(n_samples) {
        text.extend(s.text_subseqs.iter().map(|&t| t as f64));
        image.extend(s.image_resolutions.iter().map(|&r| {
            let side = (r / s.patch) as f64;
            side * side
        }));
        count.push(s.image_resolutions.len() as f64);
    }
    (
        Summary::from_values(text),
        Summary::from_values(image),
        Summary::from_values(count),
    )
}

/// Run the characterization.
pub fn run() -> Report {
    let (text, image, count) = characterize(4000, 42);
    let mut r = Report::new(
        "Figure 5 — LAION-like data heterogeneity (CDF quantiles)",
        &[
            "quantile",
            "text tokens (a)",
            "image tokens (b)",
            "images/sample (c)",
        ],
    );
    r.note("All three distributions must be heavily skewed (p99 >> median),");
    r.note("matching the paper's characterization of LAION-400M packed into 8K sequences.");
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        r.row(vec![
            format!("p{:02.0}", q * 100.0),
            format!("{:.0}", text.percentile(q)),
            format!("{:.0}", image.percentile(q)),
            format!("{:.0}", count.percentile(q)),
        ]);
    }
    r.row(vec![
        "mean".into(),
        format!("{:.0}", text.mean()),
        format!("{:.0}", image.mean()),
        format!("{:.1}", count.mean()),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_are_skewed_like_the_paper() {
        let (text, image, count) = characterize(1500, 7);
        assert!(
            text.percentile(0.99) > 5.0 * text.median(),
            "text tail too light"
        );
        assert!(
            image.percentile(0.99) > 2.0 * image.median(),
            "image tail too light"
        );
        assert!(
            count.percentile(0.99) >= 2.0 * count.median(),
            "count tail too light"
        );
    }
}
