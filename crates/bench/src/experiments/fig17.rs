//! Figure 17 — the measured overhead of data preprocessing (§7.3).
//!
//! The only *wall-clock-measured* experiment in the reproduction: the real
//! codec (decompress + resize + patchify) runs either colocated on the
//! consumer thread or behind the TCP producer with prefetch, for one
//! DP rank, across (#images, resolution) configurations. Paper result:
//! colocated overhead is **seconds**, disaggregated overhead is
//! **milliseconds**.

use crate::report::{fmt_secs, Report};
use dt_data::{DataConfig, ResolutionMode, TrainSample};
use dt_preprocess::service::preprocess_parallel;
use dt_preprocess::{Consumer, Preprocess};
use std::time::{Duration, Instant};

/// A synthetic "iteration batch" of one sample with `n` images at `res`.
/// It is a preprocessing load, not a packed sequence: text fills what the
/// images leave of `seq_len` (nothing from 2 images at 1024 up), and no
/// image is a generation target. `n` is at most [`dt_data::MAX_IMAGES`].
fn config_sample(n: u32, res: u32) -> TrainSample {
    let data = DataConfig::evaluation(res);
    TrainSample {
        id: 0,
        text_tokens: data
            .seq_len
            .saturating_sub(u64::from(n) * data.tokens_per_image(res)),
        image_resolutions: std::iter::repeat_n(res, n as usize).collect(),
        gen_images: 0,
        gen_resolution: res,
        patch: data.patch,
    }
}

/// Colocated: measure the inline preprocessing wall time (the stall the
/// trainer pays every iteration).
pub fn colocated_overhead(n: u32, res: u32, workers: u32) -> Duration {
    let sample = config_sample(n, res);
    let started = Instant::now();
    let _ = preprocess_parallel(std::slice::from_ref(&sample), workers);
    started.elapsed()
}

/// Disaggregated: measure the warm steady-state stall of the prefetching
/// consumer against a real TCP producer doing the same work.
///
/// The inter-fetch gap emulates the training iteration, which in
/// production is *longer* than one batch's preprocessing on the CPU nodes
/// (§7.3: "iteration times range from seconds to tens of seconds") — that
/// headroom is what lets the producer stay ahead. We size the gap from the
/// measured colocated cost of the same configuration so the experiment is
/// self-calibrating across machines and build profiles.
pub fn disaggregated_overhead(n: u32, res: u32) -> Duration {
    let data = DataConfig {
        resolution: ResolutionMode::Fixed(res),
        max_images_per_sample: n,
        ..DataConfig::evaluation(res)
    };
    // Real iterations are never shorter than ~100 ms even for light
    // batches (§7.3: seconds to tens of seconds), so floor the gap there.
    let iteration_gap = colocated_overhead(n, res, 1)
        .mul_f64(1.3)
        .max(Duration::from_millis(100));
    let producer = Preprocess::builder(data, 1).spawn().expect("producer");
    let feeder = Consumer::builder(producer.addrs())
        .batch(1)
        .pipeline(2)
        .connect()
        .expect("connect");
    // Cold fetch fills the queue; the steady-state stall is what the paper
    // reports.
    let _ = feeder.next_batch().expect("warm-up batch");
    std::thread::sleep(iteration_gap);
    let mut worst = Duration::ZERO;
    for _ in 0..2 {
        let (_, report) = feeder.next_batch().expect("steady batch");
        worst = worst.max(report.stall);
        std::thread::sleep(iteration_gap);
    }
    worst
}

/// Run the measurement matrix.
pub fn run() -> Report {
    let mut r = Report::new(
        "Figure 17 — measured preprocessing overhead per iteration (DP=1, real codec + real TCP)",
        &["(#imgs, res)", "colocated", "disaggregated"],
    );
    r.note("Paper: colocated overhead in seconds interferes with training;");
    r.note("disaggregation reduces the GPU-side overhead to milliseconds.");
    for (n, res) in [
        (1u32, 512u32),
        (5, 512),
        (10, 512),
        (1, 1024),
        (5, 1024),
        (10, 1024),
    ] {
        let col = colocated_overhead(n, res, 1);
        let dis = disaggregated_overhead(n, res);
        r.row(vec![
            format!("({n}, {res})"),
            fmt_secs(col.as_secs_f64()),
            fmt_secs(dis.as_secs_f64()),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disaggregation_cuts_overhead_by_an_order_of_magnitude() {
        // Use the mid-size configuration to keep the test fast. Debug
        // builds run the codec ~20× slower, so the producer has less
        // headroom to stay ahead of the consumer; the release build (and
        // the reported Figure 17 numbers) show the full gap.
        let factor = 5;
        let col = colocated_overhead(5, 512, 1);
        let dis = disaggregated_overhead(5, 512);
        assert!(
            col >= dis * factor,
            "colocated {col:?} should dwarf disaggregated {dis:?}"
        );
    }

    #[test]
    fn colocated_overhead_grows_with_load() {
        let small = colocated_overhead(1, 512, 1);
        let big = colocated_overhead(5, 512, 1);
        assert!(big > small * 3);
    }
}
