//! Concurrency and accuracy gates for the registry.
//!
//! * `stress`: ≥4 real threads hammer one registry through cloned
//!   [`Telemetry`] handles — counters must be exact and histograms must
//!   conserve their total count (Σ buckets + zeros == count).
//! * `quantile bounds`: the log-bucketed histogram's p50/p95/p99 must land
//!   within the bucket growth factor of `dt_simengine::stats::Summary`'s
//!   exact nearest-rank percentiles on a heavy-tailed sample.

use dt_simengine::stats::Summary;
use dt_simengine::DetRng;
use dt_telemetry::{names, Telemetry};
use std::thread;

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 50_000;

#[test]
fn four_threads_hammering_one_registry_stay_exact() {
    let tel = Telemetry::enabled();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = tel.clone();
            thread::spawn(move || {
                // Pre-intern once per thread, then update lock-free — the
                // intended hot-path usage.
                let (counter, gauge, histogram) = tel
                    .with(|r| {
                        (
                            r.counter(names::PREPROCESS_BATCHES_TOTAL, &[]),
                            r.gauge(names::PREPROCESS_QUEUE_DEPTH, &[]),
                            r.histogram(names::PREPROCESS_FETCH_SECONDS, &[]),
                        )
                    })
                    .expect("enabled");
                for i in 0..OPS_PER_THREAD {
                    counter.inc();
                    gauge.add(1.0);
                    gauge.add(-1.0);
                    histogram.observe((t as u64 * OPS_PER_THREAD + i) as f64 * 1e-6);
                    // Interning from multiple threads concurrently must
                    // also resolve to the same instances.
                    if i % 1024 == 0 {
                        tel.with(|r| r.counter(names::RUNTIME_ITERATIONS_TOTAL, &[]).inc());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = THREADS as u64 * OPS_PER_THREAD;
    let snap = tel.snapshot();
    assert_eq!(
        snap.counter_value(names::PREPROCESS_BATCHES_TOTAL, &[]),
        Some(total)
    );
    assert_eq!(
        snap.counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[]),
        Some(THREADS as u64 * OPS_PER_THREAD.div_ceil(1024))
    );
    // Every +1.0 was matched by a −1.0.
    assert_eq!(
        snap.gauge_value(names::PREPROCESS_QUEUE_DEPTH, &[]),
        Some(0.0)
    );

    let h = snap
        .histogram_value(names::PREPROCESS_FETCH_SECONDS, &[])
        .unwrap();
    assert_eq!(
        h.count, total,
        "histogram count conserved under concurrency"
    );
    let bucketed: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        bucketed + h.zeros,
        h.count,
        "no sample fell outside the buckets"
    );
    // The sum is a CAS-add of exact f64s; with one zero sample per thread
    // the expected total is Σ i·1e-6 for i in 0..total.
    let expected_sum = (total as f64 - 1.0) * total as f64 / 2.0 * 1e-6;
    assert!(
        (h.sum - expected_sum).abs() / expected_sum < 1e-9,
        "sum {} vs expected {expected_sum}",
        h.sum
    );
}

#[test]
fn histogram_quantiles_track_summary_percentiles() {
    // Heavy-tailed positive sample: exp(N(0,1)) scaled into a latency-like
    // range, from the deterministic RNG.
    let mut rng = DetRng::new(0x7e1e_6d65);
    let values: Vec<f64> = (0..20_000)
        .map(|_| 0.01 * rng.lognormal(0.0, 1.0))
        .collect();

    let tel = Telemetry::enabled();
    let h = tel
        .with(|r| r.histogram(names::RUNTIME_ITER_TIME_SECONDS, &[]))
        .unwrap();
    for &v in &values {
        h.observe(v);
    }

    let exact = Summary::from_values(values.iter().copied());
    for q in [0.50, 0.90, 0.95, 0.99] {
        let est = h.snapshot().quantile(q);
        let truth = exact.percentile(q);
        let rel = (est - truth).abs() / truth;
        // Bucket growth is 2^(1/8) ≈ 9.05%; the midpoint estimate is within
        // 2^(1/16) − 1 ≈ 4.4% of the sample in the rank's bucket, plus
        // rank-rounding slack — 6% covers it with margin.
        assert!(
            rel < 0.06,
            "q={q}: estimate {est} vs exact {truth} (rel err {rel:.4})"
        );
    }
}
