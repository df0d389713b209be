//! Telemetry walkthrough: meter a training run, read the metrics, and
//! catch an injected straggler.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! Runs the §7.2 ablation task twice through dt-elastic's recovery driver,
//! each run into its own [`Telemetry`] registry — once on a quiet cluster,
//! once with a node failure whose ailing node stalls preprocessing before
//! it dies — prints the Prometheus exposition of the result, and lets the
//! [`AnomalyDetector`] point at the injected faults.

use disttrain::elastic::{run_elastic, CheckpointPolicy, ElasticOptions, ElasticPlan};
use disttrain::prelude::*;

fn main() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let plan = task.plan(SystemKind::DistTrain).expect("orchestration");
    let iterations = 12u32;
    let dir = std::env::temp_dir().join(format!("dt-telemetry-example-{}", std::process::id()));
    let run = |elastic: &ElasticPlan| {
        std::fs::create_dir_all(&dir).expect("mkdir");
        let telemetry = Telemetry::enabled();
        let opts = ElasticOptions {
            initial_plan: Some(plan),
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let out = run_elastic(&task, iterations, elastic, &dir, opts).expect("elastic run");
        let _ = std::fs::remove_dir_all(&dir);
        (out.report, telemetry)
    };

    // Clean metered run (MTBF ≈ ∞): every iteration lands in histograms,
    // counters, and clock-indexed time series.
    let mut elastic = ElasticPlan {
        failure_seed: 7,
        checkpoint: CheckpointPolicy::Fixed(4),
        checkpoint_cost: SimDuration::from_secs_f64(1.0),
        ..ElasticPlan::for_task(&task, SimDuration::from_secs_f64(1e12))
    };
    let (report, telemetry) = run(&elastic);
    let clean_mean = report.mean_iter_secs();
    println!(
        "clean run: {} iterations, mean {:.2}s, MFU {:.1}%",
        report.iterations.len(),
        clean_mean,
        report.mfu() * 100.0
    );

    let snap = telemetry.snapshot();
    let iter_hist = snap
        .histogram_value(names::RUNTIME_ITER_TIME_SECONDS, &[])
        .unwrap();
    println!(
        "iter-time histogram: n={} p50={:.2}s p99={:.2}s",
        iter_hist.count,
        iter_hist.quantile(0.5),
        iter_hist.quantile(0.99)
    );

    // Fault run into a fresh registry: a node dies during iteration 7 and
    // stalls preprocessing by 1 s for the iterations before it.
    elastic.node_mtbf = SimDuration::from_secs_f64(1360.0);
    elastic.restart_overhead = SimDuration::from_secs_f64(5.0 * clean_mean);
    elastic.precursor_window = SimDuration::from_secs_f64(3.0 * clean_mean);
    elastic.precursor_stall = SimDuration::from_secs_f64(1.0);
    let (_, faulty) = run(&elastic);

    // Scan the fault run's series; the clean run stays silent.
    let detector = AnomalyDetector::default();
    let scan = |t: &Telemetry| {
        let s = t.snapshot();
        detector.scan(
            &s.series_values(names::SERIES_ITER_TIME, &[]).unwrap(),
            &s.series_values(names::SERIES_MFU, &[]).unwrap(),
            &s.series_values(names::SERIES_STALL, &[]).unwrap(),
        )
    };
    assert!(scan(&telemetry).is_empty(), "clean run must stay silent");
    let anomalies = scan(&faulty);
    println!("\nanomalies in the fault run:");
    for a in &anomalies {
        println!(
            "  {:<22} iterations {}..={}  value {:.2}  baseline {:.2}",
            a.kind.name(),
            a.start_index,
            a.end_index,
            a.value,
            a.baseline
        );
    }
    assert!(!anomalies.is_empty(), "injected faults must be flagged");

    // The whole registry exports as Prometheus text (and as JSON via
    // `Snapshot::to_json` — `repro --metrics` writes both).
    println!("\nPrometheus exposition (fault run, first lines):");
    for line in faulty.snapshot().to_prometheus_text().lines().take(12) {
        println!("  {line}");
    }
}
