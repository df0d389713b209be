//! Acceptance gate for the anomaly detector: against faults injected
//! through dt-elastic's failure stream, an offline scan of an elastic
//! run's series must flag the crash's straggler point and the precursor
//! stall burst before it — and must stay silent on the clean run of the
//! same seed.

use disttrain_core::TrainingTask;
use dt_elastic::{run_elastic, CheckpointPolicy, ElasticOptions, ElasticPlan, ElasticReport};
use dt_model::MllmPreset;
use dt_simengine::SimDuration;
use dt_telemetry::{names, AnomalyDetector, AnomalyKind, Snapshot, Telemetry};

const ITERS: u32 = 12;

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn metered_run(task: &TrainingTask, elastic: &ElasticPlan, tag: &str) -> (ElasticReport, Snapshot) {
    let dir = std::env::temp_dir().join(format!("dt-anomaly-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tel = Telemetry::enabled();
    let opts = ElasticOptions {
        telemetry: tel.clone(),
        ..Default::default()
    };
    let out = run_elastic(task, ITERS, elastic, &dir, opts).expect("elastic run");
    std::fs::remove_dir_all(&dir).unwrap();
    (out, tel.snapshot())
}

fn scan(snap: &Snapshot) -> Vec<dt_telemetry::Anomaly> {
    AnomalyDetector::default().scan(
        &snap.series_values(names::SERIES_ITER_TIME, &[]).unwrap(),
        &snap.series_values(names::SERIES_MFU, &[]).unwrap(),
        &snap.series_values(names::SERIES_STALL, &[]).unwrap(),
    )
}

#[test]
fn injected_faults_are_flagged_and_the_clean_run_is_silent() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let mut elastic = ElasticPlan {
        failure_seed: 7,
        checkpoint: CheckpointPolicy::Fixed(4),
        checkpoint_cost: secs(1.0),
        ..ElasticPlan::for_task(&task, secs(1e12))
    };

    // Clean run (MTBF ≈ ∞), same seed: zero anomalies of any kind.
    let (clean, clean_snap) = metered_run(&task, &elastic, "clean");
    assert_eq!(
        clean_snap
            .series_values(names::SERIES_ITER_TIME, &[])
            .unwrap()
            .len(),
        ITERS as usize
    );
    let false_positives = scan(&clean_snap);
    assert!(
        false_positives.is_empty(),
        "clean run must produce zero anomalies, got {false_positives:?}"
    );

    // Fault run, same seed: one node failure mid-run (iteration 7), with
    // the restart overhead sized off the measured clean iteration time so
    // the spike is a real straggler, not a tuned constant. The ailing node
    // stalls preprocessing by 1 s for the iterations within three mean
    // iterations of its death.
    let mean_iter = clean.report.mean_iter_secs();
    elastic.node_mtbf = secs(1360.0);
    elastic.restart_overhead = secs(5.0 * mean_iter);
    elastic.precursor_window = secs(3.0 * mean_iter);
    elastic.precursor_stall = secs(1.0);
    let (out, snap) = metered_run(&task, &elastic, "flags");
    assert_eq!(out.report.iterations.len(), ITERS as usize);
    assert_eq!(
        out.failures.len(),
        1,
        "scenario needs exactly one failure: {:?}",
        out.failures
    );
    let found = scan(&snap);

    // The crash's lost wall (the partial iteration + 5× restart) must be
    // flagged as a straggler iteration. The stalled iterations may
    // legitimately also be flagged, so pick the tallest spike.
    let straggler = found
        .iter()
        .filter(|a| a.kind == AnomalyKind::StragglerIteration)
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .expect("crash spike must be flagged as a straggler");
    assert!(
        straggler.value > 4.0 * straggler.baseline,
        "straggler {:.2}s vs baseline {:.2}s",
        straggler.value,
        straggler.baseline
    );
    // …and the precursor stalls as a preprocessing-stall burst.
    let burst = found
        .iter()
        .find(|a| a.kind == AnomalyKind::PreprocessStallBurst)
        .expect("precursor stall burst must be flagged");
    assert!(
        burst.end_index > burst.start_index,
        "a burst spans ≥ 2 points"
    );
    assert!(
        burst.value > 0.9,
        "burst peak carries the injected ~1s stall"
    );

    // The elastic counters track the recovery machinery.
    assert_eq!(
        snap.counter_value(names::ELASTIC_FAILURES_TOTAL, &[]),
        Some(1)
    );
    assert!(
        snap.counter_value(names::ELASTIC_CHECKPOINTS_TOTAL, &[])
            .unwrap()
            >= 2
    );
}
