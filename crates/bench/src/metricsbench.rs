//! Metered repro runs: the `repro --metrics <path>` path.
//!
//! [`metrics_run`] plans and runs a small DistTrain training job with a
//! live [`Telemetry`] registry and then drives every other instrumented
//! subsystem against the *same* registry — the real TCP preprocessing
//! producer/consumer pair, the §4 orchestration search, and a short
//! elastic run with injected failures — so one snapshot exposes the whole
//! stack's metric families. The snapshot exports as Prometheus text
//! exposition and as a `dt_simengine::Json` archive, and
//! [`metrics_summary`] renders it as a `repro`-style table.

use crate::report::Report;
use disttrain_core::{Runtime, SystemKind, TrainingReport, TrainingTask};
use dt_data::{DataConfig, ResolutionMode};
use dt_elastic::{run_elastic, CheckpointPolicy, ElasticOptions, ElasticPlan};
use dt_model::MllmPreset;
use dt_orchestrator::{Orchestrator, PerfModel, Profiler};
use dt_preprocess::{Consumer, Preprocess};
use dt_simengine::{SimDuration, TraceRecorder};
use dt_telemetry::{MetricValue, Snapshot, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything one metered run produces.
pub struct MetricsRun {
    /// The registry every subsystem recorded into.
    pub telemetry: Telemetry,
    /// The per-iteration report of the core training run (the metrics must
    /// agree with it — the tests check).
    pub report: TrainingReport,
}

impl MetricsRun {
    /// A point-in-time view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }
}

/// Plan `task` under DistTrain's policies and run `iterations` with
/// telemetry enabled, recording the runtime and per-stage pipeline
/// families. Returns `None` when no feasible plan exists.
pub fn metrics_run(task: &TrainingTask, iterations: u32) -> Option<MetricsRun> {
    let telemetry = Telemetry::enabled();
    let plan = task.plan(SystemKind::DistTrain).ok()?;
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, iterations),
    };
    let report = runtime.run_telemetry(&mut TraceRecorder::disabled(), &telemetry);
    Some(MetricsRun { telemetry, report })
}

/// The default observability demo: the §7.2 ablation task on the 9B
/// preset for the core run, plus the real preprocessing service, the §4
/// search, and a short multi-failure elastic run — all metering into one
/// registry, so the exposition covers every instrumented subsystem.
pub fn default_metrics_run() -> MetricsRun {
    let task = crate::experiments::ablation_task(MllmPreset::Mllm9B);
    let run =
        metrics_run(&task, crate::experiments::MEASURE_ITERS).expect("ablation task must plan");
    let tel = &run.telemetry;

    // Real preprocessing path: TCP producer + prefetching consumer, both
    // metering into the shared registry from their own threads.
    let data = DataConfig {
        resolution: ResolutionMode::Fixed(64),
        ..DataConfig::evaluation(64)
    };
    let producer = Preprocess::builder(data, 29)
        .telemetry(tel.clone())
        .spawn()
        .expect("spawn producer");
    let feeder = Consumer::builder(producer.addrs())
        .batch(4)
        .pipeline(2)
        .telemetry(tel.clone())
        .connect()
        .expect("connect feeder");
    for _ in 0..2 {
        let _ = feeder.next_batch().expect("fetch batch");
    }
    drop(feeder);
    drop(producer);

    // One §4 orchestration search (search wall time + cache hit/miss).
    let coll = dt_cluster::CollectiveCost::new(task.cluster.clone());
    let perf = PerfModel::new(&task.model, &task.cluster.node.gpu, &coll).with_stepccl();
    let mut gen = dt_data::SyntheticLaion::new(task.data.clone(), task.seed);
    let profile = Profiler.profile(&perf, &gen.take(64));
    let orch = Orchestrator::builder()
        .spec(task.problem_spec())
        .telemetry(tel.clone())
        .build()
        .expect("valid spec");
    orch.plan_candidates(&task.model, &profile)
        .expect("search succeeds");

    // A short elastic run harsh enough to fail over at least once.
    let elastic = ElasticPlan {
        node_mtbf: SimDuration::from_secs_f64(250.0),
        failure_seed: 5,
        spare_nodes: 1,
        checkpoint: CheckpointPolicy::Fixed(2),
        checkpoint_cost: SimDuration::from_secs_f64(1.0),
        restart_overhead: SimDuration::from_secs_f64(5.0),
        reshard_cost: SimDuration::from_secs_f64(3.0),
        topology: None,
        healer: None,
        precursor_window: SimDuration::ZERO,
        precursor_stall: SimDuration::ZERO,
        spare_slowdown: 1.0,
    };
    // Unique per call: concurrent runs in one process (parallel tests)
    // must not delete each other's checkpoints.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt-metricsbench-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let opts = ElasticOptions {
        telemetry: tel.clone(),
        ..Default::default()
    };
    run_elastic(&task, 6, &elastic, &dir, opts).expect("elastic run");
    let _ = std::fs::remove_dir_all(&dir);

    run
}

/// Render a snapshot as the `repro` metrics summary table: one row per
/// metric series, with count/value and tail quantiles for histograms.
pub fn metrics_summary(snapshot: &Snapshot) -> Report {
    let fmt = |v: f64| -> String {
        if v == 0.0 {
            "0".into()
        } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
            format!("{v:.3e}")
        } else {
            format!("{v:.4}")
        }
    };
    let mut report = Report::new(
        "Metrics summary (repro --metrics)",
        &[
            "metric",
            "labels",
            "kind",
            "count/value",
            "p50",
            "p95",
            "p99",
        ],
    );
    report.note("histograms report count + quantiles; counters/gauges a value;");
    report.note("time series their sample count and final value.");
    for entry in &snapshot.entries {
        let labels = entry
            .id
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let (value, p50, p95, p99) = match &entry.value {
            MetricValue::Counter(v) => (v.to_string(), "-".into(), "-".into(), "-".into()),
            MetricValue::Gauge(v) => (fmt(*v), "-".into(), "-".into(), "-".into()),
            MetricValue::Histogram(h) => (
                h.count.to_string(),
                fmt(h.quantile(0.50)),
                fmt(h.quantile(0.95)),
                fmt(h.quantile(0.99)),
            ),
            MetricValue::Series(points) => {
                let last = points.last().map_or(0.0, |(_, v)| *v);
                (
                    format!("{}pts", points.len()),
                    fmt(last),
                    "-".into(),
                    "-".into(),
                )
            }
        };
        report.row(vec![
            entry.id.name.clone(),
            labels,
            entry.value.kind().to_string(),
            value,
            p50,
            p95,
            p99,
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_telemetry::names;

    #[test]
    fn default_metrics_run_covers_every_subsystem() {
        let run = default_metrics_run();
        let snap = run.snapshot();
        for family in [
            names::RUNTIME_ITER_TIME_SECONDS,
            names::PIPELINE_STAGE_COMPUTE_SECONDS,
            names::PREPROCESS_FETCH_SECONDS,
            names::PREPROCESS_STALL_SECONDS,
            names::ORCHESTRATOR_SEARCH_WALL_SECONDS,
            names::ELASTIC_REPLAN_SEARCH_SECONDS,
        ] {
            assert!(
                snap.entries.iter().any(|e| e.id.name == family),
                "missing family {family} in the metered run"
            );
        }
        assert!(
            snap.counter_value(names::ORCHESTRATOR_SEARCHES_TOTAL, &[])
                .unwrap()
                >= 1
        );
        assert!(
            snap.counter_value(names::ELASTIC_FAILURES_TOTAL, &[])
                .unwrap()
                >= 1
        );
        // The runtime counters agree with the core report plus the elastic
        // run's committed iterations.
        let iters = snap
            .counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[])
            .unwrap();
        assert!(iters as usize >= run.report.iterations.len() + 6);
        let table = metrics_summary(&run.snapshot()).render();
        assert!(
            table.contains(names::RUNTIME_ITER_TIME_SECONDS),
            "table:\n{table}"
        );
    }
}
