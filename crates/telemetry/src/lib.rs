//! Lock-light metrics for the DistTrain reproduction: counters, gauges,
//! log-bucketed histograms, simulated-clock time-series, Prometheus/JSON
//! exposition, and a straggler/stall anomaly detector.
//!
//! This crate is the *is it healthy right now* half of the workspace's
//! observability story; the Chrome-trace layer in `dt_simengine::trace`
//! is the *where did time go* half. The two share a design rule: a
//! disabled handle is provably free on the hot path. [`Telemetry`]
//! mirrors `TraceRecorder::disabled` — when disabled it holds no
//! registry, and the closure passed to [`Telemetry::with`] is never
//! invoked, so instrumented code allocates nothing and computes nothing
//! (a counting-allocator test enforces this).
//!
//! Metric updates go through relaxed atomics only; the registry mutex is
//! taken at registration/lookup, not per update, and the whole stack is
//! `Send + Sync` so the preprocessing service's real producer/consumer
//! threads can share one registry with the planner's worker pool.
//!
//! # Example
//!
//! ```
//! use dt_telemetry::{names, AnomalyDetector, Telemetry};
//! use dt_simengine::{SimDuration, SimTime};
//!
//! let tel = Telemetry::enabled();
//!
//! // Instrumented code records through `with`; a disabled handle would
//! // skip these closures entirely.
//! let mut now = SimTime::ZERO;
//! for iter in 0..10u32 {
//!     let iter_secs = if iter == 7 { 4.0 } else { 1.0 }; // one straggler
//!     tel.with(|r| {
//!         r.counter(names::RUNTIME_ITERATIONS_TOTAL, &[]).inc();
//!         r.histogram(names::RUNTIME_ITER_TIME_SECONDS, &[]).observe(iter_secs);
//!         r.series(names::SERIES_ITER_TIME, &[]).sample(now, iter_secs);
//!     });
//!     now += SimDuration::from_secs_f64(iter_secs);
//! }
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[]), Some(10));
//!
//! // Prometheus text + JSON archive round-trip.
//! let text = snap.to_prometheus_text();
//! assert!(text.contains("# TYPE dt_runtime_iter_time_seconds summary"));
//! let doc = snap.to_json();
//! let back = dt_telemetry::Snapshot::from_json(&doc).unwrap();
//! assert_eq!(back, snap);
//!
//! // The anomaly detector spots the straggler at index 7.
//! let iter_times = snap.series_values(names::SERIES_ITER_TIME, &[]).unwrap();
//! let found = AnomalyDetector::default().stragglers(&iter_times);
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].start_index, 7);
//! ```

pub mod anomaly;
pub mod flight;
pub mod metric;
pub mod registry;
pub mod series;
pub mod snapshot;

pub use anomaly::{Anomaly, AnomalyConfig, AnomalyDetector, AnomalyKind, OnlineAnomalyDetector};
pub use flight::{FlightDump, FlightEvent, FlightLog, FlightRecorder};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricId, Registry, Telemetry};
pub use series::TimeSeries;
pub use snapshot::{MetricValue, Snapshot, SnapshotEntry};

/// This build's crate version (compile-time constant).
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// The git commit this build came from, stamped by the build script
/// (`unknown` outside a git checkout).
pub const BUILD_GIT_HASH: &str = env!("DT_GIT_HASH");

/// Register the standard process-identity metrics: the
/// [`names::BUILD_INFO`] info gauge (constant 1, with the version and git
/// hash as labels, the Prometheus `*_info` idiom) and the
/// [`names::UPTIME_SECONDS`] gauge set to `uptime_secs`. Metrics
/// endpoints call this right before snapshotting so every scrape carries
/// a fresh uptime. No-op on a disabled handle.
pub fn record_build_info(telemetry: &Telemetry, uptime_secs: f64) {
    telemetry.with(|r| {
        r.gauge(
            names::BUILD_INFO,
            &[("version", BUILD_VERSION), ("git_hash", BUILD_GIT_HASH)],
        )
        .set(1.0);
        r.gauge(names::UPTIME_SECONDS, &[]).set(uptime_secs);
    });
}

/// Canonical metric names, one constant per family (mirrors the span
/// category constants in `dt_simengine::trace::cat`). Prometheus-format
/// names use underscores; time-series names use the dotted style of the
/// trace layer.
pub mod names {
    /// Per-iteration wall time (seconds), histogram.
    pub const RUNTIME_ITER_TIME_SECONDS: &str = "dt_runtime_iter_time_seconds";
    /// Per-iteration gradient-sync time (seconds), histogram.
    pub const RUNTIME_GRAD_SYNC_SECONDS: &str = "dt_runtime_grad_sync_seconds";
    /// Per-iteration preprocessing stall (seconds), histogram.
    pub const RUNTIME_PREPROCESS_STALL_SECONDS: &str = "dt_runtime_preprocess_stall_seconds";
    /// Per-iteration pipeline makespan (seconds), histogram.
    pub const RUNTIME_PIPELINE_SECONDS: &str = "dt_runtime_pipeline_seconds";
    /// Model FLOPs utilisation of the latest iteration, gauge.
    pub const RUNTIME_MFU: &str = "dt_runtime_mfu";
    /// Iterations completed, counter.
    pub const RUNTIME_ITERATIONS_TOTAL: &str = "dt_runtime_iterations_total";
    /// Samples trained, counter.
    pub const RUNTIME_SAMPLES_TOTAL: &str = "dt_runtime_samples_total";
    /// Tokens trained, counter.
    pub const RUNTIME_TOKENS_TOTAL: &str = "dt_runtime_tokens_total";

    /// Iteration-time series (seconds vs simulated clock).
    pub const SERIES_ITER_TIME: &str = "dt.runtime.iter_time";
    /// MFU series vs simulated clock.
    pub const SERIES_MFU: &str = "dt.runtime.mfu";
    /// Preprocessing-stall series (seconds) vs simulated clock.
    pub const SERIES_STALL: &str = "dt.runtime.stall";

    /// Per-stage compute op durations (seconds), histogram labelled by stage/module.
    pub const PIPELINE_STAGE_COMPUTE_SECONDS: &str = "dt_pipeline_stage_compute_seconds";
    /// Per-boundary communication durations (seconds), histogram.
    pub const PIPELINE_STAGE_COMM_SECONDS: &str = "dt_pipeline_stage_comm_seconds";
    /// Per-stage bubble fraction observations, histogram.
    pub const PIPELINE_STAGE_BUBBLE_FRACTION: &str = "dt_pipeline_stage_bubble_fraction";

    /// Producer batch fetch+reorder latency (wall seconds), histogram.
    pub const PREPROCESS_FETCH_SECONDS: &str = "dt_preprocess_fetch_seconds";
    /// Producer decode latency (wall seconds), histogram.
    pub const PREPROCESS_DECODE_SECONDS: &str = "dt_preprocess_decode_seconds";
    /// Producer feed/serialize latency (wall seconds), histogram.
    pub const PREPROCESS_FEED_SECONDS: &str = "dt_preprocess_feed_seconds";
    /// Consumer prefetch round-trip latency (wall seconds), histogram.
    pub const PREPROCESS_PREFETCH_SECONDS: &str = "dt_preprocess_prefetch_seconds";
    /// Consumer stall waiting on the prefetch queue (wall seconds), histogram.
    pub const PREPROCESS_STALL_SECONDS: &str = "dt_preprocess_stall_seconds";
    /// Prefetch queue depth, gauge.
    pub const PREPROCESS_QUEUE_DEPTH: &str = "dt_preprocess_queue_depth";
    /// Batches produced, counter.
    pub const PREPROCESS_BATCHES_TOTAL: &str = "dt_preprocess_batches_total";
    /// Samples produced, counter.
    pub const PREPROCESS_SAMPLES_TOTAL: &str = "dt_preprocess_samples_total";
    /// Producer backpressure events: a ready batch could not enter the
    /// bounded per-session queue (consumer too slow), counter.
    pub const PREPROCESS_BACKPRESSURE_TOTAL: &str = "dt_preprocess_backpressure_total";
    /// Consumer-side reconnects performed by the supervision loop, counter.
    pub const PREPROCESS_RECONNECTS_TOTAL: &str = "dt_preprocess_reconnects_total";
    /// Malformed frames/requests from hostile or corrupt peers, counter.
    pub const PREPROCESS_MALFORMED_TOTAL: &str = "dt_preprocess_malformed_total";
    /// Consumer sessions accepted across all producer endpoints, counter.
    pub const PREPROCESS_SESSIONS_TOTAL: &str = "dt_preprocess_sessions_total";

    /// Node failures observed, counter.
    pub const ELASTIC_FAILURES_TOTAL: &str = "dt_elastic_failures_total";
    /// Failures absorbed by spare swap, counter.
    pub const ELASTIC_SPARE_SWAPS_TOTAL: &str = "dt_elastic_spare_swaps_total";
    /// Failures handled by shrinking the job, counter.
    pub const ELASTIC_SHRINKS_TOTAL: &str = "dt_elastic_shrinks_total";
    /// Committed iterations rolled back on recovery, counter.
    pub const ELASTIC_ROLLED_BACK_ITERATIONS_TOTAL: &str =
        "dt_elastic_rolled_back_iterations_total";
    /// Checkpoints written, counter.
    pub const ELASTIC_CHECKPOINTS_TOTAL: &str = "dt_elastic_checkpoints_total";
    /// Goodput fraction (committed time / total wall), gauge.
    pub const ELASTIC_GOODPUT_FRACTION: &str = "dt_elastic_goodput_fraction";
    /// Simulated seconds spent on a degraded (shrunk) plan, gauge.
    pub const ELASTIC_DEGRADED_SECONDS: &str = "dt_elastic_degraded_seconds";
    /// Host seconds per elastic replan, histogram: the warm-started §4
    /// search plus one simulated trial iteration per candidate (up to
    /// 12 + 1), not solver time alone.
    pub const ELASTIC_REPLAN_SEARCH_SECONDS: &str = "dt_elastic_replan_search_seconds";
    /// Correlated domain (rack/switch) events observed, counter.
    pub const ELASTIC_DOMAIN_EVENTS_TOTAL: &str = "dt_elastic_domain_events_total";
    /// Hot spares destroyed in place by a correlated domain event (they
    /// were parked in the failing domain), counter.
    pub const ELASTIC_SPARES_LOST_TOTAL: &str = "dt_elastic_spares_lost_total";
    /// Healer actions taken, counter, labelled `action`
    /// (preemptive-checkpoint / proactive-replan).
    pub const HEALER_ACTIONS_TOTAL: &str = "dt_healer_actions_total";

    /// Orchestration search wall time (host seconds), histogram.
    pub const ORCHESTRATOR_SEARCH_WALL_SECONDS: &str = "dt_orchestrator_search_wall_seconds";
    /// Profile-cache hits, counter.
    pub const ORCHESTRATOR_CACHE_HITS_TOTAL: &str = "dt_orchestrator_cache_hits_total";
    /// Profile-cache misses (interpolated lookups), counter.
    pub const ORCHESTRATOR_CACHE_MISSES_TOTAL: &str = "dt_orchestrator_cache_misses_total";
    /// Plan searches completed, counter.
    pub const ORCHESTRATOR_SEARCHES_TOTAL: &str = "dt_orchestrator_searches_total";

    // dt-serve (planner daemon)
    /// Requests completed by the daemon, counter, labelled
    /// `kind` (plan/replan/simulate/ping) and `outcome` (ok/error).
    pub const SERVE_REQUESTS_TOTAL: &str = "dt_serve_requests_total";
    /// Requests rejected at admission, counter, labelled `reason`
    /// (overloaded/deadline/bad_request/malformed).
    pub const SERVE_REJECTED_TOTAL: &str = "dt_serve_rejected_total";
    /// Admitted jobs waiting at the admission gate for a slot, gauge.
    pub const SERVE_QUEUE_DEPTH: &str = "dt_serve_queue_depth";
    /// Admitted jobs holding a slot (executing), gauge.
    pub const SERVE_RUNNING_JOBS: &str = "dt_serve_running_jobs";
    /// End-to-end request latency (admission to reply), seconds,
    /// histogram labelled `kind`.
    pub const SERVE_REQUEST_SECONDS: &str = "dt_serve_request_seconds";
    /// Warm-plan store lookups served from a prebuilt entry, counter.
    pub const SERVE_STORE_HITS_TOTAL: &str = "dt_serve_store_hits_total";
    /// Warm-plan store lookups that had to profile + build cost tables,
    /// counter.
    pub const SERVE_STORE_MISSES_TOTAL: &str = "dt_serve_store_misses_total";
    /// HTTP scrapes of the live `/metrics` endpoint, counter.
    pub const SERVE_SCRAPES_TOTAL: &str = "dt_serve_scrapes_total";
    /// Connections the daemon accepted (planning sessions and HTTP
    /// scrapes alike), counter.
    pub const SERVE_SESSIONS_TOTAL: &str = "dt_serve_sessions_total";

    /// Build identity info gauge (constant 1; the version and git hash
    /// ride as labels, the Prometheus `*_info` idiom).
    pub const BUILD_INFO: &str = "dt_build_info";
    /// Seconds since this process's telemetry came up, gauge (refreshed
    /// at scrape time).
    pub const UPTIME_SECONDS: &str = "dt_uptime_seconds";
    /// Flight-recorder dumps triggered, counter, labelled `reason`.
    pub const FLIGHT_DUMPS_TOTAL: &str = "dt_flight_dumps_total";
}
