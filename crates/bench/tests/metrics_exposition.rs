//! End-to-end exposition gate for the `repro --metrics` flow: the metered
//! demo's Prometheus text must parse line by line into well-formed TYPE
//! declarations and samples (no duplicate series), and the JSON archive
//! must round-trip exactly through `dt_simengine::Json`.

use dt_bench::metricsbench::default_metrics_run;
use dt_simengine::Json;
use dt_telemetry::{names, Snapshot};
use std::collections::HashSet;

/// Split `name{labels} value` into its parts, validating shape.
fn parse_sample(line: &str) -> (String, String, f64) {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value: {line}"));
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("bad value in: {line}"));
    let (name, labels) = match series.split_once('{') {
        Some((n, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unclosed {{: {line}"));
            (n.to_string(), labels.to_string())
        }
        None => (series.to_string(), String::new()),
    };
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name in: {line}"
    );
    (name, labels, value)
}

#[test]
fn prometheus_text_is_line_parseable_and_duplicate_free() {
    let run = default_metrics_run();
    let snap = run.snapshot();
    let text = snap.to_prometheus_text();

    let mut typed: HashSet<String> = HashSet::new();
    let mut series_seen: HashSet<String> = HashSet::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a family");
            let kind = parts.next().expect("TYPE line declares a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown TYPE kind: {line}"
            );
            assert!(parts.next().is_none(), "trailing junk: {line}");
            assert!(typed.insert(name.to_string()), "family typed twice: {name}");
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only TYPE comments are emitted: {line}"
        );
        let (name, labels, value) = parse_sample(line);
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(&name);
        assert!(
            typed.contains(family) || typed.contains(&name),
            "sample before/without its TYPE: {line}"
        );
        assert!(
            series_seen.insert(format!("{name}{{{labels}}}")),
            "duplicate series: {line}"
        );
        assert!(value.is_finite() || line.contains("NaN") || line.contains("Inf"));
        samples += 1;
    }
    assert!(samples > 0, "exposition must carry samples");

    // The acceptance families all appear.
    for family in [
        names::RUNTIME_ITER_TIME_SECONDS,
        names::RUNTIME_ITERATIONS_TOTAL,
        names::PIPELINE_STAGE_COMPUTE_SECONDS,
        names::PREPROCESS_FETCH_SECONDS,
        names::ORCHESTRATOR_SEARCH_WALL_SECONDS,
        names::ELASTIC_FAILURES_TOTAL,
    ] {
        assert!(
            typed.contains(family),
            "missing # TYPE for {family}\n{text}"
        );
    }
    // Histograms expose quantile + _sum + _count triples.
    assert!(text.contains(&format!(
        "{}{{quantile=\"0.5\"}}",
        names::RUNTIME_ITER_TIME_SECONDS
    )));
    assert!(text.contains(&format!("{}_count", names::RUNTIME_ITER_TIME_SECONDS)));
    // Dotted time-series names stay out of the text exposition.
    assert!(!text.contains(names::SERIES_ITER_TIME));
}

#[test]
fn json_archive_round_trips_exactly() {
    let run = default_metrics_run();
    let snap = run.snapshot();
    let doc = snap.to_json();
    let parsed = Json::parse(&doc.to_string()).expect("archive is valid JSON");
    let back = Snapshot::from_json(&parsed).expect("archive decodes as a snapshot");
    assert_eq!(back, snap, "snapshot → JSON → snapshot must be lossless");
    // The series (absent from Prometheus text) survive in the archive.
    let series = back
        .series_values(names::SERIES_ITER_TIME, &[])
        .expect("iter-time series archived");
    assert!(series.len() >= run.report.iterations.len());
}
