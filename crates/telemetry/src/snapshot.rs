//! Frozen registry state plus the two exposition formats: Prometheus
//! text and `dt_simengine::Json`.
//!
//! Histograms are exposed in Prometheus *summary* flavour (`quantile`
//! labels plus `_sum`/`_count`) — compact, line-parseable, and lossless
//! enough for the repro reports. Time-series are not point-in-time
//! values, so they are omitted from the Prometheus text and carried only
//! in the JSON archive, which round-trips exactly through
//! [`Snapshot::from_json`].

use crate::metric::HistogramSnapshot;
use crate::registry::MetricId;
use dt_simengine::{Json, SimTime};

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
    /// Time-series points (simulated time, value).
    Series(Vec<(SimTime, f64)>),
}

impl MetricValue {
    /// Stable kind tag used in the JSON archive.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
            MetricValue::Series(_) => "series",
        }
    }
}

/// One `(id, value)` pair in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The metric's name and labels.
    pub id: MetricId,
    /// Its frozen value.
    pub value: MetricValue,
}

/// A frozen copy of a whole registry, ordered by [`MetricId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, in deterministic `(name, labels)` order.
    pub entries: Vec<SnapshotEntry>,
}

/// Escape a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{k="v",...}` for a sample line; `extra` appends one more pair
/// (used for `quantile="..."`).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn write_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// Find an entry by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.entries
            .iter()
            .find(|e| e.id.name == name && e.id.labels == want)
            .map(|e| &e.value)
    }

    /// A counter's total, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)? {
            MetricValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// A gauge's reading, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's distribution, if registered.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        match self.get(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// A time-series' values (times dropped), if registered.
    pub fn series_values(&self, name: &str, labels: &[(&str, &str)]) -> Option<Vec<f64>> {
        match self.get(name, labels)? {
            MetricValue::Series(pts) => Some(pts.iter().map(|&(_, v)| v).collect()),
            _ => None,
        }
    }

    /// A time-series' full points, if registered.
    pub fn series_points(&self, name: &str, labels: &[(&str, &str)]) -> Option<&[(SimTime, f64)]> {
        match self.get(name, labels)? {
            MetricValue::Series(pts) => Some(pts),
            _ => None,
        }
    }

    /// Render the Prometheus text exposition format.
    ///
    /// Counters and gauges become single sample lines; histograms become
    /// summaries (`quantile` 0.5/0.95/0.99 plus `_sum` and `_count`).
    /// `# TYPE` comments are emitted once per family; time-series entries
    /// are skipped (they live in the JSON archive).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(String, &'static str)> = None;
        for e in &self.entries {
            let prom_type = match &e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
                MetricValue::Series(_) => continue,
            };
            let family = (e.id.name.clone(), prom_type);
            if last_type.as_ref() != Some(&family) {
                out.push_str(&format!("# TYPE {} {prom_type}\n", e.id.name));
                last_type = Some(family);
            }
            match &e.value {
                MetricValue::Counter(n) => {
                    out.push_str(&format!(
                        "{}{} {n}\n",
                        e.id.name,
                        label_block(&e.id.labels, None)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.id.name,
                        label_block(&e.id.labels, None),
                        write_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    for (q, qs) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            e.id.name,
                            label_block(&e.id.labels, Some(("quantile", qs))),
                            write_f64(h.quantile(q))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.id.name,
                        label_block(&e.id.labels, None),
                        write_f64(h.sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.id.name,
                        label_block(&e.id.labels, None),
                        h.count
                    ));
                }
                MetricValue::Series(_) => unreachable!(),
            }
        }
        out
    }

    /// Encode the snapshot as a `dt_simengine::Json` document:
    /// `{"metrics": [{name, labels, kind, ...}]}`. The encoding is exact
    /// (histogram buckets sparse, series times in integer nanoseconds), so
    /// [`Snapshot::from_json`] reproduces the snapshot bit-for-bit.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let labels = Json::Obj(
                    e.id.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("name", Json::Str(e.id.name.clone())),
                    ("labels", labels),
                    ("kind", Json::Str(e.value.kind().to_string())),
                ];
                match &e.value {
                    MetricValue::Counter(n) => fields.push(("value", Json::num_u64(*n))),
                    MetricValue::Gauge(v) => fields.push(("value", Json::Num(*v))),
                    MetricValue::Histogram(h) => {
                        fields.push(("count", Json::num_u64(h.count)));
                        fields.push(("sum", Json::Num(h.sum)));
                        fields.push(("zeros", Json::num_u64(h.zeros)));
                        if let Some((v, trace)) = h.exemplar {
                            fields.push((
                                "exemplar",
                                Json::obj(vec![
                                    ("value", Json::Num(v)),
                                    ("trace", Json::num_u64(trace)),
                                ]),
                            ));
                        }
                        fields.push((
                            "buckets",
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|&(i, c)| {
                                        Json::Arr(vec![Json::num_u64(i as u64), Json::num_u64(c)])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                    MetricValue::Series(pts) => {
                        fields.push((
                            "points",
                            Json::Arr(
                                pts.iter()
                                    .map(|&(t, v)| {
                                        Json::Arr(vec![Json::num_u64(t.as_nanos()), Json::Num(v)])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![("metrics", Json::Arr(metrics))])
    }

    /// Decode a snapshot previously produced by [`Snapshot::to_json`].
    /// Returns `None` on any structural mismatch.
    pub fn from_json(doc: &Json) -> Option<Snapshot> {
        let metrics = doc.get("metrics")?.as_array()?;
        let mut entries = Vec::with_capacity(metrics.len());
        for m in metrics {
            let name = m.get("name")?.as_str()?.to_string();
            let labels = match m.get("labels")? {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect::<Option<Vec<_>>>()?,
                _ => return None,
            };
            let value = match m.get("kind")?.as_str()? {
                "counter" => MetricValue::Counter(m.get("value")?.as_u64()?),
                "gauge" => MetricValue::Gauge(m.get("value")?.as_f64()?),
                "histogram" => {
                    let buckets = m
                        .get("buckets")?
                        .as_array()?
                        .iter()
                        .map(|b| {
                            let pair = b.as_array()?;
                            Some((pair.first()?.as_u32()?, pair.get(1)?.as_u64()?))
                        })
                        .collect::<Option<Vec<_>>>()?;
                    // Optional: archives predating exemplars omit it.
                    let exemplar = m
                        .get("exemplar")
                        .and_then(|e| Some((e.get("value")?.as_f64()?, e.get("trace")?.as_u64()?)));
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets,
                        zeros: m.get("zeros")?.as_u64()?,
                        count: m.get("count")?.as_u64()?,
                        sum: m.get("sum")?.as_f64()?,
                        exemplar,
                    })
                }
                "series" => {
                    let points = m
                        .get("points")?
                        .as_array()?
                        .iter()
                        .map(|p| {
                            let pair = p.as_array()?;
                            Some((
                                SimTime::from_nanos(pair.first()?.as_u64()?),
                                pair.get(1)?.as_f64()?,
                            ))
                        })
                        .collect::<Option<Vec<_>>>()?;
                    MetricValue::Series(points)
                }
                _ => return None,
            };
            entries.push(SnapshotEntry {
                id: MetricId { name, labels },
                value,
            });
        }
        Some(Snapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use dt_simengine::SimDuration;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("dt_test_events_total", &[("kind", "a")]).add(7);
        r.counter("dt_test_events_total", &[("kind", "b")]).add(2);
        r.gauge("dt_test_depth", &[]).set(3.5);
        let h = r.histogram("dt_test_latency_seconds", &[]);
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        r.histogram("dt_test_traced_seconds", &[])
            .observe_traced(0.5, 0xBEEF);
        let s = r.series("dt.test.iter", &[]);
        s.sample(SimTime::ZERO + SimDuration::from_secs_f64(1.0), 0.5);
        s.sample(SimTime::ZERO + SimDuration::from_secs_f64(2.0), 0.75);
        r
    }

    #[test]
    fn prometheus_text_has_families_and_skips_series() {
        let text = sample_registry().snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE dt_test_events_total counter"));
        assert!(text.contains("dt_test_events_total{kind=\"a\"} 7"));
        assert!(text.contains("dt_test_events_total{kind=\"b\"} 2"));
        // TYPE comment once per family even with two label sets.
        assert_eq!(text.matches("# TYPE dt_test_events_total").count(), 1);
        assert!(text.contains("# TYPE dt_test_latency_seconds summary"));
        assert!(text.contains("dt_test_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("dt_test_latency_seconds_count 100"));
        assert!(
            !text.contains("dt.test.iter"),
            "series excluded from Prometheus text"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("x", &[("p", "a\"b\\c\nd")]).inc();
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains(r#"x{p="a\"b\\c\nd"} 1"#), "{text}");
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample_registry().snapshot();
        let doc = snap.to_json();
        // Through text and back: archive files are parsed, not just held.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(reparsed, doc);
        let back = Snapshot::from_json(&reparsed).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn accessors_find_entries() {
        let snap = sample_registry().snapshot();
        assert_eq!(
            snap.counter_value("dt_test_events_total", &[("kind", "a")]),
            Some(7)
        );
        assert_eq!(snap.gauge_value("dt_test_depth", &[]), Some(3.5));
        assert_eq!(
            snap.histogram_value("dt_test_latency_seconds", &[])
                .unwrap()
                .count,
            100
        );
        assert_eq!(
            snap.series_values("dt.test.iter", &[]),
            Some(vec![0.5, 0.75])
        );
        assert!(snap.get("missing", &[]).is_none());
    }

    #[test]
    fn exemplar_survives_the_json_archive() {
        let snap = sample_registry().snapshot();
        let h = snap.histogram_value("dt_test_traced_seconds", &[]).unwrap();
        assert_eq!(h.exemplar, Some((0.5, 0xBEEF)));
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // And an exemplar-free archive (the pre-exemplar format) parses.
        let untrace = snap
            .histogram_value("dt_test_latency_seconds", &[])
            .unwrap();
        assert_eq!(untrace.exemplar, None);
    }
}
