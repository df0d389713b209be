//! The metric [`Registry`] and the cheap, cloneable [`Telemetry`] handle.
//!
//! The registry interns metrics by `(name, labels)` behind a mutex, but
//! the mutex is only taken on registration/lookup — callers hold the
//! returned `Arc<Counter>` (etc.) and update it with plain atomics. The
//! [`Telemetry`] handle mirrors `TraceRecorder::disabled`: a disabled
//! handle carries no registry at all, and [`Telemetry::with`] never
//! invokes its closure, so instrumented code pays nothing when
//! observability is off (the counting-allocator test proves it).

use crate::metric::{Counter, Gauge, Histogram};
use crate::series::TimeSeries;
use crate::snapshot::{MetricValue, Snapshot, SnapshotEntry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A metric's identity: name plus sorted `(key, value)` labels.
///
/// `Ord` on this struct fixes the exposition order (and makes it
/// deterministic across runs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric family name, e.g. `dt_runtime_iter_time_seconds`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Series(Arc<TimeSeries>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
            Slot::Series(_) => "series",
        }
    }
}

/// An interning map from [`MetricId`] to live metric instances.
///
/// `Send + Sync`: the preprocessing service clones `Arc<Registry>` (via
/// [`Telemetry`]) into its real producer and consumer threads.
#[derive(Debug, Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<MetricId, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&self, name: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Slot) -> Slot {
        let id = MetricId::new(name, labels);
        let mut slots = self.slots.lock().unwrap();
        slots.entry(id).or_insert_with(make).clone()
    }

    /// The counter registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// If the id is already registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.slot(name, labels, || Slot::Counter(Arc::new(Counter::new()))) {
            Slot::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// If the id is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.slot(name, labels, || Slot::Gauge(Arc::new(Gauge::new()))) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// If the id is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.slot(name, labels, || Slot::Histogram(Arc::new(Histogram::new()))) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The time-series registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// If the id is already registered as a different metric kind.
    pub fn series(&self, name: &str, labels: &[(&str, &str)]) -> Arc<TimeSeries> {
        match self.slot(name, labels, || Slot::Series(Arc::new(TimeSeries::new()))) {
            Slot::Series(s) => s,
            other => panic!("metric {name} is a {}, not a series", other.kind()),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze every registered metric into a [`Snapshot`] for exposition.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().unwrap();
        let entries = slots
            .iter()
            .map(|(id, slot)| SnapshotEntry {
                id: id.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    Slot::Series(s) => MetricValue::Series(s.points()),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

/// A cheap handle that is either wired to a shared [`Registry`] or
/// disabled entirely.
///
/// Mirrors `dt_simengine::TraceRecorder`: `Telemetry::disabled()` (also
/// the `Default`) is free to clone and free to consult, and the closure
/// passed to [`Telemetry::with`] is *never invoked* in that state.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A no-op handle: every `with` call returns `None` without running
    /// its closure.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// True when backed by a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` against the registry when enabled; skip it entirely when
    /// disabled. This is the deferred-record helper all instrumentation
    /// goes through — metric names, label vectors, and values are only
    /// materialised when someone is listening.
    pub fn with<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.inner.as_deref().map(f)
    }

    /// Snapshot the registry; an empty snapshot when disabled.
    pub fn snapshot(&self) -> Snapshot {
        self.with(|r| r.snapshot()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_instance() {
        let r = Registry::new();
        let a = r.counter("hits", &[("shard", "0")]);
        a.add(3);
        let b = r.counter("hits", &[("shard", "0")]);
        assert_eq!(b.get(), 3);
        // A different label set is a different instance.
        let c = r.counter("hits", &[("shard", "1")]);
        assert_eq!(c.get(), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]).get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let ran = t.with(|_| true);
        assert_eq!(ran, None);
        assert!(t.snapshot().entries.is_empty());
    }

    #[test]
    fn enabled_handle_shares_one_registry_across_clones() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.with(|r| r.counter("n", &[]).inc());
        t2.with(|r| r.counter("n", &[]).inc());
        assert_eq!(t.with(|r| r.counter("n", &[]).get()), Some(2));
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Telemetry>();
        check::<Registry>();
    }
}
