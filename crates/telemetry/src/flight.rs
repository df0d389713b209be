//! The black-box flight recorder: a bounded ring of recent structured
//! events per session/worker, dumped on failure triggers.
//!
//! Metrics say *that* something went wrong and traces say *where time
//! went*, but when a session dies — a hostile frame, an overload
//! rejection, a panic — both are aggregates; the operator wants the last
//! few things that session actually did. A [`FlightRecorder`] keeps those
//! last events in a fixed-size ring; on a trigger (`Malformed`,
//! `Overloaded`, `Backpressured`, a panicked worker, or an
//! anomaly-detector hit via [`FlightLog::record_anomalies`]) the ring is
//! frozen into a [`FlightDump`] and pushed to the process-wide
//! [`FlightLog`], which the `dt-serve` daemon exposes on `GET /flight`.
//!
//! Design rules, shared with the rest of the observability stack:
//!
//! * **Disabled is free.** A disabled log/recorder holds no buffer and
//!   [`FlightRecorder::record`] returns before the detail closure runs —
//!   no allocation, one branch (counting-allocator-tested).
//! * **Bounded everywhere.** Rings hold at most their `capacity` events
//!   (oldest evicted first); the log holds at most `max_dumps` dumps
//!   (oldest evicted first). A misbehaving peer cannot grow either.
//! * **Deterministic.** Events carry a per-recorder sequence number and
//!   caller-provided detail — no wall-clock — so a seeded run produces a
//!   byte-identical dump every time (a fixed-seed test pins this).

use crate::anomaly::Anomaly;
use crate::{names, Telemetry};
use dt_simengine::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default per-session/worker ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 64;
/// Default bound on retained dumps in a [`FlightLog`].
pub const DEFAULT_MAX_DUMPS: usize = 16;

/// One structured event in a recorder's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Position in this recorder's event stream (0-based, monotonic).
    pub seq: u64,
    /// Stable event kind (e.g. `request`, `batch`, `backpressure`).
    pub kind: &'static str,
    /// Caller-provided detail; deterministic inputs produce a
    /// deterministic dump.
    pub detail: String,
    /// Trace id of the request this event served (0 when untraced).
    pub trace_id: u64,
}

impl FlightEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq", Json::num_u64(self.seq)),
            ("kind", Json::Str(self.kind.to_string())),
            ("detail", Json::Str(self.detail.clone())),
        ];
        if self.trace_id != 0 {
            fields.push(("trace", Json::Str(format!("{:016x}", self.trace_id))));
        }
        Json::obj(fields)
    }
}

/// A frozen ring: what one session/worker did just before a trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The recorder's session/worker label.
    pub session: String,
    /// What pulled the trigger (e.g. `malformed`, `overloaded`,
    /// `panic`, `anomaly:straggler_iteration`).
    pub reason: String,
    /// The ring at trigger time, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Encode for the `/flight` endpoint and the repro CLI.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("session", Json::Str(self.session.clone())),
            ("reason", Json::Str(self.reason.clone())),
            (
                "events",
                Json::Arr(self.events.iter().map(FlightEvent::to_json).collect()),
            ),
        ])
    }
}

#[derive(Debug)]
struct LogInner {
    dumps: Mutex<Vec<FlightDump>>,
    max_dumps: usize,
    dumps_total: AtomicU64,
}

/// The process-wide collection point for dumps. Cheap to clone; a
/// disabled log drops everything at zero cost.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    inner: Option<Arc<LogInner>>,
}

impl FlightLog {
    /// An enabled log retaining up to [`DEFAULT_MAX_DUMPS`] dumps.
    pub fn new() -> FlightLog {
        FlightLog::with_max_dumps(DEFAULT_MAX_DUMPS)
    }

    /// An enabled log retaining up to `max_dumps` dumps (oldest evicted).
    pub fn with_max_dumps(max_dumps: usize) -> FlightLog {
        FlightLog {
            inner: Some(Arc::new(LogInner {
                dumps: Mutex::new(Vec::new()),
                max_dumps: max_dumps.max(1),
                dumps_total: AtomicU64::new(0),
            })),
        }
    }

    /// A log that drops everything. This is the `Default`, mirroring
    /// `Telemetry::disabled` / `TraceRecorder::disabled`.
    pub fn disabled() -> FlightLog {
        FlightLog { inner: None }
    }

    /// `true` when dumps are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a recorder feeding this log. On a disabled log the recorder
    /// is disabled too (and allocates nothing, including for `session`).
    pub fn recorder(&self, session: &str, capacity: usize) -> FlightRecorder {
        if self.inner.is_none() {
            return FlightRecorder::disabled();
        }
        FlightRecorder {
            log: self.clone(),
            inner: Some(Arc::new(Mutex::new(RecorderInner {
                session: session.to_string(),
                capacity: capacity.max(1),
                next_seq: 0,
                ring: VecDeque::with_capacity(capacity.clamp(1, DEFAULT_RING_CAPACITY)),
            }))),
        }
    }

    /// Append a dump, evicting the oldest past the bound. No-op when
    /// disabled.
    pub fn push(&self, dump: FlightDump) {
        let Some(inner) = &self.inner else { return };
        inner.dumps_total.fetch_add(1, Ordering::Relaxed);
        let mut dumps = inner.dumps.lock().expect("flight log lock");
        if dumps.len() == inner.max_dumps {
            dumps.remove(0);
        }
        dumps.push(dump);
    }

    /// The retained dumps, oldest first (empty when disabled).
    pub fn dumps(&self) -> Vec<FlightDump> {
        match &self.inner {
            Some(inner) => inner.dumps.lock().expect("flight log lock").clone(),
            None => Vec::new(),
        }
    }

    /// Dumps ever pushed, including evicted ones.
    pub fn dumps_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dumps_total.load(Ordering::Relaxed))
    }

    /// Encode the whole log for the `/flight` endpoint:
    /// `{"dumps_total": N, "dumps": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dumps_total", Json::num_u64(self.dumps_total())),
            (
                "dumps",
                Json::Arr(self.dumps().iter().map(FlightDump::to_json).collect()),
            ),
        ])
    }

    /// The anomaly-detector hook: freeze one dump per detected anomaly,
    /// labelled with the anomaly's shape and — when the offending metric
    /// family carries one — the histogram exemplar's trace id, which is
    /// how a flag on (say) `dt_preprocess_stall_seconds` points at the
    /// exact request that stalled.
    pub fn record_anomalies(&self, session: &str, anomalies: &[Anomaly], exemplar_trace: u64) {
        if self.inner.is_none() {
            return;
        }
        for a in anomalies {
            self.push(FlightDump {
                session: session.to_string(),
                reason: format!("anomaly:{}", a.kind.name()),
                events: vec![FlightEvent {
                    seq: 0,
                    kind: "anomaly",
                    detail: format!(
                        "{} over [{}, {}]: value {:.6} vs baseline {:.6}",
                        a.kind.name(),
                        a.start_index,
                        a.end_index,
                        a.value,
                        a.baseline
                    ),
                    trace_id: exemplar_trace,
                }],
            });
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    session: String,
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<FlightEvent>,
}

/// One session/worker's bounded event ring. Cheap to clone (shared ring);
/// a disabled recorder never runs its detail closures.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    log: FlightLog,
    inner: Option<Arc<Mutex<RecorderInner>>>,
}

impl FlightRecorder {
    /// A recorder that drops everything at zero cost.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            log: FlightLog::disabled(),
            inner: None,
        }
    }

    /// `true` when events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. `detail` runs only when enabled — the zero-cost
    /// path is one branch, no allocation.
    pub fn record(&self, kind: &'static str, trace_id: u64, detail: impl FnOnce() -> String) {
        let Some(inner) = &self.inner else { return };
        let mut rec = inner.lock().expect("flight recorder lock");
        let seq = rec.next_seq;
        rec.next_seq += 1;
        if rec.ring.len() == rec.capacity {
            rec.ring.pop_front();
        }
        let event = FlightEvent {
            seq,
            kind,
            detail: detail(),
            trace_id,
        };
        rec.ring.push_back(event);
    }

    /// Freeze the ring into a [`FlightDump`] and push it to the log. The
    /// ring keeps recording afterwards (a later trigger dumps again, with
    /// the newer tail). No-op when disabled.
    pub fn dump(&self, reason: &str) {
        let Some(inner) = &self.inner else { return };
        let rec = inner.lock().expect("flight recorder lock");
        self.log.push(FlightDump {
            session: rec.session.clone(),
            reason: reason.to_string(),
            events: rec.ring.iter().cloned().collect(),
        });
    }

    /// [`FlightRecorder::dump`], counted in `telemetry` as
    /// `dt_flight_dumps_total{reason}` — how every network session freezes
    /// its ring on a trigger. One branch and nothing else when disabled.
    pub fn dump_counted(&self, reason: &'static str, telemetry: &Telemetry) {
        if self.inner.is_none() {
            return;
        }
        self.dump(reason);
        telemetry.with(|r| {
            r.counter(names::FLIGHT_DUMPS_TOTAL, &[("reason", reason)])
                .inc()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyKind;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let log = FlightLog::new();
        let rec = log.recorder("s0", 3);
        for i in 0..10u64 {
            rec.record("ev", 0, || format!("event {i}"));
        }
        rec.dump("malformed");
        let dumps = log.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.session, "s0");
        assert_eq!(d.reason, "malformed");
        assert_eq!(d.events.len(), 3, "ring bound holds");
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "oldest evicted, order kept");
        assert_eq!(d.events[0].detail, "event 7");
    }

    #[test]
    fn log_bound_evicts_oldest_dumps() {
        let log = FlightLog::with_max_dumps(2);
        let rec = log.recorder("s", 4);
        for i in 0..5 {
            rec.record("ev", 0, || format!("{i}"));
            rec.dump(&format!("r{i}"));
        }
        let dumps = log.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].reason, "r3");
        assert_eq!(dumps[1].reason, "r4");
        assert_eq!(log.dumps_total(), 5, "total counts evicted dumps too");
    }

    #[test]
    fn disabled_log_and_recorder_drop_everything() {
        let log = FlightLog::disabled();
        assert!(!log.is_enabled());
        let rec = log.recorder("s", 8);
        assert!(!rec.is_enabled());
        rec.record("ev", 1, || {
            unreachable!("closure must not run when disabled")
        });
        rec.dump("malformed");
        log.record_anomalies("s", &[], 0);
        assert!(log.dumps().is_empty());
        assert_eq!(log.dumps_total(), 0);
        assert_eq!(log.to_json().to_string(), r#"{"dumps_total":0,"dumps":[]}"#);
    }

    #[test]
    fn counted_dumps_are_labelled_by_reason() {
        let tel = Telemetry::enabled();
        let log = FlightLog::new();
        let rec = log.recorder("s", 4);
        rec.record("ev", 0, || "x".into());
        rec.dump_counted("malformed", &tel);
        FlightRecorder::disabled().dump_counted("malformed", &tel);
        assert_eq!(log.dumps_total(), 1);
        let count = tel
            .with(|r| {
                r.counter(names::FLIGHT_DUMPS_TOTAL, &[("reason", "malformed")])
                    .get()
            })
            .unwrap();
        assert_eq!(count, 1, "a disabled recorder neither dumps nor counts");
    }

    #[test]
    fn dumps_are_deterministic_under_a_fixed_seed() {
        use dt_simengine::DetRng;
        let run = || {
            let log = FlightLog::new();
            let rec = log.recorder("session-7", 8);
            let mut rng = DetRng::new(42);
            for i in 0..20u64 {
                let trace = rng.next_u64() | 1;
                rec.record("fetch", trace, || {
                    format!("batch {i} count {}", rng.range_u64(1, 9))
                });
            }
            rec.dump("panic");
            log.to_json().to_string()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fixed seed must reproduce the dump byte-for-byte");
        assert!(a.contains("\"reason\":\"panic\""));
    }

    #[test]
    fn anomaly_hook_dumps_with_exemplar_trace() {
        let log = FlightLog::new();
        let anomalies = vec![Anomaly {
            kind: AnomalyKind::PreprocessStallBurst,
            start_index: 5,
            end_index: 7,
            value: 0.8,
            baseline: 0.05,
        }];
        log.record_anomalies("consumer-0", &anomalies, 0xFEED);
        let dumps = log.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "anomaly:preprocess-stall-burst");
        assert_eq!(dumps[0].events[0].trace_id, 0xFEED);
        assert!(dumps[0].events[0].detail.contains("over [5, 7]"));
    }

    #[test]
    fn json_shape_is_stable() {
        let log = FlightLog::new();
        let rec = log.recorder("s1", 2);
        rec.record("request", 0x2A, || "plan".to_string());
        rec.dump("overloaded");
        let text = log.to_json().to_string();
        assert!(text.contains("\"session\":\"s1\""));
        assert!(text.contains("\"reason\":\"overloaded\""));
        assert!(text.contains("\"kind\":\"request\""));
        assert!(text.contains("\"trace\":\"000000000000002a\""));
    }
}
