//! The fan-in consumer: one GPU-side DP rank pulling from N producer
//! endpoints at once (§6's many-producers-feeding-many-consumers
//! topology), with connection supervision.
//!
//! [`Consumer::builder`] validates the fan-in spec (typed
//! [`PreprocessError::InvalidSpec`] on duplicates or an empty producer
//! list) and spawns one **supervisor thread per producer**:
//!
//! * each supervisor keeps `pipeline` FetchBatch requests outstanding
//!   (credit-based flow control — this is what lets the producer's
//!   bounded queue run ahead and what its backpressure bounds);
//! * a mid-stream disconnect triggers a seeded-backoff reconnect on the
//!   shared [`BackoffPolicy`] machinery the `dt-serve` client uses; a
//!   reconnected session is a *new* deterministic stream on the producer
//!   (derived seed), so the merged feed stays reproducible per session;
//! * when a reconnect round exhausts its attempts the supervisor reports
//!   a final typed [`PreprocessError::PeerDisconnected`] downstream and
//!   exits — the other producers keep feeding.
//!
//! Batches from all supervisors merge into one bounded channel;
//! [`MultiFeeder::next_batch`] blocks only when no producer has a batch
//! ready, and reports that wait as the trainer-visible stall (the
//! Figure 17 metric).

use crate::error::PreprocessError;
use crate::feeder::{FeederReport, PreprocessedBatch, CONSUMER_PID};
use crate::wire::{BatchHeader, Request, MAX_FETCH_COUNT};
use dt_data::GlobalBatch;
use dt_simengine::backoff::BackoffPolicy;
use dt_simengine::frame::{read_frame, read_json_ctx, write_json, write_json_ctx, MAX_FRAME};
use dt_simengine::trace::{cat, TraceContext, TraceRoots, WallTraceSink};
use dt_telemetry::anomaly::{AnomalyConfig, AnomalyDetector};
use dt_telemetry::flight::DEFAULT_RING_CAPACITY;
use dt_telemetry::{names, FlightLog, FlightRecorder, Telemetry};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stall observations retained for the drop-time anomaly scan; bounds
/// the consumer's memory over arbitrarily long runs.
const STALL_HISTORY_CAP: usize = 4_096;

/// Namespace for the fan-in consumer builder: [`Consumer::builder`].
#[derive(Debug)]
pub struct Consumer;

impl Consumer {
    /// Start describing a fan-in consumer over the given producer
    /// endpoints (one supervised connection each).
    pub fn builder(producers: &[SocketAddr]) -> ConsumerBuilder {
        ConsumerBuilder {
            producers: producers.to_vec(),
            batch: 8,
            pipeline: 2,
            backoff: BackoffPolicy::default(),
            trace: None,
            telemetry: Telemetry::disabled(),
            flight: FlightLog::disabled(),
        }
    }
}

/// Validated fan-in consumer configuration. Construct via
/// [`Consumer::builder`], launch via [`ConsumerBuilder::connect`].
#[derive(Debug, Clone)]
pub struct ConsumerBuilder {
    producers: Vec<SocketAddr>,
    batch: u32,
    pipeline: usize,
    backoff: BackoffPolicy,
    trace: Option<WallTraceSink>,
    telemetry: Telemetry,
    flight: FlightLog,
}

impl ConsumerBuilder {
    /// Samples per fetched global batch.
    pub fn batch(mut self, n: u32) -> Self {
        self.batch = n;
        self
    }

    /// FetchBatch requests each supervisor keeps outstanding (credits).
    pub fn pipeline(mut self, n: usize) -> Self {
        self.pipeline = n;
        self
    }

    /// Reconnect pacing (shared seeded full-jitter machinery; see
    /// [`dt_simengine::backoff`]). `max_attempts` bounds each reconnect
    /// round; exhaustion surfaces as
    /// [`PreprocessError::PeerDisconnected`].
    pub fn backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Attach a wall-clock trace sink (prefetch round trips per producer
    /// track, trainer-visible stalls; process [`CONSUMER_PID`]).
    pub fn trace(mut self, sink: WallTraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Metrics sink (prefetch/stall histograms, queue depth, reconnects).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Black-box flight recorder: each supervisor keeps a bounded ring of
    /// recent events (batches, reconnects), frozen to this log when a
    /// producer turns hostile (`malformed`), exhausts its reconnect budget
    /// (`peer-disconnected`), or the drop-time stall scan flags an anomaly.
    pub fn flight(mut self, flight: FlightLog) -> Self {
        self.flight = flight;
        self
    }

    /// Validate the spec and start one supervisor per producer.
    ///
    /// Validation is typed and happens before any socket is touched: an
    /// empty producer list, duplicate addresses, a batch size of zero or
    /// above [`MAX_FETCH_COUNT`], or a zero pipeline depth are
    /// [`PreprocessError::InvalidSpec`]. The
    /// initial connects happen *inside* the supervisors (with backoff),
    /// so an endpoint that is still coming up does not fail the build —
    /// an endpoint that never comes up surfaces from
    /// [`MultiFeeder::next_batch`] as a typed
    /// [`PreprocessError::PeerDisconnected`].
    pub fn connect(self) -> Result<MultiFeeder, PreprocessError> {
        if self.producers.is_empty() {
            return Err(PreprocessError::InvalidSpec {
                reason: "consumer fan-in needs at least one producer endpoint".into(),
            });
        }
        for (i, a) in self.producers.iter().enumerate() {
            if self.producers[..i].contains(a) {
                return Err(PreprocessError::InvalidSpec {
                    reason: format!("duplicate consumer addr {a} in the fan-in list (each producer endpoint may appear once)"),
                });
            }
        }
        if self.batch == 0 || self.batch > MAX_FETCH_COUNT {
            return Err(PreprocessError::InvalidSpec {
                reason: format!("batch must be 1..={MAX_FETCH_COUNT} samples"),
            });
        }
        if self.pipeline == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "pipeline must be >= 1 outstanding request".into(),
            });
        }
        let (tx, rx) = sync_channel(self.producers.len() * self.pipeline);
        let stop = Arc::new(AtomicBool::new(false));
        let reconnects = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::with_capacity(self.producers.len());
        for (idx, &addr) in self.producers.iter().enumerate() {
            let ctx = SupervisorCtx {
                addr,
                idx: idx as u64,
                batch: self.batch,
                pipeline: self.pipeline,
                // Decorrelate the producers' reconnect schedules while
                // keeping the whole fan-in deterministic per seed.
                policy: BackoffPolicy {
                    seed: self.backoff.seed.wrapping_add(idx as u64),
                    ..self.backoff.clone()
                },
                tx: tx.clone(),
                stop: stop.clone(),
                reconnects: reconnects.clone(),
                trace: self.trace.clone(),
                telemetry: self.telemetry.clone(),
                flight: self
                    .flight
                    .recorder(&format!("consumer:sup{idx}"), DEFAULT_RING_CAPACITY),
            };
            let join = std::thread::Builder::new()
                .name(format!("dt-preprocess-sup{idx}"))
                .spawn(move || supervise(ctx))
                .map_err(|e| PreprocessError::InvalidSpec {
                    reason: format!("cannot spawn supervisor thread: {e}"),
                })?;
            joins.push(join);
        }
        Ok(MultiFeeder {
            rx,
            stop,
            joins,
            reconnects,
            last_error: Mutex::new(None),
            trace: self.trace,
            telemetry: self.telemetry,
            flight: self.flight,
            stalls: Mutex::new(Vec::new()),
        })
    }
}

/// Fan-in feeder over N supervised producer connections. See the module
/// docs for the topology and failure semantics.
pub struct MultiFeeder {
    rx: Receiver<Result<(SocketAddr, u64, PreprocessedBatch), PreprocessError>>,
    stop: Arc<AtomicBool>,
    joins: Vec<JoinHandle<()>>,
    reconnects: Arc<AtomicU64>,
    last_error: Mutex<Option<PreprocessError>>,
    trace: Option<WallTraceSink>,
    telemetry: Telemetry,
    flight: FlightLog,
    /// Trainer-visible stall seconds, retained (bounded) for the
    /// drop-time anomaly scan.
    stalls: Mutex<Vec<f64>>,
}

impl std::fmt::Debug for MultiFeeder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiFeeder")
            .field("producers", &self.joins.len())
            .field("reconnects", &self.reconnects())
            .finish_non_exhaustive()
    }
}

impl MultiFeeder {
    /// Take the next ready batch from whichever producer has one,
    /// blocking only while every queue is empty. The returned stall is
    /// that blocked time (Figure 17's consumer-side metric).
    pub fn next_batch(&self) -> Result<(PreprocessedBatch, FeederReport), PreprocessError> {
        self.next_batch_from()
            .map(|(_, batch, report)| (batch, report))
    }

    /// [`MultiFeeder::next_batch`], also reporting which producer
    /// endpoint the batch came from (per-source ordering checks).
    pub fn next_batch_from(
        &self,
    ) -> Result<(SocketAddr, PreprocessedBatch, FeederReport), PreprocessError> {
        let started = Instant::now();
        let delivered = match self.rx.recv() {
            Ok(Ok(tuple)) => tuple,
            Ok(Err(e)) => {
                *self.last_error.lock().unwrap() = Some(e.clone());
                return Err(e);
            }
            Err(_) => {
                // Every supervisor is gone; replay the terminal error.
                let last = self.last_error.lock().unwrap().clone();
                return Err(last.unwrap_or_else(|| PreprocessError::Malformed {
                    reason: "all supervisors exited without reporting".into(),
                }));
            }
        };
        let (addr, trace_id, batch) = delivered;
        if let Some(sink) = &self.trace {
            sink.record("queue wait", cat::STALL, CONSUMER_PID, 1, started);
        }
        let stall = started.elapsed().as_secs_f64();
        self.telemetry.with(|r| {
            r.gauge(names::PREPROCESS_QUEUE_DEPTH, &[]).add(-1.0);
            // The exemplar makes the stall histogram point back at the
            // trace of the batch whose wait was the current maximum.
            r.histogram(names::PREPROCESS_STALL_SECONDS, &[])
                .observe_traced(stall, trace_id);
        });
        if self.flight.is_enabled() {
            let mut stalls = self.stalls.lock().unwrap();
            if stalls.len() < STALL_HISTORY_CAP {
                stalls.push(stall);
            }
        }
        Ok((
            addr,
            batch,
            FeederReport {
                stall: started.elapsed(),
            },
        ))
    }

    /// Reconnects performed across all supervisors so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

impl Drop for MultiFeeder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock supervisors parked on a full channel: drain whatever is
        // buffered, then join.
        while self.rx.try_recv().is_ok() {}
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
        // Post-mortem stall scan: a burst of trainer-visible stalls is an
        // anomaly worth a dump, stamped with the stall histogram's
        // exemplar trace id (the request behind the worst stall).
        if self.flight.is_enabled() {
            let stalls = self.stalls.lock().unwrap();
            let anomalies = AnomalyDetector::new(AnomalyConfig::default()).stall_bursts(&stalls);
            if !anomalies.is_empty() {
                let exemplar = self
                    .telemetry
                    .with(|r| r.histogram(names::PREPROCESS_STALL_SECONDS, &[]).exemplar())
                    .flatten()
                    .map_or(0, |(_, trace)| trace);
                self.flight
                    .record_anomalies("consumer", &anomalies, exemplar);
                self.telemetry.with(|r| {
                    r.counter(names::FLIGHT_DUMPS_TOTAL, &[("reason", "anomaly")])
                        .add(anomalies.len() as u64)
                });
            }
        }
    }
}

struct SupervisorCtx {
    addr: SocketAddr,
    idx: u64,
    batch: u32,
    pipeline: usize,
    policy: BackoffPolicy,
    tx: SyncSender<Result<(SocketAddr, u64, PreprocessedBatch), PreprocessError>>,
    stop: Arc<AtomicBool>,
    reconnects: Arc<AtomicU64>,
    trace: Option<WallTraceSink>,
    telemetry: Telemetry,
    flight: FlightRecorder,
}

fn read_batch(stream: &mut TcpStream) -> io::Result<(Option<TraceContext>, PreprocessedBatch)> {
    let (echo, header): (Option<TraceContext>, BatchHeader) = read_json_ctx(stream, MAX_FRAME)?;
    let payload = read_frame(stream)?;
    let expected: u64 = header.token_lens.iter().sum();
    if payload.len() as u64 != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "payload length mismatch",
        ));
    }
    Ok((
        echo,
        PreprocessedBatch {
            batch: GlobalBatch::new(header.samples),
            token_lens: header.token_lens,
            tokens: payload,
            producer_cpu: Duration::from_nanos(header.producer_cpu_ns),
        },
    ))
}

fn supervise(ctx: SupervisorCtx) {
    let mut rng = ctx.policy.rng();
    // Trace roots come from a salted, independent stream so enabling
    // tracing never perturbs the reconnect jitter schedule.
    let mut trace_roots = TraceRoots::new(ctx.policy.seed);
    let traced = ctx.trace.as_ref().is_some_and(WallTraceSink::is_enabled);
    let mut first_session = true;
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        // Connect phase: one backoff round per (re)connect.
        let mut stream = None;
        for k in 0..ctx.policy.max_attempts.max(1) {
            if ctx.stop.load(Ordering::SeqCst) {
                return;
            }
            match TcpStream::connect(ctx.addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) if k + 1 < ctx.policy.max_attempts.max(1) => {
                    std::thread::sleep(ctx.policy.nth_backoff(k, &mut rng));
                }
                Err(_) => {}
            }
        }
        let Some(mut stream) = stream else {
            // Reconnect budget spent: report the typed terminal error and
            // leave the other producers feeding.
            ctx.flight.record("exhausted", 0, || {
                format!("reconnect budget spent on producer {}", ctx.addr)
            });
            ctx.flight.dump_counted("peer-disconnected", &ctx.telemetry);
            let _ = ctx
                .tx
                .send(Err(PreprocessError::PeerDisconnected { addr: ctx.addr }));
            return;
        };
        if !first_session {
            ctx.reconnects.fetch_add(1, Ordering::Relaxed);
            ctx.telemetry
                .with(|r| r.counter(names::PREPROCESS_RECONNECTS_TOTAL, &[]).inc());
            ctx.flight
                .record("reconnect", 0, || format!("producer {}", ctx.addr));
        }
        first_session = false;
        // Session phase: keep `pipeline` requests outstanding; every
        // response returns one credit. Responses come back FIFO per
        // session, so the per-request trace links queue in order.
        let mut outstanding: VecDeque<Option<(TraceContext, u64)>> = VecDeque::new();
        loop {
            if ctx.stop.load(Ordering::SeqCst) {
                let _ = write_json(&mut stream, &Request::Shutdown);
                return;
            }
            let mut io_failed = false;
            while outstanding.len() < ctx.pipeline {
                // Each FetchBatch gets its own root: the consumer-side
                // prefetch span is child 1, and the wire context carries
                // it to the producer so its pipeline spans nest beneath.
                let link = traced.then(|| trace_roots.next_request());
                let wire_ctx = link.map(|(_, _, wire)| wire);
                let write = write_json_ctx(
                    &mut stream,
                    wire_ctx.as_ref(),
                    &Request::FetchBatch { count: ctx.batch },
                );
                if write.is_err() {
                    io_failed = true;
                    break;
                }
                outstanding.push_back(link.map(|(root, span, _)| (root, span)));
            }
            if io_failed {
                break; // reconnect
            }
            let fetch_started = Instant::now();
            match read_batch(&mut stream) {
                Ok((echo, batch)) => {
                    let link = outstanding.pop_front().flatten();
                    let trace_id = echo
                        .map(|c| c.trace_id)
                        .or_else(|| link.map(|(root, _)| root.trace_id))
                        .unwrap_or(0);
                    if let Some(sink) = &ctx.trace {
                        let (root, span) = link.unzip();
                        sink.record_traced(
                            format!("prefetch x{}", ctx.batch),
                            cat::PRE_FETCH,
                            CONSUMER_PID,
                            10 + ctx.idx,
                            fetch_started,
                            root.as_ref(),
                            span.unwrap_or(0),
                        );
                    }
                    ctx.telemetry.with(|r| {
                        r.histogram(names::PREPROCESS_PREFETCH_SECONDS, &[])
                            .observe_traced(fetch_started.elapsed().as_secs_f64(), trace_id)
                    });
                    ctx.flight.record("batch", trace_id, || {
                        format!("x{} from {}", ctx.batch, ctx.addr)
                    });
                    if ctx.tx.send(Ok((ctx.addr, trace_id, batch))).is_err() {
                        // Consumer dropped: politely close the session.
                        let _ = write_json(&mut stream, &Request::Shutdown);
                        return;
                    }
                    ctx.telemetry
                        .with(|r| r.gauge(names::PREPROCESS_QUEUE_DEPTH, &[]).add(1.0));
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Protocol violation from the producer: terminal, do
                    // not reconnect into a hostile peer.
                    ctx.flight.record("malformed", 0, || e.to_string());
                    ctx.flight.dump_counted("malformed", &ctx.telemetry);
                    let _ = ctx.tx.send(Err(PreprocessError::Malformed {
                        reason: format!("producer {}: {e}", ctx.addr),
                    }));
                    return;
                }
                Err(_) => break, // mid-stream disconnect: reconnect
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Preprocess;
    use dt_data::{DataConfig, ResolutionMode};

    fn tiny_data() -> DataConfig {
        DataConfig {
            resolution: ResolutionMode::Fixed(64),
            ..DataConfig::evaluation(64)
        }
    }

    fn fast_backoff(seed: u64) -> BackoffPolicy {
        BackoffPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed,
        }
    }

    #[test]
    fn builder_rejects_bad_fanin_specs_with_typed_errors() {
        let a: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:4002".parse().unwrap();

        let err = Consumer::builder(&[]).connect().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");

        let err = Consumer::builder(&[a, b, a]).connect().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("duplicate"), "{err}");

        let err = Consumer::builder(&[a]).batch(0).connect().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("batch"), "{err}");

        let err = Consumer::builder(&[a])
            .batch(MAX_FETCH_COUNT + 1)
            .connect()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("batch"), "{err}");

        let err = Consumer::builder(&[a]).pipeline(0).connect().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("pipeline"), "{err}");
    }

    #[test]
    fn traced_fanin_links_consumer_and_producer_spans() {
        use crate::service::PREPROCESS_PID;
        use dt_simengine::trace::arg;

        // One sink shared by both planes, as a colocated run would do;
        // over sockets the two processes would each export and merge.
        let sink = WallTraceSink::new();
        let plane = Preprocess::builder(tiny_data(), 61)
            .producers(1)
            .workers(1)
            .trace(sink.clone())
            .spawn()
            .unwrap();
        let feeder = Consumer::builder(plane.addrs())
            .batch(2)
            .pipeline(1)
            .backoff(fast_backoff(5))
            .trace(sink.clone())
            .connect()
            .unwrap();
        for _ in 0..3 {
            feeder.next_batch().unwrap();
        }
        drop(feeder);
        drop(plane);
        let spans = sink.unix_recorder().spans().to_vec();
        let get = |span: &dt_simengine::trace::TraceSpan, key: &str| {
            span.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let prefetch: Vec<_> = spans
            .iter()
            .filter(|s| s.pid == CONSUMER_PID && s.cat == cat::PRE_FETCH)
            .collect();
        assert!(
            prefetch.len() >= 3,
            "expected traced prefetch spans; got {spans:?}"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.pid == CONSUMER_PID && s.cat == cat::STALL),
            "trainer-visible queue waits must be recorded: {spans:?}"
        );
        // Every consumer prefetch span roots its own trace...
        for span in &prefetch {
            assert!(
                get(span, arg::TRACE).is_some(),
                "untraced prefetch span: {span:?}"
            );
        }
        // ...and at least one producer-side span links into a consumer
        // trace, parented under that trace's prefetch span.
        let linked = spans.iter().any(|s| {
            s.pid == PREPROCESS_PID
                && prefetch.iter().any(|p| {
                    get(s, arg::TRACE) == get(p, arg::TRACE)
                        && get(s, arg::PARENT) == get(p, arg::SPAN)
                })
        });
        assert!(
            linked,
            "producer spans must nest under consumer prefetch spans: {spans:?}"
        );
    }

    #[test]
    fn instrumented_feeder_and_producer_record_the_preprocess_families() {
        let tel = Telemetry::enabled();
        let plane = Preprocess::builder(tiny_data(), 23)
            .telemetry(tel.clone())
            .spawn()
            .unwrap();
        let feeder = Consumer::builder(plane.addrs())
            .batch(3)
            .pipeline(2)
            .backoff(fast_backoff(6))
            .telemetry(tel.clone())
            .connect()
            .unwrap();
        let (_, first) = feeder.next_batch().unwrap();
        let (_, _) = feeder.next_batch().unwrap();
        drop(feeder);
        drop(plane);
        let snap = tel.snapshot();
        // Real cross-thread recording: producer session thread +
        // supervisor thread + trainer thread all hit the same registry.
        for h in [
            names::PREPROCESS_FETCH_SECONDS,
            names::PREPROCESS_DECODE_SECONDS,
            names::PREPROCESS_FEED_SECONDS,
            names::PREPROCESS_PREFETCH_SECONDS,
            names::PREPROCESS_STALL_SECONDS,
        ] {
            let hist = snap
                .histogram_value(h, &[])
                .unwrap_or_else(|| panic!("missing {h}"));
            assert!(hist.count >= 2, "{h} must observe both batches");
        }
        assert!(
            snap.counter_value(names::PREPROCESS_BATCHES_TOTAL, &[])
                .unwrap()
                >= 2
        );
        assert!(
            snap.counter_value(names::PREPROCESS_SAMPLES_TOTAL, &[])
                .unwrap()
                >= 6
        );
        // The stall histogram's largest observation covers the cold wait.
        let stall = snap
            .histogram_value(names::PREPROCESS_STALL_SECONDS, &[])
            .unwrap();
        assert!(stall.sum >= first.stall.as_secs_f64() * 0.5);
        // Queue depth returns to a small value once drained (gauge exists).
        assert!(snap
            .gauge_value(names::PREPROCESS_QUEUE_DEPTH, &[])
            .is_some());
    }

    #[test]
    fn fans_in_from_every_producer() {
        let plane = Preprocess::builder(tiny_data(), 51)
            .producers(2)
            .workers(1)
            .spawn()
            .unwrap();
        let feeder = Consumer::builder(plane.addrs())
            .batch(2)
            .pipeline(1)
            .backoff(fast_backoff(1))
            .connect()
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let (addr, batch, _) = feeder.next_batch_from().unwrap();
            assert_eq!(batch.batch.samples.len(), 2);
            assert_eq!(
                batch.tokens.len() as u64,
                batch.token_lens.iter().sum::<u64>()
            );
            seen.insert(addr);
        }
        assert_eq!(seen.len(), 2, "both producers must contribute: {seen:?}");
    }

    #[test]
    fn per_producer_batches_arrive_in_order() {
        let plane = Preprocess::builder(tiny_data(), 52)
            .producers(2)
            .workers(1)
            .spawn()
            .unwrap();
        let feeder = Consumer::builder(plane.addrs())
            .batch(3)
            .pipeline(2)
            .backoff(fast_backoff(2))
            .connect()
            .unwrap();
        let mut next_id: std::collections::BTreeMap<SocketAddr, u64> =
            std::collections::BTreeMap::new();
        for _ in 0..10 {
            let (addr, batch, _) = feeder.next_batch_from().unwrap();
            let expected = next_id.entry(addr).or_insert(0);
            assert_eq!(
                batch.batch.samples[0].id, *expected,
                "out of order from {addr}"
            );
            *expected += batch.batch.samples.len() as u64;
        }
    }

    #[test]
    fn dead_producer_surfaces_as_typed_peer_disconnected() {
        // Nothing listens on this port: the supervisor exhausts its
        // reconnect budget and reports the typed error.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let feeder = Consumer::builder(&[dead])
            .batch(1)
            .backoff(fast_backoff(3))
            .connect()
            .unwrap();
        match feeder.next_batch() {
            Err(PreprocessError::PeerDisconnected { addr }) => assert_eq!(addr, dead),
            other => panic!("expected PeerDisconnected, got {other:?}"),
        }
        // The channel is closed now; subsequent calls replay the error.
        assert!(matches!(
            feeder.next_batch(),
            Err(PreprocessError::PeerDisconnected { .. })
        ));
    }

    #[test]
    fn midstream_disconnect_reconnects_and_keeps_feeding() {
        // Drop the plane mid-stream, bring a new one up on... the same
        // port is not reliably rebindable; instead verify the *other*
        // producer keeps feeding after one dies, and the dead one reports
        // a typed error exactly once.
        let plane_a = Preprocess::builder(tiny_data(), 53)
            .producers(1)
            .workers(1)
            .spawn()
            .unwrap();
        let plane_b = Preprocess::builder(tiny_data(), 54)
            .producers(1)
            .workers(1)
            .spawn()
            .unwrap();
        let feeder = Consumer::builder(&[plane_a.addr(), plane_b.addr()])
            .batch(1)
            .pipeline(1)
            .backoff(fast_backoff(4))
            .connect()
            .unwrap();
        // Warm both streams.
        let mut sources = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let (addr, _, _) = feeder.next_batch_from().unwrap();
            sources.insert(addr);
        }
        let dead_addr = plane_a.addr();
        drop(plane_a); // mid-stream disconnect
        let mut saw_error = false;
        let mut saw_live = false;
        for _ in 0..40 {
            match feeder.next_batch_from() {
                Ok((addr, _, _)) => {
                    if addr == plane_b.addr() {
                        saw_live = true;
                    }
                    if saw_error && saw_live {
                        break;
                    }
                }
                Err(PreprocessError::PeerDisconnected { addr }) => {
                    assert_eq!(addr, dead_addr);
                    saw_error = true;
                    if saw_live {
                        break;
                    }
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            saw_error,
            "dead producer must surface as typed PeerDisconnected"
        );
        assert!(saw_live, "surviving producer must keep feeding");
    }
}
