//! The producer half of the §6 preprocessing data plane: N TCP endpoints
//! on dedicated "CPU nodes" that generate, reorder, and preprocess global
//! batches on worker pools, streaming them to M GPU-side consumers
//! (§5.1's producer, scaled to the paper's many-producers topology).
//!
//! ## Architecture
//!
//! [`Preprocess::builder`] validates the topology up front (typed
//! [`PreprocessError::InvalidSpec`], no socket touched on rejection) and
//! runs every endpoint on blocking threads, on the same
//! [`Listener`] as the `dt-serve` daemon:
//!
//! * **accept** — one listener per endpoint, blocked in `accept`. It hands
//!   each connection a deterministic sample stream (seed derived from the
//!   endpoint and the accept index); its drain shuts every live socket
//!   down both ways;
//! * **reader** — one thread per session. It reads requests through the
//!   capped [`dt_simengine::frame::read_json_ctx`] (a length word above
//!   [`MAX_CONTROL_FRAME`] is [`PreprocessError::Malformed`] before any
//!   payload byte is read), runs fetch → reorder → decode on a
//!   [`preprocess_parallel`] worker pool, and passes the batch on through a
//!   `sync_channel` of [`PreprocessBuilder::queue_capacity`]. A full
//!   channel is the typed [`PreprocessError::Backpressured`] edge: counted
//!   once (in [`PlaneStats`] and `dt_preprocess_backpressure_total`), then
//!   the reader *waits* — explicit backpressure instead of unbounded
//!   buffering. Requests it has not read yet stay in the kernel's receive
//!   buffer;
//! * **writer** — one thread per session. It sends each batch with the
//!   coalesced zero-copy [`dt_simengine::frame::write_batch_frames_ctx`]: the
//!   JSON header frame and the multi-chunk payload frame go out in one
//!   vectored write, never materializing the concatenated payload. A peer
//!   that stops reading blocks only its own writer.
//!
//! Whichever session thread ends first shuts the socket down both ways,
//! which ends the other one and shows the peer EOF; the listener does the
//! same for a session that panics. Malformed input is counted and frozen
//! into the session's flight ring before that shutdown, and a panic
//! freezes it too.
//!
//! Wire protocol, framing, and the per-session deterministic streams are
//! unchanged from the single-producer service, so old consumers (and the
//! colocated-equivalence guarantee) keep working byte-for-byte.

use crate::codec::preprocess_sample;
use crate::error::PreprocessError;
use crate::wire::{BatchHeader, Request, MAX_FETCH_COUNT};
use dt_data::{DataConfig, SyntheticLaion, TrainSample};
use dt_reorder::ReorderPlanner;
use dt_simengine::frame::{read_json_ctx, write_batch_frames_ctx, MAX_CONTROL_FRAME};
use dt_simengine::schema::WireJson;
use dt_simengine::trace::{cat, TraceContext, WallTraceSink, TRACE_CONTEXT_LEN};
use dt_simengine::{Listener, Stop};
use dt_telemetry::flight::DEFAULT_RING_CAPACITY;
use dt_telemetry::{names, FlightLog, FlightRecorder, Telemetry};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chrome-trace process id for the producer service's wall-clock spans,
/// chosen far above any simulated DP-rank pid so both trace sources can be
/// merged into one file without track collisions.
pub const PREPROCESS_PID: u64 = 1_000;

/// Per-endpoint seed stride (endpoint 0 keeps the configured seed, so a
/// single-endpoint plane is stream-identical to the old single-producer
/// service and to [`crate::feeder::ColocatedFeeder`]).
const ENDPOINT_SEED_STRIDE: u64 = 0xA24B_AF5B_7C1D_9E35;

/// Per-session seed stride within one endpoint (unchanged from the
/// original service: each client gets its own deterministic stream).
const SESSION_SEED_STRIDE: u64 = 0x9E37_79B9;

// ---------------------------------------------------------------------------
// Public API: builder + handle
// ---------------------------------------------------------------------------

/// Namespace for the data-plane builder: [`Preprocess::builder`].
#[derive(Debug)]
pub struct Preprocess;

impl Preprocess {
    /// Start describing a preprocessing data plane for one dataset
    /// distribution and base seed. Every knob has a production-shaped
    /// default; [`PreprocessBuilder::spawn`] validates before binding.
    pub fn builder(data: DataConfig, seed: u64) -> PreprocessBuilder {
        PreprocessBuilder {
            data,
            seed,
            producers: 1,
            workers: 4,
            queue_capacity: 4,
            planner: None,
            fault_delay: None,
            trace: None,
            telemetry: Telemetry::disabled(),
            flight: FlightLog::disabled(),
        }
    }
}

/// Validated configuration of a preprocessing data plane (§6 producer
/// side). Construct via [`Preprocess::builder`], launch via
/// [`PreprocessBuilder::spawn`].
#[derive(Debug, Clone)]
pub struct PreprocessBuilder {
    data: DataConfig,
    seed: u64,
    producers: usize,
    workers: u32,
    queue_capacity: usize,
    planner: Option<ReorderPlanner>,
    fault_delay: Option<Duration>,
    trace: Option<WallTraceSink>,
    telemetry: Telemetry,
    flight: FlightLog,
}

impl PreprocessBuilder {
    /// Number of producer endpoints (listening sockets) — the paper's N
    /// CPU nodes. Each gets its own accept thread and seed lane.
    pub fn producers(mut self, n: usize) -> Self {
        self.producers = n;
        self
    }

    /// Preprocessing worker threads per generated batch.
    pub fn workers(mut self, n: u32) -> Self {
        self.workers = n;
        self
    }

    /// Bound of each session's ready-batch queue: how many preprocessed
    /// batches a session's reader may run ahead of its writer before it
    /// is backpressured ([`PreprocessError::Backpressured`]).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Optional reordering stage (Algorithms 1–2), run on the producer
    /// where it is free (§5.1).
    pub fn planner(mut self, planner: ReorderPlanner) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Test-only fault injection: extra delay before each batch
    /// (simulates an overloaded/slow CPU node).
    pub fn fault_delay(mut self, delay: Duration) -> Self {
        self.fault_delay = Some(delay);
        self
    }

    /// Attach a wall-clock trace sink: every served batch records
    /// `preprocess.fetch` / `preprocess.decode` / `preprocess.feed` spans
    /// (on process [`PREPROCESS_PID`], one thread track per session).
    pub fn trace(mut self, sink: WallTraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Metrics sink: fetch/decode/feed latencies, batch/sample counters,
    /// plus the data-plane counters (backpressure, sessions, malformed).
    /// The registry is shared across all accept and session threads.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Black-box flight recorder: every session keeps a bounded ring of
    /// recent events (requests, batches, backpressure) and freezes it to
    /// this log on `malformed` / `backpressure` / `panic` triggers.
    pub fn flight(mut self, flight: FlightLog) -> Self {
        self.flight = flight;
        self
    }

    /// Validate the spec, bind every endpoint, and start the accept threads.
    ///
    /// Rejections are typed and happen before any socket is bound:
    /// zero `workers`, zero `producers`, or `queue_capacity` 0 are
    /// [`PreprocessError::InvalidSpec`]; a bind failure is
    /// [`PreprocessError::Bind`].
    pub fn spawn(self) -> Result<PreprocessHandle, PreprocessError> {
        if self.workers == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason:
                    "workers must be >= 1 (a producer with no decode workers cannot make progress)"
                        .into(),
            });
        }
        if self.producers == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "producers must be >= 1 (the plane needs at least one endpoint)".into(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "queue_capacity must be >= 1 (a zero-capacity queue deadlocks every session at its first batch)".into(),
            });
        }
        let stats = Arc::new(PlaneStats::default());
        let cfg = Arc::new(self);
        let mut addrs = Vec::with_capacity(cfg.producers);
        // An early return drops the listeners already spawned, which stops
        // and joins them: a partial spawn leaks no endpoint.
        let mut listeners = Vec::with_capacity(cfg.producers);
        for endpoint in 0..cfg.producers {
            let bind_err = |e: io::Error| PreprocessError::Bind {
                addr: "127.0.0.1:0".into(),
                reason: e.to_string(),
            };
            let listener = TcpListener::bind("127.0.0.1:0").map_err(bind_err)?;
            let addr = listener.local_addr().map_err(bind_err)?;
            let (cfg, stats) = (cfg.clone(), stats.clone());
            let listener = Listener::spawn(
                listener,
                Stop::new(addr),
                format!("dt-preprocess-ep{endpoint}"),
                Shutdown::Both,
                move |accepted| open_session(endpoint as u64, accepted, &cfg, &stats),
            )
            .map_err(|e| PreprocessError::Bind {
                addr: addr.to_string(),
                reason: format!("spawn accept thread: {e}"),
            })?;
            addrs.push(addr);
            listeners.push(listener);
        }
        Ok(PreprocessHandle {
            addrs,
            listeners,
            stats,
        })
    }
}

/// Live counters of one data plane, shared by all its threads.
#[derive(Debug, Default)]
pub struct PlaneStats {
    backpressure: AtomicU64,
    /// Sessions accepted so far; each session's trace track is its rank.
    sessions: AtomicU64,
    malformed: AtomicU64,
}

/// Point-in-time copy of [`PlaneStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneStatsSnapshot {
    /// Backpressure events: a ready batch found its session queue full.
    pub backpressure_events: u64,
    /// Consumer sessions accepted across all endpoints.
    pub sessions_accepted: u64,
    /// Sessions closed for protocol violations (hostile/corrupt peers).
    pub malformed_frames: u64,
}

/// A running data plane; dropping it (or calling
/// [`PreprocessHandle::shutdown`]) drains and stops every endpoint.
#[derive(Debug)]
pub struct PreprocessHandle {
    addrs: Vec<SocketAddr>,
    listeners: Vec<Listener>,
    stats: Arc<PlaneStats>,
}

impl PreprocessHandle {
    /// The endpoint addresses consumers connect to, one per producer.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The first endpoint — convenience for single-producer planes.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Current data-plane counters.
    pub fn stats(&self) -> PlaneStatsSnapshot {
        PlaneStatsSnapshot {
            backpressure_events: self.stats.backpressure.load(Ordering::Relaxed),
            sessions_accepted: self.stats.sessions.load(Ordering::Relaxed),
            malformed_frames: self.stats.malformed.load(Ordering::Relaxed),
        }
    }

    /// Stop every endpoint, join every thread. Returns `true` when all
    /// accept and session threads exited cleanly (no thread panicked) —
    /// the property the end-to-end fuzz oracle asserts after feeding the
    /// plane hostile traffic.
    pub fn shutdown(&mut self) -> bool {
        let mut clean = true;
        for listener in &mut self.listeners {
            clean &= listener.shutdown();
        }
        clean
    }
}

// ---------------------------------------------------------------------------
// Sessions: one listener per endpoint, a reader and a writer per session
// ---------------------------------------------------------------------------

/// Preprocess a batch on `workers` threads (the calling thread takes the
/// first chunk); returns per-sample token bytes in input order.
pub fn preprocess_parallel(samples: &[TrainSample], workers: u32) -> Vec<Vec<u8>> {
    let workers = (workers.max(1) as usize).min(samples.len().max(1));
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); samples.len()];
    let chunk = samples.len().div_ceil(workers).max(1);
    let run = |samples: &[TrainSample], out: &mut [Vec<u8>]| {
        for (s, o) in samples.iter().zip(out) {
            *o = preprocess_sample(s).token_bytes;
        }
    };
    std::thread::scope(|scope| {
        let mut parts = samples.chunks(chunk).zip(out.chunks_mut(chunk));
        let first = parts.next();
        for (samples_chunk, out_chunk) in parts {
            scope.spawn(move || run(samples_chunk, out_chunk));
        }
        if let Some((samples_chunk, out_chunk)) = first {
            run(samples_chunk, out_chunk);
        }
    });
    out
}

/// One preprocessed batch, framed for the wire but never concatenated:
/// the writer sends `header_json` and the per-sample `chunks` in one
/// vectored write.
struct ReadyBatch {
    header_json: Vec<u8>,
    chunks: Vec<Vec<u8>>,
    count: u32,
    /// Trace context of the FetchBatch that requested this batch, echoed
    /// back on the response's header frame so the consumer can link its
    /// prefetch span to the producer-side pipeline spans.
    ctx: Option<TraceContext>,
}

/// What one session's reader and writer share.
struct Session {
    cfg: Arc<PreprocessBuilder>,
    stats: Arc<PlaneStats>,
    seed: u64,
    /// Trace track of this session's spans.
    tid: u64,
    /// Bounded ring of this session's recent events, frozen to the
    /// plane's log on malformed/backpressure/panic triggers.
    flight: FlightRecorder,
}

/// The accept hook: count session `accepted` of `endpoint` and give it
/// its seed lane, trace track and flight ring. Returns the session
/// thread's name and body; a body that panics freezes its ring before the
/// unwind reaches the listener.
fn open_session(
    endpoint: u64,
    accepted: u64,
    cfg: &Arc<PreprocessBuilder>,
    stats: &Arc<PlaneStats>,
) -> (String, impl FnOnce(&TcpStream) + Send + 'static) {
    let tid = stats.sessions.fetch_add(1, Ordering::Relaxed);
    cfg.telemetry
        .with(|r| r.counter(names::PREPROCESS_SESSIONS_TOTAL, &[]).inc());
    let seed = cfg
        .seed
        .wrapping_add(endpoint.wrapping_mul(ENDPOINT_SEED_STRIDE))
        .wrapping_add(accepted.wrapping_mul(SESSION_SEED_STRIDE));
    let session = Session {
        cfg: cfg.clone(),
        stats: stats.clone(),
        seed,
        tid,
        flight: cfg
            .flight
            .recorder(&format!("pre:ep{endpoint}:s{tid}"), DEFAULT_RING_CAPACITY),
    };
    let body = move |stream: &TcpStream| {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run_session(stream, &session)));
        if let Err(unwound) = ran {
            let (flight, tel) = (&session.flight, &session.cfg.telemetry);
            flight.record("panic", 0, || "session thread panicked".into());
            flight.dump_counted("panic", tel);
            panic::resume_unwind(unwound);
        }
    };
    (format!("dt-preprocess-gen{tid}"), body)
}

/// The session thread: reads and generates here, writes on a scoped
/// writer thread. A panic on either reaches the listener's join.
fn run_session(stream: &TcpStream, s: &Session) {
    let (tx, rx) = mpsc::sync_channel(s.cfg.queue_capacity);
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name(format!("dt-preprocess-feed{}", s.tid))
            .spawn_scoped(scope, || write_loop(stream, rx, s));
        if writer.is_ok() {
            read_loop(stream, tx, s);
        }
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// Read requests until EOF, `Shutdown`, a malformed frame, or a writer
/// that has gone; generate one batch per FetchBatch.
fn read_loop(stream: &TcpStream, tx: SyncSender<ReadyBatch>, s: &Session) {
    let mut gen = SyntheticLaion::new(s.cfg.data.clone(), s.seed);
    let mut reader = stream;
    loop {
        let (req_ctx, count) = match read_json_ctx(&mut reader, MAX_CONTROL_FRAME) {
            Ok((ctx, Request::FetchBatch { count })) if count <= MAX_FETCH_COUNT => (ctx, count),
            Ok((_, Request::FetchBatch { count })) => {
                return reject_malformed(s, format!("FetchBatch x{count} above {MAX_FETCH_COUNT}"));
            }
            Ok((_, Request::Shutdown)) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return reject_malformed(s, e.to_string());
            }
            // EOF, a reset, or the drain's shutdown.
            Err(_) => return,
        };
        let trace_id = req_ctx.map_or(0, |c| c.trace_id);
        s.flight
            .record("request", trace_id, || format!("FetchBatch x{count}"));
        let batch = generate(&mut gen, count, req_ctx, s);
        // The backpressure edge: a full queue refuses the batch; the
        // reader counts the event once and *waits* for the writer to
        // drain a slot — never unbounded buffering.
        match tx.try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(batch)) => {
                let queue_depth = s.cfg.queue_capacity;
                s.stats.backpressure.fetch_add(1, Ordering::Relaxed);
                s.cfg
                    .telemetry
                    .with(|r| r.counter(names::PREPROCESS_BACKPRESSURE_TOTAL, &[]).inc());
                s.flight.record("backpressure", trace_id, || {
                    format!("batch x{count} refused at queue depth {queue_depth}")
                });
                s.flight.dump_counted("backpressure", &s.cfg.telemetry);
                if tx.send(batch).is_err() {
                    return;
                }
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Count a malformed request and freeze the session's flight ring; the
/// caller then ends the session.
fn reject_malformed(s: &Session, reason: String) {
    let e = PreprocessError::Malformed { reason };
    s.stats.malformed.fetch_add(1, Ordering::Relaxed);
    s.cfg
        .telemetry
        .with(|r| r.counter(names::PREPROCESS_MALFORMED_TOTAL, &[]).inc());
    s.flight.record("malformed", 0, || e.to_string());
    s.flight.dump_counted("malformed", &s.cfg.telemetry);
}

/// Fetch → reorder → decode one batch of `count` samples.
fn generate(
    gen: &mut SyntheticLaion,
    count: u32,
    req_ctx: Option<TraceContext>,
    s: &Session,
) -> ReadyBatch {
    if let Some(delay) = s.cfg.fault_delay {
        std::thread::sleep(delay);
    }
    let trace_id = req_ctx.map_or(0, |c| c.trace_id);
    let started = Instant::now();
    let mut samples = gen.take(count as usize);
    if let Some(planner) = &s.cfg.planner {
        samples = planner.reorder(samples);
    }
    if let Some(sink) = &s.cfg.trace {
        // Producer-side spans parent under the consumer's prefetch span
        // (the request context's parent): fetch/decode/feed are
        // deterministic child seqs 1/2/3 of the same wire context.
        sink.record_traced(
            format!("fetch x{count}"),
            cat::PRE_FETCH,
            PREPROCESS_PID,
            s.tid,
            started,
            req_ctx.as_ref(),
            req_ctx.map_or(0, |c| c.span_id(1)),
        );
    }
    s.cfg.telemetry.with(|r| {
        r.histogram(names::PREPROCESS_FETCH_SECONDS, &[])
            .observe_traced(started.elapsed().as_secs_f64(), trace_id)
    });
    let decode_started = Instant::now();
    let chunks = preprocess_parallel(&samples, s.cfg.workers);
    if let Some(sink) = &s.cfg.trace {
        sink.record_traced(
            format!("decode x{count}"),
            cat::PRE_DECODE,
            PREPROCESS_PID,
            s.tid,
            decode_started,
            req_ctx.as_ref(),
            req_ctx.map_or(0, |c| c.span_id(2)),
        );
    }
    s.cfg.telemetry.with(|r| {
        r.histogram(names::PREPROCESS_DECODE_SECONDS, &[])
            .observe_traced(decode_started.elapsed().as_secs_f64(), trace_id)
    });
    s.flight.record("batch", trace_id, || {
        format!("generated x{count} in {} us", started.elapsed().as_micros())
    });
    let header = BatchHeader {
        token_lens: chunks.iter().map(|t| t.len() as u64).collect(),
        samples,
        producer_cpu_ns: started.elapsed().as_nanos() as u64,
    };
    ReadyBatch {
        header_json: header.to_json().to_string().into_bytes(),
        chunks,
        count,
        ctx: req_ctx,
    }
}

/// Send every batch the reader hands over, in order, until the reader
/// is gone or the socket fails.
fn write_loop(stream: &TcpStream, rx: Receiver<ReadyBatch>, s: &Session) {
    let mut writer = stream;
    for batch in rx {
        let feed_started = Instant::now();
        let chunks: Vec<&[u8]> = batch.chunks.iter().map(Vec::as_slice).collect();
        if write_batch_frames_ctx(&mut writer, batch.ctx.as_ref(), &batch.header_json, &chunks)
            .is_err()
        {
            break;
        }
        let (count, batch_ctx) = (batch.count, batch.ctx);
        let trace_id = batch_ctx.map_or(0, |c| c.trace_id);
        if let Some(sink) = &s.cfg.trace {
            sink.record_traced(
                format!("feed x{count}"),
                cat::PRE_FEED,
                PREPROCESS_PID,
                s.tid,
                feed_started,
                batch_ctx.as_ref(),
                batch_ctx.map_or(0, |c| c.span_id(3)),
            );
        }
        let wire_bytes = 8
            + batch_ctx.map_or(0, |_| TRACE_CONTEXT_LEN)
            + batch.header_json.len()
            + chunks.iter().map(|c| c.len()).sum::<usize>();
        s.flight.record("feed", trace_id, || {
            format!("x{count} ({wire_bytes} wire bytes)")
        });
        s.cfg.telemetry.with(|r| {
            r.histogram(names::PREPROCESS_FEED_SECONDS, &[])
                .observe_traced(feed_started.elapsed().as_secs_f64(), trace_id);
            r.counter(names::PREPROCESS_BATCHES_TOTAL, &[]).inc();
            r.counter(names::PREPROCESS_SAMPLES_TOTAL, &[])
                .add(u64::from(count));
        });
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::ResolutionMode;
    use dt_simengine::frame::{read_frame, read_json, write_json};
    use std::io::{Read, Write};

    fn tiny_data() -> DataConfig {
        DataConfig {
            resolution: ResolutionMode::Fixed(64),
            ..DataConfig::evaluation(64)
        }
    }

    fn spawn_tiny(seed: u64) -> PreprocessHandle {
        Preprocess::builder(tiny_data(), seed)
            .workers(2)
            .spawn()
            .unwrap()
    }

    /// Block until the plane closes this session: the read ends in EOF or
    /// a reset, never in data.
    fn assert_session_closed(stream: &mut TcpStream) {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("a closed session sent data"),
        }
    }

    #[test]
    fn producer_serves_batches_over_tcp() {
        let handle = spawn_tiny(5);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 4 }).unwrap();
        let header: BatchHeader = read_json(&mut stream).unwrap();
        assert_eq!(header.samples.len(), 4);
        let payload = read_frame(&mut stream).unwrap();
        assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
        assert!(header.producer_cpu_ns > 0);
        write_json(&mut stream, &Request::Shutdown).unwrap();
    }

    #[test]
    fn consecutive_fetches_advance_the_stream() {
        let handle = spawn_tiny(5);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let a: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let b: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        assert_ne!(a.samples[0].id, b.samples[0].id);
        assert_eq!(b.samples[0].id, 2);
    }

    #[test]
    fn pipelined_fetches_deliver_in_order() {
        // Credit-based pipelining: send several requests up front; the
        // responses must come back FIFO with a contiguous id stream.
        let handle = spawn_tiny(31);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..5 {
            write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        }
        let mut next_id = 0u64;
        for _ in 0..5 {
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            assert_eq!(header.samples[0].id, next_id, "responses out of order");
            next_id += header.samples.len() as u64;
        }
        write_json(&mut stream, &Request::Shutdown).unwrap();
    }

    #[test]
    fn multi_endpoint_plane_serves_every_endpoint_with_distinct_streams() {
        let mut handle = Preprocess::builder(tiny_data(), 40)
            .producers(3)
            .workers(1)
            .spawn()
            .unwrap();
        assert_eq!(handle.addrs().len(), 3);
        let mut firsts = Vec::new();
        for &addr in handle.addrs() {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            firsts.push(header.samples[0]);
            write_json(&mut stream, &Request::Shutdown).unwrap();
        }
        // Endpoints run decorrelated seed lanes: same id counters, but
        // the sample contents must differ somewhere across endpoints.
        assert!(
            firsts.windows(2).any(|w| w[0] != w[1]),
            "endpoint streams should be decorrelated: {firsts:?}"
        );
        assert!(handle.shutdown(), "plane must shut down cleanly");
    }

    #[test]
    fn builder_rejects_invalid_specs_with_typed_errors() {
        let err = Preprocess::builder(tiny_data(), 1)
            .workers(0)
            .spawn()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("workers"), "{err}");

        let err = Preprocess::builder(tiny_data(), 1)
            .queue_capacity(0)
            .spawn()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("queue_capacity"), "{err}");

        let err = Preprocess::builder(tiny_data(), 1)
            .producers(0)
            .spawn()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("producers"), "{err}");
    }

    #[test]
    fn full_queue_backpressures_the_generator() {
        // Queue capacity 1 and a client that pipelines 10 multi-megabyte
        // requests but reads nothing: kernel socket buffers fill, the
        // writer blocks in its socket write, the bounded channel fills
        // behind it, and the reader must hit the typed backpressure path
        // (visible in stats). The plane must still deliver everything, in
        // order, once the client drains.
        let big_images = DataConfig {
            resolution: ResolutionMode::Fixed(256),
            ..DataConfig::evaluation(64)
        };
        let mut handle = Preprocess::builder(big_images, 77)
            .workers(2)
            .queue_capacity(1)
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let requests = 10u64;
        for _ in 0..requests {
            write_json(&mut stream, &Request::FetchBatch { count: 4 }).unwrap();
        }
        // Let the generator run ahead into the bounded queue.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.stats().backpressure_events == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            handle.stats().backpressure_events > 0,
            "generator never saw backpressure: {:?}",
            handle.stats()
        );
        let mut next_id = 0u64;
        for _ in 0..requests {
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            assert_eq!(header.samples[0].id, next_id);
            next_id += header.samples.len() as u64;
        }
        write_json(&mut stream, &Request::Shutdown).unwrap();
        drop(stream);
        assert!(handle.shutdown());
    }

    #[test]
    fn hostile_garbage_closes_the_session_not_the_plane() {
        let mut handle = spawn_tiny(13);
        // Hostile peer: raw garbage that parses as an oversized frame.
        let mut bad = TcpStream::connect(handle.addr()).unwrap();
        bad.write_all(&[0xFF; 64]).unwrap();
        bad.flush().unwrap();
        // A well-behaved session must still be served.
        let mut good = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut good, &Request::FetchBatch { count: 2 }).unwrap();
        let header: BatchHeader = read_json(&mut good).unwrap();
        assert_eq!(header.samples.len(), 2);
        let _ = read_frame(&mut good).unwrap();
        write_json(&mut good, &Request::Shutdown).unwrap();
        // The plane counts the violation before it closes the socket, so
        // once the hostile read ends the count is in.
        assert_session_closed(&mut bad);
        assert!(
            handle.stats().malformed_frames > 0,
            "hostile frame not counted"
        );
        assert!(handle.shutdown(), "plane must survive hostile input");
    }

    /// Regression: the producer used to materialize any requested count,
    /// so one well-formed `FetchBatch { count: u32::MAX }` asked for ~4.3 G
    /// samples in a single allocation and aborted the process.
    #[test]
    fn oversized_fetch_closes_the_session_not_the_plane() {
        let mut handle = spawn_tiny(17);
        let mut bad = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut bad, &Request::FetchBatch { count: u32::MAX }).unwrap();
        assert_session_closed(&mut bad);
        assert_eq!(
            handle.stats().malformed_frames,
            1,
            "oversized fetch not counted"
        );
        let mut good = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut good, &Request::FetchBatch { count: 2 }).unwrap();
        let header: BatchHeader = read_json(&mut good).unwrap();
        assert_eq!(header.samples.len(), 2);
        let _ = read_frame(&mut good).unwrap();
        write_json(&mut good, &Request::Shutdown).unwrap();
        assert!(handle.shutdown(), "plane must survive an oversized fetch");
    }

    #[test]
    fn parallel_preprocessing_matches_serial() {
        let mut gen = SyntheticLaion::new(tiny_data(), 9);
        let samples = gen.take(6);
        let par = preprocess_parallel(&samples, 4);
        for (s, bytes) in samples.iter().zip(&par) {
            assert_eq!(bytes, &preprocess_sample(s).token_bytes);
        }
    }

    #[test]
    fn empty_batch_preprocesses_to_nothing() {
        // A `FetchBatch { count: 0 }` must not panic the session.
        assert!(preprocess_parallel(&[], 4).is_empty());
    }

    #[test]
    fn producer_records_fetch_decode_feed_spans() {
        let sink = WallTraceSink::new();
        let handle = Preprocess::builder(tiny_data(), 21)
            .workers(2)
            .trace(sink.clone())
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 3 }).unwrap();
        let _: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        write_json(&mut stream, &Request::Shutdown).unwrap();
        drop(handle);
        let spans = sink.unix_recorder().spans().to_vec();
        for category in [cat::PRE_FETCH, cat::PRE_DECODE, cat::PRE_FEED] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.cat == category && s.pid == PREPROCESS_PID),
                "missing {category} span; got {spans:?}"
            );
        }
    }

    #[test]
    fn dropping_the_handle_stops_the_service() {
        let handle = spawn_tiny(1);
        let addr = handle.addr();
        drop(handle);
        // After shutdown the port eventually refuses or resets; a fresh
        // request must not hang forever. Connection may still succeed
        // briefly (listener backlog), so only assert the service no longer
        // answers a full round trip.
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = write_json(&mut s, &Request::FetchBatch { count: 1 });
            let resp: io::Result<BatchHeader> = read_json(&mut s);
            assert!(resp.is_err(), "stopped producer must not serve batches");
        }
    }

    /// A traced FetchBatch gets its context echoed on the response header
    /// frame, and the producer's fetch/decode/feed spans link under it.
    #[test]
    fn traced_fetch_echoes_context_and_links_producer_spans() {
        use dt_simengine::frame::{read_frame_ctx, write_json_ctx, MAX_FRAME};
        use dt_simengine::trace::arg;
        use dt_simengine::DetRng;

        let sink = WallTraceSink::new();
        let handle = Preprocess::builder(tiny_data(), 23)
            .workers(2)
            .trace(sink.clone())
            .spawn()
            .unwrap();
        let mut rng = DetRng::new(7);
        let root = TraceContext::root(&mut rng);
        let (consumer_span, wire_ctx) = root.child(1);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json_ctx(
            &mut stream,
            Some(&wire_ctx),
            &Request::FetchBatch { count: 3 },
        )
        .unwrap();
        let (echo, header_bytes) = read_frame_ctx(&mut stream, MAX_FRAME).unwrap();
        assert_eq!(
            echo,
            Some(wire_ctx),
            "response must echo the request's trace context"
        );
        assert!(!header_bytes.is_empty());
        let _ = read_frame(&mut stream).unwrap();
        write_json_ctx(&mut stream, Some(&wire_ctx), &Request::Shutdown).unwrap();
        drop(handle);
        let spans = sink.unix_recorder().spans().to_vec();
        let trace_hex = format!("{:016x}", root.trace_id);
        let parent_hex = format!("{consumer_span:016x}");
        let get = |span: &dt_simengine::trace::TraceSpan, key: &str| {
            span.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        for category in [cat::PRE_FETCH, cat::PRE_DECODE, cat::PRE_FEED] {
            let span = spans
                .iter()
                .find(|s| s.cat == category)
                .unwrap_or_else(|| panic!("missing {category} span; got {spans:?}"));
            assert_eq!(get(span, arg::TRACE), Some(trace_hex.clone()));
            assert_eq!(
                get(span, arg::PARENT),
                Some(parent_hex.clone()),
                "{category} must parent under the consumer's prefetch span"
            );
        }
    }

    /// A hostile frame freezes the session's flight ring into the plane's
    /// log, with the prior requests still visible in the dump.
    #[test]
    fn malformed_session_dumps_its_flight_ring() {
        let flight = FlightLog::new();
        let handle = Preprocess::builder(tiny_data(), 29)
            .workers(1)
            .flight(flight.clone())
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let _: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        stream.write_all(&[0xFF; 8]).unwrap();
        stream.flush().unwrap();
        // The dump happens before the socket closes.
        assert_session_closed(&mut stream);
        assert_eq!(flight.dumps_total(), 1, "malformed session not dumped");
        drop(handle);
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
        assert_eq!(dumps[0].reason, "malformed");
        assert!(
            dumps[0].session.starts_with("pre:ep0:s"),
            "{}",
            dumps[0].session
        );
        let kinds: Vec<&str> = dumps[0].events.iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&"request"),
            "dump shows the session's history: {kinds:?}"
        );
        assert!(
            kinds.contains(&"malformed"),
            "dump ends with the trigger: {kinds:?}"
        );
    }
}
