//! Structured tracing of simulated (and real) cluster activity.
//!
//! Every headline result in the paper (§7) is a time measurement; this
//! module is how the reproduction shows *where* an iteration's time went
//! instead of only reporting end-of-run aggregates. A [`TraceRecorder`]
//! collects [`TraceSpan`]s — labelled `(rank, track, category)` intervals
//! on the simulated clock — and exports them as Chrome-trace / Perfetto
//! JSON ([`TraceRecorder::to_chrome_json`]) that loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Span categories are the [`cat`] constants: pipeline compute
//! (`compute.fwd` / `compute.bwd`), point-to-point hops (`comm`), pipeline
//! idle (`bubble`), gradient synchronization (`gradsync`), preprocessing
//! stalls (`stall`), checkpoint writes (`checkpoint`), and the
//! preprocessing service's wall-clock phases (`preprocess.*`). Emission
//! sites thread a `&mut TraceRecorder` through the hot path:
//!
//! * `dt-pipeline` derives per-stage compute/comm/bubble spans from an
//!   executed 1F1B timeline;
//! * `disttrain-core`'s runtime adds per-rank grad-sync and stall spans;
//! * `dt-elastic`'s recovery driver adds checkpoint, failure, recovery
//!   and re-plan spans;
//! * `dt-preprocess` records fetch/decode/feed spans from its real
//!   threads through a [`WallTraceSink`].
//!
//! A disabled recorder ([`TraceRecorder::disabled`]) is free: it holds no
//! buffer, [`TraceRecorder::record_with`] never invokes its closure, and
//! nothing allocates (asserted by a counting-allocator test).
//!
//! ```
//! use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
//! use dt_simengine::{SimDuration, SimTime};
//!
//! let mut rec = TraceRecorder::enabled();
//! rec.record(TraceSpan::new("F0", cat::COMPUTE_FWD, 0, 0,
//!     SimTime::ZERO, SimDuration::from_millis(5)));
//! assert_eq!(rec.spans().len(), 1);
//! let json = rec.to_chrome_json();
//! assert!(json.contains("traceEvents"));
//! ```

use crate::json::Json;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span categories. Chrome-trace `cat` fields; also the keys the breakdown
/// tables aggregate by.
pub mod cat {
    /// Forward-pass compute on a pipeline stage.
    pub const COMPUTE_FWD: &str = "compute.fwd";
    /// Backward-pass compute on a pipeline stage.
    pub const COMPUTE_BWD: &str = "compute.bwd";
    /// Point-to-point activation/gradient hop between stages.
    pub const COMM: &str = "comm";
    /// Pipeline idle time (warm-up, drain, or straggler bubbles).
    pub const BUBBLE: &str = "bubble";
    /// Data-parallel gradient synchronization.
    pub const GRAD_SYNC: &str = "gradsync";
    /// Preprocessing stall charged to the training step.
    pub const STALL: &str = "stall";
    /// Checkpoint write.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Whole-iteration marker span.
    pub const ITERATION: &str = "iteration";
    /// Preprocessing service: batch generation / network fetch.
    pub const PRE_FETCH: &str = "preprocess.fetch";
    /// Preprocessing service: decode / tokenize work.
    pub const PRE_DECODE: &str = "preprocess.decode";
    /// Preprocessing service: hand-off to the trainer (queue/feed).
    pub const PRE_FEED: &str = "preprocess.feed";
    /// Node failure: the lost in-flight work up to the crash instant.
    pub const FAILURE: &str = "elastic.failure";
    /// Recovery: failure detection, rescheduling, checkpoint reload.
    pub const RECOVERY: &str = "elastic.recovery";
    /// Elastic re-orchestration: re-solving the §4 plan for a shrunk
    /// cluster and re-sharding state onto it.
    pub const REORCH: &str = "elastic.reorch";
    /// Planner service: one client request, end to end (client side).
    pub const SERVE_REQUEST: &str = "serve.request";
    /// Planner service: time a request spent in the admission queue.
    pub const SERVE_QUEUE: &str = "serve.queue";
    /// Planner service: worker execution of one request.
    pub const SERVE_EXEC: &str = "serve.exec";
    /// Planner service: warm-plan store lookup/build.
    pub const SERVE_STORE: &str = "serve.store";
}

/// Span-arg keys used for cross-process trace linkage. These are the only
/// args [`TraceRecorder::from_chrome_json`] preserves on re-import, so a
/// trace tree assembled from several processes keeps its edges.
pub mod arg {
    /// Hex trace id shared by every span of one logical request.
    pub const TRACE: &str = "trace";
    /// Hex id of this span.
    pub const SPAN: &str = "span";
    /// Hex id of this span's causal parent (possibly in another process).
    pub const PARENT: &str = "parent";
}

/// Render an id the way trace args carry it (16 hex digits, stable across
/// processes and platforms).
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Request-scoped trace context: which trace a piece of work belongs to
/// and which span caused it. Sixteen bytes on the wire
/// ([`TraceContext::encode`]), derived deterministically from a
/// [`DetRng`] so a seeded run always produces the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree (never 0).
    pub trace_id: u64,
    /// The span on whose behalf this work runs (0 for a root).
    pub parent_span: u64,
}

/// Encoded wire size of a [`TraceContext`].
pub const TRACE_CONTEXT_LEN: usize = 16;

impl TraceContext {
    /// A fresh root context with a deterministic trace id drawn from `rng`
    /// (re-drawn in the astronomically unlikely zero case so 0 can mean
    /// "no trace" everywhere).
    pub fn root(rng: &mut DetRng) -> TraceContext {
        let mut trace_id = rng.next_u64();
        while trace_id == 0 {
            trace_id = rng.next_u64();
        }
        TraceContext {
            trace_id,
            parent_span: 0,
        }
    }

    /// Deterministic id for the `seq`-th span opened under this context:
    /// a SplitMix64 finalizer over (trace, parent, seq), so every process
    /// derives the same ids for the same causal position without
    /// coordination.
    pub fn span_id(&self, seq: u64) -> u64 {
        let mut z = self
            .trace_id
            .wrapping_add(self.parent_span.rotate_left(17))
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let id = z ^ (z >> 31);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Open the `seq`-th child span: returns its id plus the context to
    /// hand to work done on its behalf (same trace, this span as parent).
    pub fn child(&self, seq: u64) -> (u64, TraceContext) {
        let id = self.span_id(seq);
        (
            id,
            TraceContext {
                trace_id: self.trace_id,
                parent_span: id,
            },
        )
    }

    /// Fixed-size little-endian wire encoding (trace id, then parent).
    pub fn encode(&self) -> [u8; TRACE_CONTEXT_LEN] {
        let mut out = [0u8; TRACE_CONTEXT_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Decode [`encode`](Self::encode)'s output. `None` on any length or
    /// content mismatch (a zero trace id is not a valid context) — hostile
    /// bytes must never panic.
    pub fn decode(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != TRACE_CONTEXT_LEN {
            return None;
        }
        let trace_id = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let parent_span = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            parent_span,
        })
    }
}

/// One labelled interval on the trace clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Display name (e.g. `F3`, `grad-sync`, `decode`).
    pub name: String,
    /// Category, one of the [`cat`] constants.
    pub cat: &'static str,
    /// Process id in the Chrome trace — the DP rank (or a service id).
    pub pid: u64,
    /// Thread id in the Chrome trace — the pipeline stage or service
    /// thread within the rank.
    pub tid: u64,
    /// Start instant.
    pub start: SimTime,
    /// Span length.
    pub dur: SimDuration,
    /// Extra key/value annotations (exported under Chrome-trace `args`).
    pub args: Vec<(&'static str, String)>,
}

impl TraceSpan {
    /// Construct a span with no extra args.
    pub fn new(
        name: impl Into<String>,
        cat: &'static str,
        pid: u64,
        tid: u64,
        start: SimTime,
        dur: SimDuration,
    ) -> Self {
        TraceSpan {
            name: name.into(),
            cat,
            pid,
            tid,
            start,
            dur,
            args: Vec::new(),
        }
    }

    /// Attach an annotation (builder style).
    pub fn with_arg(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// Attach the trace-linkage args ([`arg::TRACE`], [`arg::SPAN`],
    /// [`arg::PARENT`]) for a span with id `span_id` opened under `ctx`.
    pub fn with_context(self, ctx: &TraceContext, span_id: u64) -> Self {
        self.with_arg(arg::TRACE, hex_id(ctx.trace_id))
            .with_arg(arg::SPAN, hex_id(span_id))
            .with_arg(arg::PARENT, hex_id(ctx.parent_span))
    }

    /// The hex trace id riding in this span's args, if any.
    pub fn trace_arg(&self) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| *k == arg::TRACE)
            .map(|(_, v)| v.as_str())
    }

    /// End instant.
    pub fn end(&self) -> SimTime {
        self.start + self.dur
    }
}

/// Collects spans, or does nothing at zero cost when disabled.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    spans: Option<Vec<TraceSpan>>,
    origin: SimTime,
}

impl TraceRecorder {
    /// A recorder that drops everything. This is the default, and it is
    /// free: no buffer exists and [`record_with`](Self::record_with) never
    /// runs its closure.
    pub fn disabled() -> Self {
        TraceRecorder {
            spans: None,
            origin: SimTime::ZERO,
        }
    }

    /// A recorder that keeps spans for export.
    pub fn enabled() -> Self {
        TraceRecorder {
            spans: Some(Vec::new()),
            origin: SimTime::ZERO,
        }
    }

    /// `true` when spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Shift subsequently recorded spans by `origin` on the trace clock.
    /// Multi-iteration drivers advance this so iterations appear
    /// back-to-back in one trace.
    pub fn set_origin(&mut self, origin: SimTime) {
        self.origin = origin;
    }

    /// The current trace-clock offset.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Record one span (shifted by the current origin). No-op when
    /// disabled — but prefer [`record_with`](Self::record_with) in hot
    /// paths so span construction is skipped too.
    pub fn record(&mut self, span: TraceSpan) {
        let origin = self.origin;
        if let Some(spans) = &mut self.spans {
            let mut span = span;
            span.start += origin.since(SimTime::ZERO);
            spans.push(span);
        }
    }

    /// Record the span produced by `f`, invoking `f` only when enabled.
    /// This is the zero-cost path: a disabled recorder performs one branch
    /// and no allocation.
    pub fn record_with(&mut self, f: impl FnOnce() -> TraceSpan) {
        if self.spans.is_some() {
            let span = f();
            self.record(span);
        }
    }

    /// All recorded spans (empty when disabled).
    pub fn spans(&self) -> &[TraceSpan] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans().is_empty()
    }

    /// Merge another recorder's spans into this one (used to fold the
    /// preprocessing service's wall-clock spans into a simulation trace).
    pub fn absorb(&mut self, other: TraceRecorder) {
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans) {
            mine.extend(theirs);
        }
    }

    /// Total span time on one `(pid, tid)` track, optionally filtered by
    /// category.
    pub fn track_total(&self, pid: u64, tid: u64, category: Option<&str>) -> SimDuration {
        self.spans()
            .iter()
            .filter(|s| s.pid == pid && s.tid == tid)
            .filter(|s| category.is_none_or(|c| s.cat == c))
            .map(|s| s.dur)
            .sum()
    }

    /// Total span time of one category across the whole trace.
    pub fn category_total(&self, category: &str) -> SimDuration {
        self.spans()
            .iter()
            .filter(|s| s.cat == category)
            .map(|s| s.dur)
            .sum()
    }

    /// Sorted list of `(pid, tid)` tracks present in the trace.
    pub fn tracks(&self) -> Vec<(u64, u64)> {
        let mut tracks: Vec<(u64, u64)> = self.spans().iter().map(|s| (s.pid, s.tid)).collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks
    }

    /// Validate that every `(pid, tid)` track is well-formed: spans sorted
    /// by start are either disjoint or properly nested (no partial
    /// overlap), which is what Chrome's flame view requires.
    pub fn validate_nesting(&self) -> Result<(), String> {
        for (pid, tid) in self.tracks() {
            let mut track: Vec<&TraceSpan> = self
                .spans()
                .iter()
                .filter(|s| s.pid == pid && s.tid == tid)
                .collect();
            track.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end())));
            let mut open: Vec<&TraceSpan> = Vec::new();
            for span in track {
                while let Some(top) = open.last() {
                    if top.end() <= span.start {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = open.last() {
                    if span.end() > top.end() {
                        return Err(format!(
                            "track ({pid},{tid}): span '{}' [{}, {}) partially overlaps '{}' [{}, {})",
                            span.name,
                            span.start.as_nanos(),
                            span.end().as_nanos(),
                            top.name,
                            top.start.as_nanos(),
                            top.end().as_nanos(),
                        ));
                    }
                }
                open.push(span);
            }
        }
        Ok(())
    }

    /// Export as Chrome-trace JSON (the `chrome://tracing` / Perfetto
    /// "JSON Array with metadata" flavour). Timestamps are microseconds as
    /// the format requires; exact nanosecond values ride along in
    /// `args.start_ns` / `args.dur_ns` so tooling can recover them.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Json> = Vec::with_capacity(self.len() + 8);
        // Name the tracks so Perfetto shows "rank N" / "stage S".
        for (pid, tid) in self.tracks() {
            events.push(Json::obj(vec![
                ("name", Json::Str("process_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::num_u64(pid)),
                ("tid", Json::num_u64(tid)),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(format!("rank {pid}")))]),
                ),
            ]));
        }
        for span in self.spans() {
            let mut args = vec![
                ("start_ns", Json::num_u64(span.start.as_nanos())),
                ("dur_ns", Json::num_u64(span.dur.as_nanos())),
            ];
            for (k, v) in &span.args {
                args.push((*k, Json::Str(v.clone())));
            }
            events.push(Json::obj(vec![
                ("name", Json::Str(span.name.clone())),
                ("cat", Json::Str(span.cat.to_string())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::num_u64(span.pid)),
                ("tid", Json::num_u64(span.tid)),
                ("ts", Json::Num(span.start.as_nanos() as f64 / 1e3)),
                ("dur", Json::Num(span.dur.as_nanos() as f64 / 1e3)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
        .to_string()
    }

    /// Write the Chrome-trace JSON to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Re-import spans from Chrome-trace JSON previously produced by
    /// [`to_chrome_json`](Self::to_chrome_json) (used by round-trip tests
    /// and external tooling). Metadata events are skipped; exact times are
    /// taken from `args.start_ns` / `args.dur_ns`.
    pub fn from_chrome_json(text: &str) -> Result<TraceRecorder, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("missing traceEvents array")?;
        let mut rec = TraceRecorder::enabled();
        for ev in events {
            if ev.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let field_u64 = |k: &str| ev.get(k).and_then(Json::as_u64);
            let args = ev.get("args").ok_or("span missing args")?;
            // Trace-linkage args survive the round trip; everything else
            // (including the exact-time duplicates) is re-derived.
            let mut kept: Vec<(&'static str, String)> = Vec::new();
            for key in [arg::TRACE, arg::SPAN, arg::PARENT] {
                if let Some(v) = args.get(key).and_then(Json::as_str) {
                    kept.push((key, v.to_string()));
                }
            }
            // Exact nanoseconds when they fit a JSON number (< 2^53);
            // otherwise fall back to the standard microsecond fields —
            // unix-epoch timebases (the `/trace` endpoint) land here, and
            // sub-microsecond exactness is meaningless across host
            // clocks anyway.
            let time_ns = |exact: &str, std: &str| -> Option<u64> {
                args.get(exact).and_then(Json::as_u64).or_else(|| {
                    ev.get(std)
                        .and_then(Json::as_f64)
                        .map(|us| (us * 1e3).round() as u64)
                })
            };
            let span = TraceSpan {
                name: ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                cat: cat_from_str(ev.get("cat").and_then(Json::as_str).unwrap_or("")),
                pid: field_u64("pid").ok_or("span missing pid")?,
                tid: field_u64("tid").ok_or("span missing tid")?,
                start: SimTime::from_nanos(time_ns("start_ns", "ts").ok_or("missing start_ns")?),
                dur: SimDuration::from_nanos(time_ns("dur_ns", "dur").ok_or("missing dur_ns")?),
                args: kept,
            };
            rec.record(span);
        }
        Ok(rec)
    }
}

/// Map a category string back to the canonical `&'static str` constant
/// (unknown categories land on a generic label).
fn cat_from_str(s: &str) -> &'static str {
    match s {
        "compute.fwd" => cat::COMPUTE_FWD,
        "compute.bwd" => cat::COMPUTE_BWD,
        "comm" => cat::COMM,
        "bubble" => cat::BUBBLE,
        "gradsync" => cat::GRAD_SYNC,
        "stall" => cat::STALL,
        "checkpoint" => cat::CHECKPOINT,
        "iteration" => cat::ITERATION,
        "preprocess.fetch" => cat::PRE_FETCH,
        "preprocess.decode" => cat::PRE_DECODE,
        "preprocess.feed" => cat::PRE_FEED,
        "serve.request" => cat::SERVE_REQUEST,
        "serve.queue" => cat::SERVE_QUEUE,
        "serve.exec" => cat::SERVE_EXEC,
        "serve.store" => cat::SERVE_STORE,
        _ => "other",
    }
}

/// A thread-safe wall-clock sink for components that run on real threads
/// (the preprocessing producer/consumer service and the planner daemon).
/// Wall time since the sink's creation maps to the trace clock
/// nanosecond-for-nanosecond; a unix-epoch anchor captured at creation
/// lets traces from several processes merge onto one clock
/// ([`unix_recorder`](Self::unix_recorder)). A disabled sink
/// ([`WallTraceSink::disabled`]) never allocates: [`record`](Self::record)
/// returns before the span name is even converted.
///
/// Recording is cheap enough for a per-request hot path: a span is kept
/// as a fixed-size record whose trace, span and parent ids stay `u64`
/// until export renders them as hex args, so a span with a `&'static str`
/// name allocates nothing once the buffer has grown. The buffer is a ring
/// bounded at [`WALL_SINK_DEFAULT_CAP`] spans (see
/// [`with_capacity`](Self::with_capacity)): at the bound each new span
/// evicts the oldest in O(1).
#[derive(Debug, Clone)]
pub struct WallTraceSink {
    rec: Option<Arc<Mutex<VecDeque<WallSpan>>>>,
    epoch: Instant,
    /// Nanoseconds between the unix epoch and `epoch`, for clock merging.
    unix_anchor_ns: u64,
    /// Oldest-first eviction bound on the span buffer.
    max_spans: usize,
}

/// One span as a [`WallTraceSink`] keeps it, before export.
#[derive(Debug)]
struct WallSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    pid: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    /// The context the span was opened under, and its own id.
    link: Option<(TraceContext, u64)>,
}

impl WallSpan {
    /// The exported span, its start shifted by `shift_ns`.
    fn to_span(&self, shift_ns: u64) -> TraceSpan {
        let span = TraceSpan::new(
            self.name.clone(),
            self.cat,
            self.pid,
            self.tid,
            SimTime::from_nanos(self.start_ns + shift_ns),
            SimDuration::from_nanos(self.dur_ns),
        );
        match &self.link {
            Some((ctx, span_id)) => span.with_context(ctx, *span_id),
            None => span,
        }
    }
}

/// Default span-buffer bound for long-lived sinks.
pub const WALL_SINK_DEFAULT_CAP: usize = 65_536;

impl Default for WallTraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl WallTraceSink {
    /// Create an enabled sink; its epoch (trace t=0) is "now".
    pub fn new() -> Self {
        let unix_anchor_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        WallTraceSink {
            rec: Some(Arc::new(Mutex::new(VecDeque::new()))),
            epoch: Instant::now(),
            unix_anchor_ns,
            max_spans: WALL_SINK_DEFAULT_CAP,
        }
    }

    /// A sink that drops everything at zero cost (the default for library
    /// embedders; services flip it on with a flag).
    pub fn disabled() -> Self {
        WallTraceSink {
            rec: None,
            epoch: Instant::now(),
            unix_anchor_ns: 0,
            max_spans: WALL_SINK_DEFAULT_CAP,
        }
    }

    /// Bound the span buffer (oldest spans evicted first). Builder-style.
    pub fn with_capacity(mut self, max_spans: usize) -> Self {
        self.max_spans = max_spans.max(1);
        self
    }

    /// `true` when spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Record a span covering `[started, Instant::now())`.
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        category: &'static str,
        pid: u64,
        tid: u64,
        started: Instant,
    ) {
        self.record_traced(name, category, pid, tid, started, None, 0);
    }

    /// Record a span covering `[started, Instant::now())`, annotated with
    /// trace-linkage args when `ctx` is present (`span_id` is this span's
    /// own id, normally `ctx.span_id(seq)` for some deterministic `seq`).
    /// A disabled sink performs one branch and no allocation.
    #[allow(clippy::too_many_arguments)] // a span is genuinely 7-dimensional + linkage
    pub fn record_traced(
        &self,
        name: impl Into<Cow<'static, str>>,
        category: &'static str,
        pid: u64,
        tid: u64,
        started: Instant,
        ctx: Option<&TraceContext>,
        span_id: u64,
    ) {
        let Some(rec) = &self.rec else { return };
        let span = WallSpan {
            name: name.into(),
            cat: category,
            pid,
            tid,
            start_ns: started.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
            link: ctx.map(|ctx| (*ctx, span_id)),
        };
        if let Ok(mut spans) = rec.lock() {
            while spans.len() >= self.max_spans {
                spans.pop_front();
            }
            spans.push_back(span);
        }
    }

    /// The spans recorded so far, oldest first, starts shifted by
    /// `shift_ns` (empty when disabled).
    fn export(&self, shift_ns: u64) -> Vec<TraceSpan> {
        let Some(rec) = &self.rec else {
            return Vec::new();
        };
        rec.lock()
            .map(|spans| spans.iter().map(|s| s.to_span(shift_ns)).collect())
            .unwrap_or_default()
    }

    /// Snapshot the spans recorded so far, oldest first (empty when
    /// disabled).
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.export(0)
    }

    /// Snapshot as a recorder whose span starts are nanoseconds since the
    /// unix epoch instead of since this sink's creation. Two processes
    /// each exporting through `unix_recorder` land on one merged clock, so
    /// [`TraceRecorder::absorb`] assembles a cross-process trace whose
    /// spans line up causally (modulo host clock skew).
    pub fn unix_recorder(&self) -> TraceRecorder {
        recorder_of(self.export(self.unix_anchor_ns))
    }
}

/// An enabled recorder holding `spans`.
fn recorder_of(spans: Vec<TraceSpan>) -> TraceRecorder {
    TraceRecorder {
        spans: Some(spans),
        origin: SimTime::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u64, tid: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan::new(
            format!("s{start}"),
            cat::COMPUTE_FWD,
            pid,
            tid,
            SimTime::from_nanos(start),
            SimDuration::from_nanos(dur),
        )
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = TraceRecorder::disabled();
        rec.record(span(0, 0, 0, 10));
        rec.record_with(|| unreachable!("closure must not run when disabled"));
        assert!(!rec.is_enabled());
        assert!(rec.is_empty());
        assert_eq!(rec.to_chrome_json().matches("\"ph\":\"X\"").count(), 0);
    }

    #[test]
    fn origin_shifts_spans() {
        let mut rec = TraceRecorder::enabled();
        rec.record(span(0, 0, 5, 10));
        rec.set_origin(SimTime::from_nanos(100));
        rec.record(span(0, 0, 5, 10));
        assert_eq!(rec.spans()[0].start.as_nanos(), 5);
        assert_eq!(rec.spans()[1].start.as_nanos(), 105);
    }

    #[test]
    fn track_totals_sum_by_category() {
        let mut rec = TraceRecorder::enabled();
        rec.record(span(0, 0, 0, 10));
        rec.record(span(0, 0, 10, 30));
        rec.record(span(0, 1, 0, 7));
        assert_eq!(rec.track_total(0, 0, None).as_nanos(), 40);
        assert_eq!(rec.track_total(0, 0, Some(cat::COMPUTE_FWD)).as_nanos(), 40);
        assert_eq!(rec.track_total(0, 0, Some(cat::BUBBLE)).as_nanos(), 0);
        assert_eq!(rec.category_total(cat::COMPUTE_FWD).as_nanos(), 47);
        assert_eq!(rec.tracks(), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn nesting_accepts_sequential_and_nested_spans() {
        let mut rec = TraceRecorder::enabled();
        rec.record(span(0, 0, 0, 100)); // outer
        rec.record(span(0, 0, 10, 20)); // nested
        rec.record(span(0, 0, 40, 30)); // nested, sequential to previous
        rec.record(span(0, 0, 100, 50)); // disjoint
        rec.validate_nesting().expect("valid nesting");
    }

    #[test]
    fn nesting_rejects_partial_overlap() {
        let mut rec = TraceRecorder::enabled();
        rec.record(span(0, 0, 0, 100));
        rec.record(span(0, 0, 50, 100)); // straddles the first span's end
        assert!(rec.validate_nesting().is_err());
    }

    #[test]
    fn chrome_json_round_trips() {
        let mut rec = TraceRecorder::enabled();
        rec.record(span(2, 3, 123, 456).with_arg("microbatch", "7"));
        rec.record(TraceSpan::new(
            "grad-sync",
            cat::GRAD_SYNC,
            2,
            9,
            SimTime::from_nanos(1000),
            SimDuration::from_nanos(250),
        ));
        let json = rec.to_chrome_json();
        let back = TraceRecorder::from_chrome_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.spans()[0].start.as_nanos(), 123);
        assert_eq!(back.spans()[0].dur.as_nanos(), 456);
        assert_eq!(back.spans()[1].cat, cat::GRAD_SYNC);
        assert_eq!(back.track_total(2, 3, None), rec.track_total(2, 3, None));
    }

    #[test]
    fn wall_sink_records_real_spans() {
        let sink = WallTraceSink::new();
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.record("fetch", cat::PRE_FETCH, 9, 0, started);
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 1);
        assert!(
            spans[0].dur.as_nanos() >= 1_000_000,
            "sleep must be visible"
        );
    }

    #[test]
    fn absorb_merges_recorders() {
        let mut a = TraceRecorder::enabled();
        a.record(span(0, 0, 0, 1));
        let mut b = TraceRecorder::enabled();
        b.record(span(1, 0, 0, 2));
        a.absorb(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn context_ids_are_deterministic_and_nonzero() {
        let mut rng = DetRng::new(7);
        let a = TraceContext::root(&mut rng);
        let b = TraceContext::root(&mut DetRng::new(7));
        assert_eq!(a, b, "same seed, same root context");
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.parent_span, 0);
        assert_eq!(a.span_id(3), a.span_id(3));
        assert_ne!(a.span_id(3), a.span_id(4));
        assert_ne!(a.span_id(0), 0);
        let (id, child) = a.child(1);
        assert_eq!(child.trace_id, a.trace_id);
        assert_eq!(child.parent_span, id);
        assert_ne!(
            child.span_id(1),
            a.span_id(1),
            "parent feeds the derivation"
        );
    }

    #[test]
    fn context_wire_round_trips_and_rejects_garbage() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0BAD_F00D,
            parent_span: 42,
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), TRACE_CONTEXT_LEN);
        assert_eq!(TraceContext::decode(&bytes), Some(ctx));
        assert_eq!(TraceContext::decode(&bytes[..15]), None, "short");
        assert_eq!(TraceContext::decode(&[0u8; 16]), None, "zero trace id");
        assert_eq!(TraceContext::decode(&[0u8; 32]), None, "long");
        assert_eq!(TraceContext::decode(&[]), None, "empty");
    }

    #[test]
    fn chrome_json_keeps_trace_linkage_args() {
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span: 0x11,
        };
        let mut rec = TraceRecorder::enabled();
        rec.record(
            span(1, 1, 0, 5)
                .with_context(&ctx, ctx.span_id(0))
                .with_arg("microbatch", "9"),
        );
        let back = TraceRecorder::from_chrome_json(&rec.to_chrome_json()).unwrap();
        let s = &back.spans()[0];
        assert_eq!(s.trace_arg(), Some(hex_id(0xABCD).as_str()));
        assert!(s.args.iter().any(|(k, _)| *k == arg::SPAN));
        assert!(s.args.iter().any(|(k, _)| *k == arg::PARENT));
        assert!(
            !s.args.iter().any(|(k, _)| *k == "microbatch"),
            "only linkage args survive"
        );
    }

    #[test]
    fn full_wall_sink_keeps_the_newest_spans_in_order() {
        let sink = WallTraceSink::new().with_capacity(8);
        let started = Instant::now();
        for i in 0..24u64 {
            sink.record(format!("s{i}"), cat::SERVE_EXEC, 1, i, started);
        }
        let kept: Vec<(String, u64)> = sink
            .snapshot()
            .into_iter()
            .map(|s| (s.name, s.tid))
            .collect();
        let want: Vec<(String, u64)> = (16..24).map(|i| (format!("s{i}"), i)).collect();
        assert_eq!(kept, want, "the last 8 spans, oldest first");
    }

    #[test]
    fn wall_sink_exports_linkage_as_hex_args() {
        let sink = WallTraceSink::new();
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span: 0x11,
        };
        sink.record_traced(
            "exec plan",
            cat::SERVE_EXEC,
            2,
            0,
            Instant::now(),
            Some(&ctx),
            0x1234,
        );
        let json = sink.unix_recorder().to_chrome_json();
        let doc = Json::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        let args = span.get("args").unwrap();
        let arg = |k: &str| args.get(k).and_then(Json::as_str).map(str::to_string);
        let want = [
            (arg::TRACE, "000000000000abcd"),
            (arg::SPAN, "0000000000001234"),
            (arg::PARENT, "0000000000000011"),
        ];
        for (key, hex) in want {
            assert_eq!(arg(key).as_deref(), Some(hex), "{key} arg");
        }
        let back = TraceRecorder::from_chrome_json(&json).unwrap();
        let got: Vec<(&str, &str)> = back.spans()[0]
            .args
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .collect();
        assert_eq!(got, want, "import keeps the linkage args");
        assert_eq!(back.spans()[0].name, "exec plan");
    }

    #[test]
    fn disabled_wall_sink_drops_everything() {
        let sink = WallTraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record("x", cat::SERVE_EXEC, 0, 0, Instant::now());
        assert!(sink.snapshot().is_empty());
        assert!(sink.unix_recorder().is_empty());
    }

    #[test]
    fn bounded_wall_sink_evicts_and_unix_recorder_shifts() {
        let sink = WallTraceSink::new().with_capacity(3);
        let ctx = TraceContext {
            trace_id: 5,
            parent_span: 0,
        };
        for i in 0..5u64 {
            sink.record_traced("s", cat::SERVE_EXEC, 1, 1, Instant::now(), Some(&ctx), i);
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 3, "cap enforced");
        assert_eq!(spans[0].trace_arg(), Some(hex_id(5).as_str()));
        let unix = sink.unix_recorder();
        assert_eq!(unix.len(), 3);
        // The unix anchor pushes starts far past the relative clock.
        assert!(unix.spans()[0].start.as_nanos() > 1_000_000_000_000_000_000);
    }
}
