//! The planner daemon: admission gate, session body, graceful drain.
//!
//! Thread shape (all synchronous, on the same [`Listener`] as the
//! preprocessing producer):
//!
//! ```text
//! accept thread ──► session thread per connection
//!                      │  admission: validate → gate (FIFO tickets)
//!                      │  slot granted: plan/replan/simulate, on this thread
//!                      ▼
//!                   reply
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **Bounded admission, no hand-off.** At most [`ServeConfig::workers`]
//!   jobs run at once, each on the session thread that read it, and at
//!   most [`ServeConfig::queue_depth`] wait, taking slots in admission
//!   order; one more is rejected with [`ServeError::Overloaded`] *at
//!   admission time* — the daemon never buffers unboundedly and a client
//!   learns about congestion immediately. A slot is a guard released on
//!   drop, so a job that unwinds never shrinks capacity.
//! * **Deadlines are checked twice.** At admission (a request whose
//!   deadline already lapsed never waits) and when the slot is granted: a
//!   job that spent its whole deadline waiting is answered with
//!   [`ServeError::DeadlineExceeded`] without running the actual search.
//! * **Sessions are kept alive.** A session serves requests until its
//!   client closes, so a [`Client`](crate::client::Client) pays for one
//!   connect, accept and session thread, not one per request. Each session
//!   reads its socket through one buffer: a request frame, its trace
//!   context included, usually arrives in a single `read`, and the buffer
//!   is what tells EOF and an HTTP `GET ` apart from a frame.
//! * **Every admitted job is answered.** A session reads its next request
//!   only after writing the last reply, which is what makes the drain
//!   argument work: shutdown sets the listener's [`Stop`], and its drain
//!   shuts down the read half of every live session — an idle session,
//!   including a kept-alive one waiting between requests, sees EOF at
//!   once, a busy or waiting one still runs its job and replies — and
//!   joins them. Nothing polls: sessions block in reads or at the gate,
//!   the accept thread in `accept`.
//! * **Hostile frames never panic.** A frame that is not a parseable
//!   request, or whose length word claims more than
//!   [`MAX_CONTROL_FRAME`] (checked before any body byte is read), gets a
//!   typed [`ServeError::Malformed`] reply and the connection is closed
//!   (framing may be desynchronized after garbage).

use crate::api::{
    ModuleSummary, PlanSummary, ServeError, ServeReply, ServeRequest, SimSummary, SpecDesc,
};
use crate::http;
use crate::store::{task_for, PlanStore};
use disttrain_core::{SystemKind, TrainingTask};
use dt_orchestrator::{Orchestrator, PlanError, PlanReport, DEFAULT_TOP_K};
use dt_parallel::plan::ModulePlan;
use dt_simengine::frame::{read_json_ctx, write_json, MAX_CONTROL_FRAME};
use dt_simengine::trace::{cat, TraceContext, WallTraceSink};
use dt_simengine::{Listener, Stop};
use dt_telemetry::flight::DEFAULT_RING_CAPACITY;
use dt_telemetry::{names, FlightLog, Gauge, Telemetry};
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Chrome-trace process id for the daemon's admission/execution plane.
/// Distinct from the preprocessing plane ids (1000/1001) so merged
/// cross-plane traces keep separate tracks.
pub const SERVE_PID: u64 = 2_000;

/// Chrome-trace process id for the warm plan store — its own logical
/// plane, so a request's store hit shows up as a third track in the
/// assembled trace tree.
pub const STORE_PID: u64 = 2_500;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Requests executing at once, each on its own session thread.
    pub workers: usize,
    /// Requests that may wait for a slot; one more is rejected with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Largest cluster a request may ask about (admission cap).
    pub max_nodes: u32,
    /// Largest per-request search budget (`top_k`) honoured; bigger asks
    /// are clamped, not rejected.
    pub max_budget: u32,
    /// Most simulated iterations a single request may ask for.
    pub max_iterations: u32,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    /// `None` means such requests never expire in queue.
    pub default_deadline: Option<Duration>,
    /// Metrics sink (shared with the HTTP `/metrics` endpoint).
    pub telemetry: Telemetry,
    /// Wall-clock span sink for request-scoped tracing (shared with the
    /// HTTP `/trace` endpoint). Disabled by default: library embedders
    /// pay nothing; `repro serve` flips it on.
    pub trace: WallTraceSink,
    /// Flight-recorder dump log (shared with the HTTP `/flight`
    /// endpoint). Disabled by default, like tracing.
    pub flight: FlightLog,
    /// Test hook: extra busy-work per job, inside its slot, so overload
    /// tests can fill the line deterministically. `None` in production.
    pub worker_delay: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            max_nodes: 256,
            max_budget: DEFAULT_TOP_K as u32,
            max_iterations: 8,
            default_deadline: None,
            telemetry: Telemetry::enabled(),
            trace: WallTraceSink::disabled(),
            flight: FlightLog::disabled(),
            worker_delay: None,
        }
    }
}

/// The admission gate's state: `running` jobs hold a slot, tickets
/// `granted..issued` wait, and slots go out in ticket (admission) order.
#[derive(Default)]
struct Gate {
    running: usize,
    issued: u64,
    granted: u64,
}

/// A running job's slot, released on drop — also when the job unwinds.
struct Slot<'s>(&'s Shared);

/// Shared daemon state.
struct Shared {
    store: PlanStore,
    telemetry: Telemetry,
    trace: WallTraceSink,
    flight: FlightLog,
    started: Instant,
    gate: Mutex<Gate>,
    turn: Condvar,
    /// `dt_serve_running_jobs` and `dt_serve_queue_depth`, resolved once.
    gauges: Option<[Arc<Gauge>; 2]>,
    /// The listener's stop: read for `ShuttingDown`, set by `Shutdown`.
    stop: Stop,
    cfg: ServeConfig,
}

impl Shared {
    fn new(cfg: ServeConfig, stop: Stop) -> Shared {
        Shared {
            store: PlanStore::new(),
            telemetry: cfg.telemetry.clone(),
            trace: cfg.trace.clone(),
            flight: cfg.flight.clone(),
            started: Instant::now(),
            gate: Mutex::default(),
            turn: Condvar::new(),
            gauges: cfg.telemetry.with(|r| {
                [names::SERVE_RUNNING_JOBS, names::SERVE_QUEUE_DEPTH].map(|n| r.gauge(n, &[]))
            }),
            stop,
            cfg,
        }
    }

    /// Take a ticket and block until it is granted one of `workers` slots.
    /// `None`, at once, when `queue_depth` jobs are already waiting.
    fn enter(&self) -> Option<Slot<'_>> {
        let slots = self.cfg.workers.max(1);
        let mut g = self.gate.lock().expect("gate lock");
        if (g.issued - g.granted) as usize >= self.cfg.queue_depth.max(1) {
            return None;
        }
        let ticket = g.issued;
        g.issued += 1;
        while ticket != g.granted || g.running == slots {
            self.publish(&g);
            g = self.turn.wait(g).expect("gate lock");
        }
        g.granted += 1;
        g.running += 1;
        // Two slots may have freed before the head woke: pass the turn on.
        if g.granted < g.issued && g.running < slots {
            self.turn.notify_all();
        }
        self.publish(&g);
        Some(Slot(self))
    }

    /// Set the gate gauges; called under the gate lock.
    fn publish(&self, g: &Gate) {
        if let Some([running, waiting]) = &self.gauges {
            running.set(g.running as f64);
            waiting.set((g.issued - g.granted) as f64);
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // Drop must not panic; every gate update leaves it valid.
        let mut g = self.0.gate.lock().unwrap_or_else(PoisonError::into_inner);
        g.running -= 1;
        // Only a waiting job needs waking: one that never queued behind
        // another makes no wake-up call.
        if g.granted < g.issued {
            self.0.turn.notify_all();
        }
        self.0.publish(&g);
    }
}

/// A running daemon. Dropping it (or calling [`ServeHandle::shutdown`])
/// drains in-flight requests and joins every thread.
pub struct ServeHandle {
    /// The bound address (resolved ephemeral port).
    pub addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    listener: Listener,
}

impl ServeHandle {
    /// Bind and start serving.
    pub fn spawn(cfg: ServeConfig) -> io::Result<ServeHandle> {
        let listener =
            TcpListener::bind(cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let addr = listener.local_addr()?;
        let stop = Stop::new(addr);
        let shared = Arc::new(Shared::new(cfg, stop.clone()));
        let sessions = shared.clone();
        // Drain the read half only: in-flight replies still go out.
        let listener = Listener::spawn(
            listener,
            stop,
            "dt-serve-accept".into(),
            Shutdown::Read,
            move |index| {
                sessions
                    .telemetry
                    .with(|r| r.counter(names::SERVE_SESSIONS_TOTAL, &[]).inc());
                let shared = sessions.clone();
                let body = move |stream: &TcpStream| {
                    let _ = serve_session(stream, &shared, index);
                };
                ("dt-serve-session".to_string(), body)
            },
        )?;
        Ok(ServeHandle {
            addr,
            shared,
            listener,
        })
    }

    /// Cross-request warm-store statistics `(hits, misses)`.
    pub fn store_stats(&self) -> (u64, u64) {
        (self.shared.store.hits(), self.shared.store.misses())
    }

    /// Whether a drain has started (via [`ServeHandle::shutdown`] or a
    /// wire [`ServeRequest::Shutdown`]).
    ///
    /// [`ServeRequest::Shutdown`]: crate::api::ServeRequest::Shutdown
    pub fn stopped(&self) -> bool {
        self.shared.stop.is_set()
    }

    /// Block until a drain starts (e.g. a wire shutdown request), then
    /// finish it: the `repro serve` foreground loop. The accept thread
    /// only exits once a drain has begun and finished, so joining it is
    /// the wait.
    pub fn wait(&mut self) {
        self.listener.join();
    }

    /// Stop accepting, drain in-flight requests, join every thread (the
    /// accept thread joins the sessions). Idempotent.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// One client connection: requests until the peer closes, shutdown, a
/// drain, or a malformed frame. Requests are read through one buffer, so
/// a frame — length word, trace context and payload — usually costs one
/// `read`; replies go straight to the socket, spans to trace `tid` `index`.
fn serve_session(stream: &TcpStream, shared: &Shared, index: u64) -> io::Result<()> {
    let session = stream
        .peer_addr()
        .map(|a| format!("serve:{a}"))
        .unwrap_or_else(|_| "serve:?".to_string());
    let flight = shared.flight.recorder(&session, DEFAULT_RING_CAPACITY);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        // Block for the next request. An empty buffer is EOF: the client
        // closing, or the drain shutting down the read half.
        let head = reader.fill_buf()?;
        if head.is_empty() {
            return Ok(());
        }
        // The same port speaks Prometheus: an HTTP GET can never be a
        // legitimate frame start here (it would claim a ~542 MB control
        // message), so dispatch on the first four bytes.
        if head.starts_with(b"GET ") {
            return http::serve_http(
                &mut reader,
                &mut writer,
                http::HttpState {
                    telemetry: shared.telemetry.clone(),
                    trace: shared.trace.clone(),
                    flight: shared.flight.clone(),
                    started: shared.started,
                },
            );
        }
        let (ctx, req): (Option<TraceContext>, ServeRequest) =
            match read_json_ctx(&mut reader, MAX_CONTROL_FRAME) {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Typed reply, then close: after garbage the stream offset
                    // is untrustworthy. The flight ring freezes at this
                    // moment — the dump is the black box for this session.
                    record_rejection(&shared.telemetry, "malformed");
                    flight.record("malformed", 0, || e.to_string());
                    flight.dump_counted("malformed", &shared.telemetry);
                    let reply = ServeReply::Err(ServeError::Malformed {
                        reason: e.to_string(),
                    });
                    let _ = write_json(&mut writer, &reply);
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
        let trace_id = ctx.map(|c| c.trace_id).unwrap_or(0);
        flight.record("request", trace_id, || req.kind().to_string());
        if shared.stop.is_set() && !matches!(req, ServeRequest::Shutdown) {
            write_json(&mut writer, &ServeReply::Err(ServeError::ShuttingDown))?;
            return Ok(());
        }
        let reply = match admit(&req, shared) {
            // `_slot` is held until the reply is built.
            Admitted::Run(admitted, _slot) => {
                let reply = run(&req, admitted, ctx, shared, index);
                flight.record("reply", trace_id, || outcome(&reply).to_string());
                reply
            }
            Admitted::Inline(reply) => {
                if matches!(reply, ServeReply::Err(ServeError::Overloaded { .. })) {
                    flight.record("overloaded", trace_id, || req.kind().to_string());
                    flight.dump_counted("overloaded", &shared.telemetry);
                }
                reply
            }
        };
        write_json(&mut writer, &reply)?;
    }
}

enum Admitted<'s> {
    /// Answered without a slot (ping, shutdown, rejection).
    Inline(ServeReply),
    /// Admitted at this instant and now holding a slot: run it here.
    Run(Instant, Slot<'s>),
}

/// Admission control: validate, stamp, and wait at the gate for a slot.
fn admit<'s>(req: &ServeRequest, shared: &'s Shared) -> Admitted<'s> {
    if matches!(req, ServeRequest::Ping) {
        shared.telemetry.with(|r| {
            r.counter(
                names::SERVE_REQUESTS_TOTAL,
                &[("kind", "ping"), ("outcome", "ok")],
            )
            .inc()
        });
        return Admitted::Inline(ServeReply::Pong);
    }
    if matches!(req, ServeRequest::Shutdown) {
        shared.telemetry.with(|r| {
            r.counter(
                names::SERVE_REQUESTS_TOTAL,
                &[("kind", "shutdown"), ("outcome", "ok")],
            )
            .inc()
        });
        shared.stop.set();
        return Admitted::Inline(ServeReply::Bye);
    }
    if let Err(reason) = validate(req, &shared.cfg) {
        record_rejection(&shared.telemetry, "bad_request");
        return Admitted::Inline(ServeReply::Err(ServeError::BadRequest { reason }));
    }
    let admitted = Instant::now();
    match shared.enter() {
        Some(slot) => Admitted::Run(admitted, slot),
        None => {
            record_rejection(&shared.telemetry, "overloaded");
            Admitted::Inline(ServeReply::Err(ServeError::Overloaded {
                queue_depth: shared.cfg.queue_depth as u32,
            }))
        }
    }
}

/// Request validation against the server's admission caps.
fn validate(req: &ServeRequest, cfg: &ServeConfig) -> Result<(), String> {
    let spec = match req {
        ServeRequest::Ping | ServeRequest::Shutdown => return Ok(()),
        ServeRequest::Plan { spec, .. }
        | ServeRequest::Replan { spec, .. }
        | ServeRequest::Simulate { spec, .. } => spec,
    };
    check_spec(spec, cfg)?;
    if let ServeRequest::Replan { remaining_gpus, .. } = req {
        let budget_gpus = spec.nodes * 8;
        if *remaining_gpus == 0 || *remaining_gpus > budget_gpus {
            return Err(format!(
                "remaining_gpus {remaining_gpus} outside 1..={budget_gpus}"
            ));
        }
    }
    if let ServeRequest::Simulate { iterations, .. } = req {
        if *iterations == 0 || *iterations > cfg.max_iterations {
            return Err(format!(
                "iterations {iterations} outside 1..={}",
                cfg.max_iterations
            ));
        }
    }
    Ok(())
}

fn check_spec(spec: &SpecDesc, cfg: &ServeConfig) -> Result<(), String> {
    if crate::store::parse_preset(&spec.preset).is_none() {
        return Err(format!("unknown preset {:?}", spec.preset));
    }
    if spec.nodes < 2 || spec.nodes > cfg.max_nodes {
        return Err(format!(
            "nodes {} outside 2..={}",
            spec.nodes, cfg.max_nodes
        ));
    }
    if spec.global_batch == 0 || spec.global_batch > 1 << 16 {
        return Err(format!(
            "global_batch {} outside 1..=65536",
            spec.global_batch
        ));
    }
    if spec.microbatch == 0 || spec.microbatch > spec.global_batch {
        return Err(format!(
            "microbatch {} outside 1..={}",
            spec.microbatch, spec.global_batch
        ));
    }
    Ok(())
}

fn record_rejection(tel: &Telemetry, reason: &str) {
    tel.with(|r| {
        r.counter(names::SERVE_REJECTED_TOTAL, &[("reason", reason)])
            .inc()
    });
}

fn outcome(reply: &ServeReply) -> &'static str {
    if matches!(reply, ServeReply::Err(_)) {
        "error"
    } else {
        "ok"
    }
}

/// Run a job admitted at `admitted` and now holding its slot: expire,
/// execute, record. Its spans land on trace track `tid`.
fn run(
    req: &ServeRequest,
    admitted: Instant,
    ctx: Option<TraceContext>,
    shared: &Shared,
    tid: u64,
) -> ServeReply {
    let kind = req.kind();
    let [_, queue_span, exec_span] = req.span_names();
    // The queue span covers admission → slot: exactly the wait the
    // deadline check below charges against the request.
    if let Some(ctx) = &ctx {
        shared.trace.record_traced(
            queue_span,
            cat::SERVE_QUEUE,
            SERVE_PID,
            tid,
            admitted,
            Some(ctx),
            ctx.span_id(1),
        );
    }
    let deadline = match req.deadline_ms() {
        0 => shared.cfg.default_deadline,
        ms => Some(Duration::from_millis(ms)),
    };
    let waited = admitted.elapsed();
    if deadline.is_some_and(|deadline| waited > deadline) {
        record_rejection(&shared.telemetry, "deadline");
        return ServeReply::Err(ServeError::DeadlineExceeded {
            waited_ms: waited.as_millis() as u64,
        });
    }
    if let Some(delay) = shared.cfg.worker_delay {
        std::thread::sleep(delay);
    }
    // The exec span parents everything the request does inside the
    // daemon; the store span (possibly on another "process" track)
    // hangs off it via `exec_ctx`.
    let exec = ctx.map(|c| c.child(2));
    let exec_started = Instant::now();
    let reply = execute(req, exec.map(|(_, c)| c), shared);
    if let (Some(ctx), Some((exec_id, _))) = (&ctx, exec) {
        shared.trace.record_traced(
            exec_span,
            cat::SERVE_EXEC,
            SERVE_PID,
            tid,
            exec_started,
            Some(ctx),
            exec_id,
        );
    }
    let trace_id = ctx.map(|c| c.trace_id).unwrap_or(0);
    shared.telemetry.with(|r| {
        r.counter(
            names::SERVE_REQUESTS_TOTAL,
            &[("kind", kind), ("outcome", outcome(&reply))],
        )
        .inc();
        r.histogram(names::SERVE_REQUEST_SECONDS, &[("kind", kind)])
            .observe_traced(admitted.elapsed().as_secs_f64(), trace_id);
    });
    reply
}

/// Execute one admitted request against the shared warm store. `ctx`, if
/// present, is the job's exec-span context: store spans become its
/// children.
fn execute(req: &ServeRequest, ctx: Option<TraceContext>, shared: &Shared) -> ServeReply {
    match req {
        // Ping/shutdown are answered inline at admission; these arms only
        // exist for exhaustiveness.
        ServeRequest::Ping => ServeReply::Pong,
        ServeRequest::Shutdown => ServeReply::Bye,
        ServeRequest::Plan { spec, budget, .. } => match plan(spec, None, *budget, ctx, shared) {
            Ok(summary) => ServeReply::Plan(summary),
            Err(e) => ServeReply::Err(e),
        },
        ServeRequest::Replan {
            spec,
            remaining_gpus,
            budget,
            ..
        } => match plan(spec, Some(*remaining_gpus), *budget, ctx, shared) {
            Ok(summary) => ServeReply::Plan(summary),
            Err(e) => ServeReply::Err(e),
        },
        ServeRequest::Simulate {
            spec, iterations, ..
        } => match simulate(spec, *iterations, ctx, shared) {
            Ok(summary) => ServeReply::Sim(summary),
            Err(e) => ServeReply::Err(e),
        },
    }
}

fn module_summary(p: &ModulePlan) -> ModuleSummary {
    ModuleSummary {
        tp: p.tp,
        dp: p.dp,
        pp: p.pp,
        gpus: p.gpus(),
    }
}

fn summarize(report: &PlanReport, warm: bool) -> PlanSummary {
    PlanSummary {
        encoder: module_summary(&report.plan.encoder),
        backbone: module_summary(&report.plan.backbone),
        generator: module_summary(&report.plan.generator),
        total_gpus: report.plan.total_gpus(),
        predicted_iter_secs: report.objective.total(),
        proven_optimal: report.proven_optimal,
        candidates_evaluated: report.candidates_evaluated as u64,
        cache_hits: report.cache_hits,
        warm,
        solve_ms: report.solve_wall_time.as_secs_f64() * 1e3,
    }
}

/// Record warm-store counters into the registry.
fn record_store(shared: &Shared, warm: bool) {
    shared.telemetry.with(|r| {
        if warm {
            r.counter(names::SERVE_STORE_HITS_TOTAL, &[]).inc();
        } else {
            r.counter(names::SERVE_STORE_MISSES_TOTAL, &[]).inc();
        }
    });
}

/// The full §4 search for a spec, warm-started from the shared store.
/// `shrink_to` runs the degraded replan instead.
fn plan(
    spec: &SpecDesc,
    shrink_to: Option<u32>,
    budget: u32,
    ctx: Option<TraceContext>,
    shared: &Shared,
) -> Result<PlanSummary, ServeError> {
    let task = task_for(spec).ok_or_else(|| ServeError::BadRequest {
        reason: "unknown preset".into(),
    })?;
    let (report, warm) = search(spec, &task, shrink_to, budget, ctx, shared)?;
    Ok(summarize(&report, warm))
}

fn search(
    spec: &SpecDesc,
    task: &TrainingTask,
    shrink_to: Option<u32>,
    budget: u32,
    ctx: Option<TraceContext>,
    shared: &Shared,
) -> Result<(PlanReport, bool), ServeError> {
    let top_k = budget.clamp(1, shared.cfg.max_budget) as usize;
    let store_started = Instant::now();
    let (entry, warm) = shared.store.get_or_build(&spec.fingerprint(), task);
    if let Some(ctx) = &ctx {
        // The warm store is its own track in the assembled trace: a hit
        // shows as a sliver, a cold build as the profiling+table cost.
        shared.trace.record_traced(
            if warm { "store hit" } else { "store build" },
            cat::SERVE_STORE,
            STORE_PID,
            0,
            store_started,
            Some(ctx),
            ctx.span_id(1),
        );
    }
    record_store(shared, warm);
    let mut state = entry.lock().expect("entry lock");
    let problem = task.problem_spec();
    let plan_err = |e: PlanError| ServeError::Plan {
        reason: e.to_string(),
    };
    let report = Orchestrator::builder()
        .spec(problem)
        .total_gpus(shrink_to.unwrap_or(problem.total_gpus))
        .top_k(top_k)
        .telemetry(shared.telemetry.clone())
        .build()
        .map_err(plan_err)?
        .plan_candidates_warm(&task.model, &state)
        .map_err(plan_err)?
        .into_iter()
        .next()
        .expect("plan_candidates returns non-empty on Ok");
    // Future replans for this fingerprint seed their incumbent from what
    // we actually served.
    state.observe(&report.plan);
    Ok((report, warm))
}

/// Plan, then run `iterations` of simulated training under the plan.
fn simulate(
    spec: &SpecDesc,
    iterations: u32,
    ctx: Option<TraceContext>,
    shared: &Shared,
) -> Result<SimSummary, ServeError> {
    let task = task_for(spec).ok_or_else(|| ServeError::BadRequest {
        reason: "unknown preset".into(),
    })?;
    let (report, warm) = search(spec, &task, None, 1, ctx, shared)?;
    let cfg = task.runtime_config(SystemKind::DistTrain, iterations);
    let training = task.run_with_plan(report.plan, cfg);
    Ok(SimSummary {
        plan: summarize(&report, warm),
        iterations,
        mean_iter_secs: training.mean_iter_secs(),
        mfu: training.mfu(),
        samples_per_sec: training.samples_per_sec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    fn cfg() -> ServeConfig {
        ServeConfig {
            telemetry: Telemetry::disabled(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn validation_rejects_out_of_budget_specs() {
        let cfg = cfg();
        let good = SpecDesc::ablation("mllm-9b", 128);
        let plan = |spec: SpecDesc| ServeRequest::Plan {
            spec,
            budget: 1,
            deadline_ms: 0,
        };
        assert!(validate(&plan(good.clone()), &cfg).is_ok());
        let mut bad = good.clone();
        bad.preset = "gpt-1t".into();
        assert!(validate(&plan(bad), &cfg).is_err());
        let mut bad = good.clone();
        bad.nodes = 1;
        assert!(validate(&plan(bad), &cfg).is_err());
        let mut bad = good.clone();
        bad.nodes = cfg.max_nodes + 1;
        assert!(validate(&plan(bad), &cfg).is_err());
        let mut bad = good.clone();
        bad.global_batch = 0;
        assert!(validate(&plan(bad), &cfg).is_err());
        let mut bad = good.clone();
        bad.microbatch = bad.global_batch + 1;
        assert!(validate(&plan(bad), &cfg).is_err());
        let over_iter = ServeRequest::Simulate {
            spec: good.clone(),
            iterations: cfg.max_iterations + 1,
            deadline_ms: 0,
        };
        assert!(validate(&over_iter, &cfg).is_err());
        let over_replan = ServeRequest::Replan {
            spec: good.clone(),
            remaining_gpus: good.nodes * 8 + 1,
            budget: 1,
            deadline_ms: 0,
        };
        assert!(validate(&over_replan, &cfg).is_err());
    }

    /// A daemon's shared state, with no socket behind it.
    fn shared(workers: usize, queue_depth: usize) -> Shared {
        let cfg = ServeConfig {
            workers,
            queue_depth,
            ..cfg()
        };
        Shared::new(cfg, Stop::new(([127, 0, 0, 1], 0).into()))
    }

    /// Block until the gate has exactly `n` jobs waiting (bounded).
    fn await_waiting(shared: &Shared, n: u64) {
        let until = Instant::now() + Duration::from_secs(10);
        while {
            let g = shared.gate.lock().unwrap();
            g.issued - g.granted
        } != n
        {
            assert!(Instant::now() < until, "the gate never had {n} waiting");
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_grants_slots_in_admission_order() {
        let shared = &shared(1, 8);
        let order = &Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let held = shared.enter().expect("free slot");
            for i in 0..6 {
                s.spawn(move || {
                    let _slot = shared.enter().expect("room to wait");
                    order.lock().unwrap().push(i);
                });
                await_waiting(shared, i + 1);
            }
            drop(held);
        });
        let order = order.lock().unwrap().clone();
        assert_eq!(order, (0..6).collect::<Vec<u64>>());
    }

    #[test]
    fn gate_refuses_the_waiter_past_its_depth() {
        let shared = &shared(1, 2);
        std::thread::scope(|s| {
            let held = shared.enter().expect("free slot");
            for n in 1..=2 {
                s.spawn(|| drop(shared.enter().expect("room to wait")));
                await_waiting(shared, n);
            }
            // Off-thread, so a gate that queues it instead fails the
            // timeout below rather than hanging the test.
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || tx.send(shared.enter().is_none()));
            let refused = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                refused,
                Ok(true),
                "the third waiter must be refused at once"
            );
            drop(held);
        });
        assert!(
            shared.enter().is_some(),
            "the line drained; the gate admits again"
        );
    }

    #[test]
    fn a_job_whose_deadline_lapses_while_waiting_never_runs() {
        let shared = &shared(1, 4);
        let req = &ServeRequest::Plan {
            spec: SpecDesc::ablation("mllm-9b", 128),
            budget: 1,
            deadline_ms: 1,
        };
        let reply = std::thread::scope(|s| {
            let held = shared.enter().expect("free slot");
            let waiter = s.spawn(move || match admit(req, shared) {
                Admitted::Run(admitted, _slot) => run(req, admitted, None, shared, 0),
                Admitted::Inline(reply) => reply,
            });
            await_waiting(shared, 1);
            // Let the 1 ms deadline lapse while the job waits in line.
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            waiter.join().expect("waiter")
        });
        assert!(
            matches!(
                reply,
                ServeReply::Err(ServeError::DeadlineExceeded { waited_ms }) if waited_ms >= 1
            ),
            "expected DeadlineExceeded, got {reply:?}"
        );
        let (hits, misses) = (shared.store.hits(), shared.store.misses());
        assert_eq!(hits + misses, 0, "an expired job never reaches the store");
    }

    #[test]
    fn a_job_that_panics_in_its_slot_leaves_full_capacity() {
        let shared = shared(2, 1);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            let _slot = shared.enter().expect("free slot");
            panic!("the job fails while holding its slot");
        }));
        assert!(unwound.is_err());
        let running = || shared.gate.lock().unwrap().running;
        assert_eq!(running(), 0, "the unwound job's slot came back");
        let both = [shared.enter(), shared.enter()];
        assert!(both.iter().all(Option::is_some), "both slots are free");
        assert_eq!(running(), 2);
    }

    #[test]
    fn oversized_budget_is_clamped_not_rejected() {
        let cfg = cfg();
        let spec = SpecDesc::ablation("mllm-9b", 128);
        let req = ServeRequest::Plan {
            spec,
            budget: 10_000,
            deadline_ms: 0,
        };
        assert!(
            validate(&req, &cfg).is_ok(),
            "budget is clamped at execution, not rejected"
        );
    }
}
