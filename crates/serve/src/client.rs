//! Client library: request/reply exchanges over one kept-alive session,
//! with retry, deterministic exponential backoff, and deadline semantics.
//!
//! A [`Client`] keeps its TCP connection open across requests (the daemon
//! serves any number of requests per session), so a request pays for a
//! connect, an accept and a session thread only when it opens a session.
//! Any I/O error or timeout drops the session: a reply that arrives after
//! its request gave up can never be read as the next request's answer.
//!
//! The retry loop distinguishes four failure classes:
//!
//! * **Stale session**: a *reused* session that fails with anything but a
//!   timeout — the daemon drained or restarted since the last request —
//!   is replaced by a fresh connection once, inside the same attempt. The
//!   reconnect spends no [`RetryPolicy`] attempt; if the fresh connection
//!   fails too, that failure is the attempt's.
//! * **Retryable**: transport errors (connect refused/reset — the daemon
//!   may be restarting) and typed [`ServeError::Overloaded`](crate::ServeError::Overloaded) rejections
//!   (congestion, by design transient). These back off and retry.
//! * **Terminal server answers**: every other [`ServeError`](crate::ServeError) — bad
//!   request, malformed, plan failure, deadline — returned immediately as
//!   [`ClientError::Server`]; retrying cannot help.
//! * **Budget exhausted**: attempts or the client-side deadline ran out;
//!   [`ClientError::Exhausted`] reports both the count and the last
//!   failure.
//!
//! Backoff is *seeded*: jitter comes from a [`DetRng`] owned by the
//! client, so a load test (or a unit test) can predict the exact sleep
//! schedule. [`RetryPolicy`] is the shared [`BackoffPolicy`], whose
//! [`schedule`](BackoffPolicy::schedule) gives the closed form: the pacing
//! itself — schedule, jitter, deadline budgeting — is the same
//! [`dt_simengine::backoff`] machinery the `dt-preprocess` reconnect
//! supervisor runs on.
//!
//! The `fetch_*` scrapes of the daemon's HTTP plane open one connection
//! per `GET`: the daemon answers one HTTP exchange per connection.

use crate::api::{ServeReply, ServeRequest};
use dt_simengine::backoff::{BackoffPolicy, Deadline};
use dt_simengine::frame::{read_json, write_json_ctx};
use dt_simengine::trace::{cat, TraceContext, TraceRoots, WallTraceSink};
use dt_simengine::DetRng;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Chrome-trace process id for the client's own request spans — the root
/// track of an assembled cross-process trace.
pub const CLIENT_PID: u64 = 3_000;

/// Retry/backoff configuration: the shared pacing policy.
pub type RetryPolicy = BackoffPolicy;

/// Typed client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon answered with a terminal (non-retryable) error.
    Server(crate::api::ServeError),
    /// Attempts or the deadline ran out; `last` is the final failure.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// Human-readable rendering of the last failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A planning client. It holds one session (TCP connection) across
/// requests, opening it on the first request and again after any failure
/// dropped it; see the [module docs](self) for the reconnect rules.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    session: Option<Session>,
    /// Overall budget across all attempts of one [`Client::request`].
    deadline: Option<Duration>,
    rng: DetRng,
    /// Trace-root stream, decoupled from the backoff jitter stream so
    /// enabling tracing never shifts the documented sleep schedule.
    trace_roots: TraceRoots,
    trace: WallTraceSink,
}

impl Client {
    /// A client with default retry policy and no deadline.
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_policy(addr, RetryPolicy::default())
    }

    /// A client with an explicit policy.
    pub fn with_policy(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let rng = DetRng::new(policy.seed);
        let trace_roots = TraceRoots::new(policy.seed);
        Client {
            addr,
            policy,
            session: None,
            deadline: None,
            rng,
            trace_roots,
            trace: WallTraceSink::disabled(),
        }
    }

    /// Enable request tracing: every [`Client::request`] draws a fresh
    /// deterministic trace id, sends the context with the request frame,
    /// and records its own client-side span into `sink` (process track
    /// [`CLIENT_PID`]). Untraced clients are wire-identical to pre-trace
    /// builds.
    pub fn with_trace(mut self, sink: WallTraceSink) -> Client {
        self.trace = sink;
        self
    }

    /// The client's span sink (for exporting after a traced run).
    pub fn trace_sink(&self) -> &WallTraceSink {
        &self.trace
    }

    /// Bound the total wall time of each [`Client::request`] call
    /// (connect + exchanges + backoffs). The remaining budget is also
    /// used as the socket read timeout of each attempt.
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        self.deadline = Some(deadline);
        self
    }

    /// Issue one request, retrying per the policy. Returns the daemon's
    /// reply (which may itself be a *terminal* [`ServeReply::Err`] —
    /// those are surfaced as [`ClientError::Server`]).
    ///
    /// With tracing enabled the whole call (attempts + backoffs) is one
    /// client span; the daemon's spans for the winning attempt parent
    /// onto it through the wire context.
    pub fn request(&mut self, req: &ServeRequest) -> Result<ServeReply, ClientError> {
        let traced = self
            .trace
            .is_enabled()
            .then(|| self.trace_roots.next_request());
        let started = Instant::now();
        let result = self.request_inner(req, traced.as_ref().map(|(_, _, c)| *c));
        if let Some((root, span, _)) = traced {
            self.trace.record_traced(
                req.span_names()[0],
                cat::SERVE_REQUEST,
                CLIENT_PID,
                0,
                started,
                Some(&root),
                span,
            );
        }
        result
    }

    fn request_inner(
        &mut self,
        req: &ServeRequest,
        ctx: Option<TraceContext>,
    ) -> Result<ServeReply, ClientError> {
        let deadline = Deadline::start(self.deadline);
        let mut last = String::new();
        let mut attempts = 0;
        for k in 0..self.policy.max_attempts.max(1) {
            attempts = k + 1;
            match self.attempt(req, ctx.as_ref(), deadline) {
                Ok(ServeReply::Err(e)) if e.retryable() => last = e.to_string(),
                Ok(ServeReply::Err(e)) => return Err(ClientError::Server(e)),
                Ok(reply) => return Ok(reply),
                Err(e) => last = format!("io: {e}"),
            }
            // Budget the sleep against the deadline: sleeping past it
            // would burn wall time with no attempt left to spend it on.
            let backoff = self.policy.nth_backoff(k, &mut self.rng);
            if !deadline.allows_sleep(backoff) {
                break;
            }
            if k + 1 < self.policy.max_attempts {
                std::thread::sleep(backoff);
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One attempt: an exchange on the kept-alive session, opening one if
    /// none is open. A reused session that fails with anything but a
    /// timeout is stale, and the exchange is made once more on a fresh
    /// connection.
    fn attempt(
        &mut self,
        req: &ServeRequest,
        ctx: Option<&TraceContext>,
        deadline: Deadline,
    ) -> io::Result<ServeReply> {
        let reused = self.session.is_some();
        match self.exchange(req, ctx, deadline) {
            Err(e) if reused && !is_timeout(&e) => self.exchange(req, ctx, deadline),
            result => result,
        }
    }

    /// One request/reply exchange. Any failure leaves the client without
    /// a session, so a late reply is never read as a later answer.
    fn exchange(
        &mut self,
        req: &ServeRequest,
        ctx: Option<&TraceContext>,
        deadline: Deadline,
    ) -> io::Result<ServeReply> {
        let remaining = deadline
            .remaining_or(Duration::from_secs(3600))
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "client deadline spent"))?;
        let mut session = match self.session.take() {
            Some(session) => session,
            None => Session::connect(self.addr, remaining)?,
        };
        let reply = session.exchange(req, ctx, remaining)?;
        self.session = Some(session);
        Ok(reply)
    }
}

/// A socket timeout: the request's budget ran out, which a reconnect
/// cannot fix.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// A kept-alive connection to the daemon. Replies are read through a
/// buffer; requests go straight to the socket in one write.
#[derive(Debug)]
struct Session {
    reader: BufReader<TcpStream>,
    /// The read and write timeout the socket carries, so an unchanged
    /// budget costs no syscall.
    timeout: Duration,
}

impl Session {
    fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Session> {
        Ok(Session {
            reader: BufReader::new(TcpStream::connect_timeout(&addr, timeout)?),
            timeout: Duration::ZERO,
        })
    }

    fn exchange(
        &mut self,
        req: &ServeRequest,
        ctx: Option<&TraceContext>,
        timeout: Duration,
    ) -> io::Result<ServeReply> {
        if timeout != self.timeout {
            let stream = self.reader.get_ref();
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        write_json_ctx(self.reader.get_mut(), ctx, req)?;
        read_json::<ServeReply>(&mut self.reader)
    }
}

/// One bounded `GET` against the daemon's HTTP plane; returns the body.
fn fetch_path(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    use io::Write;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: dt-serve\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    io::Read::read_to_string(&mut stream, &mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP body"))?;
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("??");
        return Err(io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}

/// Scrape the daemon's live Prometheus exposition: a plain
/// `GET /metrics` against the same port planning traffic uses. Returns
/// the response body.
pub fn fetch_metrics(addr: SocketAddr) -> io::Result<String> {
    fetch_path(addr, "/metrics")
}

/// Fetch the daemon's flight-recorder dumps (`GET /flight`) as JSON text.
pub fn fetch_flight(addr: SocketAddr) -> io::Result<String> {
    fetch_path(addr, "/flight")
}

/// Fetch the daemon's spans (`GET /trace`) as Chrome-trace JSON on the
/// unix-epoch timebase, ready to merge with local spans via
/// [`TraceRecorder::absorb`](dt_simengine::TraceRecorder::absorb).
pub fn fetch_trace(addr: SocketAddr) -> io::Result<String> {
    fetch_path(addr, "/trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 99,
        };
        let a = policy.schedule();
        let b = policy.schedule();
        assert_eq!(a, b, "equal seeds give equal schedules");
        assert_eq!(a.len(), 5);
        for (k, d) in a.iter().enumerate() {
            let uncapped = 0.010 * 2f64.powi(k as i32);
            let cap = uncapped.min(0.200);
            let secs = d.as_secs_f64();
            assert!(
                secs >= cap * 0.5 - 1e-9 && secs < cap,
                "sleep {k} = {secs}s outside jitter window"
            );
        }
        let other = RetryPolicy {
            seed: 100,
            ..policy
        };
        assert_ne!(other.schedule(), a, "different seeds decorrelate");
    }

    #[test]
    fn connect_failures_exhaust_with_io_diagnosis() {
        // A port nothing listens on: every attempt fails at connect.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 7,
        };
        let mut client = Client::with_policy(addr, policy);
        match client.request(&ServeRequest::Ping) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 2);
                assert!(last.starts_with("io: "), "unexpected last failure: {last}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
