//! A deliberately tiny HTTP/1.0 responder for the live observability
//! endpoints.
//!
//! The daemon speaks two protocols on one port: length-prefixed frames
//! for planning traffic, and plain HTTP for observability scrapes. The
//! session loop dispatches on the first four bytes — `b"GET "` can never
//! begin a legitimate frame here (it would claim a ~542 MB control
//! message, which admission-scale requests never are), so a Prometheus
//! scraper, `curl`, or a browser just works against the same address
//! clients plan against.
//!
//! Three endpoints, one story:
//!
//! * `GET /metrics` — Prometheus exposition (plus `dt_build_info` and
//!   `dt_uptime_seconds`, stamped fresh per scrape).
//! * `GET /trace` — the daemon's wall-clock spans as Chrome-trace JSON
//!   on a unix-epoch timebase, so a client can merge them with its own
//!   spans into one cross-process trace tree.
//! * `GET /flight` — the black-box flight recorder: every dump frozen so
//!   far, as JSON.
//!
//! Only `GET` is answered, the request head is read with a hard 8 KiB
//! bound, and every connection is closed after one response — this is an
//! exposition endpoint, not a web server.

use dt_simengine::WallTraceSink;
use dt_telemetry::{names, record_build_info, FlightLog, Telemetry};
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Most header bytes read before giving up on a request head.
const MAX_HEAD: usize = 8 * 1024;

/// Everything the HTTP plane exposes, cloned out of the daemon's shared
/// state per connection (all handles are cheap `Arc` views).
pub struct HttpState {
    /// Metrics registry behind `/metrics`.
    pub telemetry: Telemetry,
    /// Span sink behind `/trace`.
    pub trace: WallTraceSink,
    /// Flight-recorder log behind `/flight`.
    pub flight: FlightLog,
    /// Daemon start, for the `dt_uptime_seconds` gauge.
    pub started: Instant,
}

/// Serve exactly one HTTP exchange — the request head read from `reader`
/// (the session's buffered read half), the response written to `stream` —
/// then close.
pub fn serve_http(
    reader: &mut impl BufRead,
    stream: &mut impl Write,
    state: HttpState,
) -> io::Result<()> {
    let head = match read_head(reader) {
        Ok(head) => head,
        Err(_) => {
            // Unterminated or oversized head: answer 400 rather than hang.
            return respond(stream, 400, "text/plain", "bad request\n");
        }
    };
    let path = head.lines().next().and_then(|line| {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("GET"), Some(path)) => Some(path.to_string()),
            _ => None,
        }
    });
    match path.as_deref() {
        Some("/metrics") => {
            state
                .telemetry
                .with(|r| r.counter(names::SERVE_SCRAPES_TOTAL, &[]).inc());
            record_build_info(&state.telemetry, state.started.elapsed().as_secs_f64());
            let body = state.telemetry.snapshot().to_prometheus_text();
            respond(stream, 200, "text/plain; version=0.0.4", &body)
        }
        Some("/trace") => {
            let body = state.trace.unix_recorder().to_chrome_json();
            respond(stream, 200, "application/json", &body)
        }
        Some("/flight") => {
            let body = state.flight.to_json().to_string();
            respond(stream, 200, "application/json", &body)
        }
        Some("/healthz") => respond(stream, 200, "text/plain", "ok\n"),
        Some(_) => respond(stream, 404, "text/plain", "not found\n"),
        None => respond(stream, 400, "text/plain", "bad request\n"),
    }
}

/// Read until the blank line ending the request head, bounded.
fn read_head(reader: &mut impl BufRead) -> io::Result<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while head.len() < MAX_HEAD {
        reader.read_exact(&mut byte)?;
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            return String::from_utf8(head)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "request head too large",
    ))
}

fn respond(stream: &mut impl Write, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
