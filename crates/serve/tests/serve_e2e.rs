//! End-to-end daemon tests over real sockets: every invariant the crate
//! docs promise, exercised the way a deployment would hit it — concurrent
//! clients, hostile peers, saturation, deadlines, and drains. Each test
//! spawns its own daemon on an ephemeral port so they run in parallel
//! without interference.

use dt_check::gen::corrupt_wire_stream;
use dt_orchestrator::Orchestrator;
use dt_parallel::ModulePlan;
use dt_serve::api::{ModuleSummary, ServeError, ServeReply, ServeRequest, SpecDesc};
use dt_serve::client::{Client, ClientError, RetryPolicy};
use dt_serve::daemon::{ServeConfig, ServeHandle};
use dt_serve::store::task_for;
use dt_simengine::frame::{read_json, write_frame, write_json};
use dt_simengine::DetRng;
use dt_telemetry::{names, Telemetry};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn quiet(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        telemetry: Telemetry::disabled(),
        ..cfg
    }
}

fn plan_req(budget: u32) -> ServeRequest {
    ServeRequest::Plan {
        spec: SpecDesc::ablation("mllm-9b", 128),
        budget,
        deadline_ms: 0,
    }
}

/// Block until the daemon behind `tel` reads `running` jobs holding a
/// slot and `waiting` jobs in line, from its gate gauges; panics after
/// 10 s.
fn await_gate(tel: &Telemetry, running: f64, waiting: f64) {
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = tel.snapshot();
        let gauge = |name| snap.gauge_value(name, &[]).unwrap_or(0.0);
        if gauge(names::SERVE_RUNNING_JOBS) == running && gauge(names::SERVE_QUEUE_DEPTH) == waiting
        {
            return;
        }
        assert!(
            Instant::now() < until,
            "gate never read {running} running, {waiting} waiting"
        );
        std::thread::yield_now();
    }
}

/// One raw request/reply exchange, no retry — for asserting on the typed
/// reply the daemon actually sent.
fn exchange(addr: SocketAddr, req: &ServeRequest) -> io::Result<ServeReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write_json(&mut stream, req)?;
    read_json(&mut stream)
}

#[test]
fn concurrent_clients_share_one_warm_store_and_get_identical_plans() {
    let daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let addr = daemon.addr;
    // Cold fill first, so every concurrent client below should hit warm.
    let cold = match exchange(addr, &plan_req(2)).expect("cold plan") {
        ServeReply::Plan(p) => p,
        other => panic!("unexpected cold reply: {other:?}"),
    };
    assert!(
        !cold.warm,
        "first request for a fingerprint must be a store miss"
    );

    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut plans = Vec::new();
                for _ in 0..3 {
                    match client.request(&plan_req(2)).expect("warm plan") {
                        ServeReply::Plan(p) => plans.push(p),
                        other => panic!("client {c}: unexpected reply {other:?}"),
                    }
                }
                plans
            })
        })
        .collect();
    for h in handles {
        for warm in h.join().expect("client thread") {
            assert!(warm.warm, "post-fill requests must hit the shared store");
            // The load-bearing invariant: warm sharing changes latency,
            // never answers.
            assert_eq!(warm.encoder, cold.encoder);
            assert_eq!(warm.backbone, cold.backbone);
            assert_eq!(warm.generator, cold.generator);
            assert_eq!(warm.predicted_iter_secs, cold.predicted_iter_secs);
        }
    }
    let (hits, misses) = daemon.store_stats();
    assert_eq!(misses, 1, "one fingerprint, one profiling run");
    assert_eq!(hits, 12, "every concurrent request reused it");
}

#[test]
fn daemon_answers_match_an_in_process_search() {
    // The warm store changes latency, never answers: the cold plan, the
    // warm repeat and a degraded replan each equal the head of the same
    // search run in process over a fresh `warm_start` of the task.
    let spec = SpecDesc::ablation("mllm-9b", 128);
    let budget = 2;
    let task = task_for(&spec).expect("known preset");
    let daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let plan = ServeRequest::Plan {
        spec: spec.clone(),
        budget,
        deadline_ms: 0,
    };
    let replan = ServeRequest::Replan {
        spec: spec.clone(),
        remaining_gpus: 64,
        budget,
        deadline_ms: 0,
    };
    let module = |p: &ModulePlan| ModuleSummary {
        tp: p.tp,
        dp: p.dp,
        pp: p.pp,
        gpus: p.gpus(),
    };
    for (req, gpus, warm) in [(&plan, 96, false), (&plan, 96, true), (&replan, 64, true)] {
        let got = match exchange(daemon.addr, req).expect("reply") {
            ServeReply::Plan(p) => p,
            other => panic!("{gpus} GPUs: unexpected reply {other:?}"),
        };
        assert_eq!(got.warm, warm, "{gpus} GPUs: store hit");
        let want = Orchestrator::builder()
            .spec(task.problem_spec())
            .total_gpus(gpus)
            .top_k(budget as usize)
            .build()
            .expect("valid spec")
            .plan_candidates_warm(&task.model, &task.warm_start())
            .expect("plannable")
            .remove(0);
        assert_eq!(got.encoder, module(&want.plan.encoder), "{gpus} GPUs");
        assert_eq!(got.backbone, module(&want.plan.backbone), "{gpus} GPUs");
        assert_eq!(got.generator, module(&want.plan.generator), "{gpus} GPUs");
        assert_eq!(got.total_gpus, want.plan.total_gpus(), "{gpus} GPUs");
        assert_eq!(
            got.predicted_iter_secs.to_bits(),
            want.objective.total().to_bits(),
            "{gpus} GPUs"
        );
    }
}

#[test]
fn hostile_frames_never_panic_the_daemon() {
    let mut daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    for seed in 0..24u64 {
        let addr = daemon.addr;
        let mut rng = DetRng::new(seed);
        let bytes = corrupt_wire_stream(&mut rng, 4);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        // The peer may die mid-write if the daemon already hung up on an
        // earlier garbage frame — that is the hostile scenario, not a
        // test failure.
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(Shutdown::Write);
        // If the stream decoded to a frame-with-garbage-JSON, the reply
        // must be typed Malformed; any other outcome is a closed
        // connection. Either way: no panic, no hang.
        if let Ok(ServeReply::Err(e)) = read_json::<ServeReply>(&mut stream) {
            assert!(
                matches!(
                    e,
                    ServeError::Malformed { .. } | ServeError::BadRequest { .. }
                ),
                "seed {seed}: unexpected typed reply {e:?}"
            );
        }
        // Corrupt streams derived from preprocess traffic can contain a
        // *well-formed* `"Shutdown"` control frame (both protocols spell
        // it the same way) — that is an orderly drain, not a crash.
        // Verify it was orderly by finishing the drain, then respawn.
        if daemon.stopped() {
            daemon.shutdown();
            daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("respawn");
            continue;
        }
        // Liveness probe after every hostile exchange.
        match exchange(addr, &ServeRequest::Ping) {
            Ok(ServeReply::Pong) => {}
            other => panic!("seed {seed}: daemon unhealthy after hostile frame: {other:?}"),
        }
    }
}

#[test]
fn garbage_json_in_a_valid_frame_gets_a_typed_malformed_reply() {
    let daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame(&mut stream, b"this is not a request").expect("write");
    match read_json::<ServeReply>(&mut stream).expect("typed reply") {
        ServeReply::Err(ServeError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn oversized_control_frame_is_rejected_before_its_body() {
    // A length word claiming 128 KiB, and no body: requests are read
    // through the 64 KiB control-frame cap, so the daemon answers at once
    // instead of buffering whatever the client sends.
    let daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(&(128u32 * 1024).to_le_bytes())
        .expect("write");
    match read_json::<ServeReply>(&mut stream).expect("typed reply before any body byte") {
        ServeReply::Err(ServeError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn full_queue_rejects_with_typed_overload_and_retry_rides_it_out() {
    let tel = Telemetry::enabled();
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        worker_delay: Some(Duration::from_millis(400)),
        telemetry: tel.clone(),
        ..ServeConfig::default()
    };
    let daemon = ServeHandle::spawn(cfg).expect("spawn");
    let addr = daemon.addr;
    // Occupy the one slot, then the one place in line. The sessions block
    // on their replies, so spawn them off-thread.
    let occupy: Vec<_> = (0..2)
        .map(|waiting| {
            let t = std::thread::spawn(move || exchange(addr, &plan_req(1)));
            await_gate(&tel, 1.0, waiting as f64);
            t
        })
        .collect();
    match exchange(addr, &plan_req(1)).expect("exchange") {
        ServeReply::Err(ServeError::Overloaded { queue_depth }) => {
            assert_eq!(queue_depth, 1, "rejection reports the configured depth")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // A retrying client outlives the congestion: backoff spans the
    // ~400 ms the running job needs to free its slot.
    let policy = RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(100),
        cap: Duration::from_millis(400),
        seed: 3,
    };
    let mut client = Client::with_policy(addr, policy);
    match client
        .request(&plan_req(1))
        .expect("retry through overload")
    {
        ServeReply::Plan(p) => assert!(p.total_gpus > 0),
        other => panic!("unexpected reply {other:?}"),
    }
    for t in occupy {
        match t.join().expect("occupier").expect("reply") {
            ServeReply::Plan(_) => {}
            other => panic!("occupier got {other:?}"),
        }
    }
}

#[test]
fn queued_past_deadline_is_answered_deadline_exceeded() {
    let tel = Telemetry::enabled();
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 4,
        worker_delay: Some(Duration::from_millis(300)),
        telemetry: tel.clone(),
        ..ServeConfig::default()
    };
    let daemon = ServeHandle::spawn(cfg).expect("spawn");
    let addr = daemon.addr;
    let occupier = std::thread::spawn(move || exchange(addr, &plan_req(1)));
    await_gate(&tel, 1.0, 0.0);
    // 50 ms deadline, up to 300 ms of waiting left: expires in line
    // without running.
    let req = ServeRequest::Plan {
        spec: SpecDesc::ablation("mllm-9b", 128),
        budget: 1,
        deadline_ms: 50,
    };
    match exchange(addr, &req).expect("exchange") {
        ServeReply::Err(ServeError::DeadlineExceeded { waited_ms }) => {
            assert!(
                waited_ms >= 50,
                "reported wait {waited_ms} ms below the deadline"
            )
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    occupier.join().expect("occupier").expect("occupier reply");
}

#[test]
fn shutdown_drains_in_flight_requests_before_returning() {
    let tel = Telemetry::enabled();
    let cfg = ServeConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(300)),
        telemetry: tel.clone(),
        ..ServeConfig::default()
    };
    let mut daemon = ServeHandle::spawn(cfg).expect("spawn");
    let addr = daemon.addr;
    let inflight = std::thread::spawn(move || exchange(addr, &plan_req(1)));
    await_gate(&tel, 1.0, 0.0);
    let drained = Instant::now();
    daemon.shutdown();
    assert!(
        drained.elapsed() >= Duration::from_millis(100),
        "shutdown returned before the in-flight request can have finished"
    );
    // The admitted request was answered, not dropped.
    match inflight.join().expect("inflight").expect("inflight reply") {
        ServeReply::Plan(p) => assert!(p.total_gpus > 0),
        other => panic!("in-flight request got {other:?}"),
    }
    // The listener is gone: new connections fail outright (or, in a
    // narrow race, get a typed ShuttingDown).
    match exchange(addr, &ServeRequest::Ping) {
        Err(_) | Ok(ServeReply::Err(ServeError::ShuttingDown)) => {}
        Ok(other) => panic!("daemon answered after shutdown: {other:?}"),
    }
}

#[test]
fn wire_shutdown_request_begins_a_drain() {
    let mut daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    assert!(!daemon.stopped());
    match exchange(daemon.addr, &ServeRequest::Shutdown).expect("exchange") {
        ServeReply::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    assert!(daemon.stopped(), "wire shutdown must set the drain flag");
    // The `repro serve` foreground path: wait() sees the flag and joins.
    daemon.wait();
}

/// Connections the daemon behind `tel` has accepted so far.
fn sessions_total(tel: &Telemetry) -> u64 {
    tel.snapshot()
        .counter_value(names::SERVE_SESSIONS_TOTAL, &[])
        .unwrap_or(0)
}

/// A client that never retries: every reconnect it makes is the one a
/// stale session earns, not a policy attempt.
fn one_shot_client(addr: SocketAddr) -> Client {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    Client::with_policy(addr, policy)
}

#[test]
fn one_client_keeps_one_session_across_requests() {
    let tel = Telemetry::enabled();
    let daemon = ServeHandle::spawn(ServeConfig {
        telemetry: tel.clone(),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let before = sessions_total(&tel);
    let mut client = Client::new(daemon.addr);
    for i in 0..100 {
        let req = if i % 10 == 0 {
            plan_req(1)
        } else {
            ServeRequest::Ping
        };
        match client.request(&req).expect("request") {
            ServeReply::Plan(_) | ServeReply::Pong => {}
            other => panic!("request {i}: unexpected reply {other:?}"),
        }
    }
    assert_eq!(
        sessions_total(&tel) - before,
        1,
        "100 requests from one client must share one connection"
    );
}

#[test]
fn a_late_reply_is_never_read_as_the_next_answer() {
    let cfg = quiet(ServeConfig {
        worker_delay: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    let daemon = ServeHandle::spawn(cfg).expect("spawn");
    let mut client = one_shot_client(daemon.addr).with_deadline(Duration::from_millis(50));
    match client.request(&ServeRequest::Ping) {
        Ok(ServeReply::Pong) => {}
        other => panic!("warm-up ping got {other:?}"),
    }
    // The plan gives up after 50 ms; its reply is still ~250 ms out.
    match client.request(&plan_req(1)) {
        Err(ClientError::Exhausted { .. }) => {}
        other => panic!("expected the plan to time out, got {other:?}"),
    }
    // The plan's reply must not answer the ping: a session the timeout
    // dropped is never read again.
    match client.request(&ServeRequest::Ping) {
        Ok(ServeReply::Pong) => {}
        other => panic!("ping after a timed-out plan got {other:?}"),
    }
}

#[test]
fn a_stale_session_reconnects_without_spending_an_attempt() {
    let mut first = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let addr = first.addr;
    let mut client = one_shot_client(addr);
    match client.request(&ServeRequest::Ping) {
        Ok(ServeReply::Pong) => {}
        other => panic!("first daemon: {other:?}"),
    }
    // The daemon restarts on the same address while the client still
    // holds a session to the old one.
    first.shutdown();
    let tel = Telemetry::enabled();
    let second = ServeHandle::spawn(ServeConfig {
        addr: addr.to_string(),
        telemetry: tel.clone(),
        ..ServeConfig::default()
    })
    .expect("respawn on the same address");
    match client.request(&ServeRequest::Ping) {
        Ok(ServeReply::Pong) => {}
        other => panic!("one attempt must survive the restart: {other:?}"),
    }
    assert_eq!(second.addr, addr);
    assert_eq!(sessions_total(&tel), 1, "exactly one reconnect");
}

#[test]
fn shutdown_returns_promptly_with_an_idle_kept_alive_client() {
    let mut daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let mut client = one_shot_client(daemon.addr);
    match client.request(&ServeRequest::Ping) {
        Ok(ServeReply::Pong) => {}
        other => panic!("ping: {other:?}"),
    }
    // The client stays connected and idle through the drain.
    let drained = Instant::now();
    daemon.shutdown();
    assert!(
        drained.elapsed() < Duration::from_secs(5),
        "drain waited {:?} on an idle session",
        drained.elapsed()
    );
    assert!(
        client.request(&ServeRequest::Ping).is_err(),
        "a drained daemon answered"
    );
}

#[test]
fn seeded_retry_jitter_is_reproducible_end_to_end() {
    // Two clients with equal seeds must sleep the exact same schedule —
    // measured against a dead port so every attempt fails at connect and
    // the wall time is dominated by the deterministic backoff.
    let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(30),
        cap: Duration::from_millis(120),
        seed: 11,
    };
    let expected: Duration = policy.schedule().iter().sum();
    let mut walls = Vec::new();
    for _ in 0..2 {
        let mut client = Client::with_policy(addr, policy.clone());
        let t = Instant::now();
        let _ = client.request(&ServeRequest::Ping);
        walls.push(t.elapsed());
    }
    for wall in &walls {
        assert!(
            *wall >= expected,
            "observed {wall:?} is less than the scheduled backoff {expected:?}"
        );
        // Connect-refused on loopback is near-instant; the schedule
        // dominates, so both runs land within a loose tolerance of it.
        assert!(
            *wall < expected + Duration::from_millis(500),
            "observed {wall:?} far exceeds the schedule {expected:?}"
        );
    }
}

#[test]
fn traced_round_trip_assembles_a_cross_process_span_tree() {
    use dt_serve::client::{fetch_flight, fetch_trace, CLIENT_PID};
    use dt_serve::daemon::{SERVE_PID, STORE_PID};
    use dt_simengine::trace::arg;
    use dt_simengine::{TraceRecorder, WallTraceSink};

    let cfg = quiet(ServeConfig {
        trace: WallTraceSink::new(),
        flight: dt_telemetry::FlightLog::new(),
        ..ServeConfig::default()
    });
    let daemon = ServeHandle::spawn(cfg).expect("spawn");
    let addr = daemon.addr;
    let mut client = Client::new(addr).with_trace(WallTraceSink::new());
    match client.request(&plan_req(1)).expect("traced plan") {
        ServeReply::Plan(_) => {}
        other => panic!("unexpected reply {other:?}"),
    }

    // Merge the daemon's spans (fetched over HTTP on the unix timebase)
    // with the client's own — the deployment workflow `repro client plan
    // --trace` automates.
    let remote = fetch_trace(addr).expect("GET /trace");
    let mut merged = TraceRecorder::from_chrome_json(&remote).expect("parse remote trace");
    merged.absorb(client.trace_sink().unix_recorder());

    // One trace id across every linked span, on at least three process
    // tracks: client, daemon worker, warm store.
    let traced: Vec<_> = merged
        .spans()
        .iter()
        .filter(|s| s.trace_arg().is_some())
        .collect();
    let ids: std::collections::BTreeSet<_> = traced.iter().filter_map(|s| s.trace_arg()).collect();
    assert_eq!(ids.len(), 1, "one request, one trace id: {ids:?}");
    let pids: std::collections::BTreeSet<u64> = traced.iter().map(|s| s.pid).collect();
    for pid in [CLIENT_PID, SERVE_PID, STORE_PID] {
        assert!(
            pids.contains(&pid),
            "missing process track {pid} in {pids:?}"
        );
    }
    // Every non-root span's parent is some span in the assembled tree —
    // the property that makes it a tree rather than a bag of spans.
    let spans: std::collections::BTreeSet<&str> = traced
        .iter()
        .filter_map(|s| {
            s.args
                .iter()
                .find(|(k, _)| *k == arg::SPAN)
                .map(|(_, v)| v.as_str())
        })
        .collect();
    let zero = dt_simengine::trace::hex_id(0);
    for s in &traced {
        let parent = s
            .args
            .iter()
            .find(|(k, _)| *k == arg::PARENT)
            .map(|(_, v)| v.as_str());
        if let Some(p) = parent {
            assert!(
                p == zero || spans.contains(p),
                "span {:?} has dangling parent {p}",
                s.name
            );
        }
    }

    // No dumps yet; a garbage frame freezes the session's black box and
    // `/flight` serves it.
    assert!(fetch_flight(addr)
        .expect("GET /flight")
        .contains("\"dumps_total\":0"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame(&mut stream, b"garbage that is not a request").expect("write");
    let _ = read_json::<ServeReply>(&mut stream);
    let flight = fetch_flight(addr).expect("GET /flight after malformed");
    assert!(
        flight.contains("\"dumps_total\":1"),
        "dump not recorded: {flight}"
    );
    assert!(
        flight.contains("\"reason\":\"malformed\""),
        "wrong reason: {flight}"
    );
}

#[test]
fn build_info_and_uptime_ride_the_metrics_endpoint() {
    let daemon = ServeHandle::spawn(ServeConfig::default()).expect("spawn");
    let body = dt_serve::fetch_metrics(daemon.addr).expect("scrape");
    assert!(
        body.contains("dt_build_info{"),
        "missing dt_build_info: {body}"
    );
    assert!(
        body.contains("version=\""),
        "build info lacks version label"
    );
    assert!(
        body.contains("git_hash=\""),
        "build info lacks git_hash label"
    );
    assert!(
        body.contains("dt_uptime_seconds"),
        "missing dt_uptime_seconds"
    );
}

#[test]
fn invalid_specs_are_rejected_at_admission_with_reasons() {
    let daemon = ServeHandle::spawn(quiet(ServeConfig::default())).expect("spawn");
    let bad = ServeRequest::Plan {
        spec: SpecDesc {
            preset: "gpt-1t".into(),
            nodes: 12,
            global_batch: 128,
            microbatch: 1,
            seed: 42,
        },
        budget: 1,
        deadline_ms: 0,
    };
    match exchange(daemon.addr, &bad).expect("exchange") {
        ServeReply::Err(ServeError::BadRequest { reason }) => {
            assert!(
                reason.contains("gpt-1t"),
                "reason should name the bad field: {reason}"
            )
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let (hits, misses) = daemon.store_stats();
    assert_eq!(
        (hits, misses),
        (0, 0),
        "rejected requests never reach the store"
    );
}
