//! Service-level gates for the dt-serve planning daemon: a traced-vs-
//! untraced pair of daemons driven through a deterministic request mix,
//! and a deliberate overload probe. Every client drives the real
//! [`dt_serve::Client`] over real sockets with the same mix — plan (cold
//! then warm), degraded replan, and simulate — so the gates cover the
//! whole stack: frame codec, the admission gate, requests executing on
//! their session threads, and the cross-request warm-plan store. Request
//! throughput and latency are perfbench's `serve-mix` workload, not this
//! bench's.
//!
//! Emits `BENCH_service.json` (override with `DT_BENCH_SERVICE_JSON`)
//! with the warm-vs-cold store ratio, the served and rejected counters
//! scraped from the daemons' live `/metrics` endpoints, the overload
//! probe's rejection rate, and the tracing tax. Gates, applied after the
//! JSON is written so a failed run still leaves the evidence: every
//! request the probe daemons are sent is answered, the warm-hit ratio is
//! positive (repeat traffic actually skips profiling), the metrics scrape
//! exposes the serve counters, the overload probe observes at least one
//! typed `Overloaded` rejection alongside at least one success, and
//! end-to-end tracing + flight recording costs at most 5% per request:
//! the median over interleaved passes of the traced daemon's excess.

use dt_serve::api::{ServeReply, ServeRequest, SpecDesc};
use dt_serve::client::{fetch_metrics, Client, RetryPolicy};
use dt_serve::daemon::{ServeConfig, ServeHandle};
use dt_simengine::Json;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The deterministic request mix, indexed by the client's request
/// counter: a cold/warm plan pair on the primary fingerprint, a second
/// fingerprint (so the store holds >1 entry), a degraded replan, and a
/// short simulation.
fn request_for(slot: u32) -> ServeRequest {
    let primary = SpecDesc::ablation("mllm-9b", 128);
    match slot % 5 {
        0 | 1 => ServeRequest::Plan {
            spec: primary,
            budget: 2,
            deadline_ms: 0,
        },
        2 => ServeRequest::Plan {
            spec: SpecDesc::ablation("mllm-15b", 64),
            budget: 2,
            deadline_ms: 0,
        },
        3 => ServeRequest::Replan {
            spec: primary,
            remaining_gpus: 64,
            budget: 2,
            deadline_ms: 0,
        },
        _ => ServeRequest::Simulate {
            spec: primary,
            iterations: 2,
            deadline_ms: 0,
        },
    }
}

/// Sum every sample of a Prometheus counter family (all label sets) from
/// exposition text.
fn metric_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// One trace-overhead measurement plus the service facts its two daemons
/// report once it is done.
struct OverheadProbe {
    /// Median per-request seconds over the untraced passes.
    untraced_secs: f64,
    /// Median per-request seconds over the traced passes.
    traced_secs: f64,
    /// Median over the passes of the traced total's excess over the
    /// untraced total, in percent. Positive means tracing made requests
    /// slower.
    overhead_pct: f64,
    issued: u32,
    /// Requests that came back as a plan or a simulation result.
    answered: u32,
    /// Warm-store `(hits, misses)` summed over both daemons.
    store: (u64, u64),
    /// Both daemons' `/metrics` expositions, concatenated.
    metrics: String,
}

/// Middle value of `xs` (mean of the two middle values for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Measure the tracing tax: two identical daemons — one with the wall
/// trace sink and flight recorder enabled end to end (traced client
/// included), one fully disabled — driven through the deterministic
/// request mix, so the denominator is the workload the daemon actually
/// serves, not a ping. One untimed pass first warms both stores
/// identically. Within a pass every request goes to both daemons back to
/// back, the first of the two alternating, so host-speed swings, which
/// last far longer than one request, hit both alike; a pass's tax is its
/// traced total's excess over its untraced total, and the probe reports
/// the median over the passes, which a few disturbed passes cannot move.
/// Tracing's cost is a fixed handful of span + flight records per
/// request (~10 µs), so the percentage is only meaningful against
/// representative requests.
fn trace_overhead_probe() -> OverheadProbe {
    let reqs = 200u32;
    let passes = 15u32;
    let spawn = |traced: bool| {
        let mut cfg = ServeConfig::default();
        if traced {
            cfg.trace = dt_simengine::WallTraceSink::new();
            cfg.flight = dt_telemetry::FlightLog::new();
        }
        ServeHandle::spawn(cfg).expect("spawn overhead daemon")
    };
    let untraced = spawn(false);
    let traced = spawn(true);
    let mut answered = 0u32;
    // One pass: per-request seconds on the untraced and the traced daemon.
    let mut pass = || -> [f64; 2] {
        let mut clients = [
            Client::new(untraced.addr),
            Client::new(traced.addr).with_trace(dt_simengine::WallTraceSink::new()),
        ];
        let mut secs = [0.0; 2];
        for i in 0..reqs {
            let req = request_for(i);
            let first = (i % 2) as usize;
            for d in [first, 1 - first] {
                let t = Instant::now();
                if let Ok(ServeReply::Plan(_) | ServeReply::Sim(_)) = clients[d].request(&req) {
                    answered += 1;
                }
                secs[d] += t.elapsed().as_secs_f64();
            }
        }
        secs.map(|s| s / f64::from(reqs))
    };
    pass(); // warm both stores identically
    let (mut untraced_secs, mut traced_secs, mut excess) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..passes {
        let [u, t] = pass();
        untraced_secs.push(u);
        traced_secs.push(t);
        excess.push((t - u) / u * 100.0);
    }
    let (untraced_hits, untraced_misses) = untraced.store_stats();
    let (traced_hits, traced_misses) = traced.store_stats();
    let scrape = |d: &ServeHandle| fetch_metrics(d.addr).expect("scrape /metrics");
    OverheadProbe {
        untraced_secs: median(untraced_secs),
        traced_secs: median(traced_secs),
        overhead_pct: median(excess),
        issued: 2 * (passes + 1) * reqs,
        answered,
        store: (untraced_hits + traced_hits, untraced_misses + traced_misses),
        metrics: scrape(&untraced) + &scrape(&traced),
    }
}

/// Saturate a deliberately tiny daemon (one slow slot, queue depth 1)
/// with simultaneous one-shot clients and count typed `Overloaded`
/// rejections: the admission-control path under real contention.
fn overload_probe() -> (u32, u32, u32) {
    let clients = 8u32;
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        worker_delay: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let daemon = ServeHandle::spawn(cfg).expect("spawn overload daemon");
    let addr = daemon.addr;
    let barrier = Arc::new(Barrier::new(clients as usize));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                // One attempt, no retry: we want to *see* the rejection,
                // not paper over it.
                let policy = RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                };
                let mut client = Client::with_policy(addr, policy);
                barrier.wait();
                let req = ServeRequest::Plan {
                    spec: SpecDesc::ablation("mllm-9b", 128),
                    budget: 1,
                    deadline_ms: 0,
                };
                match client.request(&req) {
                    Ok(_) => (1u32, 0u32),
                    Err(_) => (0, 1),
                }
            })
        })
        .collect();
    let mut ok = 0;
    let mut rejected = 0;
    for h in handles {
        let (o, r) = h.join().expect("probe thread");
        ok += o;
        rejected += r;
    }
    (clients, ok, rejected)
}

fn main() {
    let cfg = ServeConfig::default();
    let (workers, queue_depth) = (cfg.workers, cfg.queue_depth);

    let (probe_clients, probe_ok, probe_rejected) = overload_probe();
    println!(
        "service/overload_probe   {probe_ok} ok / {probe_rejected} rejected of {probe_clients}"
    );

    let probe = trace_overhead_probe();
    let (issued, answered) = (probe.issued, probe.answered);
    let OverheadProbe {
        untraced_secs,
        traced_secs,
        overhead_pct,
        store,
        metrics,
        ..
    } = probe;
    println!(
        "service/trace_overhead   untraced {:.3} ms/req   traced {:.3} ms/req   ({overhead_pct:+.2}%)",
        untraced_secs * 1e3,
        traced_secs * 1e3,
    );
    let (hits, misses) = store;
    let warm_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let served_total = metric_total(&metrics, "dt_serve_requests_total");
    let rejected_total = metric_total(&metrics, "dt_serve_rejected_total");

    let out = Json::obj(vec![
        ("bench", Json::Str("bench_service".into())),
        ("workers", Json::num_u64(workers as u64)),
        ("queue_depth", Json::num_u64(queue_depth as u64)),
        ("issued", Json::num_u64(u64::from(issued))),
        ("answered", Json::num_u64(u64::from(answered))),
        (
            "store",
            Json::obj(vec![
                ("hits", Json::num_u64(hits)),
                ("misses", Json::num_u64(misses)),
                ("warm_hit_ratio", Json::Num(warm_ratio)),
            ]),
        ),
        (
            "metrics",
            Json::obj(vec![
                ("requests_total", Json::Num(served_total)),
                ("rejected_total", Json::Num(rejected_total)),
            ]),
        ),
        (
            "overload_probe",
            Json::obj(vec![
                ("clients", Json::num_u64(u64::from(probe_clients))),
                ("queue_depth", Json::num_u64(1)),
                ("ok", Json::num_u64(u64::from(probe_ok))),
                ("rejected", Json::num_u64(u64::from(probe_rejected))),
                (
                    "rejection_rate",
                    Json::Num(f64::from(probe_rejected) / f64::from(probe_clients)),
                ),
            ]),
        ),
        (
            "trace_overhead",
            Json::obj(vec![
                ("untraced_req_secs", Json::Num(untraced_secs)),
                ("traced_req_secs", Json::Num(traced_secs)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
    ]);
    let path =
        std::env::var("DT_BENCH_SERVICE_JSON").unwrap_or_else(|_| "BENCH_service.json".to_string());
    let mut text = String::new();
    out.write(&mut text);
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_service.json");
    println!("wrote {path} (warm_hit_ratio={warm_ratio:.3})");

    // Gates — after the JSON so a failed run still leaves the evidence.
    assert_eq!(
        answered,
        issued,
        "{} of {issued} requests went unanswered",
        issued - answered
    );
    assert!(hits > 0, "repeat traffic never hit the warm store");
    assert!(warm_ratio > 0.0, "warm-vs-cold ratio must be positive");
    assert!(
        served_total > 0.0,
        "metrics scrape shows no served requests"
    );
    assert!(
        metrics.contains("dt_serve_store_hits_total"),
        "metrics exposition is missing the store counters"
    );
    assert!(
        probe_rejected >= 1,
        "overload probe saw no Overloaded rejection"
    );
    assert!(probe_ok >= 1, "overload probe starved every client");
    assert!(
        overhead_pct <= 5.0,
        "end-to-end tracing costs {overhead_pct:.2}% per warm request (budget 5%): \
         untraced {:.3} ms vs traced {:.3} ms",
        untraced_secs * 1e3,
        traced_secs * 1e3
    );
}
