//! `serve-mix`: two closed-loop clients, each waiting for its reply, drive
//! one in-process `ServeHandle` through `dt_serve::Client`. Each client
//! cycles Plan (mllm-9b ablation), Plan (mllm-15b), Replan to 64 GPUs and
//! Simulate for 2 iterations; two cycles in eight send the mllm-9b Plan
//! with a fresh seed, so it misses the warm store. One op is one answered
//! request; set-up is daemon spawn to the first (cold) Plan reply.

use crate::measure::{mean, median, ms, peak_rss_mb, percentile, Phase, Sampler};
use crate::{Budget, Outcome, Params, Steady};
use dt_preprocess::frame::{read_json, write_json};
use dt_serve::api::{PlanSummary, ServeReply, ServeRequest, SimSummary, SpecDesc};
use dt_serve::client::{fetch_metrics, Client, RetryPolicy};
use dt_serve::daemon::{ServeConfig, ServeHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const PINGS: usize = 400;

/// Time between host-speed probes, each on the next CPU in turn. Clients
/// and daemon workers run on every core, so the probes sample every core.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Answered requests after which `peak_rss_mb` is read. The warm store
/// keeps every cold plan, so memory grows with the requests served: read
/// at a fixed count, it measures memory per request mix, not how many
/// requests the host's speed let through. A run too short to get there
/// reports the peak at its end.
const RSS_AT_OPS: u64 = 30_000;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Plan,
    PlanCold,
    Replan,
    Simulate,
}

fn primary(seed: u64) -> SpecDesc {
    SpecDesc {
        seed,
        ..SpecDesc::ablation("mllm-9b", 128)
    }
}

/// The `i`th request of client `client`, and its kind.
fn request(seed: u64, client: u64, i: u64) -> (Kind, ServeRequest) {
    let cycle = i / 4;
    match i % 4 {
        0 if matches!(cycle % 8, 1 | 2) => {
            // A seed no other request uses: a guaranteed store miss.
            let fresh = seed ^ ((client + 1) << 48) ^ (cycle + 1);
            let spec = SpecDesc {
                seed: fresh,
                ..primary(seed)
            };
            (
                Kind::PlanCold,
                ServeRequest::Plan {
                    spec,
                    budget: 2,
                    deadline_ms: 0,
                },
            )
        }
        0 => (
            Kind::Plan,
            ServeRequest::Plan {
                spec: primary(seed),
                budget: 2,
                deadline_ms: 0,
            },
        ),
        1 => {
            let spec = SpecDesc {
                seed,
                ..SpecDesc::ablation("mllm-15b", 64)
            };
            (
                Kind::Plan,
                ServeRequest::Plan {
                    spec,
                    budget: 2,
                    deadline_ms: 0,
                },
            )
        }
        2 => (
            Kind::Replan,
            ServeRequest::Replan {
                spec: primary(seed),
                remaining_gpus: 64,
                budget: 2,
                deadline_ms: 0,
            },
        ),
        _ => (
            Kind::Simulate,
            ServeRequest::Simulate {
                spec: primary(seed),
                iterations: 2,
                deadline_ms: 0,
            },
        ),
    }
}

/// The part of a plan that must not depend on whether the store was warm.
fn answer(p: &PlanSummary) -> String {
    format!(
        "{:?}/{:?}/{:?}/{}/{}/{}",
        p.encoder,
        p.backbone,
        p.generator,
        p.total_gpus,
        p.predicted_iter_secs.to_bits(),
        p.proven_optimal
    )
}

/// The warm-invariant answer of a reply, or `None` when the reply is of
/// the wrong type or not proven optimal.
fn checked_answer(kind: Kind, reply: &ServeReply) -> Option<String> {
    match (kind, reply) {
        (Kind::Plan | Kind::PlanCold | Kind::Replan, ServeReply::Plan(p)) if p.proven_optimal => {
            Some(answer(p))
        }
        (Kind::Simulate, ServeReply::Sim(s)) if s.plan.proven_optimal => Some(format!(
            "{}/{}/{}/{}",
            answer(&s.plan),
            s.mean_iter_secs.to_bits(),
            s.mfu.to_bits(),
            s.samples_per_sec.to_bits()
        )),
        _ => None,
    }
}

fn client(addr: SocketAddr, seed: u64) -> Client {
    // One attempt: a refused request is a failed op, not a hidden retry.
    Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 1,
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// One client's closed loop.
#[derive(Default)]
struct ClientLog {
    ops: u64,
    failed: u64,
    /// (end, latency ms) of every op.
    latencies_ms: Vec<(Instant, f64)>,
    by_kind: HashMap<Kind, Vec<f64>>,
    /// (traced, latency ms) of every op.
    spans: Vec<(bool, f64)>,
}

/// What the clients share: the first answer to every repeated request,
/// and the count of answered requests with the peak RSS read at
/// `RSS_AT_OPS`.
struct Shared {
    answers: Mutex<HashMap<String, String>>,
    served: AtomicU64,
    rss_mb: OnceLock<f64>,
}

fn drive(
    addr: SocketAddr,
    seed: u64,
    c: u64,
    deadline: Instant,
    trace: bool,
    shared: &Shared,
) -> ClientLog {
    let mut cl = client(addr, seed.wrapping_mul(31).wrapping_add(c));
    let mut log = ClientLog::default();
    for i in 0.. {
        let (kind, req) = request(seed, c, i);
        // Whole cycles alternate between traced and untraced, so every
        // kind (and the fresh-seed share) lands on both sides.
        let traced = trace && (i / 4) % 2 == 1;
        let t = Instant::now();
        let reply = cl.request(&req);
        let end = Instant::now();
        let took = ms(end - t);
        log.ops += 1;
        let ok = match reply.as_ref().ok().and_then(|r| checked_answer(kind, r)) {
            None => false,
            Some(_) if kind == Kind::PlanCold => true,
            Some(a) => {
                let key = format!("{}/{req:?}", req.kind());
                let mut known = shared.answers.lock().expect("answer map");
                known.entry(key).or_insert_with(|| a.clone()) == &a
            }
        };
        if !ok {
            log.failed += 1;
            eprintln!("serve-mix: client {c} request {i} ({kind:?}) failed its check: {reply:?}");
        }
        log.latencies_ms.push((end, took));
        if shared.served.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_OPS {
            let _ = shared.rss_mb.set(peak_rss_mb());
        }
        log.by_kind.entry(kind).or_default().push(took);
        log.spans.push((traced, took));
        if Instant::now() >= deadline {
            break;
        }
    }
    log
}

/// Sum of every sample of `family` whose label block contains `labels`.
fn scraped(text: &str, family: &str, labels: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(family))
        .filter(|rest| rest.starts_with('{') || rest.starts_with(' '))
        .filter(|rest| {
            rest.split(' ')
                .next()
                .is_some_and(|block| block.contains(labels))
        })
        .filter_map(|rest| rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

pub fn run(p: &Params, tail_pct: f64) -> Outcome {
    let shared = Shared {
        answers: Mutex::new(HashMap::new()),
        served: AtomicU64::new(0),
        rss_mb: OnceLock::new(),
    };
    let mut setups_s = Vec::new();
    let mut failed = 0u64;
    let mut daemon = None;
    let mut first_plan = None;
    let (kind0, first) = request(p.seed, 0, 0);
    let sampler = Sampler::start(PROBE_EVERY);
    for _ in 0..p.setups {
        if let Some(mut d) = daemon.take() {
            ServeHandle::shutdown(&mut d);
        }
        let t = Instant::now();
        let d = ServeHandle::spawn(ServeConfig::default()).expect("spawn the planner daemon");
        let reply = client(d.addr, p.seed).request(&first);
        setups_s.push((Instant::now(), t.elapsed().as_secs_f64()));
        let key = format!("{}/{first:?}", first.kind());
        let ok = reply
            .as_ref()
            .ok()
            .and_then(|r| checked_answer(kind0, r))
            .is_some_and(|a| {
                shared
                    .answers
                    .lock()
                    .expect("answer map")
                    .entry(key)
                    .or_insert_with(|| a.clone())
                    == &a
            });
        failed += u64::from(!ok);
        if let Ok(ServeReply::Plan(plan)) = reply {
            first_plan = Some(plan);
        }
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr;
    let before = fetch_metrics(addr).expect("scrape /metrics");

    let phase = Phase::start();
    let deadline = Instant::now() + p.seconds;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || drive(addr, p.seed, c, deadline, p.trace, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut measured = phase.stop();
    let speed = sampler.finish();
    match shared.rss_mb.get() {
        Some(&mb) => measured.rss_mb = mb,
        None => eprintln!("serve-mix: fewer than {RSS_AT_OPS} requests; peak RSS read at the end"),
    }
    let after = fetch_metrics(addr).expect("scrape /metrics");

    let ops: u64 = logs.iter().map(|l| l.ops).sum();
    failed += logs.iter().map(|l| l.failed).sum::<u64>();
    let attempted = ops + p.setups as u64;
    let latencies_ms: Vec<(Instant, f64)> = logs
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    if !p.trace {
        daemon.shutdown();
        let steady = Steady {
            setups_s,
            ops,
            phase: measured,
            latencies_ms,
            speed,
            // Planning and simulation in the workers set the request time.
            cpu_bound: true,
        };
        return Outcome {
            attempted,
            failed,
            metrics: steady.metrics(tail_pct),
            budgets: Vec::new(),
        };
    }

    // Transport: Pings are answered at admission, so their round trip is
    // connect + frame + session cost with no worker involved.
    let mut pinger = client(addr, p.seed);
    let mut pings_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let reply = pinger.request(&ServeRequest::Ping);
        pings_us.push(t.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(!matches!(reply, Ok(ServeReply::Pong)));
    }
    pings_us.sort_by(f64::total_cmp);
    let final_scrape = fetch_metrics(addr).expect("scrape /metrics");
    daemon.shutdown();

    let delta = |family: &str, labels: &str| {
        scraped(&after, family, labels) - scraped(&before, family, labels)
    };
    let daemon_s: f64 = ["plan", "replan", "simulate"]
        .iter()
        .map(|k| delta("dt_serve_request_seconds_sum", &format!("kind=\"{k}\"")))
        .sum();
    let daemon_n: f64 = ["plan", "replan", "simulate"]
        .iter()
        .map(|k| delta("dt_serve_request_seconds_count", &format!("kind=\"{k}\"")))
        .sum();
    let daemon_p50 = |k: &str| {
        1e3 * scraped(
            &final_scrape,
            "dt_serve_request_seconds",
            &format!("kind=\"{k}\",quantile=\"0.5\""),
        )
    };
    let hits = delta("dt_serve_store_hits_total", "");
    let misses = delta("dt_serve_store_misses_total", "");

    let spans: Vec<(bool, f64)> = logs.iter().flat_map(|l| l.spans.iter().copied()).collect();
    let side = |traced: bool| {
        mean(
            &spans
                .iter()
                .filter(|s| s.0 == traced)
                .map(|s| s.1)
                .collect::<Vec<_>>(),
        )
    };
    let (traced, untraced) = (side(true), side(false));
    let op = mean(&latencies_ms.iter().map(|&(_, l)| l).collect::<Vec<_>>());
    let daemon_ms = 1e3 * daemon_s / daemon_n.max(1.0);
    let transport_ms = mean(&pings_us) / 1e3;
    let kind_p50 = |kind: Kind| {
        let v: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.by_kind.get(&kind).into_iter().flatten().copied())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let metrics = vec![
        ("serve.op_ms", op),
        ("serve.daemon_ms", daemon_ms),
        ("serve.transport_ms", transport_ms),
        ("serve.unattributed_ms", op - daemon_ms - transport_ms),
        ("serve.ping_us", percentile(&pings_us, 50.0)),
        (
            "frame.json_roundtrip_us",
            first_plan
                .as_ref()
                .map_or(0.0, |plan| json_roundtrip_us(p.seed, plan)),
        ),
        ("serve.plan_ms", kind_p50(Kind::Plan)),
        ("serve.plan_cold_ms", kind_p50(Kind::PlanCold)),
        ("serve.replan_ms", kind_p50(Kind::Replan)),
        ("serve.simulate_ms", kind_p50(Kind::Simulate)),
        ("serve.daemon_plan_ms", daemon_p50("plan")),
        ("serve.daemon_replan_ms", daemon_p50("replan")),
        ("serve.daemon_simulate_ms", daemon_p50("simulate")),
        ("serve.store_hit_ratio", hits / (hits + misses).max(1.0)),
        ("serve.rejected", delta("dt_serve_rejected_total", "")),
        ("host.probe_ms", speed.median_probe_ms()),
        ("trace.overhead_pct", 100.0 * (traced - untraced) / untraced),
    ];
    let budgets = vec![Budget {
        what: "one answered request (mean over the steady phase)",
        total: "serve.op_ms",
        parts: vec![
            "serve.daemon_ms",
            "serve.transport_ms",
            "serve.unattributed_ms",
        ],
    }];
    Outcome {
        attempted: attempted + PINGS as u64,
        failed,
        metrics,
        budgets,
    }
}

/// Mean in-memory `write_json` + `read_json` time of one message of the
/// mix (each request kind and a reply of each type), in µs.
fn json_roundtrip_us(seed: u64, plan: &PlanSummary) -> f64 {
    let sim = SimSummary {
        plan: plan.clone(),
        iterations: 2,
        mean_iter_secs: 1.25,
        mfu: 0.5,
        samples_per_sec: 96.0,
    };
    let mut requests: Vec<ServeRequest> = (0..4).map(|i| request(seed, 0, i).1).collect();
    requests.push(ServeRequest::Ping);
    let replies = [
        ServeReply::Plan(plan.clone()),
        ServeReply::Sim(sim),
        ServeReply::Pong,
    ];
    const ROUNDS: usize = 2000;
    let mut buf = Vec::with_capacity(4096);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for r in &requests {
            buf.clear();
            write_json(&mut buf, r).expect("encode request");
            let back: ServeRequest = read_json(&mut buf.as_slice()).expect("decode request");
            assert_eq!(&back, r, "request survives the frame codec");
        }
        for r in &replies {
            buf.clear();
            write_json(&mut buf, r).expect("encode reply");
            std::hint::black_box(
                read_json::<ServeReply>(&mut buf.as_slice()).expect("decode reply"),
            );
        }
    }
    let messages = ROUNDS * (requests.len() + replies.len());
    t.elapsed().as_secs_f64() * 1e6 / messages as f64
}
