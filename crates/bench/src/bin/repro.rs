//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                       # every experiment, presentation order
//! repro fig13 fig14               # specific experiments
//! repro list                      # what exists
//! repro fig13 --trace out.json    # also run the traced observability demo
//! repro elastic --trace out.json  # elastic multi-failure run, Chrome trace
//! repro all --json out.json       # archive every table as JSON
//! repro zoo --metrics out.prom    # metered demo: Prometheus text + JSON
//! repro check                     # every property oracle, 100 seeds each
//! repro check --seeds 500         # deeper sweep
//! repro check --prop wire.frames_round_trip            # one property
//! repro check --prop NAME --seed 7 --size 3            # replay one case
//! repro preprocess                # data-plane smoke: 2 producers × 2 consumers
//! repro preprocess --producers 4 --consumers 2 --batch 8 --batches 6
//! repro serve                     # planner daemon on an ephemeral port
//! repro serve --addr 127.0.0.1:7411 --workers 4        # pinned address,
//!                                                       # 4 requests at once
//! repro client --addr A plan --preset mllm-9b --nodes 12 --batch 128
//! repro client --addr A plan --trace t.json  # traced: assemble the
//!                                            # cross-process span tree
//! repro client --addr A replan --remaining 88 ...      # degraded replan
//! repro client --addr A simulate --iters 1 ...         # plan + 1 iter sim
//! repro client --addr A metrics                        # scrape /metrics
//! repro client --addr A flight                         # flight-recorder dumps
//! repro client --addr A shutdown                       # graceful drain
//! ```
//!
//! Flags may appear anywhere (before or after experiment names). An empty
//! experiment list, any unknown experiment name, an unknown flag, and a
//! flag missing its value are errors (exit code 2) — a misspelled or
//! missing name never silently degrades a regeneration run. `--trace`
//! alongside the `elastic` experiment traces the elastic run itself; with
//! any other selection it runs the default traced observability demo
//! (Chrome JSON + per-module breakdown + per-rank Gantt) before the
//! experiments. `--metrics <path>` runs the default metered demo (core
//! runtime, pipeline, real preprocessing service, orchestration search,
//! and elastic failover, all into one shared registry), writes the
//! Prometheus text exposition to `<path>` and the machine-readable
//! archive to `<path>.json`, and prints the metrics summary table; it
//! composes freely with `--json` and `--trace`.
//!
//! `repro check` runs the dt-check property suite (every differential
//! oracle in [`dt_check::registry`]) across a deterministic seed sweep and
//! exits 1 if any property is falsified, printing a minimized one-line
//! reproducer (`repro check --prop <name> --seed <s> --size <k>`) that
//! replays exactly the failing case. Unknown property names exit 2 and
//! list the registry.
//!
//! Build with `--release`: the production-scale simulations (fig13/fig14)
//! and the real preprocessing measurements (fig17) are CPU-heavy.

use dt_bench::experiments::{self, Experiment};
use dt_bench::{metricsbench, tracebench};
use dt_simengine::Json;

/// Every flag the parser accepts; error messages enumerate these so a typo
/// points straight at the valid spellings.
const FLAGS: [&str; 3] = ["--trace", "--json", "--metrics"];

fn usage(all: &[Experiment]) {
    eprintln!(
        "usage: repro [--trace <path>] [--json <path>] [--metrics <path>] \
         <experiment>... | all | list\n       \
         repro check [--seeds N] [--prop NAME] [--seed S --size K]\n       \
         repro preprocess [--producers N] [--consumers M] [--batch B] [--batches K]"
    );
    eprintln!("experiments:");
    for (name, _) in all {
        eprintln!("  {name}");
    }
}

fn run_traced(path: &str) {
    let started = std::time::Instant::now();
    let run = tracebench::default_traced_run();
    if let Err(e) = run.recorder.write_chrome_trace(std::path::Path::new(path)) {
        eprintln!("error: cannot write trace to '{path}': {e}");
        std::process::exit(1);
    }
    println!("{}", run.breakdown().render());
    println!("{}", run.gantt(100));
    println!(
        "   [traced {} iterations ({} spans) into {path} in {:.1}s — open in chrome://tracing or ui.perfetto.dev]\n",
        run.report.iterations.len(),
        run.recorder.len(),
        started.elapsed().as_secs_f64()
    );
}

fn run_metered(path: &str) {
    let started = std::time::Instant::now();
    let run = metricsbench::default_metrics_run();
    let snap = run.snapshot();
    if let Err(e) = std::fs::write(path, snap.to_prometheus_text()) {
        eprintln!("error: cannot write metrics to '{path}': {e}");
        std::process::exit(1);
    }
    let archive = format!("{path}.json");
    if let Err(e) = std::fs::write(&archive, format!("{}\n", snap.to_json())) {
        eprintln!("error: cannot write metrics archive to '{archive}': {e}");
        std::process::exit(1);
    }
    println!("{}", metricsbench::metrics_summary(&snap).render());
    println!(
        "   [metered {} metric series into {path} (+ {archive}) in {:.1}s]\n",
        snap.entries.len(),
        started.elapsed().as_secs_f64()
    );
}

/// `repro check [--seeds N] [--prop NAME] [--seed S --size K]` — run the
/// dt-check oracle suite (or replay one exact case). Never returns.
fn run_check(raw: &[String]) -> ! {
    let mut seeds: u32 = 100;
    let mut prop: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut size: Option<usize> = None;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let Some(value) = raw.get(i + 1) else {
            eprintln!("error: {flag} requires a value");
            eprintln!("usage: repro check [--seeds N] [--prop NAME] [--seed S --size K]");
            std::process::exit(2);
        };
        let parsed: Result<(), String> = match flag {
            "--seeds" => value.parse().map(|v| seeds = v).map_err(|e| format!("{e}")),
            "--prop" => {
                prop = Some(value.clone());
                Ok(())
            }
            "--seed" => value
                .parse()
                .map(|v| seed = Some(v))
                .map_err(|e| format!("{e}")),
            "--size" => value
                .parse()
                .map(|v| size = Some(v))
                .map_err(|e| format!("{e}")),
            other => {
                eprintln!(
                    "error: unknown check flag '{other}' (valid: --seeds, --prop, --seed, --size)"
                );
                std::process::exit(2);
            }
        };
        if let Err(e) = parsed {
            eprintln!("error: bad value '{value}' for {flag}: {e}");
            std::process::exit(2);
        }
        i += 2;
    }

    let mut props = dt_check::registry();
    if let Some(name) = &prop {
        props.retain(|p| p.name == name.as_str());
        if props.is_empty() {
            eprintln!("error: unknown property '{name}'; registered properties:");
            for p in dt_check::registry() {
                eprintln!("  {:44}  {}", p.name, p.about);
            }
            std::process::exit(2);
        }
    }

    // Replay mode: one fully-determined case, exactly as a reproducer
    // line prints it.
    if seed.is_some() || size.is_some() {
        let (Some(seed), Some(size), Some(name)) = (seed, size, &prop) else {
            eprintln!("error: replay mode needs all of --prop, --seed, and --size");
            std::process::exit(2);
        };
        let p = &props[0];
        match dt_check::run_case(p, seed, size) {
            Ok(()) => {
                println!("{name}: ok at seed {seed} size {size}");
                std::process::exit(0);
            }
            Err(f) => {
                println!("{name}: FAILED at seed {seed} size {size}: {}", f.message);
                std::process::exit(1);
            }
        }
    }

    let report = dt_check::run_suite(&props, seeds);
    print!("{}", report.render());
    std::process::exit(if report.failed() { 1 } else { 0 });
}

/// `repro serve [--addr A] [--workers N] [--queue N]` — run the planner
/// daemon until a wire shutdown request (or the process is killed).
/// `--workers` caps the requests executing at once (each on its session
/// thread), `--queue` the requests waiting for one of those slots.
/// Never returns.
fn run_serve(raw: &[String]) -> ! {
    let mut cfg = dt_serve::ServeConfig::default();
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let Some(value) = raw.get(i + 1) else {
            eprintln!("error: {flag} requires a value");
            eprintln!("usage: repro serve [--addr HOST:PORT] [--workers N] [--queue N]");
            eprintln!("  --workers N  requests executing at once (default 2)");
            eprintln!("  --queue N    requests waiting for a slot (default 16)");
            std::process::exit(2);
        };
        let parsed: Result<(), String> = match flag {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--workers" => value
                .parse()
                .map(|v| cfg.workers = v)
                .map_err(|e| format!("{e}")),
            "--queue" => value
                .parse()
                .map(|v| cfg.queue_depth = v)
                .map_err(|e| format!("{e}")),
            other => {
                eprintln!(
                    "error: unknown serve flag '{other}' (valid: --addr, --workers, --queue)"
                );
                std::process::exit(2);
            }
        };
        if let Err(e) = parsed {
            eprintln!("error: bad value '{value}' for {flag}: {e}");
            std::process::exit(2);
        }
        i += 2;
    }
    // The CLI daemon runs with live observability on: wall-clock spans
    // behind `GET /trace` (unix timebase, mergeable with a traced
    // client's spans) and the black-box flight recorder behind
    // `GET /flight`. The library default keeps both disabled.
    cfg.trace = dt_simengine::WallTraceSink::new();
    cfg.flight = dt_telemetry::FlightLog::new();
    let mut daemon = match dt_serve::ServeHandle::spawn(cfg) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("error: cannot start daemon: {e}");
            std::process::exit(1);
        }
    };
    // Machine-readable first line: scripts read the resolved ephemeral
    // port from here.
    println!("dt-serve listening on {}", daemon.addr);
    println!(
        "observability: GET /metrics | /trace | /flight on http://{}",
        daemon.addr
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    println!("dt-serve drained and stopped");
    std::process::exit(0);
}

/// `repro client --addr A <verb> [flags]` — one daemon exchange.
/// Never returns.
fn run_client(raw: &[String]) -> ! {
    use dt_serve::{Client, RetryPolicy, ServeReply, ServeRequest, SpecDesc};
    let usage = "usage: repro client --addr HOST:PORT \
                 (ping | metrics | flight | shutdown | plan | replan | simulate) \
                 [--preset P] [--nodes N] [--batch B] [--microbatch M] [--seed S] \
                 [--budget K] [--deadline-ms D] [--remaining G] [--iters I] \
                 [--retries R] [--backoff-ms B] [--jitter-seed J] [--trace FILE]";
    let mut addr: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut spec = SpecDesc::ablation("mllm-9b", 128);
    let mut budget: u32 = 4;
    let mut deadline_ms: u64 = 0;
    let mut remaining: u32 = 0;
    let mut iters: u32 = 1;
    let mut policy = RetryPolicy::default();
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < raw.len() {
        let arg = raw[i].as_str();
        if !arg.starts_with('-') {
            if verb.replace(arg.to_string()).is_some() {
                eprintln!("error: more than one verb\n{usage}");
                std::process::exit(2);
            }
            i += 1;
            continue;
        }
        let Some(value) = raw.get(i + 1) else {
            eprintln!("error: {arg} requires a value\n{usage}");
            std::process::exit(2);
        };
        let parsed: Result<(), String> = match arg {
            "--addr" => {
                addr = Some(value.clone());
                Ok(())
            }
            "--preset" => {
                spec.preset = value.clone();
                Ok(())
            }
            "--nodes" => value
                .parse()
                .map(|v| spec.nodes = v)
                .map_err(|e| format!("{e}")),
            "--batch" => value
                .parse()
                .map(|v| spec.global_batch = v)
                .map_err(|e| format!("{e}")),
            "--microbatch" => value
                .parse()
                .map(|v| spec.microbatch = v)
                .map_err(|e| format!("{e}")),
            "--seed" => value
                .parse()
                .map(|v| spec.seed = v)
                .map_err(|e| format!("{e}")),
            "--budget" => value
                .parse()
                .map(|v| budget = v)
                .map_err(|e| format!("{e}")),
            "--deadline-ms" => value
                .parse()
                .map(|v| deadline_ms = v)
                .map_err(|e| format!("{e}")),
            "--remaining" => value
                .parse()
                .map(|v| remaining = v)
                .map_err(|e| format!("{e}")),
            "--iters" => value.parse().map(|v| iters = v).map_err(|e| format!("{e}")),
            "--retries" => value
                .parse()
                .map(|v| policy.max_attempts = v)
                .map_err(|e| format!("{e}")),
            "--backoff-ms" => value
                .parse()
                .map(|v: u64| policy.base_backoff = std::time::Duration::from_millis(v))
                .map_err(|e| format!("{e}")),
            "--jitter-seed" => value
                .parse()
                .map(|v| policy.seed = v)
                .map_err(|e| format!("{e}")),
            "--trace" => {
                trace_out = Some(value.clone());
                Ok(())
            }
            other => {
                eprintln!("error: unknown client flag '{other}'\n{usage}");
                std::process::exit(2);
            }
        };
        if let Err(e) = parsed {
            eprintln!("error: bad value '{value}' for {arg}: {e}");
            std::process::exit(2);
        }
        i += 2;
    }
    let (Some(addr), Some(verb)) = (addr, verb) else {
        eprintln!("error: client needs --addr and a verb\n{usage}");
        std::process::exit(2);
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: bad --addr '{addr}': {e}");
            std::process::exit(2);
        }
    };
    if verb == "metrics" {
        match dt_serve::fetch_metrics(addr) {
            Ok(body) => {
                print!("{body}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: metrics scrape failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if verb == "flight" {
        match dt_serve::fetch_flight(addr) {
            Ok(body) => {
                println!("{body}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: flight scrape failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let req = match verb.as_str() {
        "ping" => ServeRequest::Ping,
        "shutdown" => ServeRequest::Shutdown,
        "plan" => ServeRequest::Plan {
            spec,
            budget,
            deadline_ms,
        },
        "replan" => {
            if remaining == 0 {
                eprintln!("error: replan needs --remaining GPUS\n{usage}");
                std::process::exit(2);
            }
            ServeRequest::Replan {
                spec,
                remaining_gpus: remaining,
                budget,
                deadline_ms,
            }
        }
        "simulate" => ServeRequest::Simulate {
            spec,
            iterations: iters,
            deadline_ms,
        },
        other => {
            eprintln!("error: unknown verb '{other}'\n{usage}");
            std::process::exit(2);
        }
    };
    let mut client = Client::with_policy(addr, policy);
    if trace_out.is_some() {
        // Request-scoped tracing: the client draws a root context per
        // request and propagates it on the wire; the daemon's spans come
        // back via `GET /trace` for assembly below.
        client = client.with_trace(dt_simengine::WallTraceSink::new());
    }
    match client.request(&req) {
        Ok(ServeReply::Pong) => println!("pong"),
        Ok(ServeReply::Bye) => println!("bye (daemon draining)"),
        Ok(ServeReply::Plan(p)) => {
            println!(
                "plan: total_gpus={} enc={}g(tp{}/dp{}/pp{}) bb={}g(tp{}/dp{}/pp{}) gen={}g(tp{}/dp{}/pp{})",
                p.total_gpus,
                p.encoder.gpus, p.encoder.tp, p.encoder.dp, p.encoder.pp,
                p.backbone.gpus, p.backbone.tp, p.backbone.dp, p.backbone.pp,
                p.generator.gpus, p.generator.tp, p.generator.dp, p.generator.pp,
            );
            println!(
                "      predicted_iter_secs={:.4} proven_optimal={} warm={} cache_hits={} solve_ms={:.2}",
                p.predicted_iter_secs, p.proven_optimal, p.warm, p.cache_hits, p.solve_ms
            );
        }
        Ok(ServeReply::Sim(s)) => {
            println!(
                "simulated {} iteration(s): mean_iter_secs={:.4} mfu={:.3} samples_per_sec={:.2} (plan: {} GPUs, warm={})",
                s.iterations, s.mean_iter_secs, s.mfu, s.samples_per_sec, s.plan.total_gpus, s.plan.warm
            );
        }
        Ok(ServeReply::Err(e)) => {
            eprintln!("error: daemon answered: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_out {
        assemble_trace(addr, &client, &path);
    }
    std::process::exit(0);
}

/// Merge the daemon's `/trace` export (unix timebase) with the client's
/// own spans into one cross-process Chrome trace, write it to `path`,
/// and print a one-line summary (span count, process tracks, distinct
/// trace ids) that scripts can assert on.
fn assemble_trace(addr: std::net::SocketAddr, client: &dt_serve::Client, path: &str) {
    use dt_simengine::trace::{arg, TraceRecorder};
    let remote = match dt_serve::fetch_trace(addr) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("error: trace scrape failed: {e}");
            std::process::exit(1);
        }
    };
    let mut merged = match TraceRecorder::from_chrome_json(&remote) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("error: cannot parse daemon trace: {e}");
            std::process::exit(1);
        }
    };
    merged.absorb(client.trace_sink().unix_recorder());
    let lookup = |span: &dt_simengine::trace::TraceSpan, key: &str| {
        span.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let traced: Vec<_> = merged
        .spans()
        .iter()
        .filter(|s| lookup(s, arg::TRACE).is_some())
        .collect();
    let tracks: std::collections::BTreeSet<u64> = traced.iter().map(|s| s.pid).collect();
    let ids: std::collections::BTreeSet<String> = traced
        .iter()
        .filter_map(|s| lookup(s, arg::TRACE))
        .collect();
    if let Err(e) = merged.write_chrome_trace(std::path::Path::new(path)) {
        eprintln!("error: cannot write trace to '{path}': {e}");
        std::process::exit(1);
    }
    println!(
        "assembled trace: {} traced spans across {} process tracks, {} trace id(s) -> {path}",
        traced.len(),
        tracks.len(),
        ids.len()
    );
}

/// `repro preprocess [--producers N] [--consumers M] [--batch B]
/// [--batches K]` — smoke the §6 preprocessing data plane: a live
/// N-endpoint `Preprocess` plane, M fan-in `MultiFeeder` consumers over
/// real TCP, per-producer in-order verification, and a clean-shutdown
/// check. Exits non-zero if any batch is lost, any stream arrives out of
/// order, or the plane fails to shut down cleanly. Never returns.
fn run_preprocess(raw: &[String]) -> ! {
    use dt_preprocess::{Consumer, Preprocess};
    let usage = "usage: repro preprocess [--producers N] [--consumers M] [--batch B] [--batches K]";
    let mut producers: usize = 2;
    let mut consumers: usize = 2;
    let mut batch: u32 = 4;
    let mut batches: u32 = 4;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let Some(value) = raw.get(i + 1) else {
            eprintln!("error: {flag} requires a value\n{usage}");
            std::process::exit(2);
        };
        let parsed: Result<(), String> = match flag {
            "--producers" => value
                .parse()
                .map(|v| producers = v)
                .map_err(|e| format!("{e}")),
            "--consumers" => value
                .parse()
                .map(|v| consumers = v)
                .map_err(|e| format!("{e}")),
            "--batch" => value.parse().map(|v| batch = v).map_err(|e| format!("{e}")),
            "--batches" => value
                .parse()
                .map(|v| batches = v)
                .map_err(|e| format!("{e}")),
            other => {
                eprintln!(
                    "error: unknown preprocess flag '{other}' \
                     (valid: --producers, --consumers, --batch, --batches)"
                );
                std::process::exit(2);
            }
        };
        if let Err(e) = parsed {
            eprintln!("error: bad value '{value}' for {flag}: {e}");
            std::process::exit(2);
        }
        i += 2;
    }
    if consumers == 0 {
        eprintln!("error: --consumers must be at least 1");
        std::process::exit(2);
    }

    let data = dt_data::DataConfig {
        resolution: dt_data::ResolutionMode::Fixed(64),
        ..dt_data::DataConfig::evaluation(64)
    };
    let mut plane = match Preprocess::builder(data, 23)
        .producers(producers)
        .workers(2)
        .spawn()
    {
        Ok(plane) => plane,
        Err(e) => {
            eprintln!("error: cannot spawn the preprocessing plane: {e}");
            std::process::exit(1);
        }
    };
    let addrs = plane.addrs().to_vec();
    println!("preprocess plane: {producers} producer endpoint(s), {consumers} consumer(s)");
    for (idx, addr) in addrs.iter().enumerate() {
        println!("  endpoint {idx} listening on {addr}");
    }

    let handles: Vec<_> = (0..consumers)
        .map(|c| {
            let addrs = addrs.clone();
            std::thread::spawn(move || -> Result<(u64, u64, bool, u64), String> {
                let feeder = Consumer::builder(&addrs)
                    .batch(batch)
                    .pipeline(2)
                    .connect()
                    .map_err(|e| format!("consumer {c} rejected: {e}"))?;
                let mut next_id = std::collections::HashMap::new();
                let mut delivered = 0u64;
                let mut samples = 0u64;
                let mut in_order = true;
                for k in 0..batches {
                    let (addr, b, _) = feeder
                        .next_batch_from()
                        .map_err(|e| format!("consumer {c} fetch {k} failed: {e}"))?;
                    delivered += 1;
                    samples += b.batch.samples.len() as u64;
                    let expected = next_id.entry(addr).or_insert(0u64);
                    in_order &= b.batch.samples.first().map(|s| s.id) == Some(*expected);
                    *expected += b.batch.samples.len() as u64;
                }
                Ok((delivered, samples, in_order, feeder.reconnects()))
            })
        })
        .collect();

    let mut failed = false;
    for (c, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok((delivered, samples, in_order, reconnects))) => {
                println!(
                    "consumer {c}: {delivered}/{batches} batches ({samples} samples), \
                     in-order per producer: {in_order}, reconnects: {reconnects}"
                );
                failed |= delivered != u64::from(batches) || !in_order;
            }
            Ok(Err(e)) => {
                println!("consumer {c}: FAILED — {e}");
                failed = true;
            }
            Err(_) => {
                println!("consumer {c}: FAILED — consumer thread panicked");
                failed = true;
            }
        }
    }

    let stats = plane.stats();
    println!(
        "plane stats: sessions {}, backpressure events {}, malformed frames {}",
        stats.sessions_accepted, stats.backpressure_events, stats.malformed_frames
    );
    let clean = plane.shutdown();
    println!("clean shutdown: {clean}");
    std::process::exit(if failed || !clean { 1 } else { 0 });
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("check") {
        run_check(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("preprocess") {
        run_preprocess(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("serve") {
        run_serve(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("client") {
        run_client(&raw[1..]);
    }
    let all = experiments::all();

    let mut names: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            flag @ ("--trace" | "--json" | "--metrics") => {
                let Some(value) = raw.get(i + 1) else {
                    eprintln!(
                        "error: {flag} requires an output path (valid flags: {})",
                        FLAGS.join(", ")
                    );
                    std::process::exit(2);
                };
                match flag {
                    "--trace" => trace_path = Some(value.clone()),
                    "--json" => json_path = Some(value.clone()),
                    _ => metrics_path = Some(value.clone()),
                }
                i += 2;
            }
            "--help" | "-h" | "list" => {
                usage(&all);
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!(
                    "error: unknown flag '{other}' (valid flags: {})",
                    FLAGS.join(", ")
                );
                usage(&all);
                std::process::exit(2);
            }
            name => {
                names.push(name.to_string());
                i += 1;
            }
        }
    }

    if names.is_empty() {
        usage(&all);
        std::process::exit(2);
    }
    // Validate every name up front: a misspelling anywhere (even next to
    // `all`) must fail loudly rather than be silently skipped.
    for name in &names {
        if name != "all" && !all.iter().any(|(n, _)| n == name) {
            eprintln!("error: unknown experiment '{name}' (try `repro list`)");
            std::process::exit(2);
        }
    }

    let selected: Vec<&Experiment> = if names.iter().any(|a| a == "all") {
        all.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                all.iter()
                    .find(|(n, _)| n == name)
                    .expect("validated above")
            })
            .collect()
    };

    // `--trace` traces the elastic run itself when `elastic` is selected;
    // otherwise it runs the default traced observability demo up front.
    let elastic_traced = selected.iter().any(|(name, _)| *name == "elastic");
    if let Some(path) = trace_path.as_ref().filter(|_| !elastic_traced) {
        run_traced(path);
    }
    if let Some(path) = &metrics_path {
        run_metered(path);
    }

    let mut archived: Vec<(String, dt_bench::Report)> = Vec::new();
    for (name, runner) in selected {
        let started = std::time::Instant::now();
        let report = match (*name, trace_path.as_ref()) {
            ("elastic", Some(path)) => experiments::elastic::run_traced(path),
            _ => runner(),
        };
        println!("{}", report.render());
        println!(
            "   [{name} regenerated in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if json_path.is_some() {
            archived.push((name.to_string(), report));
        }
    }

    if let Some(path) = &json_path {
        let doc = Json::Arr(
            archived
                .iter()
                .map(|(name, report)| {
                    Json::obj(vec![
                        ("experiment", Json::Str(name.clone())),
                        ("report", report.to_json()),
                    ])
                })
                .collect(),
        );
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error: cannot write JSON to '{path}': {e}");
            std::process::exit(1);
        }
        println!("   [archived {} report(s) into {path}]\n", archived.len());
    }
}
