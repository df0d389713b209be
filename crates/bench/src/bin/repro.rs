//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                       # every experiment, presentation order
//! repro fig13 fig14               # specific experiments
//! repro list                      # the usage below and every experiment
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
//! repro <subcommand> --help                            # its usage line
//! ```
//!
//! The usage that `repro --help` prints, generated from the subcommand
//! table below:
//!
//! ```text
//! usage: repro [--trace PATH] [--json PATH] [--metrics PATH]
//!            <experiment>... | all | list
//!        repro check [--seeds N] [--prop NAME] [--seed S] [--size K]
//!        repro preprocess [--producers N] [--consumers M] [--batch B]
//!            [--batches K]
//!        repro serve [--addr HOST:PORT] [--workers N] [--queue N]
//!        repro client [--addr HOST:PORT] [--preset P] [--nodes N] [--batch B]
//!            [--microbatch M] [--seed S] [--budget K] [--deadline-ms D]
//!            [--remaining G] [--iters I] [--retries R] [--backoff-ms B]
//!            [--jitter-seed J] [--trace PATH]
//!            (ping | metrics | flight | shutdown | plan | replan | simulate)
//!        repro <subcommand> --help
//! ```
//!
//! One parser serves every subcommand. Flags may appear anywhere (before
//! or after experiment names). An unknown flag, a flag missing its value,
//! an unparsable value and a stray argument are errors (exit code 2), as
//! are an empty experiment list and any unknown experiment name — a
//! misspelled or missing name never silently degrades a regeneration run.
//! `--help`/`-h` prints the usage on stdout and exits 0. `--trace`
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
//! `repro serve --workers N` caps the requests executing at once (default
//! 2, each on its session thread), `--queue N` the requests waiting for
//! one of those slots (default 16).
//!
//! Build with `--release`: the production-scale simulations (fig13/fig14)
//! and the real preprocessing measurements (fig17) are CPU-heavy.

use dt_bench::experiments::{self, Experiment};
use dt_bench::{metricsbench, tracebench};
use dt_serve::{RetryPolicy, ServeConfig, SpecDesc};
use dt_simengine::Json;
use std::net::SocketAddr;

/// Parses one flag value into a subcommand's options.
type Setter<O> = fn(&mut O, &str) -> Result<(), String>;

/// A `(flag, metavar, setter)` row whose setter parses the value with
/// `FromStr` (a `String` never fails) and stores it in the options field
/// `field`, through `wrap` if given.
macro_rules! flag {
    ($flag:literal, $metavar:literal, $($field:ident).+ $(, $wrap:expr)?) => {
        ($flag, $metavar, |o, v| {
            v.parse().map(|x| o.$($field).+ = $($wrap)?(x)).map_err(|e| format!("{e}"))
        })
    };
}

/// A subcommand: its `(flag, metavar, setter)` rows, the positional
/// arguments it takes, and the body that runs on the parsed options and
/// returns the exit code. A `PATH` metavar marks an output path.
struct Cmd<O: 'static> {
    name: &'static str,
    init: fn() -> O,
    flags: &'static [(&'static str, &'static str, Setter<O>)],
    operands: Option<(&'static str, Setter<O>)>,
    run: fn(O) -> i32,
}

/// A [`Cmd`] with its options type erased, so one table holds them all.
trait Sub {
    fn name(&self) -> &'static str;
    fn synopsis(&self) -> String;
    fn main(&self, args: &[String]) -> i32;
}

/// Every subcommand; the first, with no name, runs experiments.
const SUBS: [&dyn Sub; 5] = [&EXPERIMENTS, &CHECK, &PREPROCESS, &SERVE, &CLIENT];

impl<O: 'static> Sub for Cmd<O> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// `repro [name] [flag metavar]... [operands]`, wrapped to fit 80
    /// columns under the 7-column `usage: ` prefix.
    fn synopsis(&self) -> String {
        let flags = self.flags.iter().map(|(f, m, _)| format!("[{f} {m}]"));
        let operands = self.operands.map(|(text, _)| text.to_string());
        let start = format!("repro {}", self.name).trim_end().to_string();
        flags.chain(operands).fold(start, |text, word| {
            let width = 7 + text.rsplit('\n').next().map_or(0, str::len);
            let gap = if width + 1 + word.len() > 80 {
                "\n    "
            } else {
                " "
            };
            text + gap + &word
        })
    }

    /// Parse `args` against the flag rows, then run on the options.
    fn main(&self, args: &[String]) -> i32 {
        let mut opts = (self.init)();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let parsed = match (self.flags.iter().find(|f| f.0 == arg), self.operands) {
                (Some((flag, metavar, set)), _) => match args.next() {
                    Some(v) => {
                        set(&mut opts, v).map_err(|e| format!("bad value '{v}' for {flag}: {e}"))
                    }
                    None if *metavar == "PATH" => Err(format!("{flag} requires an output path")),
                    None => Err(format!("{flag} requires a value")),
                },
                _ if arg == "--help" || arg == "-h" => {
                    println!("{}", usage(self.name));
                    return 0;
                }
                _ if arg.starts_with('-') => Err(format!("unknown flag '{arg}'")),
                (None, Some((_, set))) => set(&mut opts, arg),
                (None, None) => Err(format!("unexpected argument '{arg}'")),
            };
            parsed.unwrap_or_else(|e| misuse(self.name, e));
        }
        (self.run)(opts)
    }
}

/// The usage text of the named subcommand; the experiment path's (named
/// `""`) covers every subcommand and lists the experiments.
fn usage(name: &str) -> String {
    let subs = SUBS.iter().filter(|s| name.is_empty() || s.name() == name);
    let mut lines: Vec<String> = subs.map(|s| s.synopsis()).collect();
    if !name.is_empty() {
        return format!("usage: {}", lines[0].replace('\n', "\n       "));
    }
    lines.push("repro <subcommand> --help".into());
    let list: String = experiments::all()
        .iter()
        .map(|(name, _)| format!("\n  {name}"))
        .collect();
    let lines = lines.join("\n").replace('\n', "\n       ");
    format!("usage: {lines}\nexperiments:{list}")
}

/// Print `error: {msg}` and exit with `code`: 2 for a bad command line,
/// 1 for a run that failed.
fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code)
}

/// A bad command line: `msg` and the named subcommand's usage, exit 2.
fn misuse(name: &str, msg: impl std::fmt::Display) -> ! {
    fail(2, format!("{msg}\n{}", usage(name)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    let code = match SUBS[1..].iter().find(|s| Some(s.name()) == first) {
        Some(sub) => sub.main(&args[1..]),
        None => SUBS[0].main(&args),
    };
    std::process::exit(code)
}

#[derive(Default)]
struct ExperimentArgs {
    names: Vec<String>,
    trace: Option<String>,
    json: Option<String>,
    metrics: Option<String>,
}

const EXPERIMENTS: Cmd<ExperimentArgs> = Cmd {
    name: "",
    init: ExperimentArgs::default,
    flags: &[
        flag!("--trace", "PATH", trace, Some),
        flag!("--json", "PATH", json, Some),
        flag!("--metrics", "PATH", metrics, Some),
    ],
    operands: Some(("<experiment>... | all | list", |o, v| {
        o.names.push(v.into());
        Ok(())
    })),
    run: run_experiments,
};

fn run_experiments(o: ExperimentArgs) -> i32 {
    if o.names.iter().any(|n| n == "list") {
        println!("{}", usage(""));
        return 0;
    }
    if o.names.is_empty() {
        misuse("", "no experiment given");
    }
    let all = experiments::all();
    let find = |name: &String| all.iter().find(|(n, _)| n == name);
    // Validate every name up front: a misspelling anywhere (even next to
    // `all`) must fail loudly rather than be silently skipped.
    if let Some(name) = o.names.iter().find(|n| *n != "all" && find(n).is_none()) {
        fail(2, format!("unknown experiment '{name}' (try `repro list`)"));
    }
    let selected: Vec<&Experiment> = if o.names.iter().any(|a| a == "all") {
        all.iter().collect()
    } else {
        o.names.iter().filter_map(find).collect()
    };

    // `--trace` traces the elastic run itself when `elastic` is selected;
    // otherwise it runs the default traced observability demo up front.
    let elastic_traced = selected.iter().any(|(name, _)| *name == "elastic");
    if let Some(path) = o.trace.as_ref().filter(|_| !elastic_traced) {
        run_traced(path);
    }
    if let Some(path) = &o.metrics {
        run_metered(path);
    }

    let mut archived: Vec<(String, dt_bench::Report)> = Vec::new();
    for (name, runner) in selected {
        let started = std::time::Instant::now();
        let report = match (*name, o.trace.as_ref()) {
            ("elastic", Some(path)) => experiments::elastic::run_traced(path),
            _ => runner(),
        };
        println!("{}", report.render());
        println!(
            "   [{name} regenerated in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if o.json.is_some() {
            archived.push((name.to_string(), report));
        }
    }

    if let Some(path) = &o.json {
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
        std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| fail(1, format!("cannot write JSON to '{path}': {e}")));
        println!("   [archived {} report(s) into {path}]\n", archived.len());
    }
    0
}

fn run_traced(path: &str) {
    let started = std::time::Instant::now();
    let run = tracebench::default_traced_run();
    run.recorder
        .write_chrome_trace(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(1, format!("cannot write trace to '{path}': {e}")));
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
    std::fs::write(path, snap.to_prometheus_text())
        .unwrap_or_else(|e| fail(1, format!("cannot write metrics to '{path}': {e}")));
    let archive = format!("{path}.json");
    std::fs::write(&archive, format!("{}\n", snap.to_json())).unwrap_or_else(|e| {
        fail(
            1,
            format!("cannot write metrics archive to '{archive}': {e}"),
        )
    });
    println!("{}", metricsbench::metrics_summary(&snap).render());
    println!(
        "   [metered {} metric series into {path} (+ {archive}) in {:.1}s]\n",
        snap.entries.len(),
        started.elapsed().as_secs_f64()
    );
}

#[derive(Default)]
struct CheckArgs {
    seeds: Option<u32>,
    prop: Option<String>,
    seed: Option<u64>,
    size: Option<usize>,
}

const CHECK: Cmd<CheckArgs> = Cmd {
    name: "check",
    init: CheckArgs::default,
    flags: &[
        flag!("--seeds", "N", seeds, Some),
        flag!("--prop", "NAME", prop, Some),
        flag!("--seed", "S", seed, Some),
        flag!("--size", "K", size, Some),
    ],
    operands: None,
    run: run_check,
};

/// Run the dt-check oracle suite, or replay one exact case.
fn run_check(o: CheckArgs) -> i32 {
    let mut props = dt_check::registry();
    if let Some(name) = &o.prop {
        props.retain(|p| p.name == name.as_str());
        if props.is_empty() {
            let mut known = String::new();
            for p in dt_check::registry() {
                known += &format!("\n  {:44}  {}", p.name, p.about);
            }
            fail(
                2,
                format!("unknown property '{name}'; registered properties:{known}"),
            );
        }
    }

    // Replay mode: one fully-determined case, exactly as a reproducer
    // line prints it.
    if o.seed.is_some() || o.size.is_some() {
        let (Some(seed), Some(size), Some(name)) = (o.seed, o.size, &o.prop) else {
            fail(2, "replay mode needs all of --prop, --seed, and --size");
        };
        let verdict = dt_check::run_case(&props[0], seed, size);
        match &verdict {
            Ok(()) => println!("{name}: ok at seed {seed} size {size}"),
            Err(f) => println!("{name}: FAILED at seed {seed} size {size}: {}", f.message),
        }
        return i32::from(verdict.is_err());
    }

    let report = dt_check::run_suite(&props, o.seeds.unwrap_or(100));
    print!("{}", report.render());
    i32::from(report.failed())
}

const SERVE: Cmd<ServeConfig> = Cmd {
    name: "serve",
    init: ServeConfig::default,
    flags: &[
        flag!("--addr", "HOST:PORT", addr),
        flag!("--workers", "N", workers),
        flag!("--queue", "N", queue_depth),
    ],
    operands: None,
    run: run_serve,
};

/// Run the planner daemon until a wire shutdown request (or the process
/// is killed).
fn run_serve(mut cfg: ServeConfig) -> i32 {
    // The CLI daemon runs with live observability on: wall-clock spans
    // behind `GET /trace` (unix timebase, mergeable with a traced
    // client's spans) and the black-box flight recorder behind
    // `GET /flight`. The library default keeps both disabled.
    cfg.trace = dt_simengine::WallTraceSink::new();
    cfg.flight = dt_telemetry::FlightLog::new();
    let mut daemon = dt_serve::ServeHandle::spawn(cfg)
        .unwrap_or_else(|e| fail(1, format!("cannot start daemon: {e}")));
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
    0
}

struct ClientArgs {
    addr: Option<SocketAddr>,
    verb: Option<String>,
    spec: SpecDesc,
    budget: u32,
    deadline_ms: u64,
    remaining: u32,
    iters: u32,
    policy: RetryPolicy,
    trace: Option<String>,
}

const CLIENT: Cmd<ClientArgs> = Cmd {
    name: "client",
    init: || ClientArgs {
        addr: None,
        verb: None,
        spec: SpecDesc::ablation("mllm-9b", 128),
        budget: 4,
        deadline_ms: 0,
        remaining: 0,
        iters: 1,
        policy: RetryPolicy::default(),
        trace: None,
    },
    flags: &[
        flag!("--addr", "HOST:PORT", addr, Some),
        flag!("--preset", "P", spec.preset),
        flag!("--nodes", "N", spec.nodes),
        flag!("--batch", "B", spec.global_batch),
        flag!("--microbatch", "M", spec.microbatch),
        flag!("--seed", "S", spec.seed),
        flag!("--budget", "K", budget),
        flag!("--deadline-ms", "D", deadline_ms),
        flag!("--remaining", "G", remaining),
        flag!("--iters", "I", iters),
        flag!("--retries", "R", policy.max_attempts),
        flag!(
            "--backoff-ms",
            "B",
            policy.base,
            std::time::Duration::from_millis
        ),
        flag!("--jitter-seed", "J", policy.seed),
        flag!("--trace", "PATH", trace, Some),
    ],
    operands: Some((
        "(ping | metrics | flight | shutdown | plan | replan | simulate)",
        |o, v| match o.verb.replace(v.into()) {
            None => Ok(()),
            Some(_) => Err("more than one verb".into()),
        },
    )),
    run: run_client,
};

/// One daemon exchange.
fn run_client(o: ClientArgs) -> i32 {
    use dt_serve::{Client, ServeReply, ServeRequest};
    let (Some(addr), Some(verb)) = (o.addr, o.verb) else {
        misuse("client", "client needs --addr and a verb");
    };
    let scraped = |body: std::io::Result<String>| {
        body.unwrap_or_else(|e| fail(1, format!("{verb} scrape failed: {e}")))
    };
    let (spec, budget, deadline_ms) = (o.spec, o.budget, o.deadline_ms);
    let req = match verb.as_str() {
        "metrics" => {
            print!("{}", scraped(dt_serve::fetch_metrics(addr)));
            return 0;
        }
        "flight" => {
            println!("{}", scraped(dt_serve::fetch_flight(addr)));
            return 0;
        }
        "ping" => ServeRequest::Ping,
        "shutdown" => ServeRequest::Shutdown,
        "plan" => ServeRequest::Plan {
            spec,
            budget,
            deadline_ms,
        },
        "replan" if o.remaining == 0 => misuse("client", "replan needs --remaining GPUS"),
        "replan" => ServeRequest::Replan {
            spec,
            remaining_gpus: o.remaining,
            budget,
            deadline_ms,
        },
        "simulate" => ServeRequest::Simulate {
            spec,
            iterations: o.iters,
            deadline_ms,
        },
        other => misuse("client", format!("unknown verb '{other}'")),
    };
    let mut client = Client::with_policy(addr, o.policy);
    if o.trace.is_some() {
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
        Ok(ServeReply::Err(e)) => fail(1, format!("daemon answered: {e}")),
        Err(e) => fail(1, e),
    }
    if let Some(path) = o.trace {
        assemble_trace(addr, &client, &path);
    }
    0
}

/// Merge the daemon's `/trace` export (unix timebase) with the client's
/// own spans into one cross-process Chrome trace, write it to `path`,
/// and print a one-line summary (span count, process tracks, distinct
/// trace ids) that scripts can assert on.
fn assemble_trace(addr: SocketAddr, client: &dt_serve::Client, path: &str) {
    use dt_simengine::trace::{arg, TraceRecorder};
    let remote = dt_serve::fetch_trace(addr)
        .unwrap_or_else(|e| fail(1, format!("trace scrape failed: {e}")));
    let mut merged = TraceRecorder::from_chrome_json(&remote)
        .unwrap_or_else(|e| fail(1, format!("cannot parse daemon trace: {e}")));
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
    merged
        .write_chrome_trace(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(1, format!("cannot write trace to '{path}': {e}")));
    println!(
        "assembled trace: {} traced spans across {} process tracks, {} trace id(s) -> {path}",
        traced.len(),
        tracks.len(),
        ids.len()
    );
}

struct PreprocessArgs {
    producers: usize,
    consumers: std::num::NonZeroUsize,
    batch: u32,
    batches: u32,
}

const PREPROCESS: Cmd<PreprocessArgs> = Cmd {
    name: "preprocess",
    init: || PreprocessArgs {
        producers: 2,
        consumers: std::num::NonZeroUsize::new(2).expect("2 is nonzero"),
        batch: 4,
        batches: 4,
    },
    flags: &[
        flag!("--producers", "N", producers),
        flag!("--consumers", "M", consumers),
        flag!("--batch", "B", batch),
        flag!("--batches", "K", batches),
    ],
    operands: None,
    run: run_preprocess,
};

/// Smoke the §6 preprocessing data plane: a live N-endpoint `Preprocess`
/// plane, M fan-in `MultiFeeder` consumers over real TCP, per-producer
/// in-order verification, and a clean-shutdown check. Exits non-zero if
/// any batch is lost, any stream arrives out of order, or the plane
/// fails to shut down cleanly.
fn run_preprocess(o: PreprocessArgs) -> i32 {
    use dt_preprocess::{Consumer, Preprocess};
    let (producers, consumers, batches) = (o.producers, o.consumers, o.batches);

    let data = dt_data::DataConfig {
        resolution: dt_data::ResolutionMode::Fixed(64),
        ..dt_data::DataConfig::evaluation(64)
    };
    let mut plane = Preprocess::builder(data, 23)
        .producers(producers)
        .workers(2)
        .spawn()
        .unwrap_or_else(|e| fail(1, format!("cannot spawn the preprocessing plane: {e}")));
    let addrs = plane.addrs().to_vec();
    println!("preprocess plane: {producers} producer endpoint(s), {consumers} consumer(s)");
    for (idx, addr) in addrs.iter().enumerate() {
        println!("  endpoint {idx} listening on {addr}");
    }

    let handles: Vec<_> = (0..consumers.get())
        .map(|c| {
            let addrs = addrs.clone();
            std::thread::spawn(move || -> Result<(u64, u64, bool, u64), String> {
                let feeder = Consumer::builder(&addrs)
                    .batch(o.batch)
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
    i32::from(failed || !clean)
}
