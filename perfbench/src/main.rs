//! End-to-end and per-layer benchmark of the DistTrain reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run builds the named workload's inputs from `--seed`, sets the
//! system up (several times where set-up is short, reporting the median),
//! drives a closed loop for `--seconds`, checks every output, and prints
//! one JSON object as its last stdout line. With `--trace 0` it carries
//! the end-to-end metrics; with `--trace 1` it times the public calls into
//! each layer from outside, prints the per-layer metrics, and writes the
//! per-layer budget (layers plus an explicit `unattributed` residual that
//! sum to the measured op time) to `perfbench/out/<workload>.budget.json`.
//! A failed output check prints `"correct": false` and exits 1. See
//! `perfbench/README.md` for the workloads, the layer map and the method.

mod measure;
mod preprocess;
mod serve;
mod train;

use dt_simengine::Json;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Failed operations are reported exactly in the `attempted`/`failed`
/// fields of the result, not as a metric that would read 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A metric of a layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // train-1296: one simulated iteration.
    ("train.op_ms", "ms"),
    ("data.take_ms", "ms"),
    ("reorder.ms", "ms"),
    ("orchestrator.workload_ms", "ms"),
    ("pipeline.simulate_ms", "ms"),
    ("core.iteration_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("core.mfu", "ratio"),
    // train-1296: the section 4 plan (set-up).
    ("train.setup_ms", "ms"),
    ("orchestrator.profile_ms", "ms"),
    ("orchestrator.search_ms", "ms"),
    ("core.trials_ms", "ms"),
    ("train.setup_unattributed_ms", "ms"),
    ("orchestrator.candidates_evaluated", "count"),
    ("orchestrator.cache_hits", "count"),
    ("orchestrator.proven_optimal", "count"),
    // serve-mix: one answered request.
    ("serve.op_ms", "ms"),
    ("serve.daemon_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.ping_us", "us"),
    ("frame.json_roundtrip_us", "us"),
    ("serve.plan_ms", "ms"),
    ("serve.plan_cold_ms", "ms"),
    ("serve.replan_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.daemon_plan_ms", "ms"),
    ("serve.daemon_replan_ms", "ms"),
    ("serve.daemon_simulate_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    // preprocess-fanin: one delivered sample.
    ("preprocess.lane_ms", "ms"),
    ("preprocess.fetch_ms", "ms"),
    ("preprocess.decode_ms", "ms"),
    ("preprocess.feed_ms", "ms"),
    ("preprocess.unattributed_ms", "ms"),
    ("codec.decompress_ms", "ms"),
    ("codec.resize_ms", "ms"),
    ("codec.patchify_ms", "ms"),
    ("frame.batch_write_us", "us"),
    ("frame.batch_read_us", "us"),
    ("preprocess.cpu_util", "cores"),
    ("preprocess.idle_cpu_ms_per_s", "ms/s"),
    ("preprocess.backpressure_events", "count"),
    ("preprocess.sessions_accepted", "count"),
    ("preprocess.reconnects", "count"),
    ("preprocess.malformed_frames", "count"),
    // Every workload: traced minus untraced op time.
    ("trace.overhead_pct", "%"),
    // train-1296 and serve-mix: median host-speed probe of the run.
    ("host.probe_ms", "ms"),
];

/// What one run asks of a workload.
pub struct Params {
    pub seed: u64,
    /// Length of the steady (measured) phase.
    pub seconds: Duration,
    pub trace: bool,
    /// Set-ups per run; the reported `setup_s` is their median.
    pub setups: usize,
}

/// A per-layer budget: `parts` (the last one the `unattributed`
/// residual) sum to `total`.
pub struct Budget {
    pub what: &'static str,
    pub total: &'static str,
    pub parts: Vec<&'static str>,
}

/// What one run of a workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub budgets: Vec<Budget>,
}

impl Outcome {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The steady phase of an untraced run, reduced to the end-to-end metrics.
pub struct Steady {
    /// Set-up times in s, each with the instant it was measured around.
    pub setups_s: Vec<(Instant, f64)>,
    pub ops: u64,
    pub phase: measure::Measured,
    /// Op times in ms, each with the instant it ended.
    pub latencies_ms: Vec<(Instant, f64)>,
    /// Host-speed probes of the run. CPU time is always reported at the
    /// reference host speed.
    pub speed: measure::HostSpeed,
    /// Whether the cores' speed sets the workload's wall-clock times too,
    /// so that they are reported at the reference speed as well. A
    /// workload whose pace is set by waits reports them as measured.
    pub cpu_bound: bool,
}

impl Steady {
    pub fn metrics(&self, tail_pct: f64) -> Vec<(&'static str, f64)> {
        let raw = |v: &[(Instant, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
        let wall = |v: &[(Instant, f64)]| {
            if self.cpu_bound {
                v.iter().map(|&(t, x)| x * self.speed.factor(t)).collect()
            } else {
                raw(v)
            }
        };
        // Time-weighted speed factor of the steady phase: the work its
        // wall and CPU seconds would have taken at the reference speed.
        let phase_factor = self.speed.mean_factor(self.phase.from, self.phase.to);
        let wall_factor = if self.cpu_bound { phase_factor } else { 1.0 };
        let setups = wall(&self.setups_s);
        let mut sorted = wall(&self.latencies_ms);
        let (p50, tail) = measure::latency(&sorted, tail_pct);
        let shown: Vec<String> = setups.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
        eprintln!("set-up ms: {}", shown.join(" "));
        sorted.sort_by(f64::total_cmp);
        let shown: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
            .iter()
            .map(|&q| format!("p{q}={:.4}", measure::percentile(&sorted, q)))
            .collect();
        eprintln!("op ms: {}", shown.join(" "));
        let (raw_p50, raw_tail) = measure::latency(&raw(&self.latencies_ms), tail_pct);
        eprintln!(
            "host speed: probe median {:.4} ms (reference {} ms), steady-phase factor {phase_factor:.4}; \
             as measured: setup_s {:.6}, ops_per_s {:.2}, op_p50_ms {raw_p50:.4}, \
             op_tail_ms {raw_tail:.4}, cpu_ms_per_op {:.4}",
            self.speed.median_probe_ms(),
            measure::PROBE_REF_MS,
            measure::median(&raw(&self.setups_s)),
            self.ops as f64 / self.phase.wall_s,
            self.phase.cpu_s * 1e3 / self.ops.max(1) as f64,
        );
        let ops = self.ops.max(1) as f64;
        vec![
            ("setup_s", measure::median(&setups)),
            ("ops_per_s", ops / (self.phase.wall_s * wall_factor)),
            ("op_p50_ms", p50),
            ("op_tail_ms", tail),
            ("cpu_ms_per_op", self.phase.cpu_s * phase_factor * 1e3 / ops),
            ("peak_rss_mb", self.phase.rss_mb),
        ]
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Percentile behind `op_tail_ms`: the highest with at least ten
    /// samples beyond it in a 30-second run on a 2-core host, with margin
    /// for the host's slow phases; `serve-mix` uses p99, as its p99.9
    /// spread 0.30 from run to run in 20-second runs.
    pub tail_pct: f64,
    /// Set-ups per run (median reported).
    pub setups: usize,
    pub run: fn(&Params, f64) -> Outcome,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train-1296",
        tail_pct: 99.0,
        setups: 5,
        run: train::run,
    },
    Workload {
        name: "serve-mix",
        tail_pct: 99.0,
        setups: 101,
        run: serve::run,
    },
    Workload {
        name: "preprocess-fanin",
        tail_pct: 99.5,
        setups: 101,
        run: preprocess::run_fanin,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Run one workload and reduce it to the result object, with every
/// metric of the requested kind present (per-layer metrics a workload
/// does not measure read 0).
pub fn run_workload(w: &Workload, params: &Params) -> (Outcome, Json) {
    let outcome = (w.run)(params, w.tail_pct);
    let table = if params.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "{}: stray metric {name}",
            w.name
        );
    }
    let metrics: Vec<(&str, Json)> = table
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.value(name);
            assert!(params.trace || v.is_some(), "{}: missing {name}", w.name);
            (
                name,
                Json::obj(vec![
                    ("value", Json::Num(v.unwrap_or(0.0))),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    for b in &outcome.budgets {
        let sum: f64 = b
            .parts
            .iter()
            .map(|p| outcome.value(p).expect("budget part"))
            .sum();
        let total = outcome.value(b.total).expect("budget total");
        assert!(
            (sum - total).abs() <= 1e-9 * total.abs().max(1.0),
            "{} budget does not close",
            b.what
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(outcome.attempted)),
        ("failed", Json::num_u64(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    (outcome, result)
}

/// Print the budget table on stderr and archive it under `perfbench/out`.
fn write_budget(w: &Workload, seed: u64, outcome: &Outcome) {
    let value = |name: &str| outcome.value(name).unwrap_or(0.0);
    let unit = |name: &str| {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |&(_, u)| u)
    };
    let mut budgets = Vec::new();
    for b in &outcome.budgets {
        let total = value(b.total);
        eprintln!(
            "budget of {} ({}): {total:.4} {}",
            b.what,
            b.total,
            unit(b.total)
        );
        let mut parts = Vec::new();
        for &p in &b.parts {
            let v = value(p);
            eprintln!(
                "  {p:<34} {v:>12.4} {:<5} {:>6.1}%",
                unit(p),
                100.0 * v / total
            );
            parts.push((p, Json::Num(v)));
        }
        budgets.push(Json::obj(vec![
            ("what", Json::Str(b.what.into())),
            ("total", Json::Str(b.total.into())),
            ("value", Json::Num(total)),
            ("parts", Json::obj(parts)),
        ]));
    }
    let doc = Json::obj(vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::num_u64(seed)),
        (
            "nproc",
            Json::num_u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("budgets", Json::Arr(budgets)),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|&(n, v)| (n, Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.budget.json", w.name);
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, format!("{doc}\n")))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        setups: args.workload.setups,
    };
    let (outcome, result) = run_workload(args.workload, &params);
    if args.trace {
        write_budget(args.workload, args.seed, &outcome);
    }
    println!("{result}");
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their output checks",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// BENCHMARK.json at the repository root lists exactly the workloads
    /// and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload serve-mix --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed x --seconds 10")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve-mix --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve-mix --seconds 10")).is_err());
    }

    /// A short run of every workload, untraced and traced, passes its
    /// output checks and closes its budgets.
    #[test]
    fn every_workload_smoke_runs_clean() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let params = Params {
                    seed: 7,
                    seconds: Duration::from_millis(300),
                    trace,
                    setups: 1,
                };
                let (outcome, result) = run_workload(w, &params);
                assert_eq!(
                    outcome.failed, 0,
                    "{} (trace {trace}) failed checks: {result}",
                    w.name
                );
                assert!(outcome.attempted > 0, "{}: no operations", w.name);
            }
        }
    }
}
