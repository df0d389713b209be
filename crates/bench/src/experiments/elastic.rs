//! Elastic training sweep — MTBF × checkpoint policy × spare pool, plus a
//! blast-radius axis with the healer on/off (§3, §6).
//!
//! The paper's fault story (automatic recovery from the latest checkpoint,
//! week-long runs where failures are routine) quantified: the 9B ablation
//! task runs under seeded node-failure streams while the sweep varies the
//! per-node MTBF (benign vs harsh), the checkpoint policy (fixed cadence
//! vs the Young–Daly optimum), and the hot-spare pool (0 vs 1). Each cell
//! reports goodput (committed compute over wall clock), survived failures
//! and shrinks, and the MFU delta between the final and the pre-failure
//! plan epoch — the cost of running re-orchestrated on a smaller cluster.
//!
//! The second section holds the per-domain event rate fixed and sweeps the
//! **blast radius** (nodes per correlated failure domain — the expected
//! node-loss rate is constant, only the clustering varies) crossed with
//! the watcher→healer loop on/off. Spares are slow replacements
//! (`spare_slowdown`), so the healer has both of its plays available:
//! preemptive checkpoints ahead of precursor stall bursts, and proactive
//! replans that evict slow spares.

use crate::report::{fmt_pct, Report};
use dt_elastic::{
    run_elastic_instrumented, run_elastic_with, CheckpointPolicy, ElasticPlan, FailureTopology,
    HealerConfig,
};
use dt_model::MllmPreset;
use dt_simengine::{SimDuration, TraceRecorder};
use dt_telemetry::{names, Telemetry};

use super::ablation_task;
use disttrain_core::SystemKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Iterations per sweep cell: long enough for multi-failure timelines at
/// the harsh MTBF, short enough to keep the sweep interactive.
const CELL_ITERS: u32 = 10;

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn cell_plan(mtbf: f64, policy: CheckpointPolicy, spares: u32) -> ElasticPlan {
    ElasticPlan {
        node_mtbf: secs(mtbf),
        failure_seed: 5,
        spare_nodes: spares,
        checkpoint: policy,
        checkpoint_cost: secs(1.0),
        restart_overhead: secs(5.0),
        reshard_cost: secs(3.0),
        topology: None,
        healer: None,
        precursor_window: SimDuration::ZERO,
        precursor_stall: SimDuration::ZERO,
        spare_slowdown: 1.0,
    }
}

/// Iterations per blast-radius cell: long enough for a slow-spare
/// eviction (a one-time reshard) to amortize within the run.
const BLAST_ITERS: u32 = 12;

/// One blast-radius cell: independent node failures are background noise;
/// correlated domain events carry the damage. The per-domain MTBF scales
/// with the domain count so the *system-level* event rate is the same in
/// every cell — what varies with the radius is how many nodes one event
/// takes out at once. Spares are slow replacements (2× pace), so the
/// healer's eviction play has something to win. The seed is per-radius,
/// picked so every cell's timeline actually contains a correlated event
/// within the run window (most seeds either put the first event beyond
/// it, or kill every slot before the run can finish).
fn blast_plan(radius: u32, healer_on: bool) -> ElasticPlan {
    let mut plan = cell_plan(2_000.0, CheckpointPolicy::YoungDaly, 2);
    plan.failure_seed = match radius {
        1 => 12,
        2 => 4,
        _ => 14,
    };
    let domains = 12u32.div_ceil(radius);
    plan.topology = Some(FailureTopology::new(
        radius,
        secs(30.0 * f64::from(domains)),
    ));
    plan.healer = healer_on.then(HealerConfig::default);
    plan.spare_slowdown = 2.0;
    plan
}

/// A fresh checkpoint directory. The sequence number keeps concurrent
/// sweeps in one process (parallel tests) out of each other's cells.
fn tempdir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dt-elastic-sweep-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp checkpoint dir");
    dir
}

/// Run the 2×2×2 sweep plus the blast-radius × healer section.
pub fn run() -> Report {
    let task = ablation_task(MllmPreset::Mllm9B);
    let initial = task.plan(SystemKind::DistTrain).expect("9B ablation plans");

    let mut r = Report::new(
        "Elastic training — goodput under MTBF × policy × spares × blast radius",
        &[
            "mtbf", "policy", "spares", "radius", "healer", "failures", "shrinks", "ckpt-int",
            "goodput", "mfu", "Δmfu", "replan", "actions",
        ],
    );
    r.note("9B ablation task, 12 nodes, seeded failure stream (§3/§6).");
    r.note("goodput = committed compute / wall clock; Δmfu = final epoch vs");
    r.note("pre-failure plan (0 when the cluster never shrank).");
    r.note("replan = host time of the warm-started §4 search plus one simulated");
    r.note("trial iteration per candidate, summed over all shrinks.");
    r.note("radius = nodes per correlated failure domain at a fixed per-domain");
    r.note("event rate; healer = anomaly-driven preemptive checkpoint + slow-");
    r.note("spare eviction; actions = healer actions taken.");

    for &mtbf in &[2000.0, 250.0] {
        for policy in [CheckpointPolicy::Fixed(2), CheckpointPolicy::YoungDaly] {
            for spares in [1u32, 0] {
                let plan = cell_plan(mtbf, policy, spares);
                let dir = tempdir(&format!("{mtbf}-{policy}-{spares}"));
                let out = run_elastic_with(
                    &task,
                    CELL_ITERS,
                    &plan,
                    initial,
                    &dir,
                    &mut TraceRecorder::disabled(),
                )
                .expect("elastic run");
                let _ = std::fs::remove_dir_all(&dir);
                out.goodput.validate().expect("exact goodput accounting");
                let mfus = out.epoch_mfus();
                let delta =
                    mfus.last().copied().unwrap_or(0.0) - mfus.first().copied().unwrap_or(0.0);
                r.row(vec![
                    format!("{mtbf:.0}s"),
                    policy.to_string(),
                    format!("{spares}"),
                    "-".to_string(),
                    "off".to_string(),
                    format!("{}", out.goodput.failures),
                    format!("{}", out.goodput.shrinks),
                    format!("{}", out.epochs[0].checkpoint_interval),
                    fmt_pct(out.goodput.goodput()),
                    fmt_pct(out.report.mfu()),
                    format!("{:+.1}pp", delta * 100.0),
                    if out.goodput.shrinks == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.0}ms", out.replan_search.as_secs_f64() * 1e3)
                    },
                    "-".to_string(),
                ]);
            }
        }
    }

    // Blast-radius section: correlated domain events + slow spares, the
    // healer's action counter collected through real telemetry.
    let tel = Telemetry::enabled();
    for radius in [1u32, 2, 4] {
        for healer_on in [false, true] {
            let plan = blast_plan(radius, healer_on);
            let dir = tempdir(&format!("blast-{radius}-{healer_on}"));
            let out = run_elastic_instrumented(
                &task,
                BLAST_ITERS,
                &plan,
                initial,
                &dir,
                &mut TraceRecorder::disabled(),
                &tel,
                &dt_telemetry::FlightLog::disabled(),
            )
            .expect("elastic blast run");
            let _ = std::fs::remove_dir_all(&dir);
            out.goodput.validate().expect("exact goodput accounting");
            let mfus = out.epoch_mfus();
            let delta = mfus.last().copied().unwrap_or(0.0) - mfus.first().copied().unwrap_or(0.0);
            r.row(vec![
                "2000s".to_string(),
                "young-daly".to_string(),
                "2".to_string(),
                format!("{radius}"),
                if healer_on { "on" } else { "off" }.to_string(),
                format!("{}", out.goodput.failures),
                format!("{}", out.goodput.shrinks),
                format!("{}", out.epochs[0].checkpoint_interval),
                fmt_pct(out.goodput.goodput()),
                fmt_pct(out.report.mfu()),
                format!("{:+.1}pp", delta * 100.0),
                if out.goodput.shrinks == 0 {
                    "-".to_string()
                } else {
                    format!("{:.0}ms", out.replan_search.as_secs_f64() * 1e3)
                },
                if healer_on {
                    format!("{}", out.healer_actions.len())
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    let snap = tel.snapshot();
    let actions: u64 = ["preemptive-checkpoint", "proactive-replan"]
        .iter()
        .filter_map(|a| snap.counter_value(names::HEALER_ACTIONS_TOTAL, &[("action", a)]))
        .sum();
    r.note(format!(
        "dt_healer_actions_total = {actions} across the healer-on cells."
    ));
    r.note("goodput identity validated on every cell (committed + lost +");
    r.note("checkpoint + restart + reshard = wall clock, exactly).");
    r
}

/// One harsh traced cell: run the multi-failure scenario with span
/// recording and write the Chrome trace to `path` (for
/// `repro elastic --trace out.json`).
pub fn run_traced(path: &str) -> Report {
    let task = ablation_task(MllmPreset::Mllm9B);
    let initial = task.plan(SystemKind::DistTrain).expect("9B ablation plans");
    let plan = cell_plan(250.0, CheckpointPolicy::Fixed(2), 1);
    let dir = tempdir("traced");
    let mut rec = TraceRecorder::enabled();
    let out =
        run_elastic_with(&task, CELL_ITERS, &plan, initial, &dir, &mut rec).expect("elastic run");
    let _ = std::fs::remove_dir_all(&dir);
    rec.validate_nesting().expect("elastic spans nest cleanly");
    if let Err(e) = rec.write_chrome_trace(std::path::Path::new(path)) {
        eprintln!("error: cannot write trace to '{path}': {e}");
        std::process::exit(1);
    }

    let mut r = Report::new(
        "Elastic training — traced multi-failure run",
        &["iterations", "failures", "shrinks", "goodput", "spans"],
    );
    r.note(format!(
        "Chrome trace written to {path} (failure / recovery / reorch"
    ));
    r.note("spans on tid 2, checkpoints on tid 1 of the trainer process).");
    r.row(vec![
        format!("{}", out.report.iterations.len()),
        format!("{}", out.goodput.failures),
        format!("{}", out.goodput.shrinks),
        fmt_pct(out.goodput.goodput()),
        format!("{}", rec.len()),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn sweep_shows_the_elastic_tradeoffs() {
        let r = run();
        assert_eq!(r.rows.len(), 14);
        let failures: Vec<u32> = r.rows.iter().map(|row| row[5].parse().unwrap()).collect();
        let shrinks: Vec<u32> = r.rows.iter().map(|row| row[6].parse().unwrap()).collect();
        // The harsh half of the classic sweep (rows 4..8) must actually fail.
        assert!(
            failures[4..8].iter().all(|&f| f > 0),
            "harsh cells must see failures"
        );
        // Zero-spare harsh cells must shrink; the benign cells never do.
        assert!(
            shrinks[4..8].iter().any(|&s| s > 0),
            "spares exhaust under harsh MTBF"
        );
        assert!(
            shrinks[..2].iter().all(|&s| s == 0),
            "benign cells keep all nodes"
        );
        // Goodput is a valid percentage everywhere, and every shrink cell
        // reports the real solver time its re-orchestration cost.
        for row in &r.rows {
            let g = pct(&row[8]);
            assert!((0.0..=100.0).contains(&g));
            let shrinks: u32 = row[6].parse().unwrap();
            if shrinks > 0 {
                assert!(
                    row[11].ends_with("ms"),
                    "shrink cells time the re-plan: {:?}",
                    row[11]
                );
            } else {
                assert_eq!(row[11], "-");
            }
        }
    }

    #[test]
    fn blast_radius_cells_pair_off_and_healer_never_hurts() {
        let r = run();
        // Rows 8..14: (radius, healer) = (1,off),(1,on),(2,off),(2,on),(4,off),(4,on).
        let blast = &r.rows[8..14];
        for pair in blast.chunks(2) {
            let (off, on) = (&pair[0], &pair[1]);
            assert_eq!(off[3], on[3], "paired rows share a radius");
            assert_eq!((off[4].as_str(), on[4].as_str()), ("off", "on"));
            // Correlated events must actually land in every blast cell.
            assert!(
                off[5].parse::<u32>().unwrap() > 0,
                "blast cell saw no failures"
            );
            let radius: u32 = off[3].parse().unwrap();
            if radius > 1 {
                assert!(
                    pct(&on[8]) >= pct(&off[8]),
                    "healer-on goodput must not lose at radius {radius}: {} vs {}",
                    on[8],
                    off[8]
                );
            }
        }
        // The healer-on cells take at least one action in total, and the
        // notes surface the telemetry counter + goodput identity for the
        // verify.sh gate to grep.
        let total: u32 = blast
            .iter()
            .filter(|row| row[4] == "on")
            .map(|row| row[12].parse::<u32>().unwrap())
            .sum();
        assert!(total > 0, "healer-on cells must act");
        assert!(r
            .commentary
            .iter()
            .any(|n| n.contains("dt_healer_actions_total = ") && !n.contains("= 0 ")));
        assert!(r
            .commentary
            .iter()
            .any(|n| n.contains("goodput identity validated")));
    }
}
