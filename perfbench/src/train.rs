//! `train-1296`: the paper's headline shape. MLLM-72B on 1296 GPUs,
//! batch 1920, DistTrain with full reordering. One op is one simulated
//! iteration: `SyntheticLaion::take` → `ReorderPlanner::reorder` →
//! `Runtime::simulate_iteration`; set-up is the section 4 plan
//! (`TrainingTask::plan`, Table 3's number).

use crate::measure::{mean, ms, HostSpeed, Phase};
use crate::{Budget, Outcome, Params, Steady};
use disttrain_core::{IterationReport, Runtime, SystemKind, TrainingReport, TrainingTask};
use dt_cluster::CollectiveCost;
use dt_data::{GlobalBatch, SyntheticLaion};
use dt_model::MllmPreset;
use dt_orchestrator::baselines::distmm_star_plan;
use dt_orchestrator::{Orchestrator, Profiler};
use dt_parallel::OrchestrationPlan;
use dt_pipeline::{simulate, PipelineSpec};
use dt_simengine::DetRng;
use std::time::{Duration, Instant};

/// Leading iterations re-run through `Runtime::run` and compared bit for
/// bit with the stepped loop.
const CHECKED_ITERATIONS: u32 = 16;

/// Active time between host-speed probes. The iteration runs on one
/// thread, so the probes run on that thread too, between ops and outside
/// the measured phase.
const PROBE_EVERY: Duration = Duration::from_millis(200);

fn task(seed: u64) -> TrainingTask {
    TrainingTask {
        seed,
        ..TrainingTask::production(MllmPreset::Mllm72B.build())
    }
}

/// Bit-exact identity of a report (`Debug` prints every float in its
/// shortest round-trip form).
fn fingerprint(r: &IterationReport) -> String {
    format!("{r:?}")
}

/// Per-op layer times of a traced iteration, in ms.
struct OpSpans {
    take: f64,
    reorder: f64,
    iteration: f64,
    workload: f64,
    pipeline: f64,
    op: f64,
}

pub fn run(p: &Params, tail_pct: f64) -> Outcome {
    let task = task(p.seed);
    // Each plan is timed with its midpoint, where the host's speed is read.
    let plan_timed = || {
        let t = Instant::now();
        let plan = task
            .plan(SystemKind::DistTrain)
            .expect("the production task always has a plan");
        let took = t.elapsed();
        (plan, (t + took / 2, took.as_secs_f64()))
    };
    let mut speed = HostSpeed::default();
    for _ in 0..3 {
        speed.sample(0);
    }
    let (plan, first_setup) = plan_timed();
    let mut setups_s = vec![first_setup];
    let mut failed = 0u64;
    let cfg = task.runtime_config(SystemKind::DistTrain, CHECKED_ITERATIONS);
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg,
    };
    let coll = CollectiveCost::new(task.cluster.clone());
    let perf = runtime.perf_model(&coll);
    let planner = runtime.planner_for(&perf);
    let mut gen = SyntheticLaion::new(task.data.clone(), runtime.cfg.seed);
    let global_batch = runtime.cfg.global_batch as usize;

    let mut reports: Vec<IterationReport> = Vec::new();
    // Untraced op times (every op of an untraced run).
    let mut latencies_ms = Vec::new();
    let mut spans: Vec<OpSpans> = Vec::new();
    let mut phase = Phase::start();
    let mut probed = Duration::ZERO;
    loop {
        if phase.active() >= probed + PROBE_EVERY {
            phase.pause(|| speed.sample(0));
            probed = phase.active();
        }
        // The remaining set-ups are spread over the run, so their median
        // sees the same host speed phases as the ops. Planning is
        // deterministic: every repeat must choose the same plan.
        if setups_s.len() < p.setups
            && phase.active() >= p.seconds * setups_s.len() as u32 / p.setups as u32
        {
            let (again, setup) = phase.pause(plan_timed);
            setups_s.push(setup);
            failed += u64::from(again != plan);
        }
        // In a traced run every second op is traced, so drift in host
        // speed hits traced and untraced ops alike.
        let traced = p.trace && reports.len() % 2 == 1;
        let t0 = Instant::now();
        let samples = gen.take(global_batch);
        let t1 = Instant::now();
        let samples = planner.reorder(samples);
        let t2 = Instant::now();
        let batch = GlobalBatch::new(samples);
        let t3 = Instant::now();
        let report = runtime.simulate_iteration(&perf, &batch);
        let t4 = Instant::now();
        reports.push(report);
        let op = ms(t4 - t0);
        if !traced {
            latencies_ms.push((t4, op));
        } else {
            // Split the iteration from outside: repeat its per-rank
            // workload build and 1F1B simulation after the op's window.
            let (workload, pipeline) = iteration_parts(&runtime, &perf, &coll, &batch);
            spans.push(OpSpans {
                take: ms(t1 - t0),
                reorder: ms(t2 - t1),
                iteration: ms(t4 - t3),
                workload,
                pipeline,
                op,
            });
        }
        if phase.active() >= p.seconds {
            break;
        }
    }
    let measured = phase.stop();
    for _ in 0..3 {
        speed.sample(0);
    }

    // Output checks: the stepped loop reproduces `Runtime::run` bit for
    // bit, and every iteration trained the whole batch.
    let checked = reports.len().min(CHECKED_ITERATIONS as usize);
    let mut reference_cfg = runtime.cfg.clone();
    reference_cfg.iterations = checked as u32;
    let reference = Runtime {
        cfg: reference_cfg,
        data: task.data.clone(),
        plan,
        ..runtime
    }
    .run();
    for (i, r) in reports.iter().enumerate() {
        let matches = i >= checked || fingerprint(r) == fingerprint(&reference.iterations[i]);
        if !matches || r.samples as usize != global_batch || r.iter_time.is_zero() {
            failed += 1;
        }
    }
    let mfu = TrainingReport {
        iterations: reports.clone(),
        peak_flops_per_gpu: reference.peak_flops_per_gpu,
    }
    .mfu();
    if !(0.05..0.70).contains(&mfu) {
        eprintln!("train-1296: simulated MFU {mfu:.4} is not physical");
        failed += 1;
    }
    eprintln!(
        "train-1296: {} iterations, simulated MFU {mfu:.4}, plan {:?}",
        reports.len(),
        plan
    );
    let attempted = (reports.len() + setups_s.len()) as u64;

    if !p.trace {
        let steady = Steady {
            setups_s,
            ops: reports.len() as u64,
            phase: measured,
            latencies_ms,
            speed,
            // One thread iterates: the cores' speed sets the op time.
            cpu_bound: true,
        };
        return Outcome {
            attempted,
            failed,
            metrics: steady.metrics(tail_pct),
            budgets: Vec::new(),
        };
    }

    let avg = |f: fn(&OpSpans) -> f64| mean(&spans.iter().map(f).collect::<Vec<_>>());
    let op = avg(|s| s.op);
    let take = avg(|s| s.take);
    let reorder = avg(|s| s.reorder);
    let workload = avg(|s| s.workload);
    let pipeline = avg(|s| s.pipeline);
    let iteration_self = avg(|s| s.iteration) - workload - pipeline;
    let unattributed = op - take - reorder - workload - pipeline - iteration_self;
    let untraced = mean(&latencies_ms.iter().map(|&(_, l)| l).collect::<Vec<_>>());

    let setup = setup_parts(&task);
    let setup_ms = setup.total;
    let metrics = vec![
        ("train.op_ms", op),
        ("data.take_ms", take),
        ("reorder.ms", reorder),
        ("orchestrator.workload_ms", workload),
        ("pipeline.simulate_ms", pipeline),
        ("core.iteration_ms", iteration_self),
        ("train.unattributed_ms", unattributed),
        ("core.mfu", mfu),
        ("host.probe_ms", speed.median_probe_ms()),
        ("train.setup_ms", setup_ms),
        (
            "train.setup_unattributed_ms",
            setup_ms - setup.profile - setup.search - setup.trials,
        ),
        ("trace.overhead_pct", 100.0 * (op - untraced) / untraced),
        ("orchestrator.profile_ms", setup.profile),
        ("orchestrator.search_ms", setup.search),
        ("core.trials_ms", setup.trials),
        ("orchestrator.candidates_evaluated", setup.candidates as f64),
        ("orchestrator.cache_hits", setup.cache_hits as f64),
        (
            "orchestrator.proven_optimal",
            f64::from(u8::from(setup.proven_optimal)),
        ),
    ];
    let budgets = vec![
        Budget {
            what: "one simulated iteration",
            total: "train.op_ms",
            parts: vec![
                "data.take_ms",
                "reorder.ms",
                "orchestrator.workload_ms",
                "pipeline.simulate_ms",
                "core.iteration_ms",
                "train.unattributed_ms",
            ],
        },
        Budget {
            what: "set-up (the section 4 plan)",
            total: "train.setup_ms",
            parts: vec![
                "orchestrator.profile_ms",
                "orchestrator.search_ms",
                "core.trials_ms",
                "train.setup_unattributed_ms",
            ],
        },
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        budgets,
    }
}

/// The iteration's two inner layers, timed by repeating them: per-rank
/// `Runtime::build_workload_for` (cost-oracle evaluations) and the 1F1B
/// `simulate`, summed over DP ranks, in ms.
fn iteration_parts(
    runtime: &Runtime<'_>,
    perf: &dt_orchestrator::PerfModel<'_>,
    coll: &CollectiveCost,
    batch: &GlobalBatch,
) -> (f64, f64) {
    let per_rank = batch.split(runtime.plan.backbone.dp, runtime.plan.microbatch);
    let spec = PipelineSpec {
        schedule: runtime.cfg.schedule,
        comm: runtime.build_comm_for(coll),
    };
    let (mut workload, mut pipeline) = (Duration::ZERO, Duration::ZERO);
    for rank_mbs in &per_rank {
        let t = Instant::now();
        let w = runtime.build_workload_for(perf, rank_mbs);
        let t1 = Instant::now();
        std::hint::black_box(simulate(&spec, &w));
        pipeline += t1.elapsed();
        workload += t1 - t;
    }
    (ms(workload), ms(pipeline))
}

/// The section 4 plan split into its layers by repeating its public
/// steps once: profiling, the branch-and-bound candidate search, and one
/// simulated trial per candidate. `total` is the whole replay's wall
/// time, so the parts and the residual come from one measurement.
struct SetupParts {
    total: f64,
    profile: f64,
    search: f64,
    trials: f64,
    candidates: usize,
    cache_hits: u64,
    proven_optimal: bool,
}

fn setup_parts(task: &TrainingTask) -> SetupParts {
    let start = Instant::now();
    let spec = task.problem_spec();
    let coll = CollectiveCost::new(task.cluster.clone());
    let perf =
        dt_orchestrator::PerfModel::new(&task.model, &task.cluster.node.gpu, &coll).with_stepccl();
    let t = Instant::now();
    let samples =
        SyntheticLaion::new(task.data.clone(), DetRng::new(task.seed).next_u64()).take(64);
    let profile = Profiler.profile(&perf, &samples);
    let profile_ms = ms(t.elapsed());
    let t = Instant::now();
    let orch = Orchestrator::builder()
        .spec(spec)
        .build()
        .expect("production spec is valid");
    let reports = orch
        .plan_candidates(&task.model, &profile)
        .expect("production task has candidates");
    let search_ms = ms(t.elapsed());
    let first = &reports[0];
    let (candidates, cache_hits, proven_optimal) = (
        first.candidates_evaluated,
        first.cache_hits,
        first.proven_optimal,
    );
    let mut plans: Vec<OrchestrationPlan> = reports.iter().map(|r| r.plan).collect();
    plans.extend(distmm_star_plan(&spec, &task.model, &profile).ok());
    let t = Instant::now();
    for plan in plans {
        std::hint::black_box(
            task.run_with_plan(plan, task.runtime_config(SystemKind::DistTrain, 1)),
        );
    }
    let trials_ms = ms(t.elapsed());
    SetupParts {
        total: ms(start.elapsed()),
        profile: profile_ms,
        search: search_ms,
        trials: trials_ms,
        candidates,
        cache_hits,
        proven_optimal,
    }
}
