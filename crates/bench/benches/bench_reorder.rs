//! Reordering-algorithm costs. Algorithm 1 is `O(n log n)` for its sort,
//! then one merge per run of equal sizes, each moving at most `m` groups;
//! Algorithm 2 is `O(l²)` for its best-fit scans plus `O(l·p)` for the
//! incremental `GETINTERVAL` probes (`O(l·p²·vpp²)` with VPP): each probe
//! push replays the 1F1B engine's per-shape firing list, one update per
//! op, with readiness decided once per pipeline shape, and the probe's
//! last push stops at the one op it reads. Both run on the disaggregated
//! CPU nodes, but they must still keep up with iteration rates at
//! production batch sizes: 1920 samples, so `l` = 15 microbatches per
//! rank under the chosen plan (DP 128) and 128 under the deepest
//! candidate (DP 15).
//!
//! Besides the toy shapes, `algorithm1_intra/n1920_dp128` is Algorithm 1
//! at the production shape on all-distinct log-normal sizes, its worst
//! case: one run per sample. `algorithm1_intra/production_n1920_dp128`,
//! `…/production_n1920_dp15` and `…/characterization_n1920_dp128` run it
//! on the multimodal sizes of the production and the skewed §2.3
//! streams' 1920-sample batches (26 and 505 distinct sizes), at the
//! chosen plan's DP width and the deepest candidate's.
//! `stream_new/production` builds the production task's stream, which
//! compiles its draw tables once; `take/n1920` draws that stream's
//! 1920-sample batch and `take/characterization_n1920` the skewed §2.3
//! stream's (a palette draw per image), `cost_rows` prices 1920 samples of the
//! production and of the skewed §2.3 stream (where rows mostly miss), and
//! two cases time the whole producer-side
//! pass, `ReorderPlanner::reorder`, on a 1920-sample MLLM-72B batch with
//! the planners the 1296-GPU production task actually builds: the chosen
//! plan's (shallow, wide DP) and the deepest trial candidate's. Those
//! cases clone the batch inside the timed call (the planner consumes
//! it); `batch_clone` times that clone alone. The `reorder_indices` cases
//! time the permutation alone on rows priced outside the timed call, as
//! the runtime's iterations and plan trials run it. The `runtime_iteration`
//! cases time `Runtime::simulate_iteration` on the reordered batch under
//! each plan, and on the reordered skewed batch under the chosen plan,
//! where almost no rank repeats its predecessor's rows: what the
//! runtime's repeat check costs when it misses. The `pipeline_engine`
//! cases replay one iteration of those plans on the engine
//! (`Engine::run` over every DP rank's workload from
//! `Runtime::build_workload_for`) and also report `ns_per_op`, the
//! fastest iteration per executed op. `plan_trials/production_72b` is
//! the whole `TrainingTask::plan` of that task at seed 12: the §4 search,
//! then one bounded trial per candidate, as `train-1296` sets up.
//!
//! Emits `BENCH_layers.json` (override the path with
//! `DT_BENCH_LAYERS_JSON`) with mean/min µs per case and the host's core
//! count.

use disttrain_core::{Runtime, SystemKind, TrainingTask};
use dt_bench::timing::{bench_stats, iters_or};
use dt_cluster::CollectiveCost;
use dt_data::cost::CostRows;
use dt_data::{DataConfig, GlobalBatch, SyntheticLaion, TrainSample};
use dt_model::MllmPreset;
use dt_parallel::OrchestrationPlan;
use dt_pipeline::{Engine, PipelineSpec, Workload};
use dt_reorder::{inter_reorder, intra_reorder_indices, InterReorderConfig};
use dt_simengine::{DetRng, Json};
use std::time::Duration;

fn runtime(task: &TrainingTask, plan: OrchestrationPlan) -> Runtime<'_> {
    Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, 1),
    }
}

fn main() {
    let iters = iters_or(50);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
    let mut cases: Vec<Json> = Vec::new();
    let mut record = |name: String, (mean, min): (Duration, Duration), shape: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("name", Json::Str(name)),
            ("mean_us", us(mean)),
            ("min_us", us(min)),
        ];
        fields.extend(shape);
        cases.push(Json::obj(fields));
    };

    // The last case is the production shape: 1920 samples over DP 128.
    for (n, m) in [(128usize, 16usize), (512, 16), (1920, 16), (1920, 128)] {
        let mut rng = DetRng::new(1);
        let sizes: Vec<f64> = (0..n).map(|_| rng.lognormal(2.0, 1.0)).collect();
        let name = format!("algorithm1_intra/n{n}_dp{m}");
        let stats = bench_stats(&name, iters, || {
            intra_reorder_indices(&sizes, m).expect("bench sizes divide into the groups")
        });
        record(
            name,
            stats,
            vec![
                ("n", Json::num_u64(n as u64)),
                ("dp", Json::num_u64(m as u64)),
            ],
        );
    }
    for (l, p) in [(16usize, 4usize), (48, 8), (120, 12)] {
        let mut rng = DetRng::new(2);
        let times: Vec<f64> = (0..l).map(|_| rng.lognormal(-2.0, 0.8)).collect();
        let cfg = InterReorderConfig::new(p, 0.1, 0.2);
        let name = format!("algorithm2_inter/l{l}_p{p}");
        let stats = bench_stats(&name, iters, || inter_reorder(&cfg, &times));
        record(
            name,
            stats,
            vec![
                ("l", Json::num_u64(l as u64)),
                ("p", Json::num_u64(p as u64)),
            ],
        );
    }

    // The production shapes: MLLM-72B on 1296 GPUs, batch 1920.
    let task = TrainingTask::production(MllmPreset::Mllm72B.build());
    let chosen = task
        .plan(SystemKind::DistTrain)
        .expect("the production task always has a plan");
    let deepest = task
        .trial_candidates()
        .expect("production task has candidates")
        .into_iter()
        .max_by_key(|p| (p.total_stages(), std::cmp::Reverse(p.backbone.dp)))
        .expect("non-empty trial set");
    let name = "stream_new/production".to_string();
    let stats = bench_stats(&name, iters, || {
        SyntheticLaion::new(task.data.clone(), task.seed)
    });
    record(name, stats, vec![]);
    let stream = SyntheticLaion::new(task.data.clone(), task.seed);
    let skewed_stream = SyntheticLaion::new(DataConfig::characterization(), task.seed);
    let n = task.global_batch as usize;
    for (what, stream) in [("", &stream), ("characterization_", &skewed_stream)] {
        let name = format!("take/{what}n{n}");
        let stats = bench_stats(&name, iters, || stream.clone().take(n));
        record(name, stats, vec![("n", Json::num_u64(n as u64))]);
    }
    let batch: Vec<TrainSample> = stream.clone().take(n);
    let name = format!("batch_clone/n{n}");
    let stats = bench_stats(&name, iters, || batch.clone());
    record(name, stats, vec![("n", Json::num_u64(n as u64))]);
    // Cost rows, as the planner and the runtime each price per iteration.
    let skewed = skewed_stream.clone().take(n);
    for (what, samples) in [("production", &batch), ("characterization", &skewed)] {
        let name = format!("cost_rows/{what}_n{n}");
        let stats = bench_stats(&name, iters, || CostRows::new(&task.model, samples));
        record(name, stats, vec![("n", Json::num_u64(n as u64))]);
    }
    // Algorithm 1 on those batches' multimodal sizes, at the chosen plan's
    // DP width and at the deepest candidate's.
    for (what, samples, m) in [
        ("production", &batch, 128usize),
        ("production", &batch, 15),
        ("characterization", &skewed, 128),
    ] {
        let sizes = CostRows::new(&task.model, samples).multimodal_sizes();
        let name = format!("algorithm1_intra/{what}_n{n}_dp{m}");
        let stats = bench_stats(&name, iters, || {
            intra_reorder_indices(&sizes, m).expect("bench sizes divide into the groups")
        });
        record(
            name,
            stats,
            vec![
                ("n", Json::num_u64(n as u64)),
                ("dp", Json::num_u64(m as u64)),
            ],
        );
    }
    let coll = CollectiveCost::new(task.cluster.clone());
    for (what, plan) in [("train_plan", chosen), ("deepest_candidate", deepest)] {
        let runtime = runtime(&task, plan);
        let perf = runtime.perf_model(&coll);
        let planner = runtime.planner_for(&perf);
        let (dp, p) = (planner.dp, planner.inter_cfg.stages);
        let shape = vec![
            ("n", Json::num_u64(n as u64)),
            ("dp", Json::num_u64(u64::from(dp))),
            ("p", Json::num_u64(p as u64)),
            ("microbatch", Json::num_u64(u64::from(planner.microbatch))),
        ];
        let name = format!("reorder_planner/{what}_n{n}_dp{dp}_p{p}");
        let stats = bench_stats(&name, iters, || planner.reorder(batch.clone()));
        record(name, stats, shape.clone());
        let rows = CostRows::new(&planner.model, &batch);
        let name = format!("reorder_indices/{what}_n{n}_dp{dp}_p{p}");
        let stats = bench_stats(&name, iters, || planner.reorder_indices(&rows));
        record(name, stats, shape);

        // One whole simulated iteration of the reordered batch, as
        // `train-1296` runs it: the batch's cost rows, every rank's
        // columns pushed into the reused engine, grad sync and the
        // preprocessing stall.
        let reordered = GlobalBatch::new(planner.reorder(batch.clone()));
        let name = format!("runtime_iteration/{what}_n{n}_dp{dp}_p{p}");
        let stats = bench_stats(&name, iters, || {
            runtime.simulate_iteration(&perf, &reordered)
        });
        record(
            name,
            stats,
            vec![
                ("n", Json::num_u64(n as u64)),
                ("dp", Json::num_u64(u64::from(dp))),
                ("p", Json::num_u64(p as u64)),
            ],
        );

        // One iteration's pipelines: every DP rank's workload replayed on
        // one engine, as `Runtime` times an iteration.
        let ranks = reordered.split(dp, planner.microbatch);
        let workloads: Vec<Workload> = ranks
            .iter()
            .map(|rank| runtime.build_workload_for(&perf, rank))
            .collect();
        let spec = PipelineSpec {
            schedule: runtime.cfg.schedule,
            comm: runtime.build_comm_for(&coll),
        };
        let mut engine = Engine::default();
        let ops: usize = workloads
            .iter()
            .map(|w| engine.run(&spec, w).result().timeline.len())
            .sum();
        let (x, l) = (workloads.len(), workloads[0].microbatches());
        let name = format!("pipeline_engine/{what}_p{p}_l{l}_x{x}");
        let stats = bench_stats(&name, iters, || {
            workloads
                .iter()
                .map(|w| engine.run(&spec, w).makespan())
                .max()
        });
        let ns_per_op = Json::Num(stats.1.as_secs_f64() * 1e9 / ops as f64);
        record(
            name,
            stats,
            vec![
                ("p", Json::num_u64(p as u64)),
                ("l", Json::num_u64(l as u64)),
                ("ranks", Json::num_u64(x as u64)),
                ("ops", Json::num_u64(ops as u64)),
                ("ns_per_op", ns_per_op),
            ],
        );
    }

    // The runtime's miss path: the skewed stream at the chosen plan, its
    // image prices tabled as a run on that stream tables them.
    let skewed_runtime = Runtime {
        data: DataConfig::characterization(),
        ..runtime(&task, chosen)
    };
    let perf = skewed_runtime.perf_model(&coll);
    let planner = skewed_runtime.planner_for(&perf);
    let (dp, p) = (planner.dp, planner.inter_cfg.stages);
    let reordered = GlobalBatch::new(planner.reorder(skewed));
    let name = format!("runtime_iteration/characterization_train_plan_n{n}_dp{dp}_p{p}");
    let stats = bench_stats(&name, iters, || {
        skewed_runtime.simulate_iteration(&perf, &reordered)
    });
    record(
        name,
        stats,
        vec![
            ("n", Json::num_u64(n as u64)),
            ("dp", Json::num_u64(u64::from(dp))),
            ("p", Json::num_u64(p as u64)),
        ],
    );

    // The whole DistTrain set-up at seed 12: the §4 search, then one
    // bounded trial per candidate.
    let seeded = TrainingTask { seed: 12, ..task };
    let candidates = seeded
        .trial_candidates()
        .expect("production task has candidates")
        .len();
    let name = "plan_trials/production_72b".to_string();
    let stats = bench_stats(&name, iters, || seeded.plan(SystemKind::DistTrain));
    record(
        name,
        stats,
        vec![
            ("seed", Json::num_u64(seeded.seed)),
            ("candidates", Json::num_u64(candidates as u64)),
        ],
    );

    let out = Json::obj(vec![
        ("bench", Json::Str("bench_reorder".into())),
        ("iters", Json::num_u64(u64::from(iters))),
        ("nproc", Json::num_u64(nproc as u64)),
        ("cases", Json::Arr(cases)),
    ]);
    let path =
        std::env::var("DT_BENCH_LAYERS_JSON").unwrap_or_else(|_| "BENCH_layers.json".to_string());
    let mut text = String::new();
    out.write(&mut text);
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_layers.json");
    println!("wrote {path} (nproc={nproc})");
}
