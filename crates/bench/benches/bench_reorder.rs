//! Reordering-algorithm costs. Algorithm 1 is `O(n log n + n log m)`;
//! Algorithm 2 is `O(l²)` for its best-fit scans plus `O(l·p)` for the
//! incremental `GETINTERVAL` probes (`O(l·p²·vpp²)` with VPP). Both run on
//! the disaggregated CPU nodes, but they must still keep up with
//! iteration rates at production batch sizes (1920 samples, ~100
//! microbatches).
//!
//! Besides the toy shapes, two cases time the whole producer-side pass,
//! `ReorderPlanner::reorder`, on a 1920-sample MLLM-72B batch with the
//! planners the 1296-GPU production task actually builds: the chosen
//! plan's (shallow, wide DP) and the deepest trial candidate's. Those
//! cases clone the batch inside the timed call (the planner consumes
//! it); `batch_clone` times that clone alone.
//!
//! Emits `BENCH_layers.json` (override the path with
//! `DT_BENCH_LAYERS_JSON`) with mean/min µs per case and the host's core
//! count.

use disttrain_core::{Runtime, SystemKind, TrainingTask};
use dt_bench::timing::{bench_stats, iters_or};
use dt_cluster::CollectiveCost;
use dt_data::{SyntheticLaion, TrainSample};
use dt_model::MllmPreset;
use dt_parallel::OrchestrationPlan;
use dt_reorder::{inter_reorder, intra_reorder_indices, InterReorderConfig, ReorderPlanner};
use dt_simengine::{DetRng, Json};
use std::time::Duration;

fn planner(task: &TrainingTask, plan: OrchestrationPlan) -> ReorderPlanner {
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, 1),
    };
    let coll = CollectiveCost::new(task.cluster.clone());
    runtime.planner_for(&runtime.perf_model(&coll))
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

    for n in [128usize, 512, 1920] {
        let mut rng = DetRng::new(1);
        let sizes: Vec<f64> = (0..n).map(|_| rng.lognormal(2.0, 1.0)).collect();
        let m = 16;
        let name = format!("algorithm1_intra/n{n}_dp{m}");
        let stats = bench_stats(&name, iters, || {
            intra_reorder_indices(&sizes, m).expect("bench sizes divide into 16 groups")
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
    let batch: Vec<TrainSample> =
        SyntheticLaion::new(task.data.clone(), task.seed).take(task.global_batch as usize);
    let n = batch.len();
    let name = format!("batch_clone/n{n}");
    let stats = bench_stats(&name, iters, || batch.clone());
    record(name, stats, vec![("n", Json::num_u64(n as u64))]);
    for (what, plan) in [("train_plan", chosen), ("deepest_candidate", deepest)] {
        let planner = planner(&task, plan);
        let (dp, p) = (planner.dp, planner.inter_cfg.stages);
        let name = format!("reorder_planner/{what}_n{n}_dp{dp}_p{p}");
        let stats = bench_stats(&name, iters, || planner.reorder(batch.clone()));
        record(
            name,
            stats,
            vec![
                ("n", Json::num_u64(n as u64)),
                ("dp", Json::num_u64(u64::from(dp))),
                ("p", Json::num_u64(p as u64)),
                ("microbatch", Json::num_u64(u64::from(planner.microbatch))),
            ],
        );
    }

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
