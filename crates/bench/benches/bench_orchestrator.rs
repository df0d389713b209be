//! Table 3 as a micro-benchmark: the disaggregated-model-orchestration
//! solve time at the paper's four (cluster, batch) scales for MLLM-72B,
//! plus the §7.2 ablation point (96 GPUs), each in both search modes
//! (exhaustive serial and branch-and-bound pruned).
//! The paper's CVX-based solver reports 133–922 ms; ours must stay
//! sub-second at every scale. A second sweep pushes the pruned search to
//! 10k–100k GPUs — lattices far past what the exhaustive traversal can
//! cover interactively — and records the proven-optimality certificate
//! alongside nodes expanded vs. pruned.
//!
//! Emits `BENCH_solver.json` (override the path with
//! `DT_BENCH_SOLVER_JSON`) with per-scale mean/min times for both modes,
//! solve counts and branch-and-bound node accounting.
//! `scripts/verify.sh` checks in on this file. The gate, applied after
//! the JSON is written so a failed run still leaves the evidence: the
//! pruned search must not lose to the serial traversal at the 96-GPU
//! ablation point (2% noise allowance on min-of-iters).

use dt_bench::timing::{bench_stats, iters_or};
use dt_cluster::{ClusterSpec, CollectiveCost};
use dt_data::SyntheticLaion;
use dt_model::{MllmPreset, MultimodalLlm};
use dt_orchestrator::formulate::ProblemSpec;
use dt_orchestrator::{Orchestrator, PerfModel, Profiler, SearchMode, TaskProfile};
use dt_simengine::Json;
use std::time::Duration;

fn setup(model: &MultimodalLlm, gpus: u32, batch: u32) -> (TaskProfile, ProblemSpec) {
    let cluster = ClusterSpec::production(gpus.div_ceil(8));
    let coll = CollectiveCost::new(cluster.clone());
    let perf = PerfModel::new(model, &cluster.node.gpu, &coll).with_stepccl();
    let mut data = SyntheticLaion::new(dt_data::DataConfig::evaluation(1024), 3);
    let profile = Profiler.profile(&perf, &data.take(64));
    let spec = ProblemSpec {
        total_gpus: gpus,
        gpus_per_node: 8,
        hbm_bytes: cluster.node.gpu.hbm_bytes,
        global_batch: batch,
        microbatch: 1,
        vpp: 1,
        pp_hop_secs: 0.02,
    };
    (profile, spec)
}

fn main() {
    let iters = iters_or(3);
    let model = MllmPreset::Mllm72B.build();
    let mut scales: Vec<Json> = Vec::new();
    let mut gate_violation: Option<String> = None;
    let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);

    for (gpus, batch) in [(1296u32, 1920u32), (648, 960), (324, 480), (112, 240), (96, 128)] {
        let (profile, spec) = setup(&model, gpus, batch);
        // `top_k(1)` is the deployment path this bench times: produce the
        // single best plan. The widening pass stops as soon as the optimum
        // is certified instead of reconstructing a full top-12 ranking.
        let orch = |mode: SearchMode| {
            Orchestrator::builder()
                .spec(spec)
                .search_mode(mode)
                .top_k(1)
                .build()
                .expect("valid spec")
        };
        let serial_orch = orch(SearchMode::Serial);
        let pruned_orch = orch(SearchMode::Pruned);
        let name = |mode: &str| format!("table3_orchestration/{gpus}gpus_bs{batch}/{mode}");
        let (serial_mean, serial_min) = bench_stats(&name("serial"), iters, || {
            serial_orch.plan_with_profile(&model, &profile).expect("plan")
        });
        let (pruned_mean, pruned_min) = bench_stats(&name("pruned"), iters, || {
            pruned_orch.plan_with_profile(&model, &profile).expect("plan")
        });
        for mean in [serial_mean, pruned_mean] {
            assert!(mean < Duration::from_secs(5), "solver implausibly slow: {mean:?}");
        }

        let pruned = pruned_orch.plan_with_profile(&model, &profile).expect("plan");
        let reference = serial_orch.plan_with_profile(&model, &profile).expect("plan");
        assert_eq!(pruned.plan, reference.plan, "pruning must not change the plan");
        assert!(pruned.proven_optimal, "the pruned search must certify optimality");

        // The CI gate (checked after the JSON is written): branch-and-bound
        // must beat — or at worst tie, within 2% timing noise on
        // min-of-iters — the exhaustive serial traversal at the ablation
        // scale.
        if gpus == 96 && pruned_min > serial_min.mul_f64(1.02) {
            gate_violation = Some(format!(
                "pruned search slower than exhaustive serial at 96 GPUs: \
                 {pruned_min:?} vs {serial_min:?}"
            ));
        }

        scales.push(Json::obj(vec![
            ("gpus", Json::num_u64(u64::from(gpus))),
            ("global_batch", Json::num_u64(u64::from(batch))),
            ("serial_mean_ms", ms(serial_mean)),
            ("serial_min_ms", ms(serial_min)),
            ("pruned_mean_ms", ms(pruned_mean)),
            ("pruned_min_ms", ms(pruned_min)),
            (
                "speedup_min",
                Json::Num(serial_min.as_secs_f64() / pruned_min.as_secs_f64().max(1e-9)),
            ),
            ("candidates_evaluated", Json::num_u64(reference.candidates_evaluated as u64)),
            ("pruned_solves", Json::num_u64(pruned.candidates_evaluated as u64)),
            ("nodes_expanded", Json::num_u64(pruned.nodes_expanded as u64)),
            ("nodes_pruned", Json::num_u64(pruned.nodes_pruned as u64)),
            ("proven_optimal", Json::Bool(pruned.proven_optimal)),
            ("cache_hits", Json::num_u64(reference.cache_hits)),
        ]));
    }

    // The scale sweep: lattices at 10k–100k GPUs, where exhaustive
    // enumeration stops being interactive. The serial reference is still
    // measured at the smallest sweep point (so `speedup_min` stays a
    // measured ratio there); beyond it only the pruned search runs, and
    // optimality rests on the branch-and-bound certificate instead.
    let mut sweep: Vec<Json> = Vec::new();
    for (gpus, batch) in [(10_368u32, 3_840u32), (41_472, 7_680), (103_680, 15_360)] {
        let (profile, spec) = setup(&model, gpus, batch);
        let orch = |mode: SearchMode| {
            Orchestrator::builder()
                .spec(spec)
                .search_mode(mode)
                .top_k(1)
                .build()
                .expect("valid spec")
        };
        let pruned_orch = orch(SearchMode::Pruned);
        let (pruned_mean, pruned_min) = bench_stats(
            &format!("solver_sweep/{gpus}gpus_bs{batch}/pruned"),
            iters,
            || pruned_orch.plan_with_profile(&model, &profile).expect("plan"),
        );
        assert!(pruned_mean < Duration::from_secs(30), "pruned sweep too slow: {pruned_mean:?}");
        let pruned = pruned_orch.plan_with_profile(&model, &profile).expect("plan");
        assert!(pruned.proven_optimal, "the sweep rests on the optimality certificate");

        let mut fields = vec![
            ("gpus", Json::num_u64(u64::from(gpus))),
            ("global_batch", Json::num_u64(u64::from(batch))),
            ("pruned_mean_ms", ms(pruned_mean)),
            ("pruned_min_ms", ms(pruned_min)),
            ("pruned_solves", Json::num_u64(pruned.candidates_evaluated as u64)),
            ("nodes_expanded", Json::num_u64(pruned.nodes_expanded as u64)),
            ("nodes_pruned", Json::num_u64(pruned.nodes_pruned as u64)),
            ("proven_optimal", Json::Bool(pruned.proven_optimal)),
        ];
        if gpus == 10_368 {
            let serial_orch = orch(SearchMode::Serial);
            let (serial_mean, serial_min) = bench_stats(
                &format!("solver_sweep/{gpus}gpus_bs{batch}/serial"),
                iters,
                || serial_orch.plan_with_profile(&model, &profile).expect("plan"),
            );
            let reference = serial_orch.plan_with_profile(&model, &profile).expect("plan");
            assert_eq!(pruned.plan, reference.plan, "pruning must not change the plan");
            fields.push(("serial_mean_ms", ms(serial_mean)));
            fields.push(("serial_min_ms", ms(serial_min)));
            fields.push((
                "speedup_min",
                Json::Num(serial_min.as_secs_f64() / pruned_min.as_secs_f64().max(1e-9)),
            ));
            fields.push((
                "exhaustive_lattice",
                Json::num_u64(reference.candidates_evaluated as u64),
            ));
        }
        sweep.push(Json::obj(fields));
    }

    let out = Json::obj(vec![
        ("bench", Json::Str("bench_orchestrator".into())),
        ("model", Json::Str("MLLM-72B".into())),
        ("iters", Json::num_u64(u64::from(iters))),
        ("scales", Json::Arr(scales)),
        ("scale_sweep", Json::Arr(sweep)),
    ]);
    let path = std::env::var("DT_BENCH_SOLVER_JSON")
        .unwrap_or_else(|_| "BENCH_solver.json".to_string());
    let mut text = String::new();
    out.write(&mut text);
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_solver.json");
    println!("wrote {path}");

    if let Some(violation) = gate_violation {
        panic!("{violation}");
    }
}
