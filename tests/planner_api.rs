//! The redesigned planner API, end to end through the facade: the
//! default branch-and-bound search accounts for its pruning and certifies
//! optimality, the serial reference reports its exhaustive diagnostics,
//! and every failure mode diagnoses itself with the right [`PlanError`]
//! variant.

use disttrain::prelude::*;

fn profile_for(model: &MultimodalLlm, nodes: u32, seed: u64) -> TaskProfile {
    let gpu = GpuSpec::ampere();
    let coll = CollectiveCost::new(ClusterSpec::production(nodes));
    let perf = PerfModel::new(model, &gpu, &coll);
    let mut data = SyntheticLaion::new(DataConfig::evaluation(model.gen_resolution), seed);
    Profiler.profile(&perf, &data.take(64))
}

/// The 96-GPU, batch-128 problem every planner below starts from: 8-GPU
/// nodes with 80 GiB of HBM, microbatch 1, plain 1F1B, free PP hops.
fn base() -> ProblemSpec {
    ProblemSpec {
        total_gpus: 96,
        gpus_per_node: 8,
        hbm_bytes: 80 << 30,
        global_batch: 128,
        microbatch: 1,
        vpp: 1,
        pp_hop_secs: 0.0,
    }
}

#[test]
fn hbm_starvation_diagnoses_as_no_memory_feasible_point() {
    let model = MllmPreset::Mllm9B.build();
    let profile = profile_for(&model, 12, 17);
    let orch = Orchestrator::builder()
        .spec(ProblemSpec {
            hbm_bytes: 1 << 28, // 256 MiB per GPU: nothing fits
            ..base()
        })
        .build()
        .unwrap();
    match orch.plan_with_profile(&model, &profile) {
        Err(PlanError::NoMemoryFeasiblePoint {
            memory_rejected, ..
        }) => {
            assert!(memory_rejected > 0)
        }
        other => panic!("expected NoMemoryFeasiblePoint, got {other:?}"),
    }
}

#[test]
fn two_gpu_cluster_diagnoses_as_cluster_too_small() {
    let model = MllmPreset::Mllm9B.build();
    let profile = profile_for(&model, 1, 17);
    let orch = Orchestrator::builder()
        .spec(ProblemSpec {
            total_gpus: 2,
            global_batch: 16,
            ..base()
        })
        .build()
        .unwrap();
    assert_eq!(
        orch.plan_with_profile(&model, &profile).unwrap_err(),
        PlanError::ClusterTooSmall {
            total_gpus: 2,
            min_required: 3
        }
    );
}

#[test]
fn indivisible_batch_diagnoses_as_empty_lattice() {
    // A microbatch larger than the batch (BS/M = 0), and one that does not
    // divide it although BS/M ≥ 1: no DP width splits either batch into
    // whole microbatches, so neither reaches the HBM gate.
    let model = MllmPreset::Mllm9B.build();
    for (nodes, total_gpus, global_batch, microbatch) in [(12, 96, 16, 32), (2, 16, 10, 3)] {
        let profile = profile_for(&model, nodes, 17);
        let orch = Orchestrator::builder()
            .spec(ProblemSpec {
                total_gpus,
                global_batch,
                microbatch,
                ..base()
            })
            .build()
            .unwrap();
        assert_eq!(
            orch.plan_with_profile(&model, &profile).unwrap_err(),
            PlanError::EmptyLattice {
                pairs_considered: 0
            },
            "batch {global_batch}, microbatch {microbatch}"
        );
    }
}

#[test]
fn builder_rejects_malformed_knobs_with_the_field_name() {
    let err = Orchestrator::builder()
        .spec(ProblemSpec {
            global_batch: 0,
            ..base()
        })
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            PlanError::InvalidSpec {
                field: "global_batch",
                ..
            }
        ),
        "{err:?}"
    );
    let err = Orchestrator::builder()
        .spec(base())
        .top_k(0)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, PlanError::InvalidSpec { field: "top_k", .. }),
        "{err:?}"
    );
}

#[test]
fn top_k_caps_the_candidate_shortlist() {
    let model = MllmPreset::Mllm9B.build();
    let profile = profile_for(&model, 12, 17);
    let for_k = |k: usize| {
        Orchestrator::builder()
            .spec(base())
            .top_k(k)
            .build()
            .unwrap()
            .plan_candidates(&model, &profile)
            .unwrap()
    };
    let two = for_k(2);
    let eight = for_k(8);
    assert_eq!(two.len(), 2);
    assert!(eight.len() > two.len() && eight.len() <= 8);
    assert_eq!(
        two[0].plan, eight[0].plan,
        "top_k only truncates the ranking"
    );
}

#[test]
fn plan_report_exposes_the_search_diagnostics() {
    let model = MllmPreset::Mllm9B.build();
    let profile = profile_for(&model, 12, 17);
    let report = Orchestrator::builder()
        .spec(base())
        .search_mode(SearchMode::Serial)
        .build()
        .unwrap()
        .plan_with_profile(&model, &profile)
        .unwrap();
    assert_eq!(report.search_mode, SearchMode::Serial);
    assert!(report.candidates_evaluated > 0);
    assert!(report.cache_hits > report.candidates_evaluated as u64);
    assert!(report.solve_wall_time.as_secs_f64() > 0.0);
    // The exhaustive reference expands every gate-passing node and prunes
    // none; it still carries the optimality certificate (it looked at
    // everything).
    assert!(report.nodes_expanded > 0);
    assert_eq!(
        report.nodes_pruned, 0,
        "the exhaustive reference never prunes"
    );
    assert!(report.proven_optimal);
}

#[test]
fn pruned_report_accounts_for_its_branch_and_bound_work() {
    let model = MllmPreset::Mllm9B.build();
    let profile = profile_for(&model, 12, 17);
    let solve = |mode: SearchMode| {
        Orchestrator::builder()
            .spec(base())
            .search_mode(mode)
            .build()
            .unwrap()
            .plan_with_profile(&model, &profile)
            .unwrap()
    };
    let pruned = solve(SearchMode::Pruned);
    let serial = solve(SearchMode::Serial);
    assert_eq!(pruned.search_mode, SearchMode::Pruned);
    assert_eq!(pruned.plan, serial.plan, "pruning must not change the plan");
    assert!(
        pruned.proven_optimal,
        "the default search certifies optimality"
    );
    assert!(
        pruned.nodes_pruned > 0,
        "this lattice has dominated regions to cut"
    );
    assert!(
        pruned.candidates_evaluated < serial.candidates_evaluated,
        "branch-and-bound must solve strictly fewer lattice points ({} vs {})",
        pruned.candidates_evaluated,
        serial.candidates_evaluated,
    );
}
