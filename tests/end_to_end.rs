//! End-to-end integration: plan → train → metrics across all three
//! systems, spanning every crate in the workspace.

use disttrain::core::{SystemKind, TrainingSystem, TrainingTask};
use disttrain::model::{FreezeConfig, MllmPreset, MultimodalLlm};

fn task(preset: MllmPreset) -> TrainingTask {
    TrainingTask::ablation(preset.build(), preset.ablation_global_batch())
}

#[test]
fn the_headline_ordering_holds_for_every_model() {
    // §7.2 Figure 15: DistTrain ≥ DistMM* > Megatron-LM on MFU.
    for preset in MllmPreset::ALL {
        let t = task(preset);
        let results = TrainingSystem::compare(&t, 1);
        assert_eq!(results.len(), 3, "{preset:?}: all systems must plan");
        let mfu = |k: SystemKind| {
            results
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, r)| r.mfu())
                .expect("present")
        };
        let (dt, dm, mg) = (
            mfu(SystemKind::DistTrain),
            mfu(SystemKind::DistMMStar),
            mfu(SystemKind::MegatronLM),
        );
        assert!(
            dt >= dm * 0.999,
            "{preset:?}: DistTrain {dt:.3} < DistMM* {dm:.3}"
        );
        assert!(dm > mg, "{preset:?}: DistMM* {dm:.3} ≤ Megatron {mg:.3}");
        assert!(
            (0.1..0.66).contains(&dt),
            "{preset:?}: implausible MFU {dt:.3}"
        );
    }
}

#[test]
fn training_runs_are_bit_deterministic() {
    let t = task(MllmPreset::Mllm9B);
    let a = t.run(SystemKind::DistTrain, 2).unwrap();
    let b = t.run(SystemKind::DistTrain, 2).unwrap();
    assert_eq!(a.mfu(), b.mfu());
    assert_eq!(a.mean_iter_secs(), b.mean_iter_secs());
    for (x, y) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(x.iter_time, y.iter_time);
        assert_eq!(x.model_flops, y.model_flops);
    }
}

#[test]
fn every_frozen_setting_trains_faster_than_full() {
    let full = task(MllmPreset::Mllm9B)
        .run(SystemKind::DistTrain, 1)
        .unwrap();
    for freeze in [
        FreezeConfig::all_frozen(),
        FreezeConfig::encoder_only(),
        FreezeConfig::llm_only(),
        FreezeConfig::generator_only(),
    ] {
        let model = MultimodalLlm::preset(MllmPreset::Mllm9B, freeze);
        let t = TrainingTask::ablation(model, 128);
        let frozen = t.run(SystemKind::DistTrain, 1).unwrap();
        assert!(
            frozen.mean_iter_secs() < full.mean_iter_secs(),
            "{freeze:?}: {:.2}s should beat full {:.2}s",
            frozen.mean_iter_secs(),
            full.mean_iter_secs()
        );
    }
}

#[test]
fn iteration_reports_decompose_consistently() {
    let t = task(MllmPreset::Mllm15B);
    let report = t.run(SystemKind::DistTrain, 2).unwrap();
    for it in &report.iterations {
        let parts = it.pipeline_time + it.grad_sync + it.preprocess_stall;
        assert_eq!(it.iter_time, parts, "iteration must equal its parts");
        assert!(it.model_flops > 0.0);
        assert_eq!(it.samples, t.global_batch);
        assert_eq!(it.tokens, t.global_batch as u64 * 8192);
        assert!((0.0..1.0).contains(&it.bubble_fraction));
    }
}

#[test]
fn megatron_pays_the_colocated_preprocessing_tax() {
    let t = task(MllmPreset::Mllm9B);
    let mg = t.run(SystemKind::MegatronLM, 1).unwrap();
    let dt = t.run(SystemKind::DistTrain, 1).unwrap();
    let mg_stall = mg.iterations[0].preprocess_stall.as_secs_f64();
    let dt_stall = dt.iterations[0].preprocess_stall.as_secs_f64();
    assert!(
        mg_stall > 10.0 * dt_stall,
        "colocated stall {mg_stall:.3}s vs disaggregated {dt_stall:.4}s"
    );
}

#[test]
fn checkpoint_recovery_round_trips_through_the_runtime() {
    use disttrain::core::checkpoint::{CheckpointManager, TrainingState};
    let t = task(MllmPreset::Mllm9B);
    let plan = t.plan(SystemKind::DistTrain).unwrap();
    let dir = std::env::temp_dir().join(format!("dt-e2e-ckpt-{}", std::process::id()));
    let mut mgr = CheckpointManager::new(&dir).unwrap();
    mgr.save_async(&TrainingState {
        iteration: 7,
        plan,
        seed: t.seed,
    })
    .unwrap();
    mgr.wait().unwrap();
    let state = CheckpointManager::recover(&dir)
        .unwrap()
        .expect("checkpoint exists");
    assert_eq!(state.iteration, 7);
    // The recovered plan must still validate and run.
    let report = t.run_with_plan(state.plan, t.runtime_config(SystemKind::DistTrain, 1));
    assert!(report.mfu() > 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}
