//! Metering a training run must not change it: a run recorded into an
//! enabled registry trains bit-identically to a plain run, and the
//! pipeline and runtime families land in the registry. (The injected-fault
//! gate for the anomaly detector runs on dt-elastic's recovery driver, in
//! `crates/elastic/tests/telemetry_anomaly.rs`.)

use disttrain_core::{Runtime, RuntimeConfig, SystemKind, TrainingTask};
use dt_model::MllmPreset;
use dt_simengine::TraceRecorder;
use dt_telemetry::{names, Telemetry};

const ITERS: u32 = 12;

#[test]
fn telemetry_does_not_perturb_the_training_result() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan: task.plan(SystemKind::DistTrain).expect("plan"),
        data: task.data.clone(),
        cfg: RuntimeConfig::disttrain(32, ITERS),
    };
    let plain = runtime.run();
    let tel = Telemetry::enabled();
    let metered = runtime.run_telemetry(&mut TraceRecorder::disabled(), &tel);
    assert_eq!(plain.mean_iter_secs(), metered.mean_iter_secs());
    assert_eq!(plain.mfu(), metered.mfu());
    // Pipeline families exist per stage with nonzero counts.
    let snap = tel.snapshot();
    let modules = runtime.stage_modules();
    for (stage, module) in modules.iter().enumerate() {
        let stage_label = stage.to_string();
        let h = snap
            .histogram_value(
                names::PIPELINE_STAGE_COMPUTE_SECONDS,
                &[("stage", stage_label.as_str()), ("module", module.as_str())],
            )
            .expect("per-stage compute histogram");
        assert!(h.count > 0);
    }
    assert_eq!(
        snap.counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[]),
        Some(ITERS as u64)
    );
}
