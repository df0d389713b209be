//! A standing gate on the production training path: the trial-selected
//! plan of the MLLM-72B production task and its first 16 iteration
//! reports must keep the exact bits they had when the constant below was
//! recorded. A pricing, ordering or scheduling change that is meant to be
//! bit-identical and is not fails here.

use disttrain::core::{SystemKind, TrainingTask};
use disttrain::model::MllmPreset;

/// Iterations whose reports are pinned.
const ITERATIONS: u32 = 16;

/// FNV-1a 64 of the transcript [`transcript`] builds. Re-record it only
/// for a change that means to alter the production reports, and say so.
const RECORDED: u64 = 0x31e6_85bc_7c42_9fde;

/// FNV-1a 64: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The plan, then one report per line, each in its `Debug` form (every
/// float in its shortest round-trip form, so equal text is equal bits).
fn transcript() -> String {
    let task = TrainingTask::production(MllmPreset::Mllm72B.build());
    let plan = task
        .plan(SystemKind::DistTrain)
        .expect("the production task always has a plan");
    let report = task.run_with_plan(plan, task.runtime_config(SystemKind::DistTrain, ITERATIONS));
    assert_eq!(report.iterations.len(), ITERATIONS as usize);
    let mut text = format!("{plan:?}\n");
    for r in &report.iterations {
        text += &format!("{r:?}\n");
    }
    text
}

#[test]
fn production_reports_keep_their_recorded_bits() {
    let text = transcript();
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, RECORDED,
        "production plan or reports drifted (hash {hash:#018x}):\n{text}"
    );
}
