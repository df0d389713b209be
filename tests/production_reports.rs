//! A standing gate on the production training path: the trial-selected
//! plan of the MLLM-72B production task and its first 16 iteration
//! reports must keep the exact bits they had when the constants below
//! were recorded. A pricing, ordering or scheduling change that is meant
//! to be bit-identical and is not fails here. The evaluation stream pins
//! the headline task; the skewed §2.3 characterization stream pins a task
//! that mixes resolutions within a sample, and whose disaggregated stall
//! depends on each rank's pixels. A shape lists every image's resolution,
//! so equal shapes imply equal pixels; the last test hands the runtime
//! ranks whose samples share their token counts but not their pixels.

use disttrain::cluster::{ClusterSpec, CollectiveCost};
use disttrain::core::{Runtime, RuntimeConfig, SystemKind, TrainingTask};
use disttrain::data::{DataConfig, GlobalBatch, TrainSample};
use disttrain::model::MllmPreset;
use disttrain::parallel::{ModulePlan, OrchestrationPlan};

/// Iterations whose reports are pinned.
const ITERATIONS: u32 = 16;

/// FNV-1a 64 of the transcript [`transcript`] builds on the evaluation
/// stream. Re-record it only for a change that means to alter the
/// production reports, and say so.
const RECORDED: u64 = 0x31e6_85bc_7c42_9fde;

/// The same on the characterization stream.
const RECORDED_CHARACTERIZATION: u64 = 0x0e9a_ec56_d6b9_a4ca;

/// FNV-1a 64: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The plan, then one report per line, each in its `Debug` form (every
/// float in its shortest round-trip form, so equal text is equal bits).
fn transcript(task: &TrainingTask) -> String {
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

fn assert_recorded(task: &TrainingTask, recorded: u64) {
    let text = transcript(task);
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, recorded,
        "production plan or reports drifted (hash {hash:#018x}):\n{text}"
    );
}

#[test]
fn production_reports_keep_their_recorded_bits() {
    let task = TrainingTask::production(MllmPreset::Mllm72B.build());
    assert_recorded(&task, RECORDED);
}

#[test]
fn characterization_reports_keep_their_recorded_bits() {
    let task = TrainingTask {
        data: DataConfig::characterization(),
        ..TrainingTask::production(MllmPreset::Mllm72B.build())
    };
    assert_recorded(&task, RECORDED_CHARACTERIZATION);
}

#[test]
fn ranks_equal_in_tokens_but_not_in_pixels_each_pay_their_stall() {
    // Images of 496 and 511 px both tokenize to 31 × 31 patches, so the
    // two ranks below have equal token counts position by position while
    // the second decodes more pixels: the iteration's stall is the
    // second's, whichever rank runs first.
    let model = MllmPreset::Mllm9B.build();
    let cluster = ClusterSpec::production(20);
    let sample = |id, small: u32| TrainSample {
        id,
        text_tokens: 2048,
        image_resolutions: [1024, small, small, small, small].into_iter().collect(),
        gen_images: 1,
        gen_resolution: 512,
        patch: 16,
    };
    let rank = |first, small| vec![sample(first, small), sample(first + 1, small)];
    let runtime = Runtime {
        model: &model,
        cluster: &cluster,
        plan: OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 2, 2),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        },
        data: DataConfig::evaluation(512),
        cfg: RuntimeConfig::disttrain(4, 1),
    };
    let coll = CollectiveCost::new(cluster.clone());
    let perf = runtime.perf_model(&coll);
    let light_first = GlobalBatch::new([rank(0, 496), rank(2, 511)].concat());
    let heavy_first = GlobalBatch::new([rank(2, 511), rank(0, 496)].concat());
    let a = runtime.simulate_iteration(&perf, &light_first);
    let b = runtime.simulate_iteration(&perf, &heavy_first);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
