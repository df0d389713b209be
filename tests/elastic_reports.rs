//! A standing gate on the elastic training driver: two MLLM-9B ablation
//! runs — a quiet one with no failures, and a harsh one whose failures
//! exhaust the spare and shrink the cluster, traced — must keep the exact
//! bits of their committed history when the constant below was recorded.
//! A change to how the driver steps, prices, rolls back or re-plans that
//! is meant to be bit-identical and is not fails here.

use disttrain::core::TrainingTask;
use disttrain::elastic::{run_elastic, CheckpointPolicy, ElasticOptions, ElasticPlan};
use disttrain::model::MllmPreset;
use disttrain::simengine::trace::TraceRecorder;
use disttrain::simengine::SimDuration;

/// FNV-1a 64 of the transcript [`transcript`] builds. Re-record it only
/// for a change that means to alter the elastic reports, and say so.
const RECORDED: u64 = 0x01e3_741b_f578_c530;

/// FNV-1a 64: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// A scenario harsh enough to exhaust the single spare and shrink the
/// 12-node ablation cluster within ten iterations; with an effectively
/// infinite MTBF the same plan never fails.
fn scenario(node_mtbf: f64) -> ElasticPlan {
    ElasticPlan {
        node_mtbf: secs(node_mtbf),
        failure_seed: 5,
        spare_nodes: 1,
        checkpoint: CheckpointPolicy::Fixed(2),
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

/// One run's committed reports, goodput, failure log, epochs and traced
/// span count, one item per line in its `Debug` form (every float in its
/// shortest round-trip form, so equal text is equal bits).
fn transcript(tag: &str, elastic: &ElasticPlan, traced: bool) -> String {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let dir = std::env::temp_dir().join(format!("dt-elastic-reports-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rec = if traced {
        TraceRecorder::enabled()
    } else {
        TraceRecorder::disabled()
    };
    let opts = ElasticOptions {
        trace: Some(&mut rec),
        ..Default::default()
    };
    let out = run_elastic(&task, 10, elastic, &dir, opts).expect("elastic run");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.report.iterations.len(), 10);
    let mut text = String::new();
    for r in &out.report.iterations {
        text += &format!("{r:?}\n");
    }
    text += &format!("{:?}\n", out.goodput);
    for f in &out.failures {
        text += &format!("{f:?}\n");
    }
    for e in &out.epochs {
        text += &format!("{e:?}\n");
    }
    text += &format!("spans {}\n", rec.spans().len());
    text
}

#[test]
fn elastic_reports_keep_their_recorded_bits() {
    let quiet = transcript("quiet", &scenario(1e12), false);
    let harsh = transcript("harsh", &scenario(250.0), true);
    assert!(
        !quiet.contains("FailureEvent"),
        "the quiet run must not fail"
    );
    assert!(harsh.contains("Shrink"), "the harsh run must shrink");
    let text = quiet + &harsh;
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, RECORDED,
        "elastic reports drifted (hash {hash:#018x}):\n{text}"
    );
}
