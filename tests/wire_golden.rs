//! Golden bytes for every message on both network planes and for the
//! checkpoint file: the exact JSON each one encodes to, and the value it
//! decodes back to. Values sit at their extremes (`u64::MAX` seeds,
//! `u32::MAX` counts, 2^60 counters, strings with quotes, escapes and
//! non-ASCII text), so a codec change that moves a byte fails here.

use disttrain::core::checkpoint::{CheckpointManager, TrainingState};
use disttrain::data::TrainSample;
use disttrain::parallel::{ModulePlan, OrchestrationPlan};
use disttrain::preprocess::frame::{read_json, write_json};
use disttrain::preprocess::wire::{BatchHeader, Request, WireJson};
use dt_serve::api::{
    ModuleSummary, PlanSummary, ServeError, ServeReply, ServeRequest, SimSummary, SpecDesc,
};
use std::fmt::Debug;
use std::io::Cursor;
use std::path::PathBuf;

/// A string that needs every escape the writer knows, plus non-ASCII.
const AWKWARD: &str = "q\"uote b\\ack\nnl\ttab\r\u{1}ctl ☃ é";

/// `msg` frames to exactly `json` and reads back as itself.
fn pins<T: WireJson + PartialEq + Debug>(msg: &T, json: &str) {
    let mut buf = Vec::new();
    write_json(&mut buf, msg).unwrap();
    assert_eq!(
        std::str::from_utf8(&buf[4..]).unwrap(),
        json,
        "encoding of {msg:?}"
    );
    assert_eq!(&read_json::<T>(&mut Cursor::new(buf)).unwrap(), msg);
}

fn spec() -> SpecDesc {
    SpecDesc {
        preset: AWKWARD.to_string(),
        nodes: u32::MAX,
        global_batch: 1920,
        microbatch: 1,
        seed: u64::MAX,
    }
}

const SPEC_JSON: &str = r#"{"preset":"q\"uote b\\ack\nnl\ttab\r\u0001ctl ☃ é","nodes":4294967295,"global_batch":1920,"microbatch":1,"seed":"18446744073709551615"}"#;

#[test]
fn every_serve_request_keeps_its_bytes() {
    pins(&ServeRequest::Ping, r#""Ping""#);
    pins(&ServeRequest::Shutdown, r#""Shutdown""#);
    pins(
        &ServeRequest::Plan {
            spec: spec(),
            budget: u32::MAX,
            deadline_ms: 1 << 60,
        },
        &format!(
            r#"{{"Plan":{{"spec":{SPEC_JSON},"budget":4294967295,"deadline_ms":"1152921504606846976"}}}}"#
        ),
    );
    pins(
        &ServeRequest::Replan {
            spec: spec(),
            remaining_gpus: u32::MAX,
            budget: 0,
            deadline_ms: u64::MAX,
        },
        &format!(
            r#"{{"Replan":{{"spec":{SPEC_JSON},"remaining_gpus":4294967295,"budget":0,"deadline_ms":"18446744073709551615"}}}}"#
        ),
    );
    pins(
        &ServeRequest::Simulate {
            spec: spec(),
            iterations: u32::MAX,
            deadline_ms: (1 << 53) - 1,
        },
        &format!(
            r#"{{"Simulate":{{"spec":{SPEC_JSON},"iterations":4294967295,"deadline_ms":9007199254740991}}}}"#
        ),
    );
}

fn plan() -> PlanSummary {
    PlanSummary {
        encoder: ModuleSummary {
            tp: 1,
            dp: u32::MAX,
            pp: 1,
            gpus: 8,
        },
        backbone: ModuleSummary {
            tp: 8,
            dp: 16,
            pp: 10,
            gpus: 1280,
        },
        generator: ModuleSummary {
            tp: 2,
            dp: 4,
            pp: 1,
            gpus: 8,
        },
        total_gpus: 1296,
        predicted_iter_secs: 12.5,
        proven_optimal: true,
        candidates_evaluated: 1 << 60,
        cache_hits: u64::MAX,
        warm: false,
        solve_ms: 0.1,
    }
}

const PLAN_JSON: &str = r#"{"encoder":{"tp":1,"dp":4294967295,"pp":1,"gpus":8},"backbone":{"tp":8,"dp":16,"pp":10,"gpus":1280},"generator":{"tp":2,"dp":4,"pp":1,"gpus":8},"total_gpus":1296,"predicted_iter_secs":12.5,"proven_optimal":true,"candidates_evaluated":"1152921504606846976","cache_hits":"18446744073709551615","warm":false,"solve_ms":0.1}"#;

#[test]
fn every_serve_reply_and_error_keeps_its_bytes() {
    pins(&ServeReply::Pong, r#""Pong""#);
    pins(&ServeReply::Bye, r#""Bye""#);
    pins(
        &ServeReply::Plan(plan()),
        &format!(r#"{{"Plan":{PLAN_JSON}}}"#),
    );
    pins(
        &ServeReply::Sim(SimSummary {
            plan: plan(),
            iterations: u32::MAX,
            mean_iter_secs: 1e-7,
            mfu: 0.4137,
            samples_per_sec: 1.5e300,
        }),
        &format!(
            r#"{{"Sim":{{"plan":{PLAN_JSON},"iterations":4294967295,"mean_iter_secs":0.0000001,"mfu":0.4137,"samples_per_sec":{}}}}}"#,
            format_args!("15{}", "0".repeat(299))
        ),
    );
    let errors = [
        (
            ServeError::Overloaded {
                queue_depth: u32::MAX,
            },
            r#"{"Err":{"Overloaded":{"queue_depth":4294967295}}}"#.to_string(),
        ),
        (
            ServeError::DeadlineExceeded { waited_ms: 1 << 60 },
            r#"{"Err":{"DeadlineExceeded":{"waited_ms":"1152921504606846976"}}}"#.to_string(),
        ),
        (
            ServeError::BadRequest {
                reason: AWKWARD.into(),
            },
            r#"{"Err":{"BadRequest":{"reason":"q\"uote b\\ack\nnl\ttab\r\u0001ctl ☃ é"}}}"#
                .to_string(),
        ),
        (
            ServeError::Malformed {
                reason: String::new(),
            },
            r#"{"Err":{"Malformed":{"reason":""}}}"#.to_string(),
        ),
        (
            ServeError::Plan {
                reason: "no memory-feasible point".into(),
            },
            r#"{"Err":{"Plan":{"reason":"no memory-feasible point"}}}"#.to_string(),
        ),
        (
            ServeError::ShuttingDown,
            r#"{"Err":"ShuttingDown"}"#.to_string(),
        ),
    ];
    for (err, json) in errors {
        pins(&ServeReply::Err(err), &json);
    }
}

#[test]
fn every_preprocess_message_keeps_its_bytes() {
    pins(
        &Request::FetchBatch { count: u32::MAX },
        r#"{"FetchBatch":{"count":4294967295}}"#,
    );
    pins(&Request::Shutdown, r#""Shutdown""#);
    // One full sample (ten resolutions, the §2.3 palette twice).
    let sample = TrainSample {
        id: 7,
        text_tokens: 1216,
        image_resolutions: [256, 384, 512, 768, 1024, 256, 384, 512, 768, 1024]
            .into_iter()
            .collect(),
        gen_images: 3,
        gen_resolution: 1024,
        patch: 16,
    };
    pins(
        &BatchHeader {
            samples: vec![sample],
            token_lens: vec![12_345],
            producer_cpu_ns: 5_000,
        },
        concat!(
            r#"{"samples":[{"id":7,"text_tokens":1216,"#,
            r#""image_resolutions":[256,384,512,768,1024,256,384,512,768,1024],"#,
            r#""gen_images":3,"gen_resolution":1024,"patch":16}],"#,
            r#""token_lens":[12345],"producer_cpu_ns":5000}"#
        ),
    );
    let extreme = TrainSample {
        id: u64::MAX,
        text_tokens: 1 << 60,
        image_resolutions: [u32::MAX].into_iter().collect(),
        gen_images: 0,
        gen_resolution: u32::MAX,
        patch: 14,
    };
    pins(
        &BatchHeader {
            samples: vec![extreme],
            token_lens: vec![0, 1 << 53, u64::MAX],
            producer_cpu_ns: (1 << 53) - 1,
        },
        concat!(
            r#"{"samples":[{"id":"18446744073709551615","text_tokens":"1152921504606846976","#,
            r#""image_resolutions":[4294967295],"gen_images":0,"gen_resolution":4294967295,"patch":14}],"#,
            r#""token_lens":[0,"9007199254740992","18446744073709551615"],"#,
            r#""producer_cpu_ns":9007199254740991}"#
        ),
    );
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_checkpoint_keeps_its_bytes() {
    let backbone = ModulePlan {
        sp: true,
        ep: 4,
        ..ModulePlan::new(8, u32::MAX, 10)
    };
    let state = TrainingState {
        iteration: u32::MAX,
        plan: OrchestrationPlan {
            encoder: ModulePlan::replicated(8, 2, 1),
            backbone,
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        },
        seed: u64::MAX,
    };
    let dir = tempdir("ckpt");
    let mut mgr = CheckpointManager::new(&dir).unwrap();
    mgr.save_async(&state).unwrap();
    mgr.wait().unwrap();
    let text = std::fs::read_to_string(dir.join("ckpt-4294967295.json")).unwrap();
    assert_eq!(
        text,
        concat!(
            r#"{"iteration":4294967295,"plan":{"#,
            r#""encoder":{"tp":8,"dp":2,"pp":1,"replicate_in_tp_group":true,"sp":false,"ep":1},"#,
            r#""backbone":{"tp":8,"dp":4294967295,"pp":10,"replicate_in_tp_group":false,"sp":true,"ep":4},"#,
            r#""generator":{"tp":1,"dp":8,"pp":1,"replicate_in_tp_group":false,"sp":false,"ep":1},"#,
            r#""microbatch":1},"seed":"18446744073709551615"}"#
        )
    );
    assert_eq!(CheckpointManager::recover(&dir).unwrap(), Some(state));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_written_before_sp_and_ep_recovers_their_defaults() {
    let dir = tempdir("old-format");
    let module = r#"{"tp":1,"dp":8,"pp":1,"replicate_in_tp_group":false}"#;
    std::fs::write(
        dir.join("ckpt-0000000012.json"),
        format!(
            r#"{{"iteration":12,"plan":{{"encoder":{module},"backbone":{module},"generator":{module},"microbatch":1}},"seed":42}}"#
        ),
    )
    .unwrap();
    let state = CheckpointManager::recover(&dir).unwrap().expect("decodes");
    assert_eq!(state.iteration, 12);
    for m in [
        state.plan.encoder,
        state.plan.backbone,
        state.plan.generator,
    ] {
        assert_eq!(m, ModulePlan::new(1, 8, 1));
        assert!(!m.sp);
        assert_eq!(m.ep, 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
