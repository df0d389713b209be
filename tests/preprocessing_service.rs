//! Integration tests of the real disaggregated preprocessing service:
//! wire protocol + producer plane + prefetching consumers under normal
//! operation and injected faults (§5.1/§6 and the smoltcp-style
//! fault-injection idiom). Built on the `Preprocess::builder` /
//! `Consumer::builder` data-plane API; a one-endpoint `MultiFeeder` is
//! the single-producer client.

use disttrain::data::{DataConfig, ResolutionMode};
use disttrain::model::MllmPreset;
use disttrain::preprocess::{
    ColocatedFeeder, Consumer, MultiFeeder, Preprocess, PreprocessError, PreprocessHandle,
};
use disttrain::reorder::{InterReorderConfig, ReorderMode, ReorderPlanner};
use disttrain::simengine::BackoffPolicy;
use std::collections::HashMap;
use std::time::Duration;

fn tiny() -> DataConfig {
    DataConfig {
        resolution: ResolutionMode::Fixed(64),
        ..DataConfig::evaluation(64)
    }
}

/// One-endpoint prefetching consumer keeping `pipeline` batches of
/// `batch` samples in flight.
fn consumer(producer: &PreprocessHandle, batch: u32, pipeline: usize) -> MultiFeeder {
    Consumer::builder(producer.addrs())
        .batch(batch)
        .pipeline(pipeline)
        .connect()
        .unwrap()
}

#[test]
fn disaggregated_stream_matches_colocated_bit_for_bit() {
    // Both modes must deliver the identical deterministic batch stream —
    // disaggregation is an optimization, not a semantic change.
    let planner = ReorderPlanner {
        model: MllmPreset::Mllm9B.build(),
        dp: 2,
        microbatch: 1,
        inter_cfg: InterReorderConfig::new(4, 0.05, 0.10),
        secs_per_flop: 1e-14,
        mode: ReorderMode::Full,
    };
    let mut colocated = ColocatedFeeder::new(tiny(), 5, Some(planner.clone()), 2);

    let producer = Preprocess::builder(tiny(), 5)
        .planner(planner)
        .spawn()
        .unwrap();
    let feeder = consumer(&producer, 4, 2);

    for _ in 0..3 {
        let (a, _) = colocated.next_batch(4);
        let (b, _) = feeder.next_batch().unwrap();
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.token_lens, b.token_lens);
        assert_eq!(a.tokens, b.tokens);
    }
}

#[test]
fn prefetch_hides_producer_latency() {
    let producer = Preprocess::builder(tiny(), 8).spawn().unwrap();
    let feeder = consumer(&producer, 4, 3);
    let _ = feeder.next_batch().unwrap(); // cold fetch
    std::thread::sleep(Duration::from_millis(150)); // "training" time
    let (_, warm) = feeder.next_batch().unwrap();
    assert!(
        warm.stall < Duration::from_millis(15),
        "warm stall {:?}",
        warm.stall
    );
}

#[test]
fn two_consumers_get_independent_sessions() {
    let producer = Preprocess::builder(tiny(), 2).spawn().unwrap();
    let a = consumer(&producer, 2, 1);
    let b = consumer(&producer, 2, 1);
    let (batch_a, _) = a.next_batch().unwrap();
    let (batch_b, _) = b.next_batch().unwrap();
    // Sessions use derived seeds, so streams are disjoint deterministic
    // shards rather than duplicates of one global iterator.
    assert_eq!(batch_a.batch.len(), 2);
    assert_eq!(batch_b.batch.len(), 2);
    assert_ne!(batch_a.tokens, batch_b.tokens);
}

#[test]
fn slow_producer_shows_up_as_bounded_stall_not_corruption() {
    let producer = Preprocess::builder(tiny(), 4)
        .fault_delay(Duration::from_millis(60))
        .spawn()
        .unwrap();
    let feeder = consumer(&producer, 3, 1);
    for i in 0..3 {
        let (batch, report) = feeder.next_batch().unwrap();
        assert_eq!(batch.batch.len(), 3);
        assert_eq!(
            batch.tokens.len() as u64,
            batch.token_lens.iter().sum::<u64>(),
            "payload must stay consistent under backpressure"
        );
        if i == 0 {
            // The cold fetch waits out the injected delay: the fault is
            // visible to the trainer as stall.
            assert!(
                report.stall >= Duration::from_millis(30),
                "fault not visible: {report:?}"
            );
        }
        assert!(report.stall < Duration::from_secs(5));
    }
}

#[test]
fn producer_shutdown_mid_stream_is_an_error_not_a_hang() {
    let producer = Preprocess::builder(tiny(), 6).spawn().unwrap();
    let addr = producer.addr();
    let feeder = Consumer::builder(producer.addrs())
        .batch(2)
        .pipeline(1)
        .backoff(BackoffPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 6,
        })
        .connect()
        .unwrap();
    let _ = feeder.next_batch().unwrap();
    drop(producer);
    // Batches already in flight may still drain; then the supervisor's
    // reconnect round fails and surfaces the typed terminal error.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match feeder.next_batch() {
            Err(PreprocessError::PeerDisconnected { addr: dead }) => {
                assert_eq!(dead, addr);
                break;
            }
            Err(e) => panic!("expected PeerDisconnected, got {e:?}"),
            Ok(_) if std::time::Instant::now() < deadline => continue,
            Ok(_) => panic!("dead producer kept serving past the deadline"),
        }
    }
}

#[test]
fn multi_endpoint_plane_fans_in_to_one_consumer() {
    // The §6 topology: N producer endpoints, one MultiFeeder fanning in
    // over a supervised connection per endpoint, in order per producer.
    let mut plane = Preprocess::builder(tiny(), 11)
        .producers(2)
        .workers(2)
        .spawn()
        .unwrap();
    let feeder = Consumer::builder(plane.addrs())
        .batch(2)
        .pipeline(2)
        .connect()
        .unwrap();

    // Each producer's session stream is deterministic: sample ids count up
    // from 0 per endpoint, so in-order delivery is directly checkable.
    let mut next_id: HashMap<_, u64> = HashMap::new();
    for _ in 0..8 {
        let (addr, batch, _) = feeder.next_batch_from().unwrap();
        assert_eq!(batch.batch.len(), 2);
        let expected = next_id.entry(addr).or_insert(0);
        assert_eq!(
            batch.batch.samples[0].id, *expected,
            "out of order from {addr}"
        );
        *expected += batch.batch.samples.len() as u64;
    }
    assert_eq!(next_id.len(), 2, "both endpoints must contribute");
    drop(feeder);
    assert!(plane.shutdown(), "plane must shut down cleanly");
}
