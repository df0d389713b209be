//! Cross-crate equivalence: the serve client's `RetryPolicy` must produce
//! bit-identical sleep schedules to the shared `dt_simengine::backoff`
//! implementation it delegates to — the guarantee that extracting the
//! backoff helper changed nothing, and that the preprocess reconnect
//! supervisor (which uses `BackoffPolicy` directly) paces exactly like
//! the planner client.

use dt_serve::RetryPolicy;
use dt_simengine::backoff::BackoffPolicy;
use std::time::Duration;

#[test]
fn retry_policy_schedule_equals_shared_backoff_schedule() {
    for (attempts, base_ms, cap_ms, seed) in [
        (1u32, 5u64, 50u64, 1u64),
        (4, 20, 1000, 42),
        (8, 1, 9, 7),
        (30, 10, 200, 99),
    ] {
        let retry = RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(cap_ms),
            seed,
        };
        let shared = BackoffPolicy {
            max_attempts: attempts,
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            seed,
        };
        assert_eq!(
            retry.backoff_schedule(),
            shared.schedule(),
            "schedules diverged for attempts={attempts} base={base_ms}ms cap={cap_ms}ms seed={seed}"
        );
        assert_eq!(retry.as_backoff(), shared);
    }
}

#[test]
fn schedule_is_stable_against_the_recorded_closed_form() {
    // The closed form documented on BackoffPolicy: sleep k is
    // min(base·2^min(k,20), cap) · jitter_k, jitter walked in order from
    // DetRng::new(seed). Recompute it by hand and compare.
    let policy = BackoffPolicy {
        max_attempts: 7,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(300),
        seed: 2024,
    };
    let mut rng = policy.rng();
    let by_hand: Vec<Duration> = (0..6)
        .map(|k: i32| {
            let capped = (0.010 * 2f64.powi(k.min(20))).min(0.300);
            Duration::from_secs_f64(capped * rng.range_f64(0.5, 1.0))
        })
        .collect();
    assert_eq!(policy.schedule(), by_hand);
}
