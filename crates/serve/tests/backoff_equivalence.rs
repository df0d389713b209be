//! The serve client's `RetryPolicy` is the shared `dt_simengine::backoff`
//! policy the preprocess reconnect supervisor paces with; its schedule
//! must stay the documented closed form.

use dt_simengine::backoff::BackoffPolicy;
use std::time::Duration;

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
