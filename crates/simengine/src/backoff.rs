//! Seeded exponential backoff and deadline accounting — the one
//! implementation of retry pacing shared by every networked component.
//!
//! Extracted from the `dt-serve` client so the preprocessing data plane's
//! reconnect supervisor and the planner client cannot drift apart: both
//! produce *deterministic* sleep schedules (jitter comes from a seeded
//! [`DetRng`], so a load test can predict every sleep to the nanosecond)
//! and both budget their sleeps against an optional wall-clock
//! [`Deadline`] so a retry loop never sleeps past the point where no
//! attempt is left to spend the remaining time on.
//!
//! The schedule is exponential growth from `base`, capped at `cap`, with
//! multiplicative jitter in `[0.5, 1.0)` — the decorrelation Optimus-style
//! schedulers use so synchronized clients do not re-stampede a recovering
//! server.

use crate::rng::DetRng;
use std::time::{Duration, Instant};

/// A deterministic retry/backoff policy.
///
/// Equal seeds give equal schedules; different seeds decorrelate. The
/// closed form of sleep `k` (0-based, after failed attempt `k+1`) is
/// `min(base · 2^min(k,20), cap) · jitter_k` with `jitter_k ∈ [0.5, 1.0)`
/// drawn in order from `DetRng::new(seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) starts from `base · 2^(k-1)`.
    pub base: Duration,
    /// Per-sleep upper bound.
    pub cap: Duration,
    /// Jitter seed; equal seeds give equal schedules.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 4,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 1,
        }
    }
}

impl BackoffPolicy {
    /// The deterministic sleep schedule this policy produces: entry `k` is
    /// the backoff after failed attempt `k+1` (so a policy with
    /// `max_attempts` attempts has `max_attempts − 1` sleeps).
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = DetRng::new(self.seed);
        (0..self.max_attempts.saturating_sub(1))
            .map(|k| self.nth_backoff(k, &mut rng))
            .collect()
    }

    /// One step of the schedule, drawing jitter from the caller's RNG (the
    /// RNG must be walked in order for the schedule to stay deterministic).
    pub fn nth_backoff(&self, k: u32, rng: &mut DetRng) -> Duration {
        let exp = self.base.as_secs_f64() * 2f64.powi(k.min(20) as i32);
        let capped = exp.min(self.cap.as_secs_f64());
        Duration::from_secs_f64(capped * rng.range_f64(0.5, 1.0))
    }

    /// A fresh jitter stream positioned at the start of the schedule.
    pub fn rng(&self) -> DetRng {
        DetRng::new(self.seed)
    }
}

/// Wall-clock budget for one logical operation (connect + exchanges +
/// backoff sleeps). `None` means unbounded.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// Start the clock with an optional budget.
    pub fn start(budget: Option<Duration>) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget,
        }
    }

    /// Time left, or `None` when unbounded. `Some(ZERO)` means spent.
    #[cfg(test)]
    fn remaining(&self) -> Option<Duration> {
        self.budget
            .map(|b| b.saturating_sub(self.started.elapsed()))
    }

    /// Time left, with `default` standing in for an unbounded deadline —
    /// the shape socket timeouts want. `None` means the budget is spent.
    pub fn remaining_or(&self, default: Duration) -> Option<Duration> {
        match self.budget {
            None => Some(default),
            Some(b) => b
                .checked_sub(self.started.elapsed())
                .filter(|d| !d.is_zero()),
        }
    }

    /// Whether a sleep of `sleep` still fits inside the budget. Sleeping
    /// past the deadline burns wall time no attempt is left to spend.
    pub fn allows_sleep(&self, sleep: Duration) -> bool {
        match self.budget {
            None => true,
            Some(b) => self.started.elapsed() + sleep < b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_jitter_bounded() {
        let policy = BackoffPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 99,
        };
        let a = policy.schedule();
        assert_eq!(a, policy.schedule(), "equal seeds give equal schedules");
        assert_eq!(a.len(), 5);
        for (k, d) in a.iter().enumerate() {
            let cap = (0.010 * 2f64.powi(k as i32)).min(0.200);
            let secs = d.as_secs_f64();
            assert!(
                secs >= cap * 0.5 - 1e-9 && secs < cap,
                "sleep {k} = {secs}s outside window"
            );
        }
        let other = BackoffPolicy {
            seed: 100,
            ..policy
        };
        assert_ne!(other.schedule(), a, "different seeds decorrelate");
    }

    #[test]
    fn single_attempt_policy_never_sleeps() {
        let policy = BackoffPolicy {
            max_attempts: 1,
            ..BackoffPolicy::default()
        };
        assert!(policy.schedule().is_empty());
        let policy = BackoffPolicy {
            max_attempts: 0,
            ..BackoffPolicy::default()
        };
        assert!(policy.schedule().is_empty());
    }

    #[test]
    fn unbounded_deadline_always_allows() {
        let d = Deadline::start(None);
        assert!(d.remaining().is_none());
        assert!(d.allows_sleep(Duration::from_secs(3600)));
        assert_eq!(
            d.remaining_or(Duration::from_secs(7)),
            Some(Duration::from_secs(7))
        );
    }

    #[test]
    fn bounded_deadline_accounts_for_elapsed_time() {
        let d = Deadline::start(Some(Duration::from_millis(40)));
        assert!(d.allows_sleep(Duration::from_millis(1)));
        assert!(!d.allows_sleep(Duration::from_secs(10)));
        let r = d.remaining().expect("bounded");
        assert!(r <= Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(45));
        assert_eq!(
            d.remaining(),
            Some(Duration::ZERO),
            "spent budget saturates at zero"
        );
        assert!(
            d.remaining_or(Duration::from_secs(1)).is_none(),
            "spent budget yields None"
        );
        assert!(!d.allows_sleep(Duration::ZERO));
    }
}
