//! The watcher→healer loop: anomaly verdicts become preemptive actions.
//!
//! dt-telemetry's [`AnomalyDetector`](dt_telemetry::AnomalyDetector) can
//! *flag* stragglers, MFU regressions, and stall bursts; until now nothing
//! acted on the flags. The [`Healer`] closes the loop (the ROADMAP's
//! self-healing item, motivated by Entrain's observation that
//! heterogeneity varies *over time*): it runs the detector online over the
//! committed iteration series and converts verdicts into two actions the
//! elastic driver executes on the spot:
//!
//! * **Stall burst ⇒ [`HealerAction::PreemptiveCheckpoint`].** Failing
//!   hardware stalls before it dies (the driver's precursor model makes
//!   this literal); saving *now* moves the rollback target right next to
//!   the predicted failure, so the blast destroys minutes, not a full
//!   checkpoint interval.
//! * **Persistent straggler / MFU regression ⇒
//!   [`HealerAction::ProactiveReplan`].** A slow replacement paces the
//!   whole synchronous job; evicting the slow slots and warm-replanning
//!   the survivors (over the run's existing §4 `WarmStart`, via
//!   [`TrainingTask::replan_shrunk_warm`](disttrain_core::TrainingTask::replan_shrunk_warm))
//!   trades a one-time reshard for every future iteration at full pace.
//!
//! The healer is pure decision logic over the observed series — it holds
//! no clock and draws no randomness — so a seeded run produces a
//! bit-identical action sequence (a dt-check oracle holds it to that).

use dt_telemetry::{AnomalyConfig, AnomalyKind, OnlineAnomalyDetector};

/// Tuning for the [`Healer`].
#[derive(Debug, Clone, Copy)]
pub struct HealerConfig {
    /// Detector thresholds for the online scan.
    pub anomaly: AnomalyConfig,
    /// Minimum observed iterations between two actions (hysteresis: an
    /// ongoing burst re-emits its verdict every iteration, and acting on
    /// each repeat would checkpoint in a loop).
    pub min_action_gap: u32,
    /// Straggler verdicts on consecutive iterations needed to call the
    /// slowness *persistent* (a lone spike self-heals; a slow node does
    /// not).
    pub straggler_run: u32,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            anomaly: AnomalyConfig::default(),
            min_action_gap: 4,
            straggler_run: 3,
        }
    }
}

/// What the healer decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealerAction {
    /// Save a checkpoint now, off-cadence, because the series predicts an
    /// imminent failure.
    PreemptiveCheckpoint,
    /// Evict the slow slots and warm-replan the survivors.
    ProactiveReplan,
}

impl HealerAction {
    /// Stable label value for the `dt_healer_actions_total{action}`
    /// counter.
    pub fn name(self) -> &'static str {
        match self {
            HealerAction::PreemptiveCheckpoint => "preemptive-checkpoint",
            HealerAction::ProactiveReplan => "proactive-replan",
        }
    }
}

/// One action the healer took during a run, for the [`ElasticReport`]
/// (and the oracle's bit-reproducibility check).
///
/// [`ElasticReport`]: crate::run::ElasticReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealerEvent {
    /// Iteration count at decision time (iterations committed so far).
    pub iteration: u32,
    /// What was done.
    pub action: HealerAction,
    /// The detector verdict that triggered it.
    pub trigger: AnomalyKind,
}

/// Online anomaly detection plus the verdict→action policy.
#[derive(Debug, Clone)]
pub struct Healer {
    cfg: HealerConfig,
    detector: OnlineAnomalyDetector,
    /// Iterations observed so far.
    observed: u32,
    /// `observed` at the last emitted action (hysteresis anchor).
    last_action_at: Option<u32>,
    /// Consecutive iterations carrying a straggler verdict.
    straggler_streak: u32,
}

impl Healer {
    /// A healer with the given tuning.
    pub fn new(cfg: HealerConfig) -> Self {
        Healer {
            cfg,
            detector: OnlineAnomalyDetector::new(cfg.anomaly),
            observed: 0,
            last_action_at: None,
            straggler_streak: 0,
        }
    }

    /// Observe one committed iteration (its wall seconds, observed MFU,
    /// and preprocessing-stall seconds) and decide whether to act.
    ///
    /// Replans outrank checkpoints when both trigger at once — a replan
    /// checkpoints first anyway. `iteration` is carried into the returned
    /// trigger's [`HealerEvent`] by the driver; it does not influence the
    /// decision, which depends only on the observed series.
    pub fn observe(
        &mut self,
        iter_secs: f64,
        mfu: f64,
        stall_secs: f64,
    ) -> Option<(HealerAction, AnomalyKind)> {
        self.observed += 1;
        let verdicts = self.detector.push(iter_secs, mfu, stall_secs);
        let newest = self.detector.len() - 1;
        let hit = |k: AnomalyKind| {
            verdicts
                .iter()
                .any(|a| a.kind == k && a.end_index == newest)
        };

        if hit(AnomalyKind::StragglerIteration) {
            self.straggler_streak += 1;
        } else {
            self.straggler_streak = 0;
        }

        let mut decision: Option<(HealerAction, AnomalyKind)> = None;
        if hit(AnomalyKind::PreprocessStallBurst) {
            decision = Some((
                HealerAction::PreemptiveCheckpoint,
                AnomalyKind::PreprocessStallBurst,
            ));
        }
        if hit(AnomalyKind::MfuRegression) {
            decision = Some((HealerAction::ProactiveReplan, AnomalyKind::MfuRegression));
        } else if self.straggler_streak >= self.cfg.straggler_run.max(1) {
            decision = Some((
                HealerAction::ProactiveReplan,
                AnomalyKind::StragglerIteration,
            ));
        }

        let gated = self
            .last_action_at
            .is_some_and(|at| self.observed - at < self.cfg.min_action_gap.max(1));
        if gated {
            return None;
        }
        if decision.is_some() {
            self.last_action_at = Some(self.observed);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_series(h: &mut Healer, samples: &[(f64, f64, f64)]) -> Vec<(u32, HealerAction)> {
        let mut out = Vec::new();
        for (i, &(t, m, s)) in samples.iter().enumerate() {
            if let Some((a, _)) = h.observe(t, m, s) {
                out.push((i as u32, a));
            }
        }
        out
    }

    fn clean(n: usize) -> Vec<(f64, f64, f64)> {
        vec![(1.0, 0.5, 0.0); n]
    }

    #[test]
    fn stall_burst_triggers_a_preemptive_checkpoint() {
        let mut h = Healer::new(HealerConfig::default());
        let mut series = clean(8);
        series.push((1.5, 0.5, 0.5));
        series.push((1.5, 0.5, 0.6)); // stall_run = 2 completes the burst
        let actions = observe_series(&mut h, &series);
        assert_eq!(actions, vec![(9, HealerAction::PreemptiveCheckpoint)]);
    }

    #[test]
    fn sustained_mfu_drop_triggers_a_proactive_replan() {
        let mut h = Healer::new(HealerConfig::default());
        let mut series = clean(8);
        series.extend(vec![(1.25, 0.4, 0.0); 4]); // mfu_run = 3
        let actions = observe_series(&mut h, &series);
        assert!(!actions.is_empty());
        assert_eq!(actions[0].1, HealerAction::ProactiveReplan);
    }

    #[test]
    fn persistent_stragglers_trigger_a_replan_but_a_spike_does_not() {
        let mut h = Healer::new(HealerConfig::default());
        let mut series = clean(8);
        series.push((4.0, 0.5, 0.0)); // one spike: no action
        series.extend(clean(8));
        let actions = observe_series(&mut h, &series);
        assert!(
            actions.is_empty(),
            "a lone spike must not trigger: {actions:?}"
        );

        // Three consecutive straggler verdicts = persistent. Hold the MFU
        // at baseline so only the straggler path can fire.
        let mut h = Healer::new(HealerConfig::default());
        let mut series = clean(8);
        series.extend(vec![(4.0, 0.5, 0.0); 3]);
        let actions = observe_series(&mut h, &series);
        assert_eq!(actions, vec![(10, HealerAction::ProactiveReplan)]);
    }

    #[test]
    fn hysteresis_bounds_the_action_rate() {
        let mut h = Healer::new(HealerConfig::default());
        let mut series = clean(8);
        // A long-lived stall burst re-emits its verdict every iteration;
        // the gap keeps actions ≥ min_action_gap apart.
        series.extend(vec![(1.5, 0.5, 0.5); 12]);
        let actions = observe_series(&mut h, &series);
        assert!(!actions.is_empty());
        for w in actions.windows(2) {
            assert!(
                w[1].0 - w[0].0 >= HealerConfig::default().min_action_gap,
                "actions too close: {actions:?}"
            );
        }
    }

    #[test]
    fn action_sequence_is_deterministic() {
        let run = || {
            let mut h = Healer::new(HealerConfig::default());
            let mut series = clean(8);
            series.extend(vec![(1.5, 0.5, 0.5); 3]);
            series.extend(clean(6));
            series.extend(vec![(1.3, 0.38, 0.0); 5]);
            observe_series(&mut h, &series)
        };
        assert_eq!(run(), run());
    }
}
