//! [`TimeSeries`]: ordered `(SimTime, value)` samples keyed on the
//! simulated clock.
//!
//! Unlike the scalar metrics, a time-series keeps every sample so the
//! [`crate::AnomalyDetector`] can scan the run after the fact. Appends
//! take a mutex — sampling happens once per iteration, not per event, so
//! this is far off the hot path.

use dt_simengine::SimTime;
use std::sync::Mutex;

/// An append-only series of `(simulated time, value)` points.
#[derive(Debug, Default)]
pub struct TimeSeries {
    points: Mutex<Vec<(SimTime, f64)>>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries {
            points: Mutex::new(Vec::new()),
        }
    }

    /// Append one sample at simulated time `at`.
    pub fn sample(&self, at: SimTime, value: f64) {
        self.points.lock().unwrap().push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.lock().unwrap().len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all points in insertion order.
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        self.points.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::SimDuration;

    #[test]
    fn series_keeps_order_and_times() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        let t0 = SimTime::default();
        s.sample(t0, 1.0);
        s.sample(t0 + SimDuration::from_secs_f64(2.0), 3.0);
        assert_eq!(s.len(), 2);
        let pts = s.points();
        let values: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1.0, 3.0]);
        assert!(pts[1].0 > pts[0].0);
    }
}
