//! The one checkpoint–restart timeline both elastic drivers run on.
//!
//! A [`Timeline`] owns the wall clock, the [`GoodputReport`] buckets, the
//! [`FailureStream`], the trace-clock origin and the elastic counters.
//! Every charge — a committed iteration, a checkpoint write, a rollback
//! plus restart, a re-shard — is one method that moves the wall clock,
//! its bucket and the trace origin together, so the three cannot drift
//! apart. [`simulate_goodput`](crate::sim::simulate_goodput) drives it with
//! a constant iteration time; [`run_elastic`](crate::run::run_elastic)
//! drives it with the runtime's iterations and adds the side effects only
//! a live run has (checkpoint files, spares, re-plans, the healer).
//!
//! Failures are taken at iteration boundaries: a failure that strikes
//! inside a checkpoint-write, restart or re-shard window surfaces before
//! the next iteration, with no in-flight partial to lose.

use crate::goodput::GoodputReport;
use crate::stream::{FailureStream, NodeFailure};
use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
use dt_simengine::{SimDuration, SimTime};
use dt_telemetry::{names, Telemetry};

/// Wall clock, goodput buckets, failure stream and trace clock of one
/// elastic run.
pub(crate) struct Timeline<'a> {
    now: SimTime,
    /// While set, every elapsed second also counts as degraded time.
    degraded: bool,
    g: GoodputReport,
    stream: FailureStream,
    /// Iteration of the newest checkpoint (the rollback target).
    saved_at: u32,
    checkpoint_cost: SimDuration,
    restart_overhead: SimDuration,
    reshard_cost: SimDuration,
    rec: &'a mut TraceRecorder,
    tel: &'a Telemetry,
    /// Trace process of the elastic spans: checkpoints on `tid 1`,
    /// failure / recovery / re-orchestration on `tid 2`.
    pid: u64,
}

impl<'a> Timeline<'a> {
    pub(crate) fn new(
        stream: FailureStream,
        checkpoint_cost: SimDuration,
        restart_overhead: SimDuration,
        reshard_cost: SimDuration,
        rec: &'a mut TraceRecorder,
        tel: &'a Telemetry,
        pid: u64,
    ) -> Self {
        Timeline {
            now: SimTime::ZERO,
            degraded: false,
            g: GoodputReport::default(),
            stream,
            saved_at: 0,
            checkpoint_cost,
            restart_overhead,
            reshard_cost,
            rec,
            tel,
            pid,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn saved_at(&self) -> u32 {
        self.saved_at
    }

    pub(crate) fn stream(&self) -> &FailureStream {
        &self.stream
    }

    /// Remove a slot from the failure process (the cluster shrank).
    pub(crate) fn retire(&mut self, node: u32) {
        self.stream.retire(node);
    }

    /// The trace recorder, when it keeps spans (for the runtime's own
    /// iteration spans, recorded at the current origin).
    pub(crate) fn tracing(&mut self) -> Option<&mut TraceRecorder> {
        self.rec.is_enabled().then_some(&mut *self.rec)
    }

    /// Count every further second as degraded capacity.
    pub(crate) fn degrade(&mut self) {
        self.degraded = true;
    }

    /// Advance the wall clock, degraded time and trace origin together.
    fn elapse(&mut self, dur: SimDuration) {
        self.now += dur;
        if self.degraded {
            self.g.degraded += dur;
        }
        self.rec.set_origin(self.rec.origin() + dur);
    }

    /// [`Timeline::elapse`] recorded as one span.
    fn span(
        &mut self,
        cat: &'static str,
        tid: u64,
        dur: SimDuration,
        name: impl FnOnce() -> String,
    ) {
        let pid = self.pid;
        self.rec
            .record_with(|| TraceSpan::new(name(), cat, pid, tid, SimTime::ZERO, dur));
        self.elapse(dur);
    }

    /// Pop the failure that strikes before an iteration of `dur` starting
    /// now would end, together with every victim of the same instant: a
    /// correlated domain event fails each live slot of its rack, and the
    /// job restarts *once* for the whole blast. Each victim's slot redraws
    /// its next gap from the end of the restart.
    pub(crate) fn next_failure(&mut self, dur: SimDuration) -> Option<Vec<NodeFailure>> {
        let end = self.now + dur;
        self.stream.peek().filter(|f| f.at < end)?;
        let first = self.stream.pop_with_repair(self.restart_overhead)?;
        let mut victims = vec![first];
        while let Some(v) = self
            .stream
            .peek()
            .filter(|n| first.correlated && n.correlated && n.at == first.at)
        {
            self.stream.pop_with_repair(self.restart_overhead);
            victims.push(v);
        }
        Some(victims)
    }

    /// Charge the interruption `victims` caused while iteration `it` was
    /// in flight: the partial iteration up to the failure instant (zero
    /// when it struck inside an overhead window) and the `rolled`
    /// committed-but-unsaved work are lost, then the restart elapses and
    /// the run resumes from `resume_at`.
    pub(crate) fn roll_back(
        &mut self,
        victims: &[NodeFailure],
        it: u32,
        resume_at: u32,
        rolled: SimDuration,
    ) {
        let first = victims[0];
        let partial = first.at - self.now;
        self.span(cat::FAILURE, 2, partial, || {
            format!("failure@{it}:node{}x{}", first.node, victims.len())
        });
        self.g.lost += partial + rolled;
        self.g.committed -= rolled;
        self.g.failures += victims.len() as u32;
        self.g.restart += self.restart_overhead;
        self.saved_at = resume_at;
        let restart = self.restart_overhead;
        self.span(cat::RECOVERY, 2, restart, || {
            format!("recovery@{it}->{resume_at}")
        });
        let now = self.now;
        self.tel.with(|r| {
            r.counter(names::ELASTIC_FAILURES_TOTAL, &[])
                .add(victims.len() as u64);
            if first.correlated {
                r.counter(names::ELASTIC_DOMAIN_EVENTS_TOTAL, &[]).inc();
            }
            r.counter(names::ELASTIC_ROLLED_BACK_ITERATIONS_TOTAL, &[])
                .add(u64::from(it.saturating_sub(resume_at)));
            // The aborted attempt is real elapsed time: one straggler
            // point on the iteration-time series, never committed.
            r.series(names::SERIES_ITER_TIME, &[])
                .sample(now, (partial + restart).as_secs_f64());
        });
    }

    /// Commit one iteration of `work` that took `wall` (pacing and stalls
    /// beyond the work are lost capacity).
    pub(crate) fn commit(&mut self, work: SimDuration, wall: SimDuration) {
        self.g.committed += work;
        self.g.lost += wall - work;
        self.elapse(wall);
    }

    /// Write the checkpoint of iteration `it`; `kind` names its span.
    pub(crate) fn checkpoint(&mut self, it: u32, kind: &str) {
        self.saved_at = it;
        self.g.checkpoint += self.checkpoint_cost;
        self.g.checkpoints += 1;
        self.tel
            .with(|r| r.counter(names::ELASTIC_CHECKPOINTS_TOTAL, &[]).inc());
        self.span(cat::CHECKPOINT, 1, self.checkpoint_cost, || {
            format!("{kind}@{it}")
        });
    }

    /// Migrate state onto a re-plan for a cluster `lost` nodes smaller
    /// (checkpoint bytes over the RDMA fabric); the run is degraded from
    /// then on.
    pub(crate) fn reshard(&mut self, lost: u32, name: impl FnOnce() -> String) {
        self.g.shrinks += lost;
        self.g.reshard += self.reshard_cost;
        self.tel.with(|r| {
            r.counter(names::ELASTIC_SHRINKS_TOTAL, &[])
                .add(u64::from(lost))
        });
        self.span(cat::REORCH, 2, self.reshard_cost, name);
        self.degraded = true;
    }

    /// Close the run: the wall clock so far is the total.
    pub(crate) fn finish(mut self) -> GoodputReport {
        self.g.total_wall = self.now - SimTime::ZERO;
        let g = self.g;
        self.tel.with(|r| {
            r.gauge(names::ELASTIC_GOODPUT_FRACTION, &[])
                .set(g.goodput());
            r.gauge(names::ELASTIC_DEGRADED_SECONDS, &[])
                .set(g.degraded.as_secs_f64());
        });
        g
    }
}
