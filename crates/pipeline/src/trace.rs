//! Deriving trace spans from an executed pipeline timeline.
//!
//! [`record_pipeline_trace`] converts a [`PipelineResult`] into
//! [`TraceSpan`]s on one Chrome-trace process (`pid` = the DP rank), one
//! thread per stage. Every instant of every stage track is attributed to
//! exactly one of three categories:
//!
//! * `compute.fwd` / `compute.bwd` — the executed ops themselves;
//! * `comm` — the part of a gap spent waiting on the upstream point-to-point
//!   hop (the activation/gradient transfer of §4.3's `T_comm` term);
//! * `bubble` — the rest: warm-up, drain, and straggler-induced idle
//!   (Figure 7).
//!
//! Because the attribution tiles `[0, pad_to)` exactly, per-track span
//! durations sum to the padded makespan — the invariant the observability
//! tests (and the `IterationReport` consistency check) rely on.

use crate::result::{OpKind, PipelineResult};
use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
use dt_simengine::{SimDuration, SimTime};

/// How to label and pad a pipeline trace.
#[derive(Debug, Clone, Default)]
pub struct PipelineTraceOpts {
    /// Chrome-trace process id (use the DP rank).
    pub pid: u64,
    /// Pad every stage track with trailing bubble up to this instant (use
    /// the slowest rank's makespan so all ranks tile the same window).
    /// Defaults to the result's own makespan when `None`.
    pub pad_to: Option<SimDuration>,
    /// Optional per-stage module label ("encoder"/"llm"/"generator"),
    /// attached as the `module` arg on every span of that stage.
    pub stage_modules: Vec<String>,
}

fn module_of(opts: &PipelineTraceOpts, stage: usize) -> Option<&str> {
    opts.stage_modules.get(stage).map(String::as_str)
}

/// Record the full compute/comm/bubble attribution of `result` into `rec`.
///
/// `comm` is the per-boundary hop cost vector the simulation ran with
/// (`PipelineSpec::comm`); it is needed to split dependency gaps into comm
/// wait vs. genuine bubble.
///
/// ```
/// use dt_pipeline::{record_pipeline_trace, simulate, PipelineSpec, PipelineTraceOpts, Schedule, Workload};
/// use dt_simengine::{SimDuration, TraceRecorder};
///
/// let p = 3;
/// let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::from_millis(1));
/// let fwd = vec![SimDuration::from_millis(10); p];
/// let bwd = vec![SimDuration::from_millis(20); p];
/// let result = simulate(&spec, &Workload::homogeneous(&fwd, &bwd, 4));
///
/// let mut rec = TraceRecorder::enabled();
/// record_pipeline_trace(&mut rec, &result, &spec.comm, &PipelineTraceOpts::default());
///
/// // Every stage track tiles [0, makespan) exactly: compute + comm + bubble.
/// for stage in 0..p as u64 {
///     assert_eq!(rec.track_total(0, stage, None), result.makespan);
/// }
/// rec.validate_nesting().expect("spans are disjoint per track");
/// // …and exports as Chrome-trace JSON for chrome://tracing / Perfetto.
/// assert!(rec.to_chrome_json().contains("\"traceEvents\""));
/// ```
pub fn record_pipeline_trace(
    rec: &mut TraceRecorder,
    result: &PipelineResult,
    comm: &[SimDuration],
    opts: &PipelineTraceOpts,
) {
    if !rec.is_enabled() {
        return;
    }
    let pad_to = SimTime::ZERO + opts.pad_to.unwrap_or(result.makespan);
    // Dependency end times, rebuilt from the timeline.
    let p = result.stages;
    let l = result.microbatches;
    let mut fwd_end = vec![vec![SimTime::ZERO; l]; p];
    let mut bwd_end = vec![vec![SimTime::ZERO; l]; p];
    for op in &result.timeline {
        match op.kind {
            OpKind::Forward => fwd_end[op.stage][op.microbatch] = op.end,
            OpKind::Backward => bwd_end[op.stage][op.microbatch] = op.end,
        }
    }

    let mut push = |name: String,
                    category: &'static str,
                    stage: usize,
                    start: SimTime,
                    end: SimTime,
                    mb: Option<usize>| {
        if end <= start {
            return;
        }
        let mut span = TraceSpan::new(
            name,
            category,
            opts.pid,
            stage as u64,
            start,
            end.since(start),
        );
        if let Some(m) = module_of(opts, stage) {
            span = span.with_arg("module", m.to_string());
        }
        if let Some(mb) = mb {
            span = span.with_arg("microbatch", mb.to_string());
        }
        rec.record(span);
    };

    for stage in 0..p {
        let mut cursor = SimTime::ZERO;
        for op in result.stage_ops(stage) {
            if op.start > cursor {
                // Split the gap into comm wait (inside the dependency's hop
                // window) and bubble (everything else).
                let (dep_end, hop) = match op.kind {
                    OpKind::Forward if stage > 0 => (
                        fwd_end[stage - 1][op.microbatch],
                        comm.get(stage - 1).copied(),
                    ),
                    OpKind::Backward if stage + 1 < p => {
                        (bwd_end[stage + 1][op.microbatch], comm.get(stage).copied())
                    }
                    _ => (SimTime::ZERO, None),
                };
                let (comm_a, comm_b) = match hop {
                    Some(hop) if !hop.is_zero() => {
                        let a = dep_end.max(cursor);
                        let b = (dep_end + hop).min(op.start);
                        (a, b.max(a))
                    }
                    _ => (cursor, cursor),
                };
                push("idle".into(), cat::BUBBLE, stage, cursor, comm_a, None);
                push(
                    format!("recv{}", op.microbatch),
                    cat::COMM,
                    stage,
                    comm_a,
                    comm_b,
                    Some(op.microbatch),
                );
                push("idle".into(), cat::BUBBLE, stage, comm_b, op.start, None);
            }
            let (prefix, category) = match op.kind {
                OpKind::Forward => ('F', cat::COMPUTE_FWD),
                OpKind::Backward => ('B', cat::COMPUTE_BWD),
            };
            push(
                format!("{prefix}{}", op.microbatch),
                category,
                stage,
                op.start,
                op.end,
                Some(op.microbatch),
            );
            cursor = op.end;
        }
        // Trailing drain bubble pads every track to the common window.
        push("idle".into(), cat::BUBBLE, stage, cursor, pad_to, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::sim::{simulate, PipelineSpec, Workload};
    use dt_simengine::DetRng;

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    fn traced(p: usize, l: usize, hop: SimDuration, seed: u64) -> (TraceRecorder, PipelineResult) {
        let mut rng = DetRng::new(seed);
        let fwd: Vec<Vec<SimDuration>> = (0..p)
            .map(|_| (0..l).map(|_| d(rng.range_u64(50, 300))).collect())
            .collect();
        let bwd: Vec<Vec<SimDuration>> = (0..p)
            .map(|_| (0..l).map(|_| d(rng.range_u64(100, 600))).collect())
            .collect();
        let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, hop);
        let result = simulate(&spec, &Workload { fwd, bwd });
        let mut rec = TraceRecorder::enabled();
        record_pipeline_trace(&mut rec, &result, &spec.comm, &PipelineTraceOpts::default());
        (rec, result)
    }

    #[test]
    fn every_stage_track_tiles_the_makespan() {
        for seed in 0..20 {
            let (rec, result) = traced(4, 6, d(25), seed);
            for stage in 0..result.stages {
                let total = rec.track_total(0, stage as u64, None);
                assert_eq!(
                    total, result.makespan,
                    "seed {seed} stage {stage}: spans must tile the makespan"
                );
            }
            rec.validate_nesting().expect("pipeline spans are disjoint");
        }
    }

    #[test]
    fn compute_spans_match_stage_busy_time() {
        let (rec, result) = traced(3, 5, d(10), 7);
        for stage in 0..result.stages {
            let tid = stage as u64;
            let compute = rec.track_total(0, tid, Some(cat::COMPUTE_FWD))
                + rec.track_total(0, tid, Some(cat::COMPUTE_BWD));
            assert_eq!(compute, result.stage_busy(stage));
        }
    }

    #[test]
    fn zero_hop_pipeline_has_no_comm_spans() {
        let (rec, _) = traced(4, 4, SimDuration::ZERO, 3);
        assert!(rec.category_total(cat::COMM).is_zero());
        assert!(
            !rec.category_total(cat::BUBBLE).is_zero(),
            "warm-up bubble must exist"
        );
    }

    #[test]
    fn comm_spans_bounded_by_hop_budget() {
        let hop = d(40);
        let (rec, result) = traced(4, 5, hop, 11);
        // Each microbatch crosses each boundary twice (fwd + bwd); comm wait
        // can never exceed hop per crossing.
        let crossings = 2 * (result.stages - 1) * result.microbatches;
        assert!(rec.category_total(cat::COMM) <= hop * crossings as u64);
        assert!(!rec.category_total(cat::COMM).is_zero());
    }

    #[test]
    fn padding_extends_the_trailing_bubble() {
        let (_, result) = traced(2, 3, d(5), 1);
        let pad = result.makespan + d(1000);
        let spec = PipelineSpec::uniform(Schedule::OneFOneB, 2, d(5));
        let mut rec = TraceRecorder::enabled();
        let opts = PipelineTraceOpts {
            pid: 3,
            pad_to: Some(pad),
            ..Default::default()
        };
        record_pipeline_trace(&mut rec, &result, &spec.comm, &opts);
        for stage in 0..result.stages {
            assert_eq!(rec.track_total(3, stage as u64, None), pad);
        }
    }

    #[test]
    fn module_labels_ride_along() {
        let (_, result) = traced(2, 2, SimDuration::ZERO, 2);
        let mut rec = TraceRecorder::enabled();
        let opts = PipelineTraceOpts {
            pid: 0,
            pad_to: None,
            stage_modules: vec!["encoder".into(), "llm".into()],
        };
        record_pipeline_trace(&mut rec, &result, &[], &opts);
        assert!(rec.spans().iter().all(|s| s
            .args
            .iter()
            .any(|(k, v)| *k == "module" && (v == "encoder" || v == "llm"))));
    }

    #[test]
    fn disabled_recorder_is_untouched() {
        let (_, result) = traced(2, 2, d(5), 9);
        let mut rec = TraceRecorder::disabled();
        record_pipeline_trace(&mut rec, &result, &[d(5)], &PipelineTraceOpts::default());
        assert!(rec.is_empty());
    }
}
