//! ASCII Gantt rendering of a simulated pipeline — the Figure 4/7/12
//! visuals, generated from real timelines.
//!
//! Each stage is one row; forwards print as digits (microbatch index mod
//! 10), backwards as letters, idle as dots:
//!
//! ```text
//! stage 0 |0123b0.c1.d2...
//! stage 1 |.0123b0c1d2....
//! ```
//!
//! [`render_trace_gantt`] renders a recorded trace instead: one row per
//! `(rank, track)` pair, with comm wait (`~`) and attributed bubble (`.`)
//! distinguished — the text-mode twin of the Chrome-trace export.

use crate::result::{OpKind, PipelineResult};
use dt_simengine::trace::{cat, TraceRecorder};

/// Render `result` as an ASCII Gantt chart of `width` columns.
///
/// The `examples/pipeline_timeline.rs` walkthrough in miniature — simulate
/// a 1F1B pipeline and draw it:
///
/// ```
/// use dt_pipeline::{render_gantt, simulate, PipelineSpec, Schedule, Workload};
/// use dt_simengine::SimDuration;
///
/// let p = 4; // stages
/// let fwd = vec![SimDuration::from_millis(100); p];
/// let bwd = vec![SimDuration::from_millis(200); p];
/// let result = simulate(
///     &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
///     &Workload::homogeneous(&fwd, &bwd, 8),
/// );
/// let gantt = render_gantt(&result, 80);
/// assert_eq!(gantt.lines().count(), p + 1, "one row per stage + time axis");
/// assert!(gantt.contains("stage  0 |"));
/// assert!(gantt.contains('0') && gantt.contains('a'), "fwd digits + bwd letters");
/// ```
pub fn render_gantt(result: &PipelineResult, width: usize) -> String {
    let width = width.max(10);
    let total = result.makespan.as_nanos().max(1);
    let col = |ns: u64| -> usize {
        ((ns as u128 * width as u128 / total as u128) as usize).min(width - 1)
    };

    let mut out = String::new();
    for stage in 0..result.stages {
        let mut row = vec!['.'; width];
        for op in result.stage_ops(stage) {
            let a = col(op.start.as_nanos());
            let b = col(op.end.as_nanos().saturating_sub(1)).max(a);
            let glyph = match op.kind {
                OpKind::Forward => {
                    char::from_digit((op.microbatch % 10) as u32, 10).expect("mod 10")
                }
                OpKind::Backward => (b'a' + (op.microbatch % 26) as u8) as char,
            };
            for cell in &mut row[a..=b] {
                *cell = glyph;
            }
        }
        out.push_str(&format!("stage {stage:>2} |"));
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "          0 {:>width$}\n",
        format!("{}", result.makespan),
        width = width.saturating_sub(2)
    ));
    out
}

/// Render every `(pid, tid)` track of a recorded trace as one ASCII row of
/// `width` columns. Compute spans print their microbatch glyph (digits for
/// forward, letters for backward), comm waits print `~`, bubbles and stalls
/// print `.`, and any other category prints `#`.
pub fn render_trace_gantt(rec: &TraceRecorder, width: usize) -> String {
    let width = width.max(10);
    let total = rec
        .spans()
        .iter()
        .map(|s| s.end().as_nanos())
        .max()
        .unwrap_or(0)
        .max(1);
    let col = |ns: u64| -> usize {
        ((ns as u128 * width as u128 / total as u128) as usize).min(width - 1)
    };

    let mut out = String::new();
    for (pid, tid) in rec.tracks() {
        let mut row = vec![' '; width];
        for span in rec.spans().iter().filter(|s| s.pid == pid && s.tid == tid) {
            let a = col(span.start.as_nanos());
            let b = col(span.end().as_nanos().saturating_sub(1)).max(a);
            let mb = span
                .args
                .iter()
                .find(|(k, _)| *k == "microbatch")
                .and_then(|(_, v)| v.parse::<usize>().ok());
            let glyph = match span.cat {
                cat::COMPUTE_FWD => {
                    char::from_digit((mb.unwrap_or(0) % 10) as u32, 10).expect("mod 10")
                }
                cat::COMPUTE_BWD => (b'a' + (mb.unwrap_or(0) % 26) as u8) as char,
                cat::COMM => '~',
                cat::BUBBLE | cat::STALL => '.',
                _ => '#',
            };
            for cell in &mut row[a..=b] {
                *cell = glyph;
            }
        }
        out.push_str(&format!("rank {pid:>2} track {tid:>2} |"));
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::sim::{simulate, PipelineSpec, Workload};
    use crate::trace::{record_pipeline_trace, PipelineTraceOpts};
    use dt_simengine::SimDuration;

    fn result() -> PipelineResult {
        let p = 3;
        let w = Workload::homogeneous(
            &vec![SimDuration::from_millis(10); p],
            &vec![SimDuration::from_millis(20); p],
            4,
        );
        simulate(
            &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
            &w,
        )
    }

    #[test]
    fn gantt_has_one_row_per_stage() {
        let g = render_gantt(&result(), 60);
        assert_eq!(g.lines().count(), 4); // 3 stages + time axis
        assert!(g.contains("stage  0 |"));
    }

    #[test]
    fn rows_mix_work_and_idle() {
        let g = render_gantt(&result(), 80);
        let first = g.lines().next().unwrap();
        assert!(first.contains('0'), "forward glyphs missing: {first}");
        assert!(first.contains('a'), "backward glyphs missing: {first}");
        // Stage 0 idles during the steady intervals.
        assert!(first.contains('.'), "idle glyphs missing: {first}");
    }

    #[test]
    fn trace_gantt_has_one_row_per_track() {
        let r = result();
        let spec = PipelineSpec::uniform(Schedule::OneFOneB, 3, SimDuration::from_millis(1));
        let mut rec = TraceRecorder::enabled();
        record_pipeline_trace(&mut rec, &r, &spec.comm, &PipelineTraceOpts::default());
        let g = render_trace_gantt(&rec, 60);
        assert_eq!(g.lines().count(), 3);
        let first = g.lines().next().unwrap();
        assert!(first.contains('0'), "forward glyphs missing: {first}");
        assert!(first.contains('a'), "backward glyphs missing: {first}");
        assert!(first.contains('.'), "bubble glyphs missing: {first}");
    }

    #[test]
    fn empty_trace_gantt_is_empty() {
        assert_eq!(render_trace_gantt(&TraceRecorder::enabled(), 40), "");
    }

    #[test]
    fn empty_pipeline_renders_axis_only() {
        let r = PipelineResult {
            stages: 0,
            microbatches: 0,
            timeline: vec![],
            makespan: SimDuration::ZERO,
        };
        let g = render_gantt(&r, 40);
        assert_eq!(g.lines().count(), 1);
    }
}
