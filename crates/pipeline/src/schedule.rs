//! Pipeline schedule definitions and per-stage operation orders.

/// Which pipeline schedule the stages execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// GPipe: run every forward, flush, then every backward (reverse
    /// microbatch order per stage).
    GPipe,
    /// 1F1B: warm up with `p − s` forwards on stage `s`, then alternate one
    /// backward / one forward, then drain the remaining backwards.
    OneFOneB,
    /// Interleaved 1F1B (VPP) with the given number of virtual stages per
    /// physical stage. Modeled as 1F1B with the warm-up contribution of
    /// each stage divided by the VPP size (§4.3's retrofit).
    Interleaved {
        /// Virtual pipeline stages per physical stage (≥ 1).
        vpp: u32,
    },
}

/// One operation in a stage's serial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// Forward pass of microbatch `i`.
    Fwd(usize),
    /// Backward pass of microbatch `i`.
    Bwd(usize),
}

impl Schedule {
    /// The serial operation order stage `s` (of `p`) executes for `l`
    /// microbatches.
    ///
    /// Out-of-range inputs (`s >= p`, `p == 0`, `l == 0`) yield an empty
    /// order: there is no such stage or nothing to run. The 1F1B warm-up
    /// depth `p − s` would otherwise underflow for `s >= p` (a debug panic
    /// or a release wrap into an absurd warm-up).
    pub fn stage_order(&self, s: usize, p: usize, l: usize) -> Vec<StageOp> {
        if p == 0 || s >= p || l == 0 {
            return Vec::new();
        }
        match self {
            Schedule::GPipe => {
                let mut ops: Vec<StageOp> = (0..l).map(StageOp::Fwd).collect();
                ops.extend((0..l).rev().map(StageOp::Bwd));
                ops
            }
            Schedule::OneFOneB | Schedule::Interleaved { .. } => {
                // Warm-up depth: stage s issues p − s forwards before its
                // first backward (classic 1F1B), capped by l.
                let warm = (p - s).min(l);
                let mut ops = Vec::with_capacity(2 * l);
                for i in 0..warm {
                    ops.push(StageOp::Fwd(i));
                }
                let mut next_f = warm;
                let mut next_b = 0;
                while next_b < l {
                    ops.push(StageOp::Bwd(next_b));
                    next_b += 1;
                    if next_f < l {
                        ops.push(StageOp::Fwd(next_f));
                        next_f += 1;
                    }
                }
                ops
            }
        }
    }

    /// Warm-up divisor for the analytic model (VPP shortens warm-up).
    pub fn warmup_divisor(&self) -> f64 {
        match self {
            Schedule::Interleaved { vpp } => (*vpp).max(1) as f64,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use StageOp::*;

    #[test]
    fn gpipe_orders_flush_then_reverse_backward() {
        let ops = Schedule::GPipe.stage_order(0, 2, 3);
        assert_eq!(ops, vec![Fwd(0), Fwd(1), Fwd(2), Bwd(2), Bwd(1), Bwd(0)]);
    }

    #[test]
    fn one_f_one_b_matches_textbook_pattern() {
        // p=4, l=6, stage 0: 4 warm-up forwards, then alternate.
        let ops = Schedule::OneFOneB.stage_order(0, 4, 6);
        assert_eq!(
            ops,
            vec![
                Fwd(0),
                Fwd(1),
                Fwd(2),
                Fwd(3),
                Bwd(0),
                Fwd(4),
                Bwd(1),
                Fwd(5),
                Bwd(2),
                Bwd(3),
                Bwd(4),
                Bwd(5),
            ]
        );
        // Last stage: one warm-up forward, strict alternation.
        let ops = Schedule::OneFOneB.stage_order(3, 4, 6);
        assert_eq!(
            ops,
            vec![
                Fwd(0),
                Bwd(0),
                Fwd(1),
                Bwd(1),
                Fwd(2),
                Bwd(2),
                Fwd(3),
                Bwd(3),
                Fwd(4),
                Bwd(4),
                Fwd(5),
                Bwd(5),
            ]
        );
    }

    #[test]
    fn warmup_caps_at_microbatch_count() {
        // l < p: every forward is warm-up.
        let ops = Schedule::OneFOneB.stage_order(0, 8, 2);
        assert_eq!(ops, vec![Fwd(0), Fwd(1), Bwd(0), Bwd(1)]);
    }

    #[test]
    fn every_schedule_runs_each_op_exactly_once() {
        for sched in [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 2 },
        ] {
            for s in 0..4 {
                let ops = sched.stage_order(s, 4, 7);
                assert_eq!(ops.len(), 14);
                let mut f = [0; 7];
                let mut b = [0; 7];
                for op in ops {
                    match op {
                        Fwd(i) => f[i] += 1,
                        Bwd(i) => b[i] += 1,
                    }
                }
                assert!(f.iter().all(|&c| c == 1));
                assert!(b.iter().all(|&c| c == 1));
            }
        }
    }

    #[test]
    fn backward_never_precedes_its_forward_in_stage_order() {
        for s in 0..4 {
            let ops = Schedule::OneFOneB.stage_order(s, 4, 9);
            for i in 0..9 {
                let fpos = ops.iter().position(|o| *o == Fwd(i)).unwrap();
                let bpos = ops.iter().position(|o| *o == Bwd(i)).unwrap();
                assert!(fpos < bpos, "stage {s}: B{i} before F{i}");
            }
        }
    }

    /// Regression: `s >= p` used to underflow the 1F1B warm-up depth
    /// `p − s` (debug panic / release wrap); out-of-range stages now get
    /// an empty order.
    #[test]
    fn out_of_range_stage_yields_empty_order() {
        for sched in [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 2 },
        ] {
            assert!(sched.stage_order(4, 4, 6).is_empty(), "s == p");
            assert!(sched.stage_order(9, 4, 6).is_empty(), "s > p");
        }
    }

    #[test]
    fn degenerate_pipeline_shapes_yield_empty_orders() {
        for sched in [
            Schedule::GPipe,
            Schedule::OneFOneB,
            Schedule::Interleaved { vpp: 2 },
        ] {
            assert!(sched.stage_order(0, 0, 6).is_empty(), "p == 0");
            assert!(sched.stage_order(0, 4, 0).is_empty(), "l == 0");
            assert!(sched.stage_order(0, 0, 0).is_empty(), "p == l == 0");
        }
    }

    #[test]
    fn warmup_divisor_reflects_vpp() {
        assert_eq!(Schedule::OneFOneB.warmup_divisor(), 1.0);
        assert_eq!(Schedule::Interleaved { vpp: 4 }.warmup_divisor(), 4.0);
    }
}
