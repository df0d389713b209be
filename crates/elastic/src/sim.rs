//! Test-only: the constant-iteration-time machine, and the exhaustive
//! checkpoint-interval search that validates Young–Daly.
//!
//! The machine is the textbook abstraction the Young–Daly formula is
//! derived for: a fixed-rate worker (one iteration per `iter_time`),
//! synchronous checkpoints every `checkpoint_interval` iterations costing
//! `checkpoint_cost`, and a Poisson failure process (the
//! [`FailureStream`](crate::stream::FailureStream)) that throws the
//! worker back to its last durable checkpoint and charges
//! `restart_overhead`. It runs on the same timeline as
//! [`run_elastic`](crate::run::run_elastic), so both charge every second
//! the same way.
//!
//! Failures are taken at iteration boundaries. A failure that lands
//! inside a checkpoint write or a restart does not destroy that window:
//! the checkpoint still becomes durable, and the failure surfaces before
//! the next iteration with no in-flight work to lose. Only a failure that
//! strikes mid-iteration loses the partial iteration.
//!
//! With a [`FailureTopology`](crate::topology::FailureTopology) the
//! failure process gains a correlated layer: a domain event fails every
//! live slot in one rack at one instant. The timeline takes the
//! same-instant victims as a *single* rollback + restart, so a k-node
//! blast still counts as one interruption — which is exactly the
//! event-rate view under which the correlated Young–Daly optimum
//! ([`young_daly_interval_correlated`](crate::policy::young_daly_interval_correlated))
//! is derived, and what the correlated validation test checks here.
//!
//! `exhaustive_best_interval` grid-searches the interval over this
//! machine, which is how the repo *proves* (in a test, not a doc claim)
//! that `√(2·C·M)` lands within one grid step of the simulated optimum.

#[cfg(test)]
mod tests {
    use crate::goodput::GoodputReport;
    use crate::policy::{
        interval_in_iterations, young_daly_interval, young_daly_interval_correlated,
    };
    use crate::run::ElasticError;
    use crate::stream::FailureStream;
    use crate::timeline::Timeline;
    use crate::topology::FailureTopology;
    use dt_simengine::{SimDuration, SimTime, TraceRecorder};
    use dt_telemetry::Telemetry;

    /// The checkpoint–restart machine description.
    #[derive(Debug, Clone, Copy)]
    struct MachineConfig {
        /// Iterations the run must commit.
        iterations: u32,
        /// Fixed cost of one iteration.
        iter_time: SimDuration,
        /// Synchronous cost of one checkpoint write.
        checkpoint_cost: SimDuration,
        /// Checkpoint cadence in iterations.
        checkpoint_interval: u32,
        /// Cost of detection + reschedule + reload after a failure.
        restart_overhead: SimDuration,
        /// Failure domains (nodes); any one failing restarts the machine.
        nodes: u32,
        /// Per-node MTBF.
        node_mtbf: SimDuration,
        /// Failure-stream seed.
        failure_seed: u64,
        /// Correlated rack/switch domains layered on top of the independent
        /// per-node process. `None` keeps the classic independent model.
        topology: Option<FailureTopology>,
        /// Spare pool: `None` repairs every failure in place (unlimited
        /// spares, the classic machine); `Some(k)` consumes one spare per
        /// failed slot and *retires* slots once the pool is dry — a large
        /// enough blast radius can then destroy every slot and stall the
        /// machine, which surfaces as [`ElasticError::NoProgress`].
        spares: Option<u32>,
    }

    /// Run the machine to completion and account for every wall-clock second.
    ///
    /// Errors with [`ElasticError::NoProgress`] when the failure process
    /// destroys every node slot (spare pool dry, blast radius too large)
    /// before the requested iterations commit.
    fn simulate_goodput(cfg: &MachineConfig) -> Result<GoodputReport, ElasticError> {
        let stream =
            FailureStream::with_topology(cfg.nodes, cfg.node_mtbf, cfg.failure_seed, cfg.topology);
        let (mut rec, tel) = (TraceRecorder::disabled(), Telemetry::disabled());
        let mut tl = Timeline::new(
            stream,
            cfg.checkpoint_cost,
            cfg.restart_overhead,
            SimDuration::ZERO,
            &mut rec,
            &tel,
            0,
        );
        let mut spares = cfg.spares;
        let mut it = 0u32;
        while it < cfg.iterations {
            let Some(victims) = tl.next_failure(cfg.iter_time) else {
                tl.commit(cfg.iter_time, cfg.iter_time);
                it += 1;
                if it.is_multiple_of(cfg.checkpoint_interval.max(1)) {
                    tl.checkpoint(it, "checkpoint");
                }
                continue;
            };
            let resume_at = tl.saved_at();
            tl.roll_back(
                &victims,
                it,
                resume_at,
                cfg.iter_time * u64::from(it - resume_at),
            );
            it = resume_at;
            // Spare accounting: a dry pool retires the slot (the cluster
            // shrank); `None` means repair-in-place forever.
            for v in &victims {
                match spares.as_mut() {
                    Some(0) => tl.retire(v.node),
                    Some(left) => *left -= 1,
                    None => {}
                }
            }
            if tl.stream().active() == 0 {
                // Every slot is gone and the spare pool is dry: nothing can
                // host the job.
                return Err(ElasticError::NoProgress {
                    committed: it,
                    requested: cfg.iterations,
                });
            }
        }
        Ok(tl.finish())
    }

    /// Exhaustively search `grid` (checkpoint intervals in iterations) on the
    /// simulator, averaging goodput over `seeds` independent failure
    /// timelines, and return the interval with the highest mean goodput.
    fn exhaustive_best_interval(
        cfg: &MachineConfig,
        grid: &[u32],
        seeds: &[u64],
    ) -> Result<u32, ElasticError> {
        assert!(!grid.is_empty() && !seeds.is_empty());
        let mut best = (f64::NEG_INFINITY, grid[0]);
        for &interval in grid {
            let mut total = 0.0;
            for &seed in seeds {
                let mut c = *cfg;
                c.checkpoint_interval = interval;
                c.failure_seed = seed;
                total += simulate_goodput(&c)?.goodput();
            }
            let mean = total / seeds.len() as f64;
            if mean > best.0 {
                best = (mean, interval);
            }
        }
        Ok(best.1)
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn cfg() -> MachineConfig {
        MachineConfig {
            iterations: 2_000,
            iter_time: secs(1.0),
            checkpoint_cost: secs(25.0),
            checkpoint_interval: 400,
            restart_overhead: secs(60.0),
            nodes: 16,
            node_mtbf: secs(50_000.0),
            failure_seed: 1,
            topology: None,
            spares: None,
        }
    }

    #[test]
    fn accounting_partitions_the_wall_clock() {
        for seed in 0..20 {
            let mut c = cfg();
            c.failure_seed = seed;
            let g = simulate_goodput(&c).unwrap();
            g.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                g.committed,
                secs(2_000.0),
                "seed {seed}: exactly N iterations commit"
            );
            assert!(g.goodput() > 0.0 && g.goodput() <= 1.0);
        }
    }

    #[test]
    fn correlated_accounting_partitions_the_wall_clock() {
        for seed in 0..20 {
            let mut c = cfg();
            c.topology = Some(FailureTopology::new(4, secs(5_000.0)));
            c.failure_seed = seed;
            let g = simulate_goodput(&c).unwrap();
            g.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(g.committed, secs(2_000.0), "seed {seed}");
        }
    }

    #[test]
    fn no_failures_means_no_lost_time() {
        let mut c = cfg();
        c.node_mtbf = secs(1e12); // failures effectively never
        let g = simulate_goodput(&c).unwrap();
        assert_eq!(g.failures, 0);
        assert_eq!(g.lost, SimDuration::ZERO);
        assert_eq!(g.restart, SimDuration::ZERO);
        assert_eq!(g.checkpoints, 5); // 2000 / 400
        assert_eq!(g.total_wall, secs(2_000.0 + 5.0 * 25.0));
    }

    #[test]
    fn failures_cost_lost_and_restart_time() {
        let mut c = cfg();
        c.iterations = 10_000;
        let g = simulate_goodput(&c).unwrap();
        assert!(
            g.failures > 0,
            "10ks horizon at 3.1ks system MTBF must fail"
        );
        assert!(g.lost > SimDuration::ZERO);
        assert!(g.restart >= c.restart_overhead);
        assert!(g.goodput() < 1.0);
        assert_eq!(g.committed, secs(10_000.0));
    }

    #[test]
    fn tighter_checkpointing_bounds_lost_work() {
        // With an interval of k iterations, each failure loses at most
        // k·t + C plus the in-flight partial — verify the bound holds.
        let mut c = cfg();
        c.iterations = 8_000;
        c.checkpoint_interval = 100;
        let g = simulate_goodput(&c).unwrap();
        if g.failures > 0 {
            let per_failure = g.lost.as_secs_f64() / f64::from(g.failures);
            let bound = 100.0 * 1.0 + 25.0 + 60.0; // k·t + C + in-flight restart
            assert!(
                per_failure <= bound,
                "mean lost/failure {per_failure:.1}s > {bound}s"
            );
        }
    }

    /// A failure inside a checkpoint write is taken at the next iteration
    /// boundary: the checkpoint still becomes durable, nothing is lost,
    /// and the run pays exactly one restart.
    #[test]
    fn failure_inside_a_checkpoint_write_loses_nothing() {
        let mut c = cfg();
        c.iterations = 1_000;
        c.checkpoint_interval = 100;
        c.node_mtbf = secs(20_000.0);
        let (t, ck, k, n) = (
            c.iter_time,
            c.checkpoint_cost,
            c.checkpoint_interval,
            c.iterations,
        );
        // Does `at` fall inside one of the failure-free run's checkpoint
        // writes? The m-th write starts after m·k iterations and m-1 writes.
        let in_write = |at: SimTime| {
            (1..=n / k).any(|m| {
                let start = SimTime::ZERO + t * u64::from(m * k) + ck * u64::from(m - 1);
                start <= at && at < start + ck
            })
        };
        let (seed, g) = (0..500)
            .find_map(|seed| {
                c.failure_seed = seed;
                let first =
                    FailureStream::with_topology(c.nodes, c.node_mtbf, seed, None).peek()?;
                let g = simulate_goodput(&c).unwrap();
                (g.failures == 1 && in_write(first.at)).then_some((seed, g))
            })
            .expect("some seed fails once, inside a checkpoint write");
        assert_eq!(g.lost, SimDuration::ZERO, "seed {seed}");
        assert_eq!(g.restart, c.restart_overhead, "seed {seed}");
        assert_eq!(
            g.total_wall,
            t * u64::from(n) + ck * u64::from(g.checkpoints) + c.restart_overhead,
            "seed {seed}"
        );
    }

    /// A bounded spare pool that never runs out behaves exactly like the
    /// classic repair-in-place machine.
    #[test]
    fn an_ample_spare_pool_is_repair_in_place() {
        let mut c = cfg();
        c.iterations = 5_000;
        let unlimited = simulate_goodput(&c).unwrap();
        c.spares = Some(10_000);
        let ample = simulate_goodput(&c).unwrap();
        assert_eq!(unlimited, ample);
    }

    /// Satellite-2 regression: exhausting the spare pool under a
    /// whole-cluster blast radius stalls the machine, which must surface
    /// as a typed `NoProgress` error — never a panic.
    #[test]
    fn spare_exhaustion_surfaces_as_no_progress() {
        let mut c = cfg();
        c.iterations = 10_000;
        // One domain covering every node: the first domain event (MTBF
        // 400s, horizon 10ks) retires the whole cluster.
        c.topology = Some(FailureTopology::new(16, secs(400.0)));
        c.spares = Some(0);
        match simulate_goodput(&c) {
            Err(ElasticError::NoProgress {
                committed,
                requested,
            }) => {
                assert!(committed < requested);
                assert_eq!(requested, 10_000);
            }
            Err(other) => panic!("expected NoProgress, got {other}"),
            Ok(g) => panic!("machine cannot finish with every node dead: {g:?}"),
        }
    }

    /// The acceptance-criteria test: the Young–Daly analytic interval lands
    /// within one grid step of the simulator's exhaustive optimum.
    #[test]
    fn young_daly_matches_exhaustive_search() {
        let c = cfg(); // C=25s, M=50_000/16=3125s → τ* = √(2·25·3125) ≈ 395s
        let mut base = c;
        base.iterations = 20_000;
        let step = 100u32;
        let grid: Vec<u32> = (1..=12).map(|k| k * step).collect();
        let seeds: Vec<u64> = (0..6).collect();
        let best = exhaustive_best_interval(&base, &grid, &seeds).unwrap();
        let yd = interval_in_iterations(
            young_daly_interval(base.checkpoint_cost, base.node_mtbf, base.nodes),
            base.iter_time,
        );
        assert!((380..=410).contains(&yd), "analytic YD ≈ 395, got {yd}");
        let diff = yd.abs_diff(best);
        assert!(
            diff <= step,
            "Young–Daly {yd} vs exhaustive optimum {best}: off by {diff} > one grid step {step}"
        );
    }

    /// Young–Daly re-validation under correlated MTBF: with domain events
    /// in the mix the system MTBF is the reciprocal of the *summed* event
    /// rates — the closed form with that M must still land within one
    /// grid step of the exhaustive optimum.
    #[test]
    fn correlated_young_daly_matches_exhaustive_search() {
        let mut base = cfg();
        base.iterations = 20_000;
        // 16 nodes / 50ks + 4 racks / 12.5ks → rate 2/3125 → M_sys =
        // 1562.5s, τ* = √(2·25·1562.5) ≈ 279.5s — nearly half the
        // independent-only 395s, so the correlated term matters.
        let topo = FailureTopology::new(4, secs(12_500.0));
        base.topology = Some(topo);
        let yd = interval_in_iterations(
            young_daly_interval_correlated(
                base.checkpoint_cost,
                base.node_mtbf,
                base.nodes,
                Some(&topo),
            ),
            base.iter_time,
        );
        assert!(
            (270..=290).contains(&yd),
            "analytic correlated YD ≈ 280, got {yd}"
        );
        let step = 100u32;
        let grid: Vec<u32> = (1..=10).map(|k| k * step).collect();
        let seeds: Vec<u64> = (0..8).collect();
        let best = exhaustive_best_interval(&base, &grid, &seeds).unwrap();
        let diff = yd.abs_diff(best);
        assert!(
            diff <= step,
            "correlated Young–Daly {yd} vs exhaustive optimum {best}: off by {diff} > {step}"
        );
    }
}
