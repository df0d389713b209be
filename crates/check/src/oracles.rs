//! The registry of cross-crate differential oracles and invariants.
//!
//! Each entry pits a hand-rolled algorithmic kernel against an
//! independent reference — a closed form, a brute-force optimum, a
//! bit-identity twin, or a round-trip — exactly the validation style the
//! paper itself uses (Algorithms 1/2 vs. brute force, the planner vs.
//! exhaustive search). Names are stable: they are the `--prop` handles
//! and appear in reproducer lines, so renaming one invalidates recorded
//! repros.

use crate::gen;
use crate::prop::{ensure, Failure, Property};
use crate::reference;
use disttrain_core::{SystemKind, TrainingTask};
use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
use dt_data::{DataConfig, ResolutionMode};
use dt_elastic::{
    run_elastic, CheckpointPolicy, ElasticOptions, ElasticPlan, FailureTopology, HealerConfig,
};
use dt_model::MllmPreset;
use dt_orchestrator::{Orchestrator, PerfModel, Profiler, SearchMode};
use dt_parallel::OrchestrationPlan;
use dt_pipeline::schedule::StageOp;
use dt_pipeline::sim::homogeneous_1f1b_makespan;
use dt_pipeline::{simulate, Engine, PipelineSpec, Schedule, Workload};
use dt_preprocess::wire::{BatchHeader, Request};
use dt_preprocess::{Consumer, Preprocess};
use dt_reorder::{
    get_interval, inter_reorder, intra_reorder_indices, max_group_load, InterReorderConfig,
    ReorderError,
};
use dt_simengine::frame::{read_frame, read_json, write_json};
use dt_simengine::BackoffPolicy;
use dt_simengine::{DetRng, Json, SimDuration, SimTime};
use dt_telemetry::{Registry, Snapshot};
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Every registered oracle, in presentation order. Set the
/// `DT_CHECK_SELF_TEST` environment variable to additionally register an
/// intentionally broken oracle — used only by the harness's own CLI
/// integration tests to prove that failures exit non-zero with a
/// reproducer line.
pub fn registry() -> Vec<Property> {
    let mut props = vec![
        Property {
            name: "pipeline.1f1b_matches_closed_form",
            about: "1F1B simulator vs. the closed-form homogeneous makespan (l+p−1)(f+b)",
            max_size: 16,
            max_cases: u32::MAX,
            run: pipeline_closed_form,
        },
        Property {
            name: "pipeline.stage_order_handles_every_corner",
            about: "stage orders: exact op multiset in range, empty out of range (s≥p, p=0, l=0)",
            max_size: 12,
            max_cases: u32::MAX,
            run: stage_order_corners,
        },
        Property {
            name: "pipeline.makespan_respects_lower_bounds",
            about: "simulated makespan ≥ busiest stage and ≥ every microbatch's critical path",
            max_size: 10,
            max_cases: u32::MAX,
            run: makespan_lower_bounds,
        },
        Property {
            name: "pipeline.engine_matches_reference",
            about: "1F1B engine vs. the event simulator (GPipe, 1F1B, VPP 1–3, hops), to the ns; \
                    push/mark/probe/rollback leaves exactly the committed prefix",
            max_size: 16,
            max_cases: u32::MAX,
            run: engine_vs_reference,
        },
        Property {
            name: "reorder.alg1_within_4_3_of_optimum",
            about: "Algorithm 1 (LPT) vs. brute-force optimum on small instances (4/3 bound)",
            max_size: 9,
            max_cases: u32::MAX,
            run: alg1_vs_brute_force,
        },
        Property {
            name: "reorder.alg1_permutes_and_never_regresses",
            about: "Algorithm 1 output is a permutation and never worsens the max group load",
            max_size: 48,
            max_cases: u32::MAX,
            run: alg1_invariants,
        },
        Property {
            name: "reorder.max_group_load_matches_reference",
            about: "max_group_load vs. an independent exact-m partition (non-divisible included)",
            max_size: 40,
            max_cases: u32::MAX,
            run: max_group_load_reference,
        },
        Property {
            name: "reorder.alg2_permutes_and_never_blows_up",
            about: "Algorithm 2 output is a permutation; makespan bounded vs. the input order",
            max_size: 14,
            max_cases: u32::MAX,
            run: alg2_invariants,
        },
        Property {
            name: "reorder.alg2_interval_matches_simulate",
            about: "incremental GETINTERVAL vs. intervals read off the 1F1B simulator, to the ns",
            max_size: 48,
            max_cases: u32::MAX,
            run: alg2_interval_vs_simulate,
        },
        Property {
            name: "planner.pruned_matches_exhaustive",
            about: "§4 search: branch-and-bound pruning ≡ exhaustive serial, infeasible shapes included",
            max_size: 1,
            max_cases: 200,
            run: pruned_differential,
        },
        Property {
            name: "wire.frames_round_trip",
            about: "frame + JSON control messages encode/decode bit-exactly",
            max_size: 6,
            max_cases: u32::MAX,
            run: wire_round_trip,
        },
        Property {
            name: "wire.garbage_never_panics",
            about: "truncated/corrupt/lying streams error cleanly — no panic, no hang",
            max_size: 6,
            max_cases: u32::MAX,
            run: wire_garbage,
        },
        Property {
            name: "service.survives_hostile_peers_end_to_end",
            about: "live N×M plane vs hostile peers + mid-stream disconnects over real sockets: \
                    still serves in order, shuts down clean",
            max_size: 4,
            max_cases: u32::MAX,
            run: service_hostile_peers,
        },
        Property {
            name: "elastic.correlated_goodput_accounting",
            about: "elastic runs under random correlated topologies + healer: goodput identity \
                    exact, outcome (incl. healer action sequence) bit-reproducible per seed",
            max_size: 1,
            max_cases: 200,
            run: correlated_goodput_accounting,
        },
        Property {
            name: "telemetry.snapshot_json_round_trip",
            about: "Snapshot → JSON text → Snapshot is exact for every metric kind",
            max_size: 10,
            max_cases: u32::MAX,
            run: telemetry_round_trip,
        },
    ];
    if std::env::var_os("DT_CHECK_SELF_TEST").is_some() {
        props.push(Property {
            name: "self_test.broken_oracle",
            about: "intentionally falsified (only registered under DT_CHECK_SELF_TEST)",
            max_size: 32,
            max_cases: u32::MAX,
            run: self_test_broken,
        });
    }
    props
}

fn pipeline_closed_form(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let (p, l) = gen::pipeline_shape(rng, size);
    let f = SimDuration::from_nanos(rng.range_u64(1, 1000));
    let b = SimDuration::from_nanos(rng.range_u64(1, 2000));
    let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO);
    let w = Workload::homogeneous(&vec![f; p], &vec![b; p], l);
    let sim = simulate(&spec, &w).makespan;
    let closed = homogeneous_1f1b_makespan(p, l, f, b);
    ensure(sim == closed, || {
        format!("p={p} l={l} f={f} b={b}: simulated {sim} != closed-form {closed}")
    })
}

fn stage_order_corners(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    // Deliberately include out-of-range stages and degenerate shapes.
    let p = rng.range_usize(0, 6);
    let s = rng.range_usize(0, 8);
    let l = rng.range_usize(0, size.max(1) + 1);
    for sched in [
        Schedule::GPipe,
        Schedule::OneFOneB,
        Schedule::Interleaved { vpp: 2 },
    ] {
        let ops = sched.stage_order(s, p, l);
        if p == 0 || s >= p || l == 0 {
            ensure(ops.is_empty(), || {
                format!("{sched:?} s={s} p={p} l={l}: out-of-range order not empty ({ops:?})")
            })?;
            continue;
        }
        ensure(ops.len() == 2 * l, || {
            format!(
                "{sched:?} s={s} p={p} l={l}: {} ops, expected {}",
                ops.len(),
                2 * l
            )
        })?;
        let mut fwd = vec![0u32; l];
        let mut bwd = vec![0u32; l];
        for op in &ops {
            match *op {
                StageOp::Fwd(i) => fwd[i] += 1,
                StageOp::Bwd(i) => bwd[i] += 1,
            }
        }
        ensure(
            fwd.iter().all(|&c| c == 1) && bwd.iter().all(|&c| c == 1),
            || format!("{sched:?} s={s} p={p} l={l}: some op not executed exactly once"),
        )?;
        for i in 0..l {
            let fpos = ops
                .iter()
                .position(|o| *o == StageOp::Fwd(i))
                .expect("counted above");
            let bpos = ops
                .iter()
                .position(|o| *o == StageOp::Bwd(i))
                .expect("counted above");
            ensure(fpos < bpos, || {
                format!("{sched:?} s={s} p={p} l={l}: B{i} scheduled before F{i}")
            })?;
        }
    }
    Ok(())
}

fn makespan_lower_bounds(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let p = rng.range_usize(1, 6);
    let l = rng.range_usize(1, size.max(1) + 1);
    let w = gen::heterogeneous_workload(rng, p, l);
    let spec = PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO);
    let r = simulate(&spec, &w);
    for s in 0..p {
        let busy: SimDuration = w.fwd[s].iter().copied().sum::<SimDuration>()
            + w.bwd[s].iter().copied().sum::<SimDuration>();
        ensure(r.makespan >= busy, || {
            format!(
                "p={p} l={l}: makespan {} below stage {s} busy time {busy}",
                r.makespan
            )
        })?;
    }
    for i in 0..l {
        let path: SimDuration = (0..p).map(|s| w.fwd[s][i] + w.bwd[s][i]).sum();
        ensure(r.makespan >= path, || {
            format!(
                "p={p} l={l}: makespan {} below microbatch {i} critical path {path}",
                r.makespan
            )
        })?;
    }
    Ok(())
}

/// The 1F1B engine against the event simulator it replaced (every schedule,
/// zero durations and hops, `l` on both sides of `P`): probed before each
/// commit, it must equal a replay of the commits, then the reference op for op.
fn engine_vs_reference(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let (p, l) = (rng.range_usize(1, 7), rng.range_usize(1, size.max(1) + 1));
    let schedule = match rng.range_usize(0, 5) {
        0 => Schedule::GPipe,
        1 => Schedule::OneFOneB,
        k => Schedule::Interleaved { vpp: k as u32 - 1 },
    };
    let d = |rng: &mut DetRng| {
        SimDuration::from_nanos(rng.range_u64(0, 500) * u64::from(rng.chance(0.75)))
    };
    let spec = PipelineSpec {
        schedule,
        comm: (1..p).map(|_| d(rng)).collect(),
    };
    let mut rows = || (0..p).map(|_| (0..l).map(|_| d(rng)).collect()).collect();
    let w = Workload {
        fwd: rows(),
        bwd: rows(),
    };
    let column = |i: usize| w.fwd.iter().zip(&w.bwd).map(move |(f, b)| (f[i], b[i]));
    let state = |e: &Engine| format!("{:?} {:?}", e.result(), e.mean_bubble_fraction());
    let case = format!("{schedule:?} p={p} l={l}");

    let (mut engine, commits) = (Engine::new(&spec, p, l), rng.range_usize(0, l + 1));
    let mut fresh = Engine::new(&spec, p, l);
    for i in 0..commits {
        engine.mark();
        for _ in 0..rng.range_usize(0, l - i + 1) {
            engine.push((0..p).map(|_| (d(rng), d(rng))).collect::<Vec<_>>());
        }
        engine.rollback();
        engine.push(column(i));
        fresh.push(column(i));
    }
    ensure(state(&engine) == state(&fresh), || {
        format!("{case}: probed engine differs from a replay of {commits} commits")
    })?;
    (commits..l).for_each(|i| engine.push(column(i)));
    // A stable sort by stage gives the engine's stage-major timeline order.
    let mut want = reference::simulate(&spec, &w);
    want.timeline.sort_by_key(|op| op.stage);
    let want = format!("{want:?} {:?}", want.mean_bubble_fraction());
    ensure(state(&engine) == want, || {
        format!("{case}: engine differs from the reference")
    })?;
    let got = format!("{:?}", engine.result());
    ensure(got == format!("{:?}", simulate(&spec, &w)), || {
        format!("{case}: simulate differs from the engine")
    })
}

/// Exact optimum of the equal-count multiway partition by exhaustive
/// assignment — only called on tiny instances.
fn brute_force_opt(sizes: &[f64], m: usize) -> f64 {
    fn rec(
        i: usize,
        sizes: &[f64],
        quota: usize,
        counts: &mut [usize],
        loads: &mut [f64],
        best: &mut f64,
    ) {
        if i == sizes.len() {
            let max = loads.iter().copied().fold(0.0, f64::max);
            *best = best.min(max);
            return;
        }
        for g in 0..counts.len() {
            if counts[g] < quota {
                counts[g] += 1;
                loads[g] += sizes[i];
                rec(i + 1, sizes, quota, counts, loads, best);
                counts[g] -= 1;
                loads[g] -= sizes[i];
            }
        }
    }
    let mut best = f64::INFINITY;
    rec(
        0,
        sizes,
        sizes.len() / m,
        &mut vec![0; m],
        &mut vec![0.0; m],
        &mut best,
    );
    best
}

fn alg1_vs_brute_force(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let m = rng.range_usize(2, 4);
    let per = rng.range_usize(1, (size.max(2) / 2).clamp(2, 4));
    let n = m * per;
    let sizes: Vec<f64> = (0..n).map(|_| rng.range_f64(1.0, 100.0)).collect();
    let order = intra_reorder_indices(&sizes, m)
        .map_err(|e| Failure::new(format!("divisible instance rejected: {e}")))?;
    let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
    let lpt = max_group_load(&reordered, m);
    let opt = brute_force_opt(&sizes, m);
    ensure(lpt <= opt * (4.0 / 3.0) + 1e-9, || {
        format!("n={n} m={m}: LPT makespan {lpt} breaks the 4/3 bound of optimum {opt}")
    })
}

fn alg1_invariants(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let m = rng.range_usize(1, 9);
    let per = rng.range_usize(1, size.max(1).div_ceil(4) + 1);
    let n = m * per;
    let sizes = gen::lognormal_sizes(rng, n);
    let order = intra_reorder_indices(&sizes, m)
        .map_err(|e| Failure::new(format!("divisible instance rejected: {e}")))?;
    let mut sorted = order.clone();
    sorted.sort_unstable();
    ensure(sorted == (0..n).collect::<Vec<_>>(), || {
        format!("n={n} m={m}: Algorithm 1 output is not a permutation")
    })?;
    let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
    let (before, after) = (max_group_load(&sizes, m), max_group_load(&reordered, m));
    ensure(after <= before + 1e-9, || {
        format!("n={n} m={m}: Algorithm 1 worsened the max group load {before} → {after}")
    })?;
    // The typed-error contract: an indivisible batch is a clean error,
    // never a panic (regression for the old assert!).
    if m > 1 {
        let sizes: Vec<f64> = (0..n + 1).map(|i| i as f64).collect();
        match intra_reorder_indices(&sizes, m) {
            Err(ReorderError::IndivisibleBatch { n: en, m: em }) if en == n + 1 && em == m => {
                Ok(())
            }
            other => Err(Failure::new(format!(
                "indivisible batch ({} into {m}) returned {other:?}, expected typed error",
                n + 1
            ))),
        }?;
    }
    Ok(())
}

fn max_group_load_reference(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    // Any length — divisibility deliberately not guaranteed — against an
    // independent formulation of the contract (first `n % m` groups one
    // sample larger): map each sample index straight to its group by
    // arithmetic, instead of the production code's running split.
    let n = rng.range_usize(0, size.max(1) + 1);
    let m = rng.range_usize(0, 10);
    let sizes = gen::lognormal_sizes(rng, n);
    let got = max_group_load(&sizes, m);
    if n == 0 || m == 0 {
        return ensure(got == 0.0, || {
            format!("empty input (n={n} m={m}) must score 0, got {got}")
        });
    }
    let (base, extra) = (n / m, n % m);
    let group_of = |i: usize| {
        if i < extra * (base + 1) {
            i / (base + 1)
        } else {
            extra + (i - extra * (base + 1)) / base
        }
    };
    let mut loads = vec![0.0f64; m];
    for (i, &s) in sizes.iter().enumerate() {
        loads[group_of(i)] += s;
    }
    let reference = loads.iter().copied().fold(0.0, f64::max);
    ensure((got - reference).abs() <= 1e-9 * reference.max(1.0), || {
        format!("n={n} m={m}: max_group_load {got} != reference exact-m partition {reference}")
    })?;
    let total: f64 = sizes.iter().sum();
    ensure(got + 1e-9 >= total / m as f64, || {
        format!(
            "n={n} m={m}: max group {got} below the mean bound {}",
            total / m as f64
        )
    })
}

fn alg2_invariants(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let p = rng.range_usize(1, 6);
    let l = rng.range_usize(1, size.max(1) + 1);
    let cfg = InterReorderConfig::new(p, 1.0, 2.0);
    let times: Vec<f64> = (0..l).map(|_| rng.lognormal(0.0, 1.0)).collect();
    let order = inter_reorder(&cfg, &times);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    ensure(sorted == (0..l).collect::<Vec<_>>(), || {
        format!("p={p} l={l}: Algorithm 2 output is not a permutation ({order:?})")
    })?;
    let base = dt_reorder::inter::simulated_makespan(&cfg, &times);
    let applied: Vec<f64> = order.iter().map(|&i| times[i]).collect();
    let after = dt_reorder::inter::simulated_makespan(&cfg, &applied);
    let biggest = times.iter().copied().fold(0.0, f64::max);
    ensure(after <= base + 3.0 * biggest + 1e-9, || {
        format!("p={p} l={l}: reordered makespan {after} blew past input order {base}")
    })
}

fn alg2_interval_vs_simulate(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let l = rng.range_usize(1, size.max(1) + 1);
    let cfg = InterReorderConfig {
        stages: rng.range_usize(1, 25),
        uniform_fwd: rng.range_f64(0.0, 2.0),
        uniform_bwd: rng.range_f64(0.0, 4.0),
        stage0_bwd_factor: [0.0, 1.0, 2.0][rng.range_usize(0, 3)],
        vpp: rng.range_usize(1, 4) as u32,
    };
    let times: Vec<f64> = (0..l).map(|_| rng.lognormal(0.0, 1.0)).collect();
    let reference = reference::intervals(&cfg, &times);
    ensure(reference.len() == l, || {
        format!("simulator ran {} of {l} backwards", reference.len())
    })?;
    for (j, &want) in reference.iter().enumerate() {
        let got = get_interval(&cfg, &times, j);
        ensure(got.to_bits() == want.to_bits(), || {
            format!("{cfg:?} l={l}: interval {j} is {got}, simulator says {want}")
        })?;
    }
    let past = get_interval(&cfg, &times, l);
    ensure(past == 0.0, || {
        format!("{cfg:?} l={l}: interval past the end is {past}, not 0")
    })
}

/// The optimality certificate for the branch-and-bound planner: on every
/// generated spec — roughly a quarter deliberately infeasible — the pruned
/// search must return the same ranked plans with bit-identical objectives
/// as the exhaustive serial reference, claim `proven_optimal`, and on the
/// error paths reproduce the serial diagnosis *exactly* (variant and
/// counts). Evaluation counters are deliberately not compared: pruning
/// solves fewer points by design.
fn pruned_differential(rng: &mut DetRng, _size: usize) -> Result<(), Failure> {
    let spec = gen::adversarial_problem_spec(rng);
    let model = MllmPreset::Mllm9B.build();
    let gpu = GpuSpec::ampere();
    let coll = CollectiveCost::new(ClusterSpec::production((spec.total_gpus / 8).max(1)));
    let perf = PerfModel::new(&model, &gpu, &coll);
    let samples = gen::sample_batch(rng, 16);
    let profile = Profiler.profile(&perf, &samples);
    let solve = |mode: SearchMode| {
        Orchestrator::builder()
            .spec(spec)
            .search_mode(mode)
            .build()
            .map_err(|e| Failure::new(format!("generated spec rejected: {e}")))
            .map(|orch| orch.plan_candidates(&model, &profile))
    };
    let serial = solve(SearchMode::Serial)?;
    let pruned = solve(SearchMode::Pruned)?;
    match (serial, pruned) {
        (Ok(s), Ok(p)) => {
            ensure(s.len() == p.len(), || {
                format!(
                    "{spec:?}: serial ranked {} candidates, pruned {}",
                    s.len(),
                    p.len()
                )
            })?;
            for (i, (a, b)) in s.iter().zip(&p).enumerate() {
                ensure(a.plan == b.plan, || {
                    format!(
                        "{spec:?}: candidate {i} plans diverge: {:?} vs {:?}",
                        a.plan, b.plan
                    )
                })?;
                ensure(
                    a.objective.total().to_bits() == b.objective.total().to_bits(),
                    || {
                        format!(
                            "{spec:?}: candidate {i} objectives not bit-identical: {} vs {}",
                            a.objective.total(),
                            b.objective.total()
                        )
                    },
                )?;
                ensure(b.proven_optimal, || {
                    format!("{spec:?}: candidate {i} lacks the proven-optimal certificate")
                })?;
            }
            Ok(())
        }
        (Err(se), Err(pe)) => ensure(se == pe, || {
            format!("{spec:?}: serial error {se:?} vs pruned error {pe:?}")
        }),
        (s, p) => Err(Failure::new(format!(
            "{spec:?}: serial {} vs pruned {}",
            s.map(|v| format!("Ok({} candidates)", v.len()))
                .unwrap_or_else(|e| format!("Err({e})")),
            p.map(|v| format!("Ok({} candidates)", v.len()))
                .unwrap_or_else(|e| format!("Err({e})")),
        ))),
    }
}

fn wire_round_trip(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    // Control messages round-trip through the JSON framing.
    let req = if rng.chance(0.5) {
        Request::FetchBatch {
            count: rng.range_u64(1, 1 << 20) as u32,
        }
    } else {
        Request::Shutdown
    };
    let mut buf = Vec::new();
    write_json(&mut buf, &req).expect("vec write cannot fail");
    let back: Request = read_json(&mut Cursor::new(&buf[..]))
        .map_err(|e| Failure::new(format!("request failed to decode: {e}")))?;
    ensure(back == req, || {
        format!("request round trip changed {req:?} → {back:?}")
    })?;

    // Batch headers carry real generated samples.
    let batch_n = rng.range_usize(1, size.max(1) + 1);
    let samples = gen::sample_batch(rng, batch_n);
    let header = BatchHeader {
        token_lens: samples.iter().map(|_| rng.range_u64(1, 1 << 20)).collect(),
        // JSON numbers are f64-backed: stay within the exactly-representable
        // integer range, as the producer does.
        producer_cpu_ns: rng.next_u64() >> 16,
        samples,
    };
    let mut buf = Vec::new();
    write_json(&mut buf, &header).expect("vec write cannot fail");
    let back: BatchHeader = read_json(&mut Cursor::new(&buf[..]))
        .map_err(|e| Failure::new(format!("header failed to decode: {e}")))?;
    ensure(back == header, || {
        "batch header round trip changed the header".to_string()
    })?;

    // Raw frames (the bulk token bytes) are byte-exact, empty included.
    let (stream, payloads) = gen::wire_stream(rng, size.max(1));
    let mut cur = Cursor::new(&stream[..]);
    for (i, expect) in payloads.iter().enumerate() {
        let got = read_frame(&mut cur)
            .map_err(|e| Failure::new(format!("frame {i} failed to decode: {e}")))?;
        ensure(&got == expect, || {
            format!("frame {i} payload changed in transit")
        })?;
    }
    Ok(())
}

fn wire_garbage(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let bytes = gen::corrupt_wire_stream(rng, size);
    // Frame-level decode: every outcome must be a clean Ok/Err and the
    // reader must terminate (each Ok consumes ≥ 4 bytes).
    let mut cur = Cursor::new(&bytes[..]);
    let mut decoded = 0usize;
    while read_frame(&mut cur).is_ok() {
        decoded += 1;
        ensure(decoded <= bytes.len() / 4 + 1, || {
            format!("frame reader failed to terminate after {decoded} frames")
        })?;
    }
    // Message-level decode: same stream read as typed control messages —
    // garbage must surface as io errors, never a panic (panics are caught
    // by the harness and reported as failures).
    let mut cur = Cursor::new(&bytes[..]);
    while read_json::<Request>(&mut cur).is_ok() {}
    let mut cur = Cursor::new(&bytes[..]);
    while read_json::<BatchHeader>(&mut cur).is_ok() {}
    Ok(())
}

/// The end-to-end fuzz oracle for the §6 preprocessing data plane: spawn
/// a real N-endpoint `Preprocess` plane, throw seeded hostile peers at it
/// over genuine TCP connections (garbage, lying length headers, truncated
/// requests, and mid-stream disconnects with responses in flight), then
/// prove a well-behaved fan-in consumer is still served *in order* and
/// the plane shuts down cleanly — no session thread may have panicked.
fn service_hostile_peers(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let data = DataConfig {
        resolution: ResolutionMode::Fixed(32),
        ..DataConfig::evaluation(32)
    };
    let endpoints = rng.range_usize(1, 3);
    let mut plane = Preprocess::builder(data, rng.next_u64() >> 1)
        .producers(endpoints)
        .workers(1)
        .queue_capacity(2)
        .spawn()
        .map_err(|e| Failure::new(format!("plane failed to spawn: {e}")))?;
    let addrs = plane.addrs().to_vec();

    let hostiles = rng.range_usize(1, size.clamp(1, 4) + 1);
    for i in 0..hostiles {
        let addr = addrs[rng.range_usize(0, addrs.len())];
        let peer = gen::hostile_peer(rng);
        let mut sock = TcpStream::connect(addr)
            .map_err(|e| Failure::new(format!("hostile peer {i} could not connect: {e}")))?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout is valid");
        let (bytes, read_back) = peer.wire_bytes();
        // The server is allowed to slam the session shut mid-write or
        // mid-read; only the plane's health matters, not the peer's.
        let _ = sock.write_all(&bytes);
        let _ = sock.flush();
        if read_back > 0 {
            let mut sink = vec![0u8; read_back];
            let _ = sock.read_exact(&mut sink);
        }
        drop(sock); // vanish, response possibly still in flight
    }

    // A well-behaved fan-in consumer must still be served, in order: the
    // per-session sample streams count ids up from 0 deterministically.
    let feeder = Consumer::builder(&addrs)
        .batch(2)
        .pipeline(1)
        .backoff(BackoffPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: rng.next_u64(),
        })
        .connect()
        .map_err(|e| Failure::new(format!("well-behaved consumer rejected: {e}")))?;
    let mut next_id: std::collections::HashMap<std::net::SocketAddr, u64> =
        std::collections::HashMap::new();
    for i in 0..2 {
        let (addr, batch, _) = feeder.next_batch_from().map_err(|e| {
            Failure::new(format!(
                "fetch {i} after {hostiles} hostile peers failed: {e}"
            ))
        })?;
        ensure(batch.batch.len() == 2, || {
            format!("fetch {i}: expected 2 samples, got {}", batch.batch.len())
        })?;
        let expected = next_id.entry(addr).or_insert(0);
        ensure(batch.batch.samples[0].id == *expected, || {
            format!(
                "fetch {i} from {addr} out of order: sample id {} != expected {expected}",
                batch.batch.samples[0].id
            )
        })?;
        *expected += batch.batch.samples.len() as u64;
    }
    drop(feeder);
    ensure(plane.shutdown(), || {
        format!("plane did not shut down cleanly after {hostiles} hostile peers")
    })
}

fn telemetry_round_trip(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let r = Registry::new();
    let phases = ["fetch", "decode", "feed"];
    for i in 0..rng.range_usize(1, size.max(1) + 1) {
        let phase = *rng.pick(&phases);
        r.counter("dt_check_events_total", &[("phase", phase)])
            .add(rng.next_u64() >> 32);
        r.gauge("dt_check_depth", &[("phase", phase)])
            .set(rng.range_f64(-1e6, 1e6));
        let h = r.histogram("dt_check_latency_seconds", &[("phase", phase)]);
        for _ in 0..rng.range_usize(1, 20) {
            h.observe(rng.lognormal(0.0, 2.0));
        }
        let s = r.series("dt_check_series", &[("idx", &i.to_string())]);
        for k in 0..rng.range_usize(1, 8) {
            s.sample(
                SimTime::ZERO + SimDuration::from_nanos(k as u64),
                rng.range_f64(0.0, 1e9),
            );
        }
    }
    let snap = r.snapshot();
    let text = snap.to_json().to_string();
    let parsed = Json::parse(&text)
        .map_err(|e| Failure::new(format!("snapshot JSON failed to re-parse: {e}")))?;
    let back = Snapshot::from_json(&parsed)
        .ok_or_else(|| Failure::new("snapshot JSON decoded to None".to_string()))?;
    ensure(back == snap, || {
        format!(
            "snapshot round trip diverged ({} entries)",
            snap.entries.len()
        )
    })
}

/// The intentionally broken oracle behind `DT_CHECK_SELF_TEST`: fails as
/// soon as any draw exceeds 0.5, so the shrinker minimizes it to a
/// single-draw case with a tiny seed.
fn self_test_broken(rng: &mut DetRng, size: usize) -> Result<(), Failure> {
    let xs: Vec<f64> = (0..size).map(|_| rng.next_f64()).collect();
    match xs.iter().find(|&&x| x > 0.5) {
        Some(x) => Err(Failure::new(format!(
            "draw {x:.3} exceeded the broken threshold 0.5"
        ))),
        None => Ok(()),
    }
}

/// Sanity check used by the unit tests below: sample sizing must stay
/// finite for any generated sample (guards the generators themselves).
#[cfg(test)]
fn batch_sizes_are_finite(rng: &mut DetRng, n: usize) -> bool {
    let model = MllmPreset::Mllm9B.build();
    gen::sample_batch(rng, n)
        .iter()
        .all(|s| dt_data::cost::multimodal_size(&model, s).is_finite())
}

/// Cached elastic-oracle workload: the batch-32 ablation task planned
/// once. Every case reuses it — the oracle varies the failure regime
/// (topology, seed, spares, healer pacing), not the training job.
fn elastic_oracle_fixture() -> &'static (TrainingTask, OrchestrationPlan) {
    static FIXTURE: std::sync::OnceLock<(TrainingTask, OrchestrationPlan)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
        let plan = task
            .plan(SystemKind::DistTrain)
            .expect("ablation task plans");
        (task, plan)
    })
}

fn correlated_goodput_accounting(rng: &mut DetRng, _size: usize) -> Result<(), Failure> {
    let (task, initial) = elastic_oracle_fixture();
    let radius = rng.range_u64(1, 5) as u32;
    let plan = ElasticPlan {
        node_mtbf: SimDuration::from_secs_f64(rng.range_f64(150.0, 1200.0)),
        failure_seed: rng.next_u64(),
        spare_nodes: rng.range_u64(0, 4) as u32,
        checkpoint: CheckpointPolicy::YoungDaly,
        checkpoint_cost: SimDuration::from_secs_f64(1.0),
        restart_overhead: SimDuration::from_secs_f64(5.0),
        reshard_cost: SimDuration::from_secs_f64(3.0),
        topology: Some(FailureTopology::new(
            radius,
            SimDuration::from_secs_f64(rng.range_f64(80.0, 400.0)),
        )),
        healer: Some(HealerConfig::default()),
        precursor_window: SimDuration::ZERO,
        precursor_stall: SimDuration::ZERO,
        spare_slowdown: rng.range_f64(1.0, 2.0),
    };
    let iterations = rng.range_u64(6, 11) as u32;
    let scenario = format!(
        "radius {radius} seed {:#x} spares {} iters {iterations}",
        plan.failure_seed, plan.spare_nodes
    );
    // The same fully-specified scenario, executed twice in fresh
    // checkpoint directories: the outcome — success or typed failure —
    // must be bit-identical, and every success must account for its wall
    // clock exactly.
    // Unique per run: concurrent suites in one process (parallel tests)
    // draw the same seeds and must not share checkpoint directories.
    static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut outcomes = Vec::with_capacity(2);
    for _ in 0..2 {
        let seq = NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dt-check-elastic-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| Failure::new(format!("mkdir: {e}")))?;
        let opts = ElasticOptions {
            initial_plan: Some(*initial),
            ..Default::default()
        };
        let out = run_elastic(task, iterations, &plan, &dir, opts);
        let _ = std::fs::remove_dir_all(&dir);
        outcomes.push(out);
    }
    let second = outcomes.pop().expect("two runs");
    let first = outcomes.pop().expect("two runs");
    match (&first, &second) {
        (Ok(a), Ok(b)) => {
            a.goodput
                .validate()
                .map_err(|e| Failure::new(format!("{scenario}: goodput identity violated: {e}")))?;
            ensure(a.report.iterations.len() == iterations as usize, || {
                format!(
                    "{scenario}: {} committed iterations, requested {iterations}",
                    a.report.iterations.len()
                )
            })?;
            ensure(a.goodput == b.goodput, || {
                format!(
                    "{scenario}: goodput not reproducible: {:?} vs {:?}",
                    a.goodput, b.goodput
                )
            })?;
            ensure(a.healer_actions == b.healer_actions, || {
                format!(
                    "{scenario}: healer action sequence not reproducible: {:?} vs {:?}",
                    a.healer_actions, b.healer_actions
                )
            })?;
            let log = |r: &dt_elastic::ElasticReport| format!("{:?}", r.failures);
            ensure(log(a) == log(b), || {
                format!("{scenario}: failure log not reproducible")
            })
        }
        (Err(a), Err(b)) => {
            // A blast radius the spare pool can't absorb may legitimately
            // stall the machine — but it must stall identically.
            ensure(format!("{a:?}") == format!("{b:?}"), || {
                format!("{scenario}: divergent failures: {a:?} vs {b:?}")
            })
        }
        _ => Err(Failure::new(format!(
            "{scenario}: one run succeeded, the other failed: {:?} vs {:?}",
            first.as_ref().map(|r| r.goodput),
            second.as_ref().map(|r| r.goodput)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::run_property;

    #[test]
    fn registry_names_are_unique_and_dotted() {
        let props = registry();
        let mut names: Vec<_> = props.iter().map(|p| p.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate property names");
        assert!(
            props.iter().all(|p| p.name.contains('.')),
            "names are crate.what_it_checks"
        );
        assert!(props.iter().all(|p| !p.about.is_empty()));
    }

    #[test]
    fn self_test_oracle_is_not_registered_by_default() {
        // The env var may leak in from an outer test runner; only assert
        // the default when it is genuinely unset.
        if std::env::var_os("DT_CHECK_SELF_TEST").is_none() {
            assert!(registry()
                .iter()
                .all(|p| p.name != "self_test.broken_oracle"));
        }
    }

    #[test]
    fn cheap_oracles_hold_across_a_quick_sweep() {
        for p in registry() {
            if p.name.starts_with("planner.") || p.name.starts_with("elastic.") {
                continue; // covered (more cheaply) by their dedicated tests
            }
            let out = run_property(&p, 12);
            assert!(out.failure.is_none(), "{}: {:?}", p.name, out.failure);
        }
    }

    #[test]
    fn pruned_differential_holds_on_two_cases() {
        let p = registry()
            .into_iter()
            .find(|p| p.name == "planner.pruned_matches_exhaustive")
            .unwrap();
        let out = run_property(&p, 2);
        assert!(out.failure.is_none(), "{:?}", out.failure);
    }

    #[test]
    fn correlated_goodput_oracle_holds_on_a_few_cases() {
        let p = registry()
            .into_iter()
            .find(|p| p.name == "elastic.correlated_goodput_accounting")
            .unwrap();
        let out = run_property(&p, 3);
        assert!(out.failure.is_none(), "{:?}", out.failure);
    }

    #[test]
    fn generated_batches_size_finitely() {
        assert!(batch_sizes_are_finite(&mut DetRng::new(41), 32));
    }
}
