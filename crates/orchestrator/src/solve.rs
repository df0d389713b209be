//! The §4.3 solver: convex decomposition + exact inner allocation.
//!
//! For each lattice point (TP_lm, DP_lm, TP_me, TP_mg) and each feasible
//! backbone size `y = TP_lm·DP_lm·PP_lm` (PP_lm must divide the layer
//! count), the remaining problem is
//!
//! ```text
//! minimize  A/x + B/z + K·max(a/x, β, c/z)      over x + z ≤ N − y
//! ```
//!
//! which is convex and monotone-decreasing in both `x` and `z`, so the
//! optimum spends the whole remainder (`x + z = R`). We golden-section
//! search the resulting 1-D convex function and round to the feasible
//! integer lattice (`x` a multiple of `TP_me`, `z` of `TP_mg`) — the role
//! CVX \[3\] plays in the real system. Tests validate the search against
//! brute force over the entire lattice.

use crate::formulate::{microbatches, objective, Candidate, Objective, ProblemSpec};
use crate::profiler::{TrainCost, TRIAL_TPS};
use dt_model::ModuleKind;

/// Outcome of one inner solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Encoder GPUs.
    pub x: u32,
    /// Backbone GPUs.
    pub y: u32,
    /// Generator GPUs.
    pub z: u32,
    /// Objective at the optimum.
    pub objective: Objective,
}

/// Solve the inner allocation for a fixed candidate and fixed `y`.
/// Returns `None` when no feasible `(x, z)` exists.
///
/// Generic over the cost source ([`TrainCost`]): the search passes its
/// memoized [`crate::cache::PerfCache`], tests pass synthetic
/// [`crate::profiler::TaskProfile`]s directly.
pub fn solve_inner<C: TrainCost + ?Sized>(
    spec: &ProblemSpec,
    costs: &C,
    cand: &Candidate,
    y: u32,
) -> Option<Allocation> {
    let remainder = spec.total_gpus.checked_sub(y)?;
    let x_min = cand.tp_me;
    let z_min = cand.tp_mg;
    if remainder < x_min + z_min {
        return None;
    }

    // Small lattices are solved exactly — cheaper than risking a rounding
    // miss (the golden-section path exists for the 1000+-GPU scales where
    // the lattice is dense relative to the objective's curvature).
    if remainder / cand.tp_me.min(cand.tp_mg) <= 512 {
        return solve_inner_brute(spec, costs, cand, y);
    }

    let eval = |x: u32, z: u32| objective(spec, costs, cand, x, y, z).map(|o| o.total());

    // Golden-section search over continuous x ∈ [x_min, R − z_min] with
    // z = R − x (the objective is convex in x along that line).
    let r = remainder as f64;
    let (mut lo, mut hi) = (x_min as f64, r - z_min as f64);
    let phi = 0.618_033_988_749_894_9;
    let cont = |x: f64| {
        let z = r - x;
        let n_mb = (spec.global_batch / (cand.dp_lm * spec.microbatch).max(1)).max(1) as f64;
        let m = spec.microbatch as f64;
        let dp = cand.dp_lm as f64;
        let c_lm = costs.train_cost(ModuleKind::Backbone, cand.tp_lm);
        let c_me = costs.train_cost(ModuleKind::Encoder, cand.tp_me);
        let c_mg = costs.train_cost(ModuleKind::Generator, cand.tp_mg);
        let t_lm = dp * cand.tp_lm as f64 * m * c_lm / y as f64;
        let t_me = dp * cand.tp_me as f64 * m * c_me / x;
        let t_mg = dp * cand.tp_mg as f64 * m * c_mg / z;
        let warmup = (m * c_lm
            + dp * m * cand.tp_me as f64 * c_me / x
            + dp * m * cand.tp_mg as f64 * c_mg / z)
            / spec.vpp.max(1) as f64;
        warmup + t_lm.max(t_me).max(t_mg) * (n_mb - 1.0).max(0.0)
    };
    for _ in 0..64 {
        let m1 = hi - phi * (hi - lo);
        let m2 = lo + phi * (hi - lo);
        if cont(m1) <= cont(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let x_star = (lo + hi) / 2.0;

    // Round to the integer lattice around the continuous optimum: x must be
    // a multiple of TP_me, z of TP_mg, x + z ≤ R. Examine a small window.
    let mut best: Option<Allocation> = None;
    let base = (x_star / cand.tp_me as f64).floor() as i64;
    for dx in -6..=6i64 {
        let mult = base + dx;
        if mult < 1 {
            continue;
        }
        let x = (mult as u64 * cand.tp_me as u64).min(u32::MAX as u64) as u32;
        if x < x_min || x + z_min > remainder {
            continue;
        }
        // Give the rest to z, rounded down to its lattice.
        let z = ((remainder - x) / cand.tp_mg) * cand.tp_mg;
        if z < z_min {
            continue;
        }
        if let Some(total) = eval(x, z) {
            let obj = objective(spec, costs, cand, x, y, z).expect("eval succeeded");
            if best.is_none_or(|b| total < b.objective.total()) {
                best = Some(Allocation {
                    x,
                    y,
                    z,
                    objective: obj,
                });
            }
        }
    }
    best
}

/// Resource trimming (§7.1: "DistTrain intentionally allocates fewer
/// resources in some cases because adding more GPUs yields no further
/// improvements in training throughput"): shrink `x` and `z` while the
/// *marginal* value of the freed GPUs is negligible — each step may grow
/// the objective by at most `per_gpu_slack` (relative) per GPU freed.
/// Freed GPUs go "to concurrent tasks such as fine-tuning or inference",
/// and MFU (normalized by allocated GPUs) improves.
pub fn trim_allocation<C: TrainCost + ?Sized>(
    spec: &ProblemSpec,
    costs: &C,
    cand: &Candidate,
    best: Allocation,
    per_gpu_slack: f64,
) -> Allocation {
    let mut cur = best;
    loop {
        let mut improved = false;
        for shrink_x in [true, false] {
            let (x, z, freed) = if shrink_x {
                (cur.x.saturating_sub(cand.tp_me), cur.z, cand.tp_me)
            } else {
                (cur.x, cur.z.saturating_sub(cand.tp_mg), cand.tp_mg)
            };
            if x < cand.tp_me || z < cand.tp_mg {
                continue;
            }
            if let Some(obj) = objective(spec, costs, cand, x, cur.y, z) {
                let budget = cur.objective.total() * (1.0 + per_gpu_slack.max(0.0) * freed as f64);
                if obj.total() <= budget {
                    cur = Allocation {
                        x,
                        y: cur.y,
                        z,
                        objective: obj,
                    };
                    improved = true;
                }
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Brute-force inner solve over the whole lattice — exponential-free but
/// `O(R/TP_me)`; used by tests and available for verification runs.
pub fn solve_inner_brute<C: TrainCost + ?Sized>(
    spec: &ProblemSpec,
    costs: &C,
    cand: &Candidate,
    y: u32,
) -> Option<Allocation> {
    let remainder = spec.total_gpus.checked_sub(y)?;
    let mut best: Option<Allocation> = None;
    let mut x = cand.tp_me;
    while x + cand.tp_mg <= remainder {
        let z = ((remainder - x) / cand.tp_mg) * cand.tp_mg;
        if z >= cand.tp_mg {
            if let Some(obj) = objective(spec, costs, cand, x, y, z) {
                if best.is_none_or(|b| obj.total() < b.objective.total()) {
                    best = Some(Allocation {
                        x,
                        y,
                        z,
                        objective: obj,
                    });
                }
            }
        }
        x += cand.tp_me;
    }
    best
}

/// The smallest `TP·C(TP)` over the trial grid for `module` — the
/// irreducible numerator of that module's `1/x` (or `1/z`) objective terms,
/// minimized over the TP choices the search will actually try. Feeds
/// [`node_lower_bound`], which must hold for *every* `(TP_me, TP_mg)`
/// combination under a node.
///
/// Only meaningful for nonnegative finite cost tables (see
/// [`crate::cache::PerfCache::bounds_sound`]); a negative cost would make
/// the bound algebra (square roots, monotonicity) unsound.
pub fn min_tp_work<C: TrainCost + ?Sized>(costs: &C, module: ModuleKind) -> f64 {
    TRIAL_TPS
        .iter()
        .map(|&tp| tp as f64 * costs.train_cost(module, tp))
        .fold(f64::INFINITY, f64::min)
}

/// Shared algebra of the §4.3 lower bounds, for a fixed backbone point
/// `(tp_lm, dp_lm, y)` and encoder/generator work numerators `a`/`b`
/// (premultiplied by `DP_lm·M`). Over the simplex `x + z ≤ R`,
/// `x ≥ x_min`, `z ≥ z_min`:
///
/// * warm-up: `a/x + b/z ≥ (√a + √b)²/R` (Cauchy–Schwarz at `x + z = R`,
///   the §4.3 convex optimum of the warm-up's separable part);
/// * steady: `max(a/x, b/z) ≥ max(a/(R−z_min), b/(R−x_min), (a+b)/R)`
///   (each GPU count is capped by the other module's floor, and the max
///   dominates the budget-weighted mean).
///
/// Both phases are bounded independently, so their sum lower-bounds the
/// minimum of the sum — every objective [`solve_inner`] (and any
/// [`trim_allocation`], which only ever shrinks `x`/`z` and therefore only
/// grows the objective) can produce at this point is ≥ the returned value.
#[allow(clippy::too_many_arguments)]
fn phase_lower_bound(
    spec: &ProblemSpec,
    tp_lm: u32,
    dp_lm: u32,
    y: u32,
    c_lm: f64,
    a: f64,
    b: f64,
    x_min: u32,
    z_min: u32,
    n_mb: u32,
) -> f64 {
    let m = spec.microbatch as f64;
    let dp = dp_lm as f64;
    let r = (spec.total_gpus - y) as f64;
    let pp = y as f64 / (tp_lm as f64 * dp);
    let hop_penalty = 2.0 * spec.pp_hop_secs * (pp + 2.0);
    let warmup =
        (m * c_lm + (a.sqrt() + b.sqrt()).powi(2) / r) / spec.vpp.max(1) as f64 + hop_penalty;
    let t_lm = dp * tp_lm as f64 * m * c_lm / y as f64;
    let bottleneck = t_lm
        .max(a / (r - z_min as f64))
        .max(b / (r - x_min as f64))
        .max((a + b) / r);
    warmup + bottleneck * (n_mb as f64 - 1.0).max(0.0)
}

/// Lower bound on the objective of *any* feasible allocation for `cand` at
/// backbone size `y` — the branch-and-bound combo cut. `None` means the
/// point is **provably empty**: no `(x, z)` allocation exists (budget
/// short of `TP_me + TP_mg`) or the batch does not divide, exactly the
/// cases where [`solve_inner`] returns `None` for every allocation.
pub fn combo_lower_bound<C: TrainCost + ?Sized>(
    spec: &ProblemSpec,
    costs: &C,
    cand: &Candidate,
    y: u32,
) -> Option<f64> {
    let remainder = spec.total_gpus.checked_sub(y)?;
    if remainder < cand.tp_me + cand.tp_mg {
        return None;
    }
    let n_mb = microbatches(spec, cand.dp_lm)?;
    let m = spec.microbatch as f64;
    let dp = cand.dp_lm as f64;
    let c_lm = costs.train_cost(ModuleKind::Backbone, cand.tp_lm);
    let a = dp * m * cand.tp_me as f64 * costs.train_cost(ModuleKind::Encoder, cand.tp_me);
    let b = dp * m * cand.tp_mg as f64 * costs.train_cost(ModuleKind::Generator, cand.tp_mg);
    Some(phase_lower_bound(
        spec, cand.tp_lm, cand.dp_lm, y, c_lm, a, b, cand.tp_me, cand.tp_mg, n_mb,
    ))
}

/// Lower bound over **all 16** `(TP_me, TP_mg)` combinations of a backbone
/// lattice node `(tp_lm, dp_lm, y)` — the branch-and-bound node cut.
/// `enc_min`/`gen_min` are [`min_tp_work`] of the encoder/generator, so
/// the per-combo numerators are replaced by their minima over the TP grid
/// (and the `R − TP` denominators by the full remainder). `None` means the
/// node is provably empty: the remainder cannot host even a `TP=1`
/// encoder+generator, or the batch does not divide at this `DP_lm`.
pub fn node_lower_bound(
    spec: &ProblemSpec,
    tp_lm: u32,
    dp_lm: u32,
    y: u32,
    c_lm: f64,
    enc_min: f64,
    gen_min: f64,
) -> Option<f64> {
    let remainder = spec.total_gpus.checked_sub(y)?;
    if remainder < 2 {
        return None;
    }
    let n_mb = microbatches(spec, dp_lm)?;
    let m = spec.microbatch as f64;
    let dp = dp_lm as f64;
    let a = dp * m * enc_min;
    let b = dp * m * gen_min;
    // x_min = z_min = 0 relaxes the per-combo floors (each combo's true
    // floor is its TP choice, which varies across the 16 combos).
    Some(phase_lower_bound(
        spec, tp_lm, dp_lm, y, c_lm, a, b, 0, 0, n_mb,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{ModuleProfile, TaskProfile};
    use dt_model::mllm::SampleShape;
    use dt_simengine::DetRng;

    fn profile(c_me: f64, c_lm: f64, c_mg: f64) -> TaskProfile {
        let curve = |c: f64| ModuleProfile {
            fwd_points: vec![(1, c / 3.0), (2, c / 5.4), (4, c / 9.9), (8, c / 18.0)],
            train_points: vec![(1, c), (2, c / 1.8), (4, c / 3.3), (8, c / 6.0)],
        };
        TaskProfile {
            encoder: curve(c_me),
            backbone: curve(c_lm),
            generator: curve(c_mg),
            mean_shape: SampleShape::text_only(8192),
        }
    }

    fn spec(n: u32, bs: u32) -> ProblemSpec {
        ProblemSpec {
            total_gpus: n,
            gpus_per_node: 8,
            hbm_bytes: 80 * (1 << 30),
            global_batch: bs,
            microbatch: 1,
            vpp: 1,
            pp_hop_secs: 0.0,
        }
    }

    #[test]
    fn golden_section_matches_brute_force() {
        let s = spec(96, 128);
        let p = profile(0.6, 9.0, 1.2);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        for y in [64u32, 72, 80] {
            let fast = solve_inner(&s, &p, &cand, y).unwrap();
            let brute = solve_inner_brute(&s, &p, &cand, y).unwrap();
            let rel =
                (fast.objective.total() - brute.objective.total()).abs() / brute.objective.total();
            assert!(rel < 0.01, "y={y}: fast {:?} vs brute {:?}", fast, brute);
        }
    }

    #[test]
    fn allocation_spends_the_whole_budget() {
        let s = spec(96, 128);
        let p = profile(0.6, 9.0, 1.2);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let a = solve_inner(&s, &p, &cand, 64).unwrap();
        assert_eq!(a.x + a.y + a.z, 96, "monotone objective must use all GPUs");
    }

    #[test]
    fn heavier_generator_earns_more_gpus() {
        let s = spec(96, 128);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 8,
            tp_me: 1,
            tp_mg: 1,
        };
        let light = solve_inner(&s, &profile(0.6, 9.0, 0.6), &cand, 64).unwrap();
        let heavy = solve_inner(&s, &profile(0.6, 9.0, 4.8), &cand, 64).unwrap();
        assert!(heavy.z > light.z, "heavy {:?} vs light {:?}", heavy, light);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let s = spec(10, 128);
        let p = profile(0.6, 9.0, 1.2);
        let cand = Candidate {
            tp_lm: 8,
            dp_lm: 1,
            tp_me: 8,
            tp_mg: 8,
        };
        assert!(solve_inner(&s, &p, &cand, 8).is_none());
    }

    /// The branch-and-bound cuts are sound: for random cost mixes,
    /// candidates, and backbone sizes, the combo bound never exceeds any
    /// feasible allocation's objective (trimmed variants included), and
    /// the node bound never exceeds any combo bound under it.
    #[test]
    fn lower_bounds_never_exceed_any_feasible_objective() {
        let tps = [1u32, 2, 4, 8];
        for seed in 0u64..300 {
            let mut rng = DetRng::new(seed);
            let p = profile(
                rng.range_f64(0.05, 3.0),
                rng.range_f64(1.0, 20.0),
                rng.range_f64(0.05, 5.0),
            );
            let mut s = spec([24u32, 40, 96, 128][rng.range_usize(0, 4)], 128);
            s.microbatch = [1u32, 2][rng.range_usize(0, 2)];
            s.vpp = [1u32, 2][rng.range_usize(0, 2)];
            s.pp_hop_secs = [0.0, 0.02][rng.range_usize(0, 2)];
            let tp_lm = tps[rng.range_usize(0, 4)];
            let dp_lm = [1u32, 2, 4, 8, 16][rng.range_usize(0, 5)];
            let pp = [1u32, 2, 4][rng.range_usize(0, 3)];
            let y = tp_lm * dp_lm * pp;
            if y + 2 > s.total_gpus {
                continue;
            }
            let enc_min = min_tp_work(&p, ModuleKind::Encoder);
            let gen_min = min_tp_work(&p, ModuleKind::Generator);
            let c_lm = p.train_cost(ModuleKind::Backbone, tp_lm);
            let node_lb = node_lower_bound(&s, tp_lm, dp_lm, y, c_lm, enc_min, gen_min);
            for tp_me in tps {
                for tp_mg in tps {
                    let cand = Candidate {
                        tp_lm,
                        dp_lm,
                        tp_me,
                        tp_mg,
                    };
                    let combo_lb = combo_lower_bound(&s, &p, &cand, y);
                    // Exhaust every feasible (x, z) on the lattice.
                    let remainder = s.total_gpus - y;
                    let mut any = false;
                    let mut x = tp_me;
                    while x + tp_mg <= remainder {
                        for z_mult in 1..=(remainder - x) / tp_mg {
                            let z = z_mult * tp_mg;
                            if let Some(obj) = objective(&s, &p, &cand, x, y, z) {
                                any = true;
                                let lb = combo_lb.expect("feasible point but combo bound None");
                                assert!(
                                    lb <= obj.total() * (1.0 + 1e-9),
                                    "seed {seed} {cand:?} y={y} x={x} z={z}: \
                                     combo bound {lb} above objective {}",
                                    obj.total()
                                );
                                let nlb = node_lb.expect("feasible point but node bound None");
                                assert!(
                                    nlb <= obj.total() * (1.0 + 1e-9),
                                    "seed {seed} {cand:?} y={y}: node bound {nlb} above {}",
                                    obj.total()
                                );
                            }
                        }
                        x += tp_me;
                    }
                    // `None` must mean provably empty — and vice versa the
                    // solver must find something when the bound is finite.
                    assert_eq!(
                        combo_lb.is_some(),
                        any,
                        "seed {seed} {cand:?} y={y}: bound feasibility disagrees with the lattice"
                    );
                }
            }
        }
    }

    #[test]
    fn min_tp_work_is_the_grid_minimum() {
        let p = profile(0.6, 9.0, 1.2);
        let by_hand = [1u32, 2, 4, 8]
            .iter()
            .map(|&tp| tp as f64 * p.train_cost(ModuleKind::Encoder, tp))
            .fold(f64::INFINITY, f64::min)
            .to_bits();
        assert_eq!(min_tp_work(&p, ModuleKind::Encoder).to_bits(), by_hand);
    }

    /// The fast solver is never more than 2% worse than brute force,
    /// across random cost mixes and lattices (seed-swept property).
    #[test]
    fn fast_solver_tracks_brute_force() {
        for seed in 0u64..200 {
            let mut rng = DetRng::new(seed);
            let p = profile(
                rng.range_f64(0.1, 3.0),
                rng.range_f64(2.0, 20.0),
                rng.range_f64(0.1, 5.0),
            );
            let tps = [1u32, 2, 4, 8];
            let cand = Candidate {
                tp_lm: 8,
                dp_lm: [4u32, 8, 16][rng.range_usize(0, 3)],
                tp_me: tps[rng.range_usize(0, 4)],
                tp_mg: tps[rng.range_usize(0, 4)],
            };
            let s = spec(96, 128);
            let y = cand.tp_lm * cand.dp_lm; // PP_lm = 1
            if y >= s.total_gpus {
                continue;
            }
            match (
                solve_inner(&s, &p, &cand, y),
                solve_inner_brute(&s, &p, &cand, y),
            ) {
                (Some(f), Some(b)) => {
                    let rel = (f.objective.total() - b.objective.total()) / b.objective.total();
                    assert!(
                        rel < 0.02,
                        "seed {seed}: fast {} vs brute {}",
                        f.objective.total(),
                        b.objective.total()
                    );
                }
                (None, None) => {}
                (f, b) => panic!("seed {seed}: feasibility mismatch: {f:?} vs {b:?}"),
            }
        }
    }
}
