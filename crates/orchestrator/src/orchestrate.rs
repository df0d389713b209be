//! The adaptive model orchestration entry point (§4.3).
//!
//! [`Orchestrator::plan_candidates`] searches the finite TP/DP/PP
//! lattice, solves each surviving inner convex allocation with
//! [`crate::solve`], and returns the best memory-feasible
//! [`OrchestrationPlan`]s. The whole search completes in well under a
//! second at 1296 GPUs (Table 3 reports 922 ms for the real system;
//! `bench_orchestrator` regenerates the comparison and archives it in
//! `BENCH_solver.json`).
//!
//! Two traversal strategies share one search core (see [`SearchMode`];
//! both are **bit-identical** in their results, which is what the
//! dt-check differential oracles pin down):
//!
//! * **Serial** — the exhaustive single-threaded reference: every
//!   `(TP_lm, DP_lm, PP_lm)` node and every encoder/generator TP combo is
//!   evaluated. Slowest, trivially correct, kept alive as the baseline
//!   the pruned search is diffed against.
//! * **Pruned** (the default) — branch-and-bound over the lattice. Each
//!   `(TP_lm, DP_lm, PP_lm)` node carries an analytic lower bound derived
//!   from the cached cost tables ([`crate::solve::node_lower_bound`]);
//!   a best-first pass finds the exact optimum while pruning every node
//!   whose bound already exceeds the incumbent, then a threshold
//!   re-enumeration reconstructs the serial ranking prefix the `top_k`
//!   shortlist needs. Monotone dominance cuts discard the budget- and
//!   memory-infeasible PP region of each `(TP, DP)` pair in O(log) via
//!   binary search instead of enumerating it. The result — plans,
//!   ranking, objective bits, error variants — is identical to `Serial`
//!   with an order of magnitude fewer inner solves, and every report is
//!   a proven-optimal certificate ([`PlanReport::proven_optimal`]).
//!
//! A [`WarmStart`] is the whole planning state the search reads: the
//! [`PerfCache`] tables built from the job's profile and the plans chosen
//! so far. [`Orchestrator::plan_candidates_warm`] reuses it, so a repeat
//! search or a degraded replan (the elastic shrink path: a builder with
//! `.total_gpus(survivors)`) skips rebuilding the tables and seeds the
//! branch-and-bound incumbent from the old optimum. A cold
//! [`Orchestrator::plan_candidates`] is the same search on a fresh
//! `WarmStart`. DESIGN.md §"§4 search internals" documents the pruning
//! invariants and when they must be disabled.
//!
//! Planner entry points return `Result<_, `[`PlanError`]`>` so callers get
//! a one-line diagnosis — which constraint emptied the search — instead of
//! a bare `None`.

use std::sync::Arc;

use crate::cache::PerfCache;
use crate::error::PlanError;
use crate::formulate::{Candidate, Objective, ProblemSpec};
use crate::profiler::{TaskProfile, TrainCost};
use crate::solve::{
    combo_lower_bound, min_tp_work, node_lower_bound, solve_inner, trim_allocation, Allocation,
};

/// Marginal trimming thresholds: a GPU is surplus when removing it costs
/// less than this relative objective increase (§7.1's "no further
/// improvements" criterion). Both a conservative and an aggressive variant
/// of each plan are emitted; the manager's benchmarking trials pick the
/// winner (time first, GPU footprint as tie-break).
const TRIM_SLACK_PER_GPU: [f64; 2] = [3e-4, 2e-3];

use dt_model::mllm::SampleShape;
use dt_model::{ModuleKind, MultimodalLlm};
use dt_parallel::{ModulePlan, OrchestrationPlan};
use dt_telemetry::{names, Telemetry};

/// TP sizes considered (one NVLink node; §4.3) — the same grid the
/// profiler trials, so every lattice lookup is a [`PerfCache`] table hit.
const TP_CHOICES: [u32; 4] = crate::profiler::TRIAL_TPS;

/// The smallest cluster the disaggregated layout can occupy: one backbone
/// GPU plus one encoder and one generator GPU.
const MIN_CLUSTER_GPUS: u32 = 3;

/// Default candidate shortlist size (`top_k`): the §3 benchmarking-trial
/// phase compares up to this many distinct validated plans.
pub const DEFAULT_TOP_K: usize = 12;

/// Relative safety margin applied to every lower bound before it is
/// compared against an incumbent or threshold. The bounds in
/// [`crate::solve`] are exact in real arithmetic but computed in `f64`;
/// shrinking them by one part in 10⁶ (about 10 orders of magnitude more
/// than the accumulated rounding) guarantees a bound can never *falsely*
/// exceed the value it provably under-estimates, so pruning never
/// discards the true optimum.
const LB_SAFETY: f64 = 1.0 - 1e-6;

/// Threshold-widening schedule for the pruned search's re-enumeration
/// pass. Round `i` keeps every entry within `WIDEN_FACTORS[i] ×` the
/// proven optimum; if that window holds fewer than `top_k` distinct
/// validated plans *and* something was excluded, the window widens. The
/// final `∞` round degenerates to the full exhaustive entry set, so the
/// shortlist is always exactly the serial one.
/// The leading `1.02` round exists for small `top_k` (the deployment
/// path plans `top_k(1)`): the §4 bounds are near-exact, so a 2% window
/// usually holds the optimum's whole tie-cluster and nothing else —
/// without it, the first round solves every entry within 20% of `T*`,
/// which at small lattices is most of the near-optimal mass (the 96-GPU
/// ablation point spent over half its solves there). An extra round
/// costs only a memoized re-walk when it comes up short.
const WIDEN_FACTORS: [f64; 5] = [1.02, 1.2, 6.0, 24.0, f64::INFINITY];

/// How the TP×DP×PP lattice is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Single-threaded exhaustive reference traversal (the determinism
    /// and optimality baseline the dt-check oracles diff against).
    Serial,
    /// Branch-and-bound (the default): monotone dominance cuts over the
    /// PP axis, analytic lower bounds from the [`PerfCache`] tables, and
    /// incumbent pruning. Bit-identical results to [`SearchMode::Serial`]
    /// — same plans, ranking, objective bits, and error variants — with
    /// far fewer inner solves; falls back to the exhaustive traversal
    /// when [`PerfCache::bounds_sound`] fails (non-finite or negative
    /// cost tables invalidate the bounding algebra).
    #[default]
    Pruned,
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchMode::Serial => write!(f, "serial"),
            SearchMode::Pruned => write!(f, "pruned"),
        }
    }
}

/// The planner, made only by the validating [`Orchestrator::builder`].
#[derive(Debug, Clone)]
pub struct Orchestrator {
    /// Problem constants.
    spec: ProblemSpec,
    /// Lattice traversal strategy (default [`SearchMode::Pruned`]).
    search_mode: SearchMode,
    /// Candidate shortlist size (default [`DEFAULT_TOP_K`]).
    top_k: usize,
    /// Metrics sink: every search records its wall time, cache hit/miss
    /// totals, and a search counter here (disabled by default — a no-op).
    telemetry: Telemetry,
}

/// The planner's result plus diagnostics.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The chosen plan.
    pub plan: OrchestrationPlan,
    /// Predicted objective at the optimum.
    pub objective: Objective,
    /// Inner convex solves performed. For [`SearchMode::Serial`] this is
    /// the full lattice-point count; for [`SearchMode::Pruned`] it is the
    /// (much smaller) number of solves the bounds could not avoid.
    pub candidates_evaluated: usize,
    /// Memoized cost-table lookups served by the [`PerfCache`] *during
    /// this search* (a warm-started search shares its table across
    /// searches, so this is a per-search delta, not a lifetime total).
    pub cache_hits: u64,
    /// Wall-clock time of the search (the Table 3 metric).
    pub solve_wall_time: std::time::Duration,
    /// How the lattice was traversed.
    pub search_mode: SearchMode,
    /// `(TP_lm, DP_lm, PP_lm)` node expansions performed. The exhaustive
    /// traversal expands every feasible node exactly once; the pruned search
    /// counts expansions across its bounding and re-enumeration passes.
    pub nodes_expanded: usize,
    /// Node-expansion skips justified by a lower bound (0 for the
    /// exhaustive traversal — it prunes nothing).
    pub nodes_pruned: usize,
    /// Machine-readable optimality certificate: `true` when every pruned
    /// region carried a proof (a lower bound above the incumbent, or a
    /// monotone infeasibility argument) that it cannot contain a better
    /// plan — which holds for the exhaustive traversal trivially and for the
    /// branch-and-bound by construction. The dt-check oracle asserts it;
    /// a future non-monotone cost model would report `false` here after
    /// falling back to a heuristic search.
    pub proven_optimal: bool,
}

/// The planning state of one job: everything the §4 search reads besides
/// the model and the [`ProblemSpec`].
///
/// A `WarmStart` freezes two things at job start: the [`PerfCache`] built
/// from the job's [`TaskProfile`] (cost tables, mean sample shape,
/// backbone memory), and the plans actually chosen so far
/// ([`WarmStart::observe`]). [`Orchestrator::plan_candidates_warm`] shares
/// the tables (no rebuild, no re-profiling) and degrades each observed
/// plan onto the current lattice to seed the branch-and-bound incumbent,
/// so most of the lattice prunes on the first pass. A degraded replan
/// (§4.3 re-run after node failures) is the same call on a planner built
/// with `.total_gpus(survivors)`.
///
/// Reuse rule: the profile is resolution- and cluster-size independent
/// for multi-node clusters, so the job-start tables stay *exact* for any
/// shrunk cluster of ≥ 2 nodes. Hints only speed the search up, so a
/// warm search returns bit-identical plans to a cold one. A different
/// model or data distribution needs a fresh `WarmStart`.
///
/// ```
/// use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
/// use dt_data::{DataConfig, SyntheticLaion};
/// use dt_model::MllmPreset;
/// use dt_orchestrator::orchestrate::{Orchestrator, WarmStart};
/// use dt_orchestrator::perf::PerfModel;
/// use dt_orchestrator::profiler::Profiler;
/// use dt_orchestrator::ProblemSpec;
///
/// // Job start: profile once, plan, and remember both.
/// let model = MllmPreset::Mllm9B.build();
/// let gpu = GpuSpec::ampere();
/// let coll = CollectiveCost::new(ClusterSpec::production(12));
/// let perf = PerfModel::new(&model, &gpu, &coll);
/// let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 17);
/// let profile = Profiler.profile(&perf, &data.take(64));
/// let spec = ProblemSpec {
///     total_gpus: 96,
///     gpus_per_node: 8,
///     hbm_bytes: 80 << 30,
///     global_batch: 128,
///     microbatch: 1,
///     vpp: 1,
///     pp_hop_secs: 0.0,
/// };
/// let orch = Orchestrator::builder().spec(spec).build().unwrap();
/// let mut warm = WarmStart::new(&model, &profile);
/// let initial = orch.plan_candidates_warm(&model, &warm).unwrap();
/// warm.observe(&initial[0].plan);
///
/// // A node fails: the warm replan reuses the prebuilt cost tables and
/// // seeds the incumbent from the old optimum — and returns exactly
/// // what a cold search on the 88 survivors would have.
/// let shrunk = Orchestrator::builder().spec(spec).total_gpus(88).build().unwrap();
/// let warmed = shrunk.plan_candidates_warm(&model, &warm).unwrap();
/// let cold = shrunk.plan_candidates(&model, &profile).unwrap();
/// assert_eq!(warmed[0].plan, cold[0].plan);
/// assert!(warmed[0].plan.total_gpus() <= 88);
/// ```
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Shared cost tables (built once, reused by every warm search).
    cache: Arc<PerfCache>,
    /// Previously chosen `(candidate, PP_lm)` points, deduplicated in
    /// observation order — incumbent seeds for the next replan.
    hints: Vec<(Candidate, u32)>,
}

impl WarmStart {
    /// Build the shared cost tables from the job-start profile.
    pub fn new(model: &MultimodalLlm, profile: &TaskProfile) -> Self {
        WarmStart {
            cache: Arc::new(PerfCache::build(model, profile)),
            hints: Vec::new(),
        }
    }

    /// Record a plan the manager actually ran with, so the next replan
    /// seeds its incumbent from it. Duplicates are ignored.
    pub fn observe(&mut self, plan: &OrchestrationPlan) {
        let hint = (
            Candidate {
                tp_lm: plan.backbone.tp,
                dp_lm: plan.backbone.dp,
                tp_me: plan.encoder.shard_tp(),
                tp_mg: plan.generator.shard_tp(),
            },
            plan.backbone.pp,
        );
        if !self.hints.contains(&hint) {
            self.hints.push(hint);
        }
    }
}

/// Builder for [`Orchestrator`] — the supported way to construct a planner.
///
/// The §4.2 problem arrives whole, as a [`ProblemSpec`] through
/// [`Self::spec`]; [`Self::total_gpus`] then overrides its `N`, as a
/// degraded replan does. The other knobs tune the search:
///
/// | knob | default |
/// |---|---|
/// | `spec` | none: without one, `total_gpus` and `global_batch` are 0 |
/// | `search_mode` | [`SearchMode::Pruned`] |
/// | `top_k` | [`DEFAULT_TOP_K`] |
/// | `telemetry` | [`Telemetry::disabled`] |
///
/// [`Self::build`] checks every field of the spec and `top_k`, and
/// rejects a violation with [`PlanError::InvalidSpec`] naming the field.
#[derive(Debug, Clone)]
pub struct OrchestratorBuilder {
    spec: ProblemSpec,
    search_mode: SearchMode,
    top_k: usize,
    telemetry: Telemetry,
}

impl Default for OrchestratorBuilder {
    fn default() -> Self {
        OrchestratorBuilder {
            spec: ProblemSpec {
                total_gpus: 0,
                gpus_per_node: 8,
                hbm_bytes: 80 * (1 << 30),
                global_batch: 0,
                microbatch: 1,
                vpp: 1,
                pp_hop_secs: 0.0,
            },
            search_mode: SearchMode::default(),
            top_k: DEFAULT_TOP_K,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl OrchestratorBuilder {
    /// The §4.2 problem to plan. Leaves the search knobs as they are.
    pub fn spec(mut self, spec: ProblemSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Override the spec's total GPUs (`N`), as a replan on the survivors
    /// of a failure does. Must be ≥ 1.
    pub fn total_gpus(mut self, n: u32) -> Self {
        self.spec.total_gpus = n;
        self
    }

    /// Lattice traversal strategy.
    pub fn search_mode(mut self, mode: SearchMode) -> Self {
        self.search_mode = mode;
        self
    }

    /// Candidate shortlist size. Must be ≥ 1.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Metrics sink for the planner (see [`dt_telemetry`]). Defaults to
    /// [`Telemetry::disabled`], which records nothing at zero cost.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Validate every knob and produce the planner.
    pub fn build(self) -> Result<Orchestrator, PlanError> {
        let invalid = |field: &'static str, reason: &str| PlanError::InvalidSpec {
            field,
            reason: reason.to_string(),
        };
        let s = &self.spec;
        if s.total_gpus == 0 {
            return Err(invalid("total_gpus", "must be ≥ 1 (unset?)"));
        }
        if s.gpus_per_node == 0 {
            return Err(invalid("gpus_per_node", "must be ≥ 1"));
        }
        if s.hbm_bytes == 0 {
            return Err(invalid("hbm_bytes", "must be > 0"));
        }
        if s.global_batch == 0 {
            return Err(invalid("global_batch", "must be ≥ 1 (unset?)"));
        }
        if s.microbatch == 0 {
            return Err(invalid("microbatch", "must be ≥ 1"));
        }
        if s.vpp == 0 {
            return Err(invalid("vpp", "must be ≥ 1"));
        }
        if !s.pp_hop_secs.is_finite() || s.pp_hop_secs < 0.0 {
            return Err(invalid("pp_hop_secs", "must be finite and ≥ 0"));
        }
        if self.top_k == 0 {
            return Err(invalid("top_k", "must be ≥ 1"));
        }
        Ok(Orchestrator {
            spec: self.spec,
            search_mode: self.search_mode,
            top_k: self.top_k,
            telemetry: self.telemetry,
        })
    }
}

fn divisors(n: u32) -> Vec<u32> {
    let mut d: Vec<u32> = (1..=n).filter(|k| n.is_multiple_of(*k)).collect();
    d.sort_unstable();
    d
}

/// Convert an allocation for a small module (encoder/generator) into a
/// `ModulePlan`. A TP=1 choice with a node-aligned GPU count becomes a
/// replicated group ("we replicate the modality encoder and generator
/// across the GPUs within the TP group ... whereas TP itself is not used",
/// §7.1); timing is identical, memory sharding differs slightly.
fn small_module_plan(tp: u32, gpus: u32, gpus_per_node: u32) -> ModulePlan {
    if tp == 1 && gpus.is_multiple_of(gpus_per_node) && gpus >= gpus_per_node {
        ModulePlan::replicated(gpus_per_node, gpus / gpus_per_node, 1)
    } else {
        ModulePlan::new(tp, gpus / tp, 1)
    }
}

/// One `(TP_lm, DP_lm, PP_lm)` branch-and-bound node: a backbone shape
/// that survived the budget and memory dominance cuts, plus its analytic
/// lower bound (`None` = provably no feasible allocation under it).
struct LatticeNode {
    tp_lm: u32,
    dp_lm: u32,
    pp: u32,
    y: u32,
    lb: Option<f64>,
}

/// What a traversal strategy hands back to the shared report/diagnosis
/// code in [`Orchestrator::plan_candidates_warm`].
struct SearchOutcome {
    /// The `top_k` shortlist, already validated and deduplicated —
    /// identical across both search modes.
    selected: Vec<(OrchestrationPlan, Objective)>,
    /// Inner convex solves actually performed.
    solves: usize,
    /// What the serial reference would have counted as
    /// `candidates_evaluated` — error variants carry this (not `solves`)
    /// so diagnoses stay bit-identical across modes.
    exhaustive_evaluated: usize,
    memory_rejected: usize,
    nodes_expanded: usize,
    nodes_pruned: usize,
}

/// The shared tail of every traversal: stable-sort the entries and keep
/// the best `k` distinct validated plans (memory of all three modules,
/// divisibility, cluster size). Only the best allocation per distinct
/// backbone shape is kept — two slots per shape, differing in GPU
/// footprint — so the trial phase compares genuinely different
/// strategies, not x/z micro-variants.
fn select_plans(
    spec: &ProblemSpec,
    model: &MultimodalLlm,
    shape: &SampleShape,
    k: usize,
    ranked: &[(f64, Candidate, u32, Allocation)],
) -> Vec<(OrchestrationPlan, Objective)> {
    let mut out: Vec<(OrchestrationPlan, Objective)> = Vec::with_capacity(k);
    let mut seen: Vec<((u32, u32, u32), u32)> = Vec::new();
    for (_, cand, pp_lm, alloc) in ranked {
        let backbone_shape = (cand.tp_lm, cand.dp_lm, *pp_lm);
        let gpus = alloc.x + alloc.y + alloc.z;
        let same_shape = seen.iter().filter(|(s, _)| *s == backbone_shape).count();
        let same_size = seen.iter().any(|(s, g)| *s == backbone_shape && *g == gpus);
        if same_shape >= 2 || same_size {
            continue;
        }
        let plan = OrchestrationPlan {
            encoder: small_module_plan(cand.tp_me, alloc.x, spec.gpus_per_node),
            backbone: ModulePlan::new(cand.tp_lm, cand.dp_lm, *pp_lm).with_sp(),
            generator: small_module_plan(cand.tp_mg, alloc.z, spec.gpus_per_node),
            microbatch: spec.microbatch,
        };
        if plan
            .validate(
                spec.total_gpus,
                spec.gpus_per_node,
                spec.hbm_bytes,
                model,
                shape,
                spec.global_batch,
            )
            .is_ok()
            && !out.iter().any(|(p, _)| *p == plan)
        {
            seen.push((backbone_shape, gpus));
            out.push((plan, alloc.objective));
            if out.len() >= k {
                break;
            }
        }
    }
    out
}

impl Orchestrator {
    /// Start building a planner (see [`OrchestratorBuilder`]).
    pub fn builder() -> OrchestratorBuilder {
        OrchestratorBuilder::default()
    }

    /// The best plan for an existing profile: the head of
    /// [`Orchestrator::plan_candidates`].
    pub fn plan_with_profile(
        &self,
        model: &MultimodalLlm,
        profile: &TaskProfile,
    ) -> Result<PlanReport, PlanError> {
        Ok(self
            .plan_candidates(model, profile)?
            .into_iter()
            .next()
            .expect("plan_candidates returns a non-empty list on Ok"))
    }

    /// The top `self.top_k` distinct validated plans in predicted-time
    /// order; the list is non-empty on `Ok`. The training manager
    /// evaluates these with benchmarking trials and keeps the best (§3:
    /// "runs a series of benchmarking training trials"), which corrects
    /// any misranking by the closed-form objective.
    ///
    /// The cold search: [`Orchestrator::plan_candidates_warm`] on a fresh
    /// [`WarmStart`]. Its `solve_wall_time` includes building the tables.
    pub fn plan_candidates(
        &self,
        model: &MultimodalLlm,
        profile: &TaskProfile,
    ) -> Result<Vec<PlanReport>, PlanError> {
        let started = std::time::Instant::now();
        self.search(model, &WarmStart::new(model, profile), started)
    }

    /// [`Orchestrator::plan_candidates`] over existing planning state: the
    /// [`WarmStart`]'s prebuilt cost tables replace a fresh
    /// [`PerfCache::build`], and its observed plans seed the pruned
    /// search's incumbent. Results are identical to the cold call on the
    /// profile the `WarmStart` was built from.
    pub fn plan_candidates_warm(
        &self,
        model: &MultimodalLlm,
        warm: &WarmStart,
    ) -> Result<Vec<PlanReport>, PlanError> {
        self.search(model, warm, std::time::Instant::now())
    }

    /// The one search both entry points run; `started` is when the
    /// reported `solve_wall_time` begins.
    fn search(
        &self,
        model: &MultimodalLlm,
        warm: &WarmStart,
        started: std::time::Instant,
    ) -> Result<Vec<PlanReport>, PlanError> {
        let spec = &self.spec;
        if spec.total_gpus < MIN_CLUSTER_GPUS {
            return Err(PlanError::ClusterTooSmall {
                total_gpus: spec.total_gpus,
                min_required: MIN_CLUSTER_GPUS,
            });
        }
        // DP_lm divides BS/M, and only whole microbatches make a batch: when
        // M does not divide BS no DP width does, so BS/M counts as 0 and the
        // lattice is empty.
        let m = spec.microbatch.max(1);
        let bs_over_m = spec.global_batch / m * u32::from(spec.global_batch.is_multiple_of(m));
        let layers = model.backbone.layers;
        // Memoized evaluation table, shared across searches: hit/miss
        // counts are reported as per-search deltas.
        let cache = &*warm.cache;
        let shape = &cache.mean_shape;
        let hits_base = cache.hits();
        let misses_base = cache.misses();

        // The outer (TP_lm, DP_lm) lattice, in enumeration order — the
        // tie-break order both modes preserve, which is what makes them
        // bit-identical.
        let dp_choices = divisors(bs_over_m);
        let pp_choices = divisors(layers);
        let pairs: Vec<(u32, u32)> = TP_CHOICES
            .iter()
            .flat_map(|&tp_lm| dp_choices.iter().map(move |&dp_lm| (tp_lm, dp_lm)))
            .filter(|&(tp_lm, dp_lm)| dp_lm * tp_lm <= spec.total_gpus)
            .collect();
        if pairs.is_empty() {
            return Err(PlanError::EmptyLattice {
                pairs_considered: 0,
            });
        }

        let outcome = match self.search_mode {
            SearchMode::Pruned if cache.bounds_sound() => {
                self.search_pruned(cache, model, shape, &pairs, &pp_choices, &warm.hints)
            }
            // A table the bounding algebra cannot trust (non-finite or
            // negative entries): planning still works, via the exhaustive
            // traversal. The report keeps the requested mode and shows
            // `nodes_pruned: 0`.
            SearchMode::Pruned | SearchMode::Serial => {
                self.search_exhaustive(cache, model, shape, &pairs, &pp_choices)
            }
        };

        if outcome.exhaustive_evaluated == 0 {
            return Err(if outcome.memory_rejected > 0 {
                PlanError::NoMemoryFeasiblePoint {
                    candidates_evaluated: 0,
                    memory_rejected: outcome.memory_rejected,
                }
            } else {
                PlanError::EmptyLattice {
                    pairs_considered: pairs.len(),
                }
            });
        }
        if outcome.selected.is_empty() {
            return Err(PlanError::NoMemoryFeasiblePoint {
                candidates_evaluated: outcome.exhaustive_evaluated,
                memory_rejected: outcome.memory_rejected,
            });
        }

        let cache_hits = cache.hits() - hits_base;
        let out: Vec<PlanReport> = outcome
            .selected
            .into_iter()
            .map(|(plan, objective)| PlanReport {
                plan,
                objective,
                candidates_evaluated: outcome.solves,
                cache_hits,
                solve_wall_time: started.elapsed(),
                search_mode: self.search_mode,
                nodes_expanded: outcome.nodes_expanded,
                nodes_pruned: outcome.nodes_pruned,
                proven_optimal: true,
            })
            .collect();
        self.telemetry.with(|r| {
            r.counter(names::ORCHESTRATOR_SEARCHES_TOTAL, &[]).inc();
            r.counter(names::ORCHESTRATOR_CACHE_HITS_TOTAL, &[])
                .add(cache_hits);
            r.counter(names::ORCHESTRATOR_CACHE_MISSES_TOTAL, &[])
                .add(cache.misses() - misses_base);
            r.histogram(names::ORCHESTRATOR_SEARCH_WALL_SECONDS, &[])
                .observe(started.elapsed().as_secs_f64());
        });
        Ok(out)
    }

    /// The exhaustive traversal (Serial, and the Pruned fallback for
    /// bound-unsound tables): every node, every combo, in enumeration
    /// order.
    fn search_exhaustive(
        &self,
        cache: &PerfCache,
        model: &MultimodalLlm,
        shape: &SampleShape,
        pairs: &[(u32, u32)],
        pp_choices: &[u32],
    ) -> SearchOutcome {
        let spec = &self.spec;
        let mut evaluated = 0usize;
        let mut memory_rejected = 0usize;
        let mut ranked: Vec<(f64, Candidate, u32, Allocation)> = Vec::new();
        for &(tp_lm, dp_lm) in pairs {
            for &pp_lm in pp_choices {
                let y = tp_lm * dp_lm * pp_lm;
                if y + 2 > spec.total_gpus {
                    continue;
                }
                // Backbone memory gate (§4.2 constraint).
                if !cache
                    .backbone_memory
                    .fits(spec.hbm_bytes, pp_lm, tp_lm, dp_lm, spec.microbatch)
                {
                    memory_rejected += 1;
                    continue;
                }
                for &tp_me in &TP_CHOICES {
                    for &tp_mg in &TP_CHOICES {
                        let cand = Candidate {
                            tp_lm,
                            dp_lm,
                            tp_me,
                            tp_mg,
                        };
                        evaluated += 1;
                        if let Some(alloc) = solve_inner(spec, cache, &cand, y) {
                            for slack in TRIM_SLACK_PER_GPU {
                                let trimmed = trim_allocation(spec, cache, &cand, alloc, slack);
                                ranked.push((trimmed.objective.total(), cand, pp_lm, trimmed));
                            }
                        }
                    }
                }
            }
        }

        // Stable sort on the objective: ties keep enumeration order, the
        // same tie-break in both search modes.
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("objective values are finite"));
        let selected = select_plans(spec, model, shape, self.top_k.max(1), &ranked);
        let combos = TP_CHOICES.len() * TP_CHOICES.len();
        SearchOutcome {
            selected,
            solves: evaluated,
            exhaustive_evaluated: evaluated,
            memory_rejected,
            nodes_expanded: evaluated / combos,
            nodes_pruned: 0,
        }
    }

    /// Branch-and-bound over the (TP, DP) lattice (§4's convex
    /// decomposition makes the bounds in [`crate::solve`] valid).
    ///
    /// Two passes, both single-threaded (the search is memoization-bound,
    /// so threads would buy only contention):
    ///
    /// 1. **Bounding** — nodes that survive the monotone dominance cuts
    ///    are expanded best-first by lower bound; a node (or one of its
    ///    encoder/generator combos) whose bound reaches the incumbent is
    ///    pruned, along with everything after it in bound order. Because
    ///    every pruned region provably contains no entry below the
    ///    incumbent, the pass ends with the *exact* optimal trimmed-entry
    ///    objective `T*` — the optimality certificate.
    /// 2. **Threshold re-enumeration** — the serial ranking's prefix
    ///    `{entries ≤ T_cut}` is rebuilt in enumeration order with
    ///    `T_cut = T* × WIDEN_FACTORS[round]`, widening while the prefix
    ///    holds fewer than `top_k` validated plans and something was
    ///    excluded. The kept set is exactly the head of the serial sorted
    ///    list, so the shortlist matches the exhaustive one bit for bit.
    ///
    /// Warm hints ([`WarmStart::observe`]) are degraded onto the current
    /// lattice and solved first, seeding the incumbent so pass 1 starts
    /// pruning immediately.
    fn search_pruned(
        &self,
        cache: &PerfCache,
        model: &MultimodalLlm,
        shape: &SampleShape,
        pairs: &[(u32, u32)],
        pp_choices: &[u32],
        hints: &[(Candidate, u32)],
    ) -> SearchOutcome {
        let spec = &self.spec;
        let combos = TP_CHOICES.len() * TP_CHOICES.len();
        let mut out = SearchOutcome {
            selected: Vec::new(),
            solves: 0,
            exhaustive_evaluated: 0,
            memory_rejected: 0,
            nodes_expanded: 0,
            nodes_pruned: 0,
        };

        // --- Monotone dominance cuts (binary search, not enumeration).
        // Along each pair's PP axis, `y = TP·DP·PP` grows monotonically,
        // so the GPU-budget-feasible PPs are a prefix; and the backbone's
        // per-GPU peak shrinks monotonically in PP (see
        // `ModuleMemory::fits`), so the memory-feasible PPs are a suffix
        // of that prefix. Two partition points replace the per-PP gate
        // loop, and the cut sizes reproduce the serial rejection counts.
        let enc_min = min_tp_work(cache, ModuleKind::Encoder);
        let gen_min = min_tp_work(cache, ModuleKind::Generator);
        let mut nodes: Vec<LatticeNode> = Vec::new();
        for &(tp_lm, dp_lm) in pairs {
            let budget_end = pp_choices.partition_point(|&pp| {
                (tp_lm as u64) * (dp_lm as u64) * (pp as u64) + 2 <= spec.total_gpus as u64
            });
            let in_budget = &pp_choices[..budget_end];
            let first_fit = in_budget.partition_point(|&pp| {
                !cache
                    .backbone_memory
                    .fits(spec.hbm_bytes, pp, tp_lm, dp_lm, spec.microbatch)
            });
            out.memory_rejected += first_fit;
            let c_lm = cache.train_cost(ModuleKind::Backbone, tp_lm);
            for &pp in &in_budget[first_fit..] {
                let y = tp_lm * dp_lm * pp;
                let lb = node_lower_bound(spec, tp_lm, dp_lm, y, c_lm, enc_min, gen_min);
                nodes.push(LatticeNode {
                    tp_lm,
                    dp_lm,
                    pp,
                    y,
                    lb,
                });
            }
        }
        out.exhaustive_evaluated = nodes.len() * combos;
        if nodes.is_empty() {
            return out;
        }

        // Memoized per-(node, combo) solve+trim results: the threshold
        // pass and its widening rounds reuse bounding-pass work instead of
        // re-solving, so no lattice point is ever solved twice and
        // `solves` is bounded by the exhaustive lattice size.
        let solve_trimmed = |cand: &Candidate, y: u32| -> Option<[Allocation; 2]> {
            solve_inner(spec, cache, cand, y).map(|alloc| {
                TRIM_SLACK_PER_GPU.map(|slack| trim_allocation(spec, cache, cand, alloc, slack))
            })
        };
        let mut memo: Vec<Option<Option<[Allocation; 2]>>> = vec![None; nodes.len() * combos];
        // Combo bounds are pure in (node, combo) too, and each one costs
        // several cost-table lookups; pass 1 and every widening round of
        // pass 2 probe the same slots, so they share one memo instead of
        // re-deriving the bound per pass (the 96-GPU ablation point spends
        // most of its non-solve time here — see BENCH_solver.json).
        let mut clb_memo: Vec<Option<Option<f64>>> = vec![None; nodes.len() * combos];

        // --- Pass 1: best-first bounding to the exact optimum T*.
        // Deterministic expansion order: bound, then node index.
        let mut order: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].lb.is_some())
            .collect();
        order.sort_by(|&a, &b| {
            let (la, lb) = (nodes[a].lb.unwrap(), nodes[b].lb.unwrap());
            la.total_cmp(&lb).then(a.cmp(&b))
        });
        let mut incumbent = f64::INFINITY;

        // Warm hints: degrade each observed plan onto the current lattice
        // (same TPs; the largest surviving DP ≤ the old one; the largest
        // in-budget, memory-feasible PP ≤ the old one) and solve it once.
        for &(hint, pp_hint) in hints {
            let Some(dp_lm) = pairs
                .iter()
                .filter(|&&(t, d)| t == hint.tp_lm && d <= hint.dp_lm)
                .map(|&(_, d)| d)
                .max()
            else {
                continue;
            };
            let cand = Candidate {
                tp_lm: hint.tp_lm,
                dp_lm,
                ..hint
            };
            for &pp in pp_choices.iter().rev().filter(|&&pp| pp <= pp_hint) {
                let y = cand.tp_lm * dp_lm * pp;
                if y + 2 > spec.total_gpus
                    || !cache.backbone_memory.fits(
                        spec.hbm_bytes,
                        pp,
                        cand.tp_lm,
                        dp_lm,
                        spec.microbatch,
                    )
                {
                    continue;
                }
                out.solves += 1;
                if let Some(alloc) = solve_inner(spec, cache, &cand, y) {
                    for slack in TRIM_SLACK_PER_GPU {
                        let t = trim_allocation(spec, cache, &cand, alloc, slack);
                        incumbent = incumbent.min(t.objective.total());
                    }
                }
                break;
            }
        }

        let mut combo_order: Vec<(f64, usize, usize)> = Vec::with_capacity(combos);
        for (rank, &i) in order.iter().enumerate() {
            let node = &nodes[i];
            if node.lb.unwrap() * LB_SAFETY >= incumbent {
                // Best-first order: every later node's bound is at least
                // this one's, so the whole tail is dominated.
                out.nodes_pruned += order.len() - rank;
                break;
            }
            out.nodes_expanded += 1;
            // Expand the node's combos cheapest-bound-first: its own best
            // combo tightens the incumbent before the weaker fifteen are
            // tested, and sorted order turns the incumbent test into a
            // break. Incumbent pruning is sound in any order, so T* is
            // unchanged — only `solves` shrinks.
            combo_order.clear();
            for (me_idx, &tp_me) in TP_CHOICES.iter().enumerate() {
                for (mg_idx, &tp_mg) in TP_CHOICES.iter().enumerate() {
                    let cand = Candidate {
                        tp_lm: node.tp_lm,
                        dp_lm: node.dp_lm,
                        tp_me,
                        tp_mg,
                    };
                    let slot = i * combos + me_idx * TP_CHOICES.len() + mg_idx;
                    let clb = *clb_memo[slot]
                        .get_or_insert_with(|| combo_lower_bound(spec, cache, &cand, node.y));
                    if let Some(clb) = clb {
                        combo_order.push((clb, me_idx, mg_idx));
                    }
                }
            }
            combo_order.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
            for &(clb, me_idx, mg_idx) in &combo_order {
                if clb * LB_SAFETY >= incumbent {
                    break;
                }
                let cand = Candidate {
                    tp_lm: node.tp_lm,
                    dp_lm: node.dp_lm,
                    tp_me: TP_CHOICES[me_idx],
                    tp_mg: TP_CHOICES[mg_idx],
                };
                out.solves += 1;
                let slot = i * combos + me_idx * TP_CHOICES.len() + mg_idx;
                let trimmed = *memo[slot].get_or_insert_with(|| solve_trimmed(&cand, node.y));
                for t in trimmed.iter().flatten() {
                    incumbent = incumbent.min(t.objective.total());
                }
            }
        }

        // No feasible entry anywhere: the caller diagnoses exactly as the
        // serial search would (pass 1 ran to completion, so this is proof,
        // not a sampling artifact).
        if incumbent.is_finite() {
            // --- Pass 2: threshold re-enumeration. Keep exactly the
            // entries with total ≤ T_cut, traversed in serial enumeration
            // order; prune (and remember that we pruned) anything a bound
            // proves is above the threshold. `None` bounds are proof of
            // emptiness, never an exclusion — otherwise an empty combo
            // would force widening forever.
            for &factor in &WIDEN_FACTORS {
                let t_cut = if factor.is_infinite() {
                    f64::INFINITY
                } else {
                    incumbent * factor
                };
                let mut ranked: Vec<(f64, Candidate, u32, Allocation)> = Vec::new();
                let mut excluded = false;
                for (ni, node) in nodes.iter().enumerate() {
                    let Some(lb) = node.lb else { continue };
                    if lb * LB_SAFETY > t_cut {
                        excluded = true;
                        out.nodes_pruned += 1;
                        continue;
                    }
                    out.nodes_expanded += 1;
                    for (me_idx, &tp_me) in TP_CHOICES.iter().enumerate() {
                        for (mg_idx, &tp_mg) in TP_CHOICES.iter().enumerate() {
                            let cand = Candidate {
                                tp_lm: node.tp_lm,
                                dp_lm: node.dp_lm,
                                tp_me,
                                tp_mg,
                            };
                            let slot = ni * combos + me_idx * TP_CHOICES.len() + mg_idx;
                            let Some(clb) = *clb_memo[slot].get_or_insert_with(|| {
                                combo_lower_bound(spec, cache, &cand, node.y)
                            }) else {
                                continue;
                            };
                            if clb * LB_SAFETY > t_cut {
                                excluded = true;
                                continue;
                            }
                            if memo[slot].is_none() {
                                out.solves += 1;
                            }
                            let trimmed =
                                *memo[slot].get_or_insert_with(|| solve_trimmed(&cand, node.y));
                            for t in trimmed.iter().flatten() {
                                let total = t.objective.total();
                                if total <= t_cut {
                                    ranked.push((total, cand, node.pp, *t));
                                } else {
                                    excluded = true;
                                }
                            }
                        }
                    }
                }
                ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("objective values are finite"));
                let selected = select_plans(spec, model, shape, self.top_k.max(1), &ranked);
                // Accept when the shortlist is full, or nothing at all was
                // excluded (then this *is* the complete serial entry set).
                // The final ∞ round excludes nothing, so this terminates.
                if selected.len() >= self.top_k.max(1) || !excluded {
                    out.selected = selected;
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::profiler::Profiler;
    use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
    use dt_data::{DataConfig, SyntheticLaion};
    use dt_model::MllmPreset;

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

    fn profile_for(model: &MultimodalLlm, nodes: u32, seed: u64) -> TaskProfile {
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(nodes));
        let perf = PerfModel::new(model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(model.gen_resolution), seed);
        Profiler.profile(&perf, &data.take(64))
    }

    fn planner(s: ProblemSpec) -> Orchestrator {
        Orchestrator::builder().spec(s).build().unwrap()
    }

    fn plan_for(preset: MllmPreset, n: u32, bs: u32) -> PlanReport {
        let model = preset.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(n.div_ceil(8)));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(model.gen_resolution), 17);
        let profile = Profiler.profile(&perf, &data.take(64));
        planner(spec(n, bs))
            .plan_with_profile(&model, &profile)
            .expect("planning must succeed")
    }

    #[test]
    fn ablation_scale_9b_plan_is_valid_and_fast() {
        let r = plan_for(MllmPreset::Mllm9B, 96, 128);
        assert!(r.plan.total_gpus() <= 96);
        assert!(r.candidates_evaluated > 0);
        assert!(
            r.cache_hits > r.candidates_evaluated as u64,
            "each evaluation does several lookups"
        );
        assert!(r.solve_wall_time.as_secs_f64() < 5.0);
        assert!(
            r.proven_optimal,
            "the default search carries the optimality certificate"
        );
        // The backbone must receive the lion's share for a 7B-dominated
        // model at 512² generation.
        assert!(r.plan.backbone.gpus() > r.plan.encoder.gpus());
        assert!(r.plan.backbone.gpus() > r.plan.generator.gpus());
    }

    #[test]
    fn high_res_generation_earns_the_generator_more_gpus() {
        // §7.1: "The high image resolution increases the execution time of
        // the multimodal module ... DistTrain addresses this by allocating
        // additional GPUs to these modules to balance the pipeline."
        // Counterfactual on the same model: plan MLLM-72B with 512² vs
        // 1024² generation targets.
        let model = MllmPreset::Mllm72B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(12));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let orch = planner(spec(96, 40));
        let share_at = |gen_res: u32| {
            let mut data = SyntheticLaion::new(DataConfig::evaluation(gen_res), 17);
            let profile = Profiler.profile(&perf, &data.take(64));
            let r = orch.plan_with_profile(&model, &profile).unwrap();
            r.plan.generator.gpus() as f64 / r.plan.total_gpus() as f64
        };
        let lo = share_at(512);
        let hi = share_at(1024);
        assert!(
            hi > lo,
            "generator share should grow with resolution: {lo:.3} vs {hi:.3}"
        );
    }

    #[test]
    fn frozen_backbone_shifts_resources_away_from_it() {
        let mut model = MllmPreset::Mllm9B.build();
        let gpu = GpuSpec::ampere();
        let coll = CollectiveCost::new(ClusterSpec::production(12));
        let perf = PerfModel::new(&model, &gpu, &coll);
        let mut data = SyntheticLaion::new(DataConfig::evaluation(512), 17);
        let samples = data.take(64);
        let orch = planner(spec(96, 128));
        let full = orch
            .plan_with_profile(&model, &Profiler.profile(&perf, &samples))
            .unwrap();
        model.freeze = dt_model::FreezeConfig::encoder_only(); // backbone+gen frozen
        let perf_frozen = PerfModel::new(&model, &gpu, &coll);
        let frozen = orch
            .plan_with_profile(&model, &Profiler.profile(&perf_frozen, &samples))
            .unwrap();
        let full_share = full.plan.backbone.gpus() as f64 / full.plan.total_gpus() as f64;
        let frozen_share = frozen.plan.backbone.gpus() as f64 / frozen.plan.total_gpus() as f64;
        assert!(
            frozen_share <= full_share + 1e-9,
            "frozen backbone share {frozen_share:.3} vs full {full_share:.3}"
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let a = plan_for(MllmPreset::Mllm15B, 96, 64);
        let b = plan_for(MllmPreset::Mllm15B, 96, 64);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn pruned_search_matches_serial_bit_for_bit() {
        // The tentpole guarantee: the branch-and-bound returns the exact
        // serial shortlist — same plans, same ranking, same objective
        // bits — while expanding strictly fewer nodes at real scale.
        let model = MllmPreset::Mllm15B.build();
        let profile = profile_for(&model, 12, 17);
        for (n, bs) in [(96u32, 64u32), (96, 128), (24, 16), (320, 320)] {
            let run = |mode: SearchMode| {
                Orchestrator::builder()
                    .spec(spec(n, bs))
                    .search_mode(mode)
                    .build()
                    .unwrap()
                    .plan_candidates(&model, &profile)
                    .unwrap()
            };
            let serial = run(SearchMode::Serial);
            let pruned = run(SearchMode::Pruned);
            assert_eq!(serial.len(), pruned.len(), "{n} GPUs, batch {bs}");
            for (a, b) in serial.iter().zip(&pruned) {
                assert_eq!(a.plan, b.plan, "{n} GPUs, batch {bs}");
                assert_eq!(
                    a.objective.total().to_bits(),
                    b.objective.total().to_bits(),
                    "{n} GPUs, batch {bs}: objectives must be bit-identical"
                );
            }
            let p = &pruned[0];
            assert!(p.proven_optimal);
            assert_eq!(p.search_mode, SearchMode::Pruned);
            assert!(
                p.nodes_pruned > 0,
                "{n} GPUs, batch {bs}: the bounds must bite"
            );
        }
    }

    #[test]
    fn warm_replan_matches_the_cold_replan_bit_for_bit() {
        // The elastic shrink path: a replan over a `WarmStart` holding
        // observed hints returns exactly what a search over a fresh one
        // (the cold search) returns, and fits the smaller cluster.
        let model = MllmPreset::Mllm9B.build();
        let profile = profile_for(&model, 12, 17);
        let on = |n: u32| {
            Orchestrator::builder()
                .spec(spec(n, 128))
                .top_k(3)
                .build()
                .unwrap()
        };
        let mut warm = WarmStart::new(&model, &profile);
        let initial = on(96).plan_candidates_warm(&model, &warm).unwrap();
        warm.observe(&initial[0].plan);
        warm.observe(&initial[0].plan); // duplicates are ignored
        assert_eq!(warm.hints.len(), 1);
        for remaining in [88u32, 64, 24] {
            let orch = on(remaining);
            let fresh = orch
                .plan_candidates_warm(&model, &WarmStart::new(&model, &profile))
                .expect("a shrunk cluster must still be plannable");
            let warmed = orch.plan_candidates_warm(&model, &warm).unwrap();
            assert!(!warmed.is_empty(), "{remaining} GPUs");
            assert!(warmed.len() <= 3, "top_k caps the shortlist");
            assert_eq!(fresh.len(), warmed.len(), "{remaining} GPUs");
            for (c, w) in fresh.iter().zip(&warmed) {
                assert_eq!(c.plan, w.plan, "{remaining} GPUs");
                assert_eq!(
                    c.objective.total().to_bits(),
                    w.objective.total().to_bits(),
                    "{remaining} GPUs: objectives must be bit-identical"
                );
                assert!(
                    w.plan.total_gpus() <= remaining,
                    "plan uses {} of {remaining} GPUs",
                    w.plan.total_gpus()
                );
            }
            warm.observe(&warmed[0].plan);
        }
    }

    #[test]
    fn unsound_cost_tables_disable_pruning_but_not_planning() {
        // A negative train cost invalidates the bounding algebra (the
        // lower bounds take square roots of cost sums), so the pruned
        // mode must transparently fall back to the exhaustive traversal.
        let model = MllmPreset::Mllm9B.build();
        let mut profile = profile_for(&model, 12, 17);
        profile.encoder.train_points[0].1 = -1.0;
        let run = |mode: SearchMode| {
            Orchestrator::builder()
                .spec(spec(96, 128))
                .search_mode(mode)
                .build()
                .unwrap()
                .plan_candidates(&model, &profile)
                .unwrap()
        };
        let serial = run(SearchMode::Serial);
        let pruned = run(SearchMode::Pruned);
        assert_eq!(serial.len(), pruned.len());
        for (a, b) in serial.iter().zip(&pruned) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.objective.total().to_bits(), b.objective.total().to_bits());
        }
        let p = &pruned[0];
        assert_eq!(
            p.search_mode,
            SearchMode::Pruned,
            "the requested mode is reported"
        );
        assert_eq!(p.nodes_pruned, 0, "the fallback prunes nothing");
        assert!(p.proven_optimal, "exhaustive fallback is still optimal");
    }

    #[test]
    fn tiny_cluster_still_plans() {
        let r = plan_for(MllmPreset::Mllm9B, 24, 16);
        assert!(r.plan.total_gpus() <= 24);
    }

    #[test]
    fn two_gpu_cluster_reports_cluster_too_small() {
        let model = MllmPreset::Mllm9B.build();
        let profile = profile_for(&model, 1, 17);
        let err = planner(spec(2, 16))
            .plan_with_profile(&model, &profile)
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::ClusterTooSmall {
                total_gpus: 2,
                min_required: 3
            }
        );
    }

    #[test]
    fn tiny_hbm_reports_no_memory_feasible_point() {
        let model = MllmPreset::Mllm9B.build();
        let profile = profile_for(&model, 12, 17);
        let mut s = spec(96, 128);
        s.hbm_bytes = 1 << 28; // 256 MiB: nothing fits
        let err = planner(s).plan_with_profile(&model, &profile).unwrap_err();
        match err {
            PlanError::NoMemoryFeasiblePoint {
                memory_rejected, ..
            } => {
                assert!(memory_rejected > 0, "the HBM gate must have fired")
            }
            other => panic!("expected NoMemoryFeasiblePoint, got {other:?}"),
        }
    }

    #[test]
    fn indivisible_batch_reports_empty_lattice() {
        let model = MllmPreset::Mllm9B.build();
        let profile = profile_for(&model, 12, 17);
        let mut s = spec(96, 16);
        s.microbatch = 32; // BS/M = 0: no DP divisor exists
        let err = planner(s).plan_with_profile(&model, &profile).unwrap_err();
        assert_eq!(
            err,
            PlanError::EmptyLattice {
                pairs_considered: 0
            }
        );
    }

    #[test]
    fn builder_validates_each_knob() {
        let base = spec(96, 128);
        let ok = Orchestrator::builder().spec(base).build();
        assert!(ok.is_ok());
        let with = |spec: ProblemSpec| Orchestrator::builder().spec(spec);
        for (builder, field) in [
            (
                with(ProblemSpec {
                    total_gpus: 0,
                    ..base
                }),
                "total_gpus",
            ),
            (
                with(ProblemSpec {
                    global_batch: 0,
                    ..base
                }),
                "global_batch",
            ),
            (
                with(ProblemSpec {
                    gpus_per_node: 0,
                    ..base
                }),
                "gpus_per_node",
            ),
            (
                with(ProblemSpec {
                    hbm_bytes: 0,
                    ..base
                }),
                "hbm_bytes",
            ),
            (
                with(ProblemSpec {
                    microbatch: 0,
                    ..base
                }),
                "microbatch",
            ),
            (with(ProblemSpec { vpp: 0, ..base }), "vpp"),
            (with(base).top_k(0), "top_k"),
            (
                with(ProblemSpec {
                    pp_hop_secs: f64::NAN,
                    ..base
                }),
                "pp_hop_secs",
            ),
        ] {
            match builder.build() {
                Err(PlanError::InvalidSpec { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidSpec for {field}, got {other:?}"),
            }
        }
    }
}
