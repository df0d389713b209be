//! # dt-orchestrator — disaggregated model orchestration (§4)
//!
//! The DistTrain training manager decides, before training starts, how many
//! GPUs each module gets (`x` encoder, `y` backbone, `z` generator) and with
//! which DP/TP/PP configuration, to minimize the per-iteration time
//! `T_warmup + T_steady` (Equations 1–2). The pipeline:
//!
//! 1. [`perf::PerfModel`] — the ground-truth cost oracle (analytic FLOPs ÷
//!    GPU throughput + collective costs) standing in for the paper's
//!    benchmark trials;
//! 2. [`profiler::Profiler`] — samples the oracle at a handful of trial
//!    points and interpolates linearly, exactly how the real system builds
//!    its `C(TP)` functions from measured trials (§3);
//! 3. [`formulate`] — the §4.2 objective/constraints over the profile;
//! 4. [`solve`] — §4.3's decomposition: enumerate the finite TP/DP lattice,
//!    then solve each inner convex `min A/x + B/z + K·max(a/x, b/y, c/z)`
//!    allocation exactly (golden-section + lattice rounding, validated
//!    against brute force), our stand-in for the CVX call;
//! 5. [`orchestrate::Orchestrator`] — the user-facing planner, built via
//!    [`orchestrate::OrchestratorBuilder`]; the search is memoized through
//!    [`cache::PerfCache`] and (by default) runs as a branch-and-bound over
//!    the (TP, DP) lattice with monotone dominance cuts and analytic lower
//!    bounds ([`orchestrate::SearchMode::Pruned`]), bit-identical to the
//!    exhaustive [`orchestrate::SearchMode::Serial`] reference path;
//!    [`orchestrate::WarmStart`] is a job's whole planning state (the
//!    cost tables plus incumbent seeds from plans already chosen), shared
//!    by repeat searches and elastic replans;
//! 6. [`baselines`] — Megatron-LM's monolithic plan (§2.1) and DistMM*'s
//!    FLOPs-proportional plan (§7.2), the two comparison points of the
//!    evaluation.
//!
//! The planner has four entry points: [`Orchestrator::builder`], the only
//! way to make one, and three searches —
//! [`Orchestrator::plan_with_profile`], [`Orchestrator::plan_candidates`]
//! (cold) and [`Orchestrator::plan_candidates_warm`] (over a
//! [`WarmStart`]). A degraded replan is a planner built with
//! `.total_gpus(survivors)`. The searches return
//! `Result<_, `[`error::PlanError`]`>`; the error variants carry the counts
//! needed for a one-line diagnosis of why the search came up empty.

pub mod baselines;
pub mod cache;
pub mod error;
pub mod formulate;
pub mod orchestrate;
pub mod perf;
pub mod profiler;
pub mod solve;

pub use cache::PerfCache;
pub use error::PlanError;
pub use formulate::ProblemSpec;
pub use orchestrate::{
    Orchestrator, OrchestratorBuilder, PlanReport, SearchMode, WarmStart, DEFAULT_TOP_K,
};
pub use perf::PerfModel;
pub use profiler::{ModuleProfile, Profiler, TaskProfile, TrainCost};
