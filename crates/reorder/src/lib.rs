//! # dt-reorder — disaggregated data reordering (§5)
//!
//! Data heterogeneity creates two straggler classes (§2.3), and DistTrain
//! removes each with one reordering pass, both running on the disaggregated
//! preprocessing nodes so they cost the GPUs nothing:
//!
//! * [`intra::intra_reorder_indices`] — **Algorithm 1**: balance total sample size
//!   across the DP groups of one global batch (greedy LPT multiway
//!   partitioning; the max-loaded group bounds the iteration, and LPT is a
//!   `4/3`-approximation of the NP-hard optimum \[38, 15\]).
//! * [`inter::inter_reorder`] — **Algorithm 2**: permute the microbatches of
//!   one DP rank so the 1F1B pipeline's stage-0 *intervals* (Figure 12) are
//!   filled as tightly as possible: smallest microbatch first to activate
//!   the pipeline, the `p−1` smallest last where intervals can never be
//!   filled, and best-fit selections for the intervals in between, sized by
//!   [`inter::get_interval`] probes of `dt-pipeline`'s 1F1B `Engine`.
//!
//! Both passes only permute samples *within one global batch*, so they only
//! change the order of gradient accumulation — a commutative sum — and
//! therefore preserve synchronous-training convergence semantics exactly
//! (§5.2, §5.3). The property tests pin that invariant: reordering is always
//! a permutation.
//!
//! [`planner::ReorderPlanner`] composes the two passes over one global
//! batch of [`dt_data::TrainSample`]s, sized by the task's cost model
//! ([`ReorderMode`] picks which passes run). It lives here, below both its
//! callers: `dt-preprocess` runs it on the producer node, and the
//! simulated training runtime (`disttrain-core`) runs it in-process
//! without linking the data plane. The microbatch times the passes act on
//! come from `dt-pipeline`'s 1F1B interval structure (Figure 12), and their
//! end-to-end effect shows up as reduced `bubble` span time in the trace
//! export (see the README's *Observability* section).

pub mod error;
pub mod inter;
pub mod intra;
pub mod planner;

pub use error::ReorderError;
pub use inter::{get_interval, inter_reorder, InterReorderConfig};
pub use intra::{intra_reorder_indices, max_group_load};
pub use planner::{ReorderMode, ReorderPlanner};
