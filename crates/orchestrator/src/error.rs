//! Typed planner outcomes.
//!
//! The §4.3 search used to answer "no plan" with a bare `Option`/empty
//! `Vec`, which told the caller nothing about *why* — was the cluster too
//! small, did every lattice point fail the memory gate, or was the lattice
//! empty to begin with (e.g. an indivisible batch)? The failure-recovery
//! path in `dt-elastic` turns that question into an operator-facing
//! diagnosis ("no plan for 10 nodes: …"), so every planner entry point now
//! returns `Result<_, PlanError>` and each variant carries the counts
//! needed to print a one-line explanation.

/// Why the §4 orchestration search produced no plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The cluster cannot host even the minimal disaggregated footprint
    /// (one backbone GPU plus one encoder and one generator GPU).
    ClusterTooSmall {
        /// GPUs the spec offered.
        total_gpus: u32,
        /// The smallest cluster the planner can place anything on.
        min_required: u32,
    },
    /// The TP×DP×PP lattice contained no structurally valid point at all —
    /// typically an indivisible `global_batch / microbatch`, so there is no
    /// backbone DP to enumerate.
    EmptyLattice {
        /// `(TP_lm, DP_lm)` outer lattice pairs that existed (0 when even
        /// the outer lattice was empty).
        pairs_considered: usize,
    },
    /// Lattice points existed but none survived the §4.2 memory
    /// constraints (backbone HBM gate, full-plan validation).
    ///
    /// The counts are the *exhaustive-equivalent* lattice size in every
    /// search mode: the branch-and-bound search proves infeasibility from
    /// bounds without solving each point, but it reports the same numbers
    /// the serial reference would — error diagnoses are bit-identical
    /// across modes, and the differential oracles compare them exactly.
    NoMemoryFeasiblePoint {
        /// Inner allocations the exhaustive traversal would evaluate.
        candidates_evaluated: usize,
        /// `(PP, TP, DP)` backbone shapes rejected by the HBM gate.
        memory_rejected: usize,
    },
    /// The problem constants themselves are malformed (builder
    /// validation): the named field failed the stated requirement.
    InvalidSpec {
        /// Which `ProblemSpec`/builder field was rejected.
        field: &'static str,
        /// What the field must satisfy.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ClusterTooSmall {
                total_gpus,
                min_required,
            } => write!(
                f,
                "cluster too small: {total_gpus} GPUs offered, the disaggregated \
                 layout needs at least {min_required}"
            ),
            PlanError::EmptyLattice { pairs_considered } => write!(
                f,
                "empty search lattice ({pairs_considered} outer TP×DP pairs): \
                 check that microbatch divides the global batch"
            ),
            PlanError::NoMemoryFeasiblePoint {
                candidates_evaluated,
                memory_rejected,
            } => write!(
                f,
                "no memory-feasible point: {candidates_evaluated} allocations evaluated, \
                 {memory_rejected} backbone shapes rejected by the HBM gate"
            ),
            PlanError::InvalidSpec { field, reason } => {
                write!(f, "invalid problem spec: `{field}` {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnoses_are_one_line() {
        let errors = [
            PlanError::ClusterTooSmall {
                total_gpus: 2,
                min_required: 3,
            },
            PlanError::EmptyLattice {
                pairs_considered: 0,
            },
            PlanError::NoMemoryFeasiblePoint {
                candidates_evaluated: 128,
                memory_rejected: 7,
            },
            PlanError::InvalidSpec {
                field: "global_batch",
                reason: "must be ≥ 1".into(),
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.contains('\n'), "diagnosis must be one line: {s}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn counts_surface_in_the_diagnosis() {
        let e = PlanError::NoMemoryFeasiblePoint {
            candidates_evaluated: 128,
            memory_rejected: 7,
        };
        let s = e.to_string();
        assert!(s.contains("128") && s.contains('7'), "{s}");
    }
}
