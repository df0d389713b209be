//! Typed reordering outcomes.
//!
//! Algorithm 1 splits a global batch into `m` *equal-count* DP groups, so
//! an indivisible batch has no valid split. This used to be an `assert!`
//! deep inside Algorithm 1, which turned a caller misconfiguration
//! into a process abort; mirroring the planner's `PlanError` precedent,
//! the condition is now a typed error the caller can diagnose (the
//! `ReorderPlanner` policy is to pass indivisible batches through
//! unreordered, and experiments `fig06`/`fig11` treat it as a bug in the
//! experiment setup). A NaN or infinite sample size is rejected the same
//! way, once, before Algorithm 1 sorts, so no comparator has to panic.

/// Why a reordering pass refused the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderError {
    /// The batch cannot be split into `m` equal-count DP groups.
    IndivisibleBatch {
        /// Samples in the batch.
        n: usize,
        /// DP groups requested.
        m: usize,
    },
    /// A sample's size is NaN or infinite, so sizes cannot be ordered.
    NonFiniteSize {
        /// Position of the first such sample.
        index: usize,
    },
}

impl std::fmt::Display for ReorderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorderError::IndivisibleBatch { n, m } => {
                write!(
                    f,
                    "batch of {n} samples not divisible into {m} equal-count DP groups"
                )
            }
            ReorderError::NonFiniteSize { index } => {
                write!(f, "sample {index} has a non-finite size")
            }
        }
    }
}

impl std::error::Error for ReorderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnosis_is_one_line_and_carries_the_counts() {
        let s = ReorderError::IndivisibleBatch { n: 10, m: 3 }.to_string();
        assert!(!s.contains('\n'));
        assert!(s.contains("10") && s.contains('3'), "{s}");
        let s = ReorderError::NonFiniteSize { index: 7 }.to_string();
        assert!(!s.contains('\n') && s.contains('7'), "{s}");
    }
}
