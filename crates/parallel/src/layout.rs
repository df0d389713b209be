//! The initializer's rank layout: which global GPU ranks form which
//! communication groups.
//!
//! §6: "During distributed training initialization, DistTrain first
//! establishes communication groups within a parallelism unit. Each GPU
//! process possesses a global and a local rank within its unit." We place
//! TP groups on *consecutive* ranks (so a TP ≤ 8 group always stays inside
//! one NVLink node), DP next, PP outermost — the standard Megatron rank
//! order, which the cost models in `dt-cluster` assume.

use crate::plan::ModulePlan;

/// Rank→group assignment of one parallelism unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitLayout {
    /// First global rank of the unit.
    pub base_rank: u32,
    /// The unit's plan.
    pub plan: ModulePlan,
}

impl UnitLayout {
    /// Lay the unit out starting at `base_rank`.
    pub fn new(base_rank: u32, plan: ModulePlan) -> Self {
        UnitLayout { base_rank, plan }
    }

    /// Number of ranks in the unit.
    pub fn size(&self) -> u32 {
        self.plan.gpus()
    }

    /// One rank past the end (where the next unit starts).
    pub fn end_rank(&self) -> u32 {
        self.base_rank + self.size()
    }

    /// Global rank of `(pp_idx, dp_idx, tp_idx)`.
    pub fn rank(&self, pp_idx: u32, dp_idx: u32, tp_idx: u32) -> u32 {
        debug_assert!(pp_idx < self.plan.pp && dp_idx < self.plan.dp && tp_idx < self.plan.tp);
        self.base_rank + pp_idx * (self.plan.dp * self.plan.tp) + dp_idx * self.plan.tp + tp_idx
    }

    /// All TP groups (consecutive ranks → intra-node NVLink domains).
    pub fn tp_groups(&self) -> Vec<Vec<u32>> {
        let mut groups = Vec::new();
        for pp in 0..self.plan.pp {
            for dp in 0..self.plan.dp {
                groups.push((0..self.plan.tp).map(|tp| self.rank(pp, dp, tp)).collect());
            }
        }
        groups
    }

    /// All DP groups (ranks that allreduce gradients together).
    pub fn dp_groups(&self) -> Vec<Vec<u32>> {
        let mut groups = Vec::new();
        for pp in 0..self.plan.pp {
            for tp in 0..self.plan.tp {
                groups.push((0..self.plan.dp).map(|dp| self.rank(pp, dp, tp)).collect());
            }
        }
        groups
    }

    /// All PP groups (ranks a microbatch visits in stage order).
    pub fn pp_groups(&self) -> Vec<Vec<u32>> {
        let mut groups = Vec::new();
        for dp in 0..self.plan.dp {
            for tp in 0..self.plan.tp {
                groups.push((0..self.plan.pp).map(|pp| self.rank(pp, dp, tp)).collect());
            }
        }
        groups
    }

    /// Ranks of the first PP stage (where a downstream broker would live).
    pub fn first_stage_ranks(&self) -> Vec<u32> {
        (0..self.plan.dp * self.plan.tp)
            .map(|i| self.base_rank + i)
            .collect()
    }

    /// Ranks of the last PP stage (where an upstream broker would live).
    pub fn last_stage_ranks(&self) -> Vec<u32> {
        let base = self.base_rank + (self.plan.pp - 1) * self.plan.dp * self.plan.tp;
        (0..self.plan.dp * self.plan.tp).map(|i| base + i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn layout() -> UnitLayout {
        UnitLayout::new(100, ModulePlan::new(2, 3, 2))
    }

    #[test]
    fn rank_formula_is_tp_fastest() {
        let l = layout();
        assert_eq!(l.rank(0, 0, 0), 100);
        assert_eq!(l.rank(0, 0, 1), 101); // TP neighbor is adjacent
        assert_eq!(l.rank(0, 1, 0), 102); // next DP group
        assert_eq!(l.rank(1, 0, 0), 106); // next PP stage
        assert_eq!(l.end_rank(), 112);
    }

    fn assert_partition(groups: &[Vec<u32>], l: &UnitLayout) {
        let mut seen = BTreeSet::new();
        for g in groups {
            for &r in g {
                assert!(seen.insert(r), "rank {r} appears in two groups");
                assert!((l.base_rank..l.end_rank()).contains(&r));
            }
        }
        assert_eq!(seen.len() as u32, l.size(), "groups must cover the unit");
    }

    #[test]
    fn tp_dp_pp_groups_partition_the_unit() {
        let l = layout();
        assert_partition(&l.tp_groups(), &l);
        assert_partition(&l.dp_groups(), &l);
        assert_partition(&l.pp_groups(), &l);
        assert_eq!(l.tp_groups().len(), 6); // pp·dp
        assert_eq!(l.dp_groups().len(), 4); // pp·tp
        assert_eq!(l.pp_groups().len(), 6); // dp·tp
    }

    #[test]
    fn tp_groups_are_consecutive_ranks() {
        for g in layout().tp_groups() {
            for w in g.windows(2) {
                assert_eq!(w[1], w[0] + 1, "TP group must be NVLink-contiguous");
            }
        }
    }

    #[test]
    fn stage_edge_ranks_match_pp_extremes() {
        let l = layout();
        assert_eq!(l.first_stage_ranks(), vec![100, 101, 102, 103, 104, 105]);
        assert_eq!(l.last_stage_ranks(), vec![106, 107, 108, 109, 110, 111]);
    }
}
