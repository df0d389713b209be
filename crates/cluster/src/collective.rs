//! Collective-communication cost models.
//!
//! Standard α/β (latency/bandwidth) models for the ring algorithms NCCL uses
//! in training. For a group of `n` ranks moving `v` bytes over per-rank bus
//! bandwidth `B` with per-step latency `α`:
//!
//! | collective      | steps     | bytes on the wire per rank |
//! |-----------------|-----------|----------------------------|
//! | allreduce       | 2(n−1)    | 2·(n−1)/n · v              |
//! | allgather       | n−1       | (n−1)/n · v                |
//! | reduce-scatter  | n−1       | (n−1)/n · v                |
//! | broadcast       | n−1       | (n−1)/n · v                |
//! | point-to-point  | 1         | v                          |
//!
//! A group either fits inside one node (NVLink bandwidth) or spans nodes
//! (RDMA bandwidth, optionally rail-optimized); for groups that span nodes
//! the *hierarchical* variants decompose into an intra-node phase and an
//! inter-node phase the way NCCL trees / MegaScale-style two-level rings do.

use crate::topology::ClusterSpec;
use dt_simengine::SimDuration;

/// Which collective operation is being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Sum-reduce to every rank (gradient sync, TP row-parallel output).
    AllReduce,
    /// Concatenate shards to every rank (ZeRO-1 parameter gather, SP).
    AllGather,
    /// Reduce then shard (ZeRO-1 gradient shard, sequence parallelism).
    ReduceScatter,
    /// One rank to all.
    Broadcast,
    /// One rank to one rank (pipeline activations via the broker).
    PointToPoint,
}

/// Where the communicating group lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDomain {
    /// Entire group within one node: NVLink bandwidth.
    IntraNode,
    /// Group spans nodes: RDMA bandwidth bounds the ring.
    InterNode,
}

/// Cost calculator bound to a cluster description.
#[derive(Debug, Clone)]
pub struct CollectiveCost {
    cluster: ClusterSpec,
}

impl CollectiveCost {
    /// Bind to a cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        CollectiveCost { cluster }
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    fn params(&self, domain: CommDomain) -> (f64, f64) {
        match domain {
            CommDomain::IntraNode => (
                self.cluster.node.nvlink_busbw,
                self.cluster.intra_node_latency,
            ),
            CommDomain::InterNode => (
                self.cluster.cross_node_pair_bw(),
                self.cluster.inter_node_latency,
            ),
        }
    }

    /// Classify a group of `ranks` consecutive GPUs: it is intra-node iff it
    /// fits inside one node. Ranks follow §6's layout — TP groups on
    /// consecutive ranks, DP next, PP outermost — so a TP group of at most
    /// one node's GPUs never leaves its NVLink domain.
    pub fn domain_for_group(&self, ranks: u32) -> CommDomain {
        if ranks <= self.cluster.node.gpus_per_node {
            CommDomain::IntraNode
        } else {
            CommDomain::InterNode
        }
    }

    /// Time for one collective of `kind` over `n` ranks moving `bytes`
    /// bytes (the full tensor size, pre-sharding) in `domain`.
    pub fn time(
        &self,
        kind: CollectiveKind,
        n: u32,
        bytes: u64,
        domain: CommDomain,
    ) -> SimDuration {
        if n <= 1 || bytes == 0 {
            return SimDuration::ZERO;
        }
        let (bw, alpha) = self.params(domain);
        let nf = n as f64;
        let v = bytes as f64;
        let (steps, wire_bytes) = match kind {
            CollectiveKind::AllReduce => (2.0 * (nf - 1.0), 2.0 * (nf - 1.0) / nf * v),
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Broadcast => ((nf - 1.0), (nf - 1.0) / nf * v),
            CollectiveKind::PointToPoint => (1.0, v),
        };
        SimDuration::from_secs_f64(steps * alpha + wire_bytes / bw)
    }

    /// Convenience: allreduce over a group of `n` consecutive ranks, domain
    /// inferred from the group size.
    pub fn allreduce(&self, n: u32, bytes: u64) -> SimDuration {
        self.time(
            CollectiveKind::AllReduce,
            n,
            bytes,
            self.domain_for_group(n),
        )
    }

    /// Convenience: allgather, domain inferred.
    pub fn allgather(&self, n: u32, bytes: u64) -> SimDuration {
        self.time(
            CollectiveKind::AllGather,
            n,
            bytes,
            self.domain_for_group(n),
        )
    }

    /// Point-to-point activation transfer between pipeline stages. Stages of
    /// different parallelism units land on different nodes, so this is RDMA
    /// unless the cluster is a single node.
    pub fn p2p(&self, bytes: u64) -> SimDuration {
        let domain = if self.cluster.num_nodes <= 1 {
            CommDomain::IntraNode
        } else {
            CommDomain::InterNode
        };
        self.time(CollectiveKind::PointToPoint, 2, bytes, domain)
    }

    /// Hierarchical allreduce for a DP group spanning `n_nodes` nodes with
    /// `n_intra` participating ranks per node: reduce-scatter inside each
    /// node, allreduce of the shard across nodes (one rank per node per
    /// shard, rail-parallel), then allgather inside each node. This is the
    /// standard two-level ring and what keeps large-DP gradient sync from
    /// being bottlenecked by the slow fabric on the *full* volume.
    pub fn allreduce_hierarchical(&self, n_intra: u32, n_nodes: u32, bytes: u64) -> SimDuration {
        if n_nodes <= 1 {
            return self.time(
                CollectiveKind::AllReduce,
                n_intra,
                bytes,
                CommDomain::IntraNode,
            );
        }
        if n_intra <= 1 {
            return self.time(
                CollectiveKind::AllReduce,
                n_nodes,
                bytes,
                CommDomain::InterNode,
            );
        }
        let shard = bytes / n_intra as u64;
        let rs = self.time(
            CollectiveKind::ReduceScatter,
            n_intra,
            bytes,
            CommDomain::IntraNode,
        );
        let ar = self.time(
            CollectiveKind::AllReduce,
            n_nodes,
            shard,
            CommDomain::InterNode,
        );
        let ag = self.time(
            CollectiveKind::AllGather,
            n_intra,
            bytes,
            CommDomain::IntraNode,
        );
        rs + ar + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CollectiveCost {
        CollectiveCost::new(ClusterSpec::production(16))
    }

    #[test]
    fn trivial_groups_are_free() {
        let c = cost();
        assert_eq!(c.allreduce(1, 1 << 30), SimDuration::ZERO);
        assert_eq!(c.allreduce(8, 0), SimDuration::ZERO);
    }

    #[test]
    fn allreduce_moves_twice_allgather_volume() {
        let c = cost();
        let v = 1u64 << 30;
        let ar = c
            .time(CollectiveKind::AllReduce, 8, v, CommDomain::IntraNode)
            .as_secs_f64();
        let ag = c
            .time(CollectiveKind::AllGather, 8, v, CommDomain::IntraNode)
            .as_secs_f64();
        // Latency terms also double, so the ratio is 2 up to ns rounding.
        assert!((ar / ag - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cost_increases_with_bytes_and_domain() {
        let c = cost();
        let small = c.time(CollectiveKind::AllReduce, 8, 1 << 20, CommDomain::IntraNode);
        let big = c.time(CollectiveKind::AllReduce, 8, 1 << 26, CommDomain::IntraNode);
        assert!(big > small);
        let rdma = c.time(CollectiveKind::AllReduce, 8, 1 << 26, CommDomain::InterNode);
        assert!(
            rdma > big,
            "RDMA must be slower than NVLink for equal shape"
        );
    }

    #[test]
    fn ring_bandwidth_term_saturates_with_group_size() {
        // (n-1)/n → 1, so doubling a large group barely changes the
        // bandwidth term. Compare per-step-latency-free approximations.
        let c = cost();
        let v = 1u64 << 30;
        let t16 = c
            .time(CollectiveKind::AllGather, 16, v, CommDomain::InterNode)
            .as_secs_f64();
        let t32 = c
            .time(CollectiveKind::AllGather, 32, v, CommDomain::InterNode)
            .as_secs_f64();
        assert!(t32 < t16 * 1.1);
    }

    #[test]
    fn group_domain_classification() {
        let c = cost();
        assert_eq!(c.domain_for_group(8), CommDomain::IntraNode);
        assert_eq!(c.domain_for_group(9), CommDomain::InterNode);
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_nodes() {
        let c = cost();
        let v = 2u64 << 30; // 2 GiB of gradients
        let flat = c.time(CollectiveKind::AllReduce, 64, v, CommDomain::InterNode);
        let hier = c.allreduce_hierarchical(8, 8, v);
        assert!(
            hier < flat,
            "two-level ring must beat a flat RDMA ring: {hier} vs {flat}"
        );
    }

    #[test]
    fn hierarchical_degenerates_to_flat_cases() {
        let c = cost();
        let v = 1u64 << 24;
        assert_eq!(
            c.allreduce_hierarchical(8, 1, v),
            c.time(CollectiveKind::AllReduce, 8, v, CommDomain::IntraNode)
        );
        assert_eq!(
            c.allreduce_hierarchical(1, 4, v),
            c.time(CollectiveKind::AllReduce, 4, v, CommDomain::InterNode)
        );
    }

    #[test]
    fn p2p_single_node_uses_nvlink() {
        let one = CollectiveCost::new(ClusterSpec::production(1));
        let many = CollectiveCost::new(ClusterSpec::production(4));
        assert!(one.p2p(1 << 24) < many.p2p(1 << 24));
    }
}
