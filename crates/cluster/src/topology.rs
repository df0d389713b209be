//! Node and cluster geometry.
//!
//! Matches the paper's production setup (§7 *Setup*): 8 GPUs per node on
//! 300 GB/s bidirectional NVLink; nodes joined by 4×200 Gb/s RoCEv2 with a
//! rail-optimized topology (each GPU index owns a "rail" through the fabric,
//! so same-index GPUs across nodes communicate without sharing NICs).

use crate::gpu::GpuSpec;

/// One server node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// GPUs installed in the node.
    pub gpus_per_node: u32,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Effective per-GPU NVLink *bus bandwidth* for ring collectives, in
    /// bytes/s. The paper quotes 300 GB/s bidirectional; measured A100 ring
    /// collectives achieve ~80% of the unidirectional figure, hence 240 GB/s
    /// here — configurable for calibration.
    pub nvlink_busbw: f64,
    /// Number of RDMA NICs per node.
    pub nics_per_node: u32,
    /// Line rate of one NIC in bytes/s (200 Gb/s = 25 GB/s).
    pub nic_bw: f64,
}

impl NodeSpec {
    /// The paper's production node: 8× Ampere, NVLink, 4×200 Gb/s RoCE.
    pub fn production() -> Self {
        NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec::ampere(),
            nvlink_busbw: 240e9,
            nics_per_node: 4,
            nic_bw: 25e9,
        }
    }

    /// Aggregate inter-node bandwidth of the whole node, bytes/s.
    pub fn node_internode_bw(&self) -> f64 {
        self.nics_per_node as f64 * self.nic_bw
    }

    /// Inter-node bandwidth available to one GPU when all GPUs in the node
    /// communicate simultaneously (the common case during DP allreduce).
    pub fn per_gpu_internode_bw(&self) -> f64 {
        self.node_internode_bw() / self.gpus_per_node.max(1) as f64
    }
}

/// A homogeneous cluster of identical nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Node description.
    pub node: NodeSpec,
    /// Number of nodes.
    pub num_nodes: u32,
    /// Per-message fixed latency for intra-node transfers (kernel launch,
    /// NVLink hop), seconds.
    pub intra_node_latency: f64,
    /// Per-message fixed latency for inter-node RDMA transfers, seconds.
    pub inter_node_latency: f64,
    /// `true` when the fabric is rail-optimized: same-rail GPUs on different
    /// nodes get a dedicated NIC path (full `nic_bw`), which is how the
    /// production cluster is wired.
    pub rail_optimized: bool,
}

impl ClusterSpec {
    /// The large-scale evaluation cluster: 162 nodes × 8 GPUs = 1296 GPUs
    /// (the budget quoted in §7.1).
    pub fn production(num_nodes: u32) -> Self {
        ClusterSpec {
            node: NodeSpec::production(),
            num_nodes,
            intra_node_latency: 4e-6,
            inter_node_latency: 12e-6,
            rail_optimized: true,
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> u32 {
        self.num_nodes * self.node.gpus_per_node
    }

    /// The cluster that remains after losing `lost` nodes. The surviving
    /// cluster is re-numbered contiguously — which nodes died does not
    /// matter for a homogeneous cluster, only how many. `None` when the
    /// loss would leave no nodes.
    pub fn without_nodes(&self, lost: u32) -> Option<ClusterSpec> {
        let remaining = self.num_nodes.checked_sub(lost)?;
        if remaining == 0 {
            return None;
        }
        let mut c = self.clone();
        c.num_nodes = remaining;
        Some(c)
    }

    /// Bandwidth available between two GPUs on *different* nodes.
    ///
    /// With a rail-optimized fabric each GPU index reaches its peers through
    /// a dedicated rail, so concurrent flows never cross switch tiers and the
    /// full per-GPU NIC share is usable. Without rail optimization flows
    /// traverse shared aggregation switches; we model that contention as a
    /// fixed 0.6 derating (a typical fat-tree oversubscription penalty).
    pub fn cross_node_pair_bw(&self) -> f64 {
        let gpus_per_nic =
            (self.node.gpus_per_node as f64 / self.node.nics_per_node as f64).max(1.0);
        let per_gpu = self.node.nic_bw / gpus_per_nic;
        if self.rail_optimized {
            per_gpu
        } else {
            per_gpu * 0.6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_cluster_sizes_match_paper() {
        let c = ClusterSpec::production(162);
        assert_eq!(c.total_gpus(), 1296);
        assert_eq!(c.node.gpus_per_node, 8);
    }

    #[test]
    fn node_bandwidth_aggregates() {
        let n = NodeSpec::production();
        assert_eq!(n.node_internode_bw(), 100e9); // 4 × 25 GB/s
        assert_eq!(n.per_gpu_internode_bw(), 12.5e9);
    }

    #[test]
    fn nvlink_dwarfs_rdma() {
        let n = NodeSpec::production();
        assert!(n.nvlink_busbw > 10.0 * n.per_gpu_internode_bw());
    }

    #[test]
    fn shrinking_removes_whole_nodes() {
        let c = ClusterSpec::production(12);
        let s = c.without_nodes(3).unwrap();
        assert_eq!(s.num_nodes, 9);
        assert_eq!(s.total_gpus(), 72);
        assert_eq!(s.node, c.node, "surviving nodes are unchanged");
        assert!(c.without_nodes(12).is_none(), "cannot lose every node");
        assert!(c.without_nodes(13).is_none());
    }

    #[test]
    fn rail_optimization_doubles_pair_bandwidth() {
        let mut c = ClusterSpec::production(4);
        let with = c.cross_node_pair_bw();
        c.rail_optimized = false;
        let without = c.cross_node_pair_bw();
        assert!(with > without);
        assert_eq!(with, 12.5e9); // 25 GB/s NIC shared by 2 GPUs per rail
    }
}
