//! Correlated failure domains: racks/switches as blast radii.
//!
//! At 1296-GPU scale failures are not independent: a rack PDU trip or a
//! ToR switch death takes every node behind it down *at one instant*.
//! [`FailureTopology`] groups node slots into domains (racks) and gives
//! each domain its own MTBF for whole-domain events; the
//! [`FailureStream`](crate::stream::FailureStream) draws both layers —
//! independent per-node failures and seeded correlated domain events —
//! from forked [`DetRng`](dt_simengine::DetRng) streams, so a correlated
//! timeline stays bit-reproducible from `(nodes, mtbf, seed, topology)`.
//!
//! The domain grouping comes from [`dt_cluster::ClusterSpec`]'s rack
//! layout ([`ClusterSpec::rack_of_node`]): nodes are racked contiguously,
//! [`NODES_PER_RACK`](dt_cluster::NODES_PER_RACK) to a rack, and a domain
//! event fails every *live* slot in its rack.

use dt_cluster::ClusterSpec;
use dt_simengine::SimDuration;

/// Rack/switch-level correlated failure domains over the node slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureTopology {
    /// Nodes per domain — the blast radius of one correlated event.
    pub nodes_per_domain: u32,
    /// MTBF of one whole domain (PDU / ToR switch event). A domain event
    /// fails every live slot in the domain at one instant.
    pub domain_mtbf: SimDuration,
}

impl FailureTopology {
    /// A topology with an explicit blast radius.
    pub fn new(nodes_per_domain: u32, domain_mtbf: SimDuration) -> Self {
        FailureTopology {
            nodes_per_domain: nodes_per_domain.max(1),
            domain_mtbf,
        }
    }

    /// The cluster's own rack layout as the failure-domain grouping.
    pub fn from_cluster(cluster: &ClusterSpec, domain_mtbf: SimDuration) -> Self {
        FailureTopology::new(cluster.nodes_per_rack(), domain_mtbf)
    }

    /// The domain a node slot belongs to.
    pub fn domain_of(&self, node: u32) -> u32 {
        node / self.nodes_per_domain.max(1)
    }

    /// Number of domains covering `nodes` slots (last may be partial).
    pub fn domains(&self, nodes: u32) -> u32 {
        nodes.div_ceil(self.nodes_per_domain.max(1))
    }

    /// The node slots of one domain, clipped to the slot count.
    pub fn nodes_of_domain(&self, domain: u32, nodes: u32) -> std::ops::Range<u32> {
        let per = self.nodes_per_domain.max(1);
        let lo = (domain * per).min(nodes);
        let hi = ((domain + 1) * per).min(nodes);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn domains_partition_the_slots() {
        let t = FailureTopology::new(4, secs(1000.0));
        assert_eq!(t.domains(12), 3);
        assert_eq!(t.domains(10), 3);
        assert_eq!(t.domain_of(0), 0);
        assert_eq!(t.domain_of(7), 1);
        assert_eq!(t.nodes_of_domain(2, 10), 8..10);
        assert_eq!(t.nodes_of_domain(3, 10), 10..10);
    }

    #[test]
    fn cluster_racks_define_the_domains() {
        let c = ClusterSpec::production(12);
        let t = FailureTopology::from_cluster(&c, secs(500.0));
        assert_eq!(t.nodes_per_domain, c.nodes_per_rack());
        for n in 0..c.num_nodes {
            assert_eq!(t.domain_of(n), c.rack_of_node(n));
        }
    }

    #[test]
    fn zero_radius_is_clamped() {
        let t = FailureTopology::new(0, secs(100.0));
        assert_eq!(t.nodes_per_domain, 1);
        assert_eq!(t.domains(5), 5);
    }
}
