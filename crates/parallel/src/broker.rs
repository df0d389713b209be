//! Communication brokers between adjacent parallelism units (§4.1, §6).
//!
//! Adjacent units may have different DP (and TP) sizes, so pipeline
//! activations must be *concentrated and scattered* between differently
//! shaped rank sets while preserving sample order. DistTrain routes this
//! traffic through decentralized brokers placed on the last PP stage of the
//! upstream unit or the first PP stage of the downstream unit; "the number
//! of brokers between two units is determined by the greatest common
//! divisor of their respective DP sizes", so aggregate broker bandwidth
//! scales with the workload and never bottlenecks training.

use dt_cluster::CollectiveCost;
use dt_simengine::SimDuration;

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Where a broker resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerSide {
    /// On the GPU of the upstream unit's last PP stage.
    UpstreamLastStage,
    /// On the GPU of the downstream unit's first PP stage.
    DownstreamFirstStage,
}

/// The broker link bridging two adjacent units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerLink {
    /// Upstream unit's (effective) DP width.
    pub upstream_dp: u32,
    /// Downstream unit's (effective) DP width.
    pub downstream_dp: u32,
    /// Placement (decentralized; defaults to downstream-first-stage).
    pub side: BrokerSide,
}

impl BrokerLink {
    /// Link two units by their effective DP widths.
    pub fn new(upstream_dp: u32, downstream_dp: u32) -> Self {
        BrokerLink {
            upstream_dp,
            downstream_dp,
            side: BrokerSide::DownstreamFirstStage,
        }
    }

    /// Number of broker instances — `gcd(DP_up, DP_down)` per §6.
    pub fn broker_count(&self) -> u32 {
        gcd(self.upstream_dp.max(1), self.downstream_dp.max(1))
    }

    /// Upstream ranks feeding one broker.
    pub fn upstream_fan_in(&self) -> u32 {
        self.upstream_dp.max(1) / self.broker_count()
    }

    /// Downstream ranks fed by one broker.
    pub fn downstream_fan_out(&self) -> u32 {
        self.downstream_dp.max(1) / self.broker_count()
    }

    /// Time for one *global* microbatch boundary crossing: every broker in
    /// parallel concentrates its fan-in transfers and scatters its fan-out
    /// transfers. `bytes_per_microbatch` is the total activation volume of
    /// one backbone-level microbatch (all brokers share it evenly).
    ///
    /// The §6 asynchronous-send redesign removes the synchronous upstream
    /// stall, so the hop costs one concentrate + one scatter, not a
    /// round-trip per peer.
    pub fn hop_time(&self, cost: &CollectiveCost, bytes_per_microbatch: u64) -> SimDuration {
        let per_broker = bytes_per_microbatch / self.broker_count().max(1) as u64;
        // Concentrate: fan-in sequential receives of per-broker shards;
        // scatter: fan-out sends. Each leg is a point-to-point transfer of
        // the broker's share, pipelined across peers (the broker's NIC is
        // the bottleneck, so legs sum over the *volume*, not the peers).
        let concentrate = cost.p2p(per_broker);
        let scatter = cost.p2p(per_broker);
        concentrate + scatter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_cluster::ClusterSpec;

    #[test]
    fn broker_count_is_gcd() {
        assert_eq!(BrokerLink::new(6, 4).broker_count(), 2);
        assert_eq!(BrokerLink::new(8, 8).broker_count(), 8);
        assert_eq!(BrokerLink::new(3, 5).broker_count(), 1);
        assert_eq!(BrokerLink::new(16, 2).broker_count(), 2);
    }

    #[test]
    fn fan_in_and_out_cover_all_ranks() {
        let l = BrokerLink::new(6, 4);
        assert_eq!(l.broker_count() * l.upstream_fan_in(), 6);
        assert_eq!(l.broker_count() * l.downstream_fan_out(), 4);
    }

    #[test]
    fn more_brokers_means_faster_hops() {
        let cost = CollectiveCost::new(ClusterSpec::production(16));
        let bytes = 512 << 20;
        let narrow = BrokerLink::new(3, 5).hop_time(&cost, bytes); // 1 broker
        let wide = BrokerLink::new(8, 8).hop_time(&cost, bytes); // 8 brokers
        assert!(wide < narrow, "bandwidth must scale with broker count");
    }

    #[test]
    fn zero_dp_is_guarded() {
        let l = BrokerLink::new(0, 0);
        assert_eq!(l.broker_count(), 1);
    }
}
