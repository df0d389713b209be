//! Per-node exponential MTBF failure streams, plus correlated domain
//! events.
//!
//! §3 motivates automatic recovery with week-long production runs on 1296
//! GPUs; at that scale node failures are a process, not an event. Each node
//! slot draws independent exponential inter-failure gaps (memoryless, the
//! standard MTBF model) from its own forked [`DetRng`] stream, so the
//! failure timeline of node `k` never changes when other nodes' draws are
//! consumed — multi-failure timelines over thousands of iterations are
//! bit-reproducible from `(nodes, mtbf, seed)` alone.
//!
//! With a [`FailureTopology`] the stream adds a second, *correlated*
//! layer: each rack/switch domain draws its own exponential event stream,
//! and a domain event fails **every live slot in the domain at one
//! instant** (a PDU trip or ToR death). Domain streams are forked from
//! the same root seed *after* all slot streams, so attaching a topology
//! never perturbs the independent per-node draws.
//!
//! The *slot* abstraction matches how elastic recovery works: when failed
//! hardware is replaced by a spare, the slot lives on (its next failure is
//! drawn for the replacement machine); when the cluster shrinks instead,
//! the slot is [retired](FailureStream::retire) and fires no more. The
//! replacement only occupies the slot once the swap/restart delay has
//! passed, so consuming a failure redraws the slot's next gap from the
//! **recovery-completion time** ([`FailureStream::pop_with_repair`]) —
//! nothing can fail in a window where no hardware occupies the slot.

use crate::topology::FailureTopology;
use dt_simengine::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// One node failure on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFailure {
    /// The node slot that failed (all its GPUs die together).
    pub node: u32,
    /// When it failed.
    pub at: SimTime,
    /// `true` when the failure was part of a correlated domain event (a
    /// whole rack died at this instant, this slot among it).
    pub correlated: bool,
}

struct Slot {
    rng: DetRng,
    /// Next failure instant; `None` once the slot is retired.
    next: Option<SimTime>,
}

struct Domain {
    rng: DetRng,
    /// Next correlated event for this domain.
    next: SimTime,
}

/// A deterministic multi-node failure timeline.
pub struct FailureStream {
    slots: Vec<Slot>,
    mtbf_secs: f64,
    topology: Option<FailureTopology>,
    domains: Vec<Domain>,
    domain_mtbf_secs: f64,
    /// Victims of an expanded domain event, ascending by node, all at the
    /// same instant; drained before any other candidate.
    pending: VecDeque<NodeFailure>,
}

impl FailureStream {
    /// Build the timeline for `nodes` node slots with the given per-node
    /// MTBF. Each slot's stream is forked from `seed` by its index.
    pub fn new(nodes: u32, node_mtbf: SimDuration, seed: u64) -> Self {
        FailureStream::with_topology(nodes, node_mtbf, seed, None)
    }

    /// [`FailureStream::new`] plus a correlated domain layer. Domain
    /// streams fork from the root *after* every slot stream, so the
    /// independent per-node timeline is bit-identical with or without a
    /// topology.
    pub fn with_topology(
        nodes: u32,
        node_mtbf: SimDuration,
        seed: u64,
        topology: Option<FailureTopology>,
    ) -> Self {
        let mtbf_secs = node_mtbf.as_secs_f64().max(1e-9);
        let mut root = DetRng::new(seed);
        let slots: Vec<Slot> = (0..nodes)
            .map(|n| {
                let mut rng = root.fork(u64::from(n));
                let gap = rng.exponential(mtbf_secs);
                Slot {
                    rng,
                    next: Some(SimTime::ZERO + SimDuration::from_secs_f64(gap)),
                }
            })
            .collect();
        let mut domain_mtbf_secs = f64::INFINITY;
        let domains = match topology {
            Some(t) => {
                domain_mtbf_secs = t.domain_mtbf.as_secs_f64().max(1e-9);
                (0..t.domains(nodes))
                    .map(|d| {
                        // Salted stream ids keep domain forks disjoint from
                        // slot indices even for gigantic clusters.
                        let mut rng = root.fork(0xD0_0A1A_0000_0000 ^ u64::from(d));
                        let gap = rng.exponential(domain_mtbf_secs);
                        Domain {
                            rng,
                            next: SimTime::ZERO + SimDuration::from_secs_f64(gap),
                        }
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        FailureStream {
            slots,
            mtbf_secs,
            topology,
            domains,
            domain_mtbf_secs,
            pending: VecDeque::new(),
        }
    }

    fn peek_slot(&self) -> Option<NodeFailure> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(n, s)| {
                s.next.map(|at| NodeFailure {
                    node: n as u32,
                    at,
                    correlated: false,
                })
            })
            .min_by_key(|f| (f.at, f.node))
    }

    /// Lowest live node slot of `domain`, if any.
    fn first_live_in(&self, domain: u32) -> Option<u32> {
        let t = self.topology.as_ref()?;
        t.nodes_of_domain(domain, self.slots.len() as u32)
            .find(|&n| self.slots[n as usize].next.is_some())
    }

    /// The earliest domain event that would actually kill something:
    /// `(domain, at, first live victim)`. Events over fully-retired
    /// domains are unobservable and never surface.
    fn peek_domain(&self) -> Option<(u32, SimTime, u32)> {
        self.domains
            .iter()
            .enumerate()
            .filter_map(|(d, dom)| {
                self.first_live_in(d as u32)
                    .map(|victim| (d as u32, dom.next, victim))
            })
            .min_by_key(|&(d, at, _)| (at, d))
    }

    /// The next failure across both layers (earliest time; a domain event
    /// beats an independent failure at the same instant — the slot died
    /// with its rack either way), without consuming it.
    pub fn peek(&self) -> Option<NodeFailure> {
        if let Some(f) = self.pending.front() {
            return Some(*f);
        }
        let slot = self.peek_slot();
        let dom = self.peek_domain();
        match (slot, dom) {
            (Some(s), Some((_, at, victim))) if at <= s.at => Some(NodeFailure {
                node: victim,
                at,
                correlated: true,
            }),
            (Some(s), _) => Some(s),
            (None, Some((_, at, victim))) => Some(NodeFailure {
                node: victim,
                at,
                correlated: true,
            }),
            (None, None) => None,
        }
    }

    /// Consume the next failure, redrawing the failed slot's following
    /// gap from the **recovery-completion time** `f.at + repair`: the
    /// replacement hardware only occupies the slot once the swap/restart
    /// delay has passed, so no slot can fail inside its own repair
    /// window. The per-slot draw *sequence* is untouched — only the base
    /// time shifts — so `(nodes, mtbf, seed)` bit-reproducibility holds.
    ///
    /// When the earliest candidate is a correlated domain event, the
    /// event expands into one failure per live slot in the domain, all at
    /// the same instant, returned over consecutive calls (ascending node
    /// order); the domain's own next event is redrawn from the same
    /// recovery-completion time.
    pub fn pop_with_repair(&mut self, repair: SimDuration) -> Option<NodeFailure> {
        if self.pending.is_empty() {
            let dom = self.peek_domain();
            let slot_at = self.peek_slot().map(|s| s.at);
            if let Some((d, at, _)) = dom {
                if slot_at.is_none_or(|s| at <= s) {
                    // Expand the domain event: every live slot dies now.
                    let range = self
                        .topology
                        .as_ref()
                        .expect("domains imply a topology")
                        .nodes_of_domain(d, self.slots.len() as u32);
                    for n in range {
                        if self.slots[n as usize].next.is_some() {
                            self.pending.push_back(NodeFailure {
                                node: n,
                                at,
                                correlated: true,
                            });
                        }
                    }
                    let dom = &mut self.domains[d as usize];
                    let gap = dom.rng.exponential(self.domain_mtbf_secs);
                    dom.next = at + repair + SimDuration::from_secs_f64(gap);
                }
            }
        }
        // Drain an expanded event first (skipping slots the caller retired
        // mid-batch), then fall back to the independent layer.
        while let Some(f) = self.pending.pop_front() {
            let slot = &mut self.slots[f.node as usize];
            if slot.next.is_none() {
                continue;
            }
            let gap = slot.rng.exponential(self.mtbf_secs);
            slot.next = Some(f.at + repair + SimDuration::from_secs_f64(gap));
            return Some(f);
        }
        let f = self.peek_slot()?;
        let slot = &mut self.slots[f.node as usize];
        let gap = slot.rng.exponential(self.mtbf_secs);
        slot.next = Some(f.at + repair + SimDuration::from_secs_f64(gap));
        Some(f)
    }

    /// [`FailureStream::pop_with_repair`] with a zero repair window (the
    /// replacement occupies the slot at the failure instant).
    pub fn pop(&mut self) -> Option<NodeFailure> {
        self.pop_with_repair(SimDuration::ZERO)
    }

    /// Permanently remove a slot (the cluster shrank; nothing occupies the
    /// slot any more).
    pub fn retire(&mut self, node: u32) {
        if let Some(slot) = self.slots.get_mut(node as usize) {
            slot.next = None;
        }
        self.pending.retain(|f| f.node != node);
    }

    /// Live (non-retired) slots.
    pub fn active(&self) -> u32 {
        self.slots.iter().filter(|s| s.next.is_some()).count() as u32
    }

    /// The attached topology, if any.
    pub fn topology(&self) -> Option<&FailureTopology> {
        self.topology.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn timeline_is_deterministic() {
        let mut a = FailureStream::new(8, secs(1000.0), 7);
        let mut b = FailureStream::new(8, secs(1000.0), 7);
        for _ in 0..50 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn failures_are_time_ordered() {
        let mut s = FailureStream::new(16, secs(500.0), 3);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            let f = s.pop().unwrap();
            assert!(f.at >= last, "failures must be non-decreasing in time");
            last = f.at;
        }
    }

    #[test]
    fn system_failure_rate_scales_with_nodes() {
        // 16 nodes fail ~4× as often as 4 nodes at the same per-node MTBF.
        let count_until = |nodes: u32, horizon: f64| {
            let mut s = FailureStream::new(nodes, secs(1000.0), 11);
            let mut n = 0;
            while s.peek().unwrap().at < SimTime::ZERO + secs(horizon) {
                s.pop();
                n += 1;
            }
            n
        };
        let small = count_until(4, 50_000.0);
        let large = count_until(16, 50_000.0);
        let ratio = large as f64 / small as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "rate ratio {ratio:.2} should be ≈4"
        );
    }

    #[test]
    fn per_slot_streams_are_independent() {
        // Consuming another slot's failures never moves node 0's timeline.
        let mut a = FailureStream::new(4, secs(1000.0), 5);
        let mut b = FailureStream::new(4, secs(1000.0), 5);
        // Drain everything but node 0 from `a` for a while.
        for _ in 0..20 {
            if a.peek().unwrap().node != 0 {
                a.pop();
            } else {
                break;
            }
        }
        let a0 = a.peek().filter(|f| f.node == 0).map(|f| f.at);
        let b0 = loop {
            let f = b.peek().unwrap();
            if f.node == 0 {
                break Some(f.at);
            }
            b.pop();
        };
        if let (Some(a0), Some(b0)) = (a0, b0) {
            assert_eq!(a0, b0);
        }
    }

    #[test]
    fn retired_slots_never_fire() {
        let mut s = FailureStream::new(3, secs(100.0), 1);
        s.retire(0);
        s.retire(2);
        assert_eq!(s.active(), 1);
        for _ in 0..50 {
            assert_eq!(s.pop().unwrap().node, 1);
        }
        s.retire(1);
        assert_eq!(s.active(), 0);
        assert_eq!(s.peek(), None);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn mean_gap_tracks_the_mtbf() {
        let mut s = FailureStream::new(1, secs(250.0), 9);
        let n = 2000;
        let mut last = SimTime::ZERO;
        let mut total = 0.0;
        for _ in 0..n {
            let f = s.pop().unwrap();
            total += (f.at - last).as_secs_f64();
            last = f.at;
        }
        let mean = total / n as f64;
        assert!(
            (mean - 250.0).abs() < 15.0,
            "mean gap {mean:.1}s vs MTBF 250s"
        );
    }

    /// Regression for the repair-window bug: the replacement hardware only
    /// occupies a slot `repair` after the failure, so the slot's next
    /// failure must never land inside its own repair window.
    #[test]
    fn no_slot_fires_inside_its_own_repair_window() {
        let repair = secs(60.0);
        // An MTBF comparable to the repair delay makes violations of the
        // old draw-from-failure-instant behaviour near-certain.
        let mut s = FailureStream::new(4, secs(90.0), 13);
        let mut repaired_at = [SimTime::ZERO; 4];
        for _ in 0..500 {
            let f = s.pop_with_repair(repair).unwrap();
            assert!(
                f.at >= repaired_at[f.node as usize],
                "node {} failed at {} while still under repair until {}",
                f.node,
                f.at,
                repaired_at[f.node as usize]
            );
            repaired_at[f.node as usize] = f.at + repair;
        }
    }

    /// The repair delay shifts base times only — the per-slot draw
    /// sequence (the gaps) is identical, preserving the `(nodes, mtbf,
    /// seed)` bit-reproducibility contract.
    #[test]
    fn repair_shifts_base_times_but_not_the_draw_sequence() {
        let repair = secs(50.0);
        let mut plain = FailureStream::new(1, secs(200.0), 21);
        let mut repaired = FailureStream::new(1, secs(200.0), 21);
        let mut last_plain = SimTime::ZERO;
        let mut last_rep = SimTime::ZERO;
        for k in 0..100 {
            let p = plain.pop().unwrap();
            let r = repaired.pop_with_repair(repair).unwrap();
            let gap_p = p.at - last_plain;
            // Gap measured from recovery completion, not the failure.
            let base = if k == 0 { last_rep } else { last_rep + repair };
            let gap_r = r.at - base;
            assert_eq!(gap_p, gap_r, "draw {k}: identical exponential gaps");
            last_plain = p.at;
            last_rep = r.at;
        }
    }

    #[test]
    fn domain_event_fails_every_live_slot_at_one_instant() {
        // Node failures effectively never; domain events dominate.
        let topo = FailureTopology::new(4, secs(100.0));
        let mut s = FailureStream::with_topology(8, secs(1e12), 3, Some(topo));
        let first = s.peek().unwrap();
        assert!(first.correlated, "the first event must be a domain event");
        let mut victims = Vec::new();
        for _ in 0..4 {
            let f = s.pop().unwrap();
            assert!(f.correlated);
            assert_eq!(f.at, first.at, "the whole rack dies at one instant");
            victims.push(f.node);
        }
        let d = topo.domain_of(victims[0]);
        assert!(victims.iter().all(|&n| topo.domain_of(n) == d));
        assert_eq!(victims, topo.nodes_of_domain(d, 8).collect::<Vec<_>>());
        // The next failure is a fresh event, strictly later.
        assert!(s.peek().unwrap().at > first.at);
    }

    #[test]
    fn correlated_timeline_is_deterministic() {
        let topo = Some(FailureTopology::new(3, secs(400.0)));
        let mut a = FailureStream::with_topology(9, secs(800.0), 17, topo);
        let mut b = FailureStream::with_topology(9, secs(800.0), 17, topo);
        let mut last = SimTime::ZERO;
        for _ in 0..200 {
            let x = a.pop_with_repair(secs(5.0));
            assert_eq!(x, b.pop_with_repair(secs(5.0)));
            let f = x.unwrap();
            assert!(f.at >= last, "both layers merge time-ordered");
            last = f.at;
        }
    }

    /// Attaching a topology must not perturb the independent layer:
    /// domain streams fork after all slot streams.
    #[test]
    fn topology_layer_leaves_independent_draws_unchanged() {
        let quiet = Some(FailureTopology::new(4, secs(1e12)));
        let mut plain = FailureStream::new(8, secs(500.0), 7);
        let mut with = FailureStream::with_topology(8, secs(500.0), 7, quiet);
        for _ in 0..100 {
            let p = plain.pop().unwrap();
            let w = with.pop().unwrap();
            assert_eq!((p.node, p.at), (w.node, w.at));
            assert!(!w.correlated);
        }
    }

    #[test]
    fn domain_events_skip_retired_slots() {
        let topo = FailureTopology::new(4, secs(100.0));
        let mut s = FailureStream::with_topology(8, secs(1e12), 3, Some(topo));
        // Retire most of domain 0: its next event kills only node 3.
        s.retire(0);
        s.retire(1);
        s.retire(2);
        let f = s.pop().unwrap();
        if topo.domain_of(f.node) == 0 {
            assert_eq!(f.node, 3, "only the live slot dies");
        }
        // Retire everything: a domain event over dead racks is invisible.
        for n in 0..8 {
            s.retire(n);
        }
        assert_eq!(s.peek(), None);
        assert_eq!(s.pop(), None);
    }
}
