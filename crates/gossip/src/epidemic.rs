//! Epidemic (push) gossip of per-node state records.
//!
//! Every gossip cycle each alive node refreshes its own record and pushes the records it knows
//! to `fanout` random neighbours drawn from its Newscast view.  Records carry a hop counter and
//! stop being forwarded once they have travelled `ttl` hops (four in the paper), which bounds
//! the flooding radius while still spreading state to `O(n)` nodes in `O(log n)` cycles.

use crate::state::{MergeOutcome, NodeStateRecord, PeerId, ResourceStateSet};
use crate::view::NewscastView;
use p2pgrid_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Configuration of the epidemic gossip protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpidemicConfig {
    /// Number of neighbours each node pushes to per cycle (`log2 n` in the paper).
    pub fanout: usize,
    /// Maximum number of hops a record may travel (paper: 4).
    pub ttl: u32,
    /// Maximum number of records each node retains in its `RSS`.
    pub rss_capacity: usize,
    /// Records older than this are purged from the `RSS`.
    pub staleness_limit: SimDuration,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        EpidemicConfig {
            fanout: 8,
            ttl: 4,
            rss_capacity: 32,
            staleness_limit: SimDuration::from_mins(30),
        }
    }
}

/// The local ground truth a node advertises in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalAdvertisement {
    /// Aggregate node capacity in MIPS (all execution slots combined).
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).
    pub slots: usize,
    /// Current total load (running + ready tasks) in MI.
    pub total_load_mi: f64,
}

/// The epidemic gossip protocol state for all nodes.
#[derive(Debug, Clone)]
pub struct EpidemicGossip {
    config: EpidemicConfig,
    rss: Vec<ResourceStateSet>,
    messages_sent: u64,
    records_sent: u64,
    counts: MergeCounts,
    /// Per-cycle buffer, empty between cycles: every pushing sender's TTL-filtered records,
    /// `hops + 1` applied, back to back in sender order.
    outgoing: Vec<NodeStateRecord>,
    /// Per-cycle buffer, empty between cycles: one entry per pushing sender, in sender order —
    /// its slice of `outgoing` and the targets it pushes to.
    pushes: Vec<(Range<usize>, Vec<PeerId>)>,
}

/// Deterministic work counters of the merges a cycle performs.
#[derive(Debug, Clone, Copy, Default)]
struct MergeCounts {
    merges: u64,
    changed: u64,
    evictions: u64,
    stale_rejects: u64,
}

impl MergeCounts {
    fn count(&mut self, outcome: MergeOutcome) {
        self.merges += 1;
        self.changed += u64::from(outcome.changed());
        self.evictions += u64::from(outcome == MergeOutcome::Evicted);
        self.stale_rejects += u64::from(outcome == MergeOutcome::Stale);
    }
}

impl EpidemicGossip {
    /// Create protocol state for `n` nodes.
    pub fn new(n: usize, config: EpidemicConfig) -> Self {
        EpidemicGossip {
            config,
            rss: (0..n)
                .map(|_| ResourceStateSet::new(config.rss_capacity))
                .collect(),
            messages_sent: 0,
            records_sent: 0,
            counts: MergeCounts::default(),
            outgoing: Vec::new(),
            pushes: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EpidemicConfig {
        &self.config
    }

    /// The resource state set currently held by `node`.
    pub fn rss(&self, node: PeerId) -> &ResourceStateSet {
        &self.rss[node]
    }

    /// Total push messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total records carried inside those messages.
    pub fn records_sent(&self) -> u64 {
        self.records_sent
    }

    /// Total record merges so far: every pushed record plus every node's refresh of its own.
    pub fn merges(&self) -> u64 {
        self.counts.merges
    }

    /// Merges that changed the receiving `RSS` (inserted or replaced a record).
    pub fn merges_changed(&self) -> u64 {
        self.counts.changed
    }

    /// Merges that evicted the receiving `RSS`'s stalest record to make room.
    pub fn evictions(&self) -> u64 {
        self.counts.evictions
    }

    /// Merges into a full `RSS` rejected by its stalest-record key alone, before any lookup:
    /// the record was not fresher than the held one, or would have been evicted on arrival.
    pub fn stale_rejects(&self) -> u64 {
        self.counts.stale_rejects
    }

    /// Drop all records describing `node` from every `RSS` (used when a node departs).
    pub fn forget_node(&mut self, node: PeerId) {
        for rss in &mut self.rss {
            rss.remove(node);
        }
        self.rss[node] = ResourceStateSet::new(self.config.rss_capacity);
    }

    /// Run one push cycle.
    ///
    /// `local[i]` is `Some` for alive nodes and `None` for departed ones; `views[i]` supplies
    /// the gossip neighbours.
    pub fn run_cycle(
        &mut self,
        now: SimTime,
        local: &[Option<LocalAdvertisement>],
        views: &[NewscastView],
        rng: &mut SimRng,
    ) {
        let n = self.rss.len();
        assert_eq!(local.len(), n);
        assert_eq!(views.len(), n);

        // 1. Every alive node refreshes its own record.
        for (i, adv) in local.iter().enumerate() {
            if let Some(adv) = adv {
                let own = NodeStateRecord {
                    node: i,
                    capacity_mips: adv.capacity_mips,
                    slots: adv.slots,
                    total_load_mi: adv.total_load_mi,
                    updated_at: now,
                    hops: 0,
                };
                self.counts.count(self.rss[i].merge_outcome(own));
            }
        }

        // 2. Snapshot every sender's outgoing records before any is delivered, so the cycle is
        //    synchronous, then apply them sender by sender, target by target, record by record.
        //    Targets are drawn for every alive sender, even one with nothing to push, which
        //    keeps the RNG stream independent of the RSS contents.
        let ttl = self.config.ttl;
        for (i, adv) in local.iter().enumerate() {
            if adv.is_none() {
                continue;
            }
            let mut targets = views[i].random_peers(self.config.fanout, rng);
            targets.retain(|&t| t != i && local[t].is_some());
            if targets.is_empty() {
                continue;
            }
            let start = self.outgoing.len();
            for r in self.rss[i].records().filter(|r| r.hops < ttl) {
                self.outgoing.push(NodeStateRecord {
                    hops: r.hops + 1,
                    ..*r
                });
            }
            if self.outgoing.len() > start {
                self.pushes.push((start..self.outgoing.len(), targets));
            }
        }
        for (range, targets) in &self.pushes {
            let records = &self.outgoing[range.clone()];
            for &t in targets {
                self.messages_sent += 1;
                self.records_sent += records.len() as u64;
                for &r in records {
                    self.counts.count(self.rss[t].merge_outcome(r));
                }
            }
        }
        self.outgoing.clear();
        self.pushes.clear();

        // 3. Purge stale records and records of departed nodes.
        let limit = self.config.staleness_limit;
        for (i, rss) in self.rss.iter_mut().enumerate() {
            if local[i].is_some() {
                rss.purge(now, limit, &|p| local[p].is_none());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::reference;

    fn full_views(n: usize, size: usize) -> Vec<NewscastView> {
        (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, size);
                for p in 0..n {
                    if p != i {
                        v.insert(p, SimTime::ZERO);
                    }
                }
                v
            })
            .collect()
    }

    fn alive(n: usize) -> Vec<Option<LocalAdvertisement>> {
        (0..n)
            .map(|i| {
                Some(LocalAdvertisement {
                    capacity_mips: 1.0 + i as f64,
                    slots: 1,
                    total_load_mi: 10.0 * i as f64,
                })
            })
            .collect()
    }

    #[test]
    fn state_spreads_in_logarithmic_cycles() {
        let n = 64;
        let cfg = EpidemicConfig {
            fanout: 6,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(1);
        for cycle in 0..8 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        // After ~log2(n) cycles most nodes should know a healthy number of peers.
        let avg_known: f64 = (0..n).map(|i| gossip.rss(i).len() as f64).sum::<f64>() / n as f64;
        assert!(
            avg_known >= 16.0,
            "epidemic spread too slow: average RSS size {avg_known}"
        );
    }

    #[test]
    fn rss_size_stays_bounded_by_capacity() {
        let n = 128;
        let cfg = EpidemicConfig {
            fanout: 7,
            rss_capacity: 24,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(2);
        for cycle in 0..12 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        for i in 0..n {
            assert!(gossip.rss(i).len() <= 24, "node {i} exceeded its RSS bound");
        }
    }

    #[test]
    fn departed_nodes_are_purged_and_do_not_receive() {
        let n = 16;
        let cfg = EpidemicConfig {
            fanout: 4,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let mut local = alive(n);
        let mut rng = SimRng::seed_from_u64(3);
        for cycle in 0..6 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        // Node 5 departs.
        local[5] = None;
        for cycle in 6..12 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        for i in 0..n {
            if i == 5 {
                continue;
            }
            assert!(
                gossip.rss(i).get(5).is_none(),
                "node {i} still believes the departed node 5 is alive"
            );
        }
    }

    #[test]
    fn ttl_limits_propagation_on_a_line_overlay() {
        // Views form a directed line 0 -> 1 -> 2 -> ...; with TTL 2 a record from node 0 can
        // reach node 1 (hop 1) and node 2 (hop 2) but must never reach node 4.
        let n = 8;
        let cfg = EpidemicConfig {
            fanout: 1,
            ttl: 2,
            rss_capacity: n,
            staleness_limit: SimDuration::from_hours(10),
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views: Vec<NewscastView> = (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, 1);
                if i + 1 < n {
                    v.insert(i + 1, SimTime::ZERO);
                }
                v
            })
            .collect();
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(4);
        for cycle in 0..20 {
            gossip.run_cycle(SimTime::from_secs(cycle), &local, &views, &mut rng);
        }
        assert!(gossip.rss(1).get(0).is_some());
        assert!(gossip.rss(2).get(0).is_some());
        assert!(
            gossip.rss(4).get(0).is_none(),
            "TTL 2 must stop node 0's record before node 4"
        );
    }

    #[test]
    fn message_accounting_matches_fanout() {
        let n = 10;
        let cfg = EpidemicConfig {
            fanout: 3,
            rss_capacity: n,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(5);
        gossip.run_cycle(SimTime::ZERO, &local, &views, &mut rng);
        // Every node knows only itself in the first cycle, so each sends exactly fanout
        // messages of one record each.
        assert_eq!(gossip.messages_sent(), (n * 3) as u64);
        assert_eq!(gossip.records_sent(), (n * 3) as u64);
    }

    #[test]
    fn forget_node_clears_all_traces() {
        let n = 8;
        let mut gossip = EpidemicGossip::new(
            n,
            EpidemicConfig {
                fanout: 3,
                rss_capacity: n,
                ..EpidemicConfig::default()
            },
        );
        let views = full_views(n, n);
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(6);
        for cycle in 0..5 {
            gossip.run_cycle(SimTime::from_secs(cycle * 300), &local, &views, &mut rng);
        }
        gossip.forget_node(3);
        for i in 0..n {
            assert!(gossip.rss(i).get(3).is_none());
        }
        assert!(gossip.rss(3).is_empty());
    }

    /// Hand-traced on a 3-node ring `0 -> 1 -> 2 -> 0` with fanout 1 and a one-record RSS.
    #[test]
    fn merge_counters_on_a_three_node_ring() {
        let n = 3;
        let cfg = EpidemicConfig {
            fanout: 1,
            rss_capacity: 1,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let views: Vec<NewscastView> = (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, 1);
                v.insert((i + 1) % n, SimTime::ZERO);
                v
            })
            .collect();
        let local = alive(n);
        let mut rng = SimRng::seed_from_u64(7);
        let counters = |g: &EpidemicGossip| {
            [
                g.merges(),
                g.merges_changed(),
                g.evictions(),
                g.stale_rejects(),
            ]
        };

        // t = 0: three own records go in.  Records 0@0 and 1@0 arrive below their receivers'
        // own records (0@0 < 1@0 < 2@0) and are rejected; 2@0 evicts node 0's own 0@0.
        gossip.run_cycle(SimTime::ZERO, &local, &views, &mut rng);
        assert_eq!(counters(&gossip), [6, 4, 1, 2]);
        // t = 10: node 0's own refresh evicts 2@0, nodes 1 and 2 replace their own.  Pushes
        // 0@10 and 1@10 tie on time and lose on node id to 1@10 and 2@10; 2@10 evicts 0@10.
        gossip.run_cycle(SimTime::from_secs(10), &local, &views, &mut rng);
        assert_eq!(counters(&gossip), [12, 8, 3, 4]);
        assert_eq!(gossip.messages_sent(), 6);
        assert_eq!(gossip.records_sent(), 6);
        let held: Vec<PeerId> = (0..n)
            .map(|i| gossip.rss(i).records_sorted()[0].node)
            .collect();
        assert_eq!(held, vec![2, 1, 2]);
    }

    /// The cycle as it was before the push buffers: every delivery materialised in one `Vec`,
    /// merged into `BTreeMap` sets.  The reference the rewritten cycle is checked against.
    struct ReferenceGossip {
        config: EpidemicConfig,
        rss: Vec<reference::BTreeRss>,
        messages_sent: u64,
        records_sent: u64,
    }

    impl ReferenceGossip {
        fn new(n: usize, config: EpidemicConfig) -> Self {
            ReferenceGossip {
                config,
                rss: (0..n)
                    .map(|_| reference::BTreeRss::new(config.rss_capacity))
                    .collect(),
                messages_sent: 0,
                records_sent: 0,
            }
        }

        fn forget_node(&mut self, node: PeerId) {
            for rss in &mut self.rss {
                rss.remove(node);
            }
            self.rss[node] = reference::BTreeRss::new(self.config.rss_capacity);
        }

        fn run_cycle(
            &mut self,
            now: SimTime,
            local: &[Option<LocalAdvertisement>],
            views: &[NewscastView],
            rng: &mut SimRng,
        ) {
            for (i, adv) in local.iter().enumerate() {
                if let Some(adv) = adv {
                    self.rss[i].merge(NodeStateRecord {
                        node: i,
                        capacity_mips: adv.capacity_mips,
                        slots: adv.slots,
                        total_load_mi: adv.total_load_mi,
                        updated_at: now,
                        hops: 0,
                    });
                }
            }
            let mut deliveries: Vec<(PeerId, NodeStateRecord)> = Vec::new();
            for (i, adv) in local.iter().enumerate() {
                if adv.is_none() {
                    continue;
                }
                let mut targets = views[i].random_peers(self.config.fanout, rng);
                targets.retain(|&t| t != i && local[t].is_some());
                if targets.is_empty() {
                    continue;
                }
                let outgoing: Vec<NodeStateRecord> = self.rss[i]
                    .records()
                    .filter(|r| r.hops < self.config.ttl)
                    .copied()
                    .collect();
                if outgoing.is_empty() {
                    continue;
                }
                for &t in &targets {
                    self.messages_sent += 1;
                    self.records_sent += outgoing.len() as u64;
                    for r in &outgoing {
                        deliveries.push((
                            t,
                            NodeStateRecord {
                                hops: r.hops + 1,
                                ..*r
                            },
                        ));
                    }
                }
            }
            for (dst, rec) in deliveries {
                self.rss[dst].merge(rec);
            }
            let limit = self.config.staleness_limit;
            for (i, rss) in self.rss.iter_mut().enumerate() {
                if local[i].is_some() {
                    rss.purge(now, limit, &|p| local[p].is_none());
                }
            }
        }
    }

    #[test]
    fn cycle_matches_the_delivery_buffer_reference_under_churn() {
        let n = 64;
        let cfg = EpidemicConfig {
            fanout: 6,
            rss_capacity: 8,
            ..EpidemicConfig::default()
        };
        let mut gossip = EpidemicGossip::new(n, cfg);
        let mut oracle = ReferenceGossip::new(n, cfg);
        let mut world = SimRng::seed_from_u64(8);
        let mut views: Vec<NewscastView> = (0..n)
            .map(|i| {
                let mut v = NewscastView::new(i, 12);
                for _ in 0..12 {
                    v.insert(world.gen_range(0..n), SimTime::ZERO);
                }
                v
            })
            .collect();
        let mut local = alive(n);
        let (mut rng, mut oracle_rng) = (SimRng::seed_from_u64(9), SimRng::seed_from_u64(9));
        for cycle in 0..20u64 {
            // Departures at cycles 5 and 12, and the first batch rejoins at cycle 15.
            if cycle == 5 || cycle == 12 {
                for node in world.choose_multiple(&(0..n).collect::<Vec<_>>(), 6) {
                    local[*node] = None;
                    gossip.forget_node(*node);
                    oracle.forget_node(*node);
                }
            }
            if cycle == 15 {
                local = alive(n);
            }
            // Vary the load so fresher records carry new values.
            for (i, adv) in local.iter_mut().enumerate() {
                if let Some(adv) = adv {
                    adv.total_load_mi = (cycle * 7 + i as u64) as f64;
                }
            }
            let now = SimTime::from_secs(cycle * 300);
            for i in 0..n {
                let p = views[i].random_peer(&mut world).unwrap_or(i);
                if p != i {
                    let (a, b) = if i < p {
                        let (lo, hi) = views.split_at_mut(p);
                        (&mut lo[i], &mut hi[0])
                    } else {
                        let (lo, hi) = views.split_at_mut(i);
                        (&mut hi[0], &mut lo[p])
                    };
                    NewscastView::exchange(a, b, now);
                }
            }
            gossip.run_cycle(now, &local, &views, &mut rng);
            oracle.run_cycle(now, &local, &views, &mut oracle_rng);
            for i in 0..n {
                assert!(
                    gossip.rss(i).records().eq(oracle.rss[i].records()),
                    "cycle {cycle}: node {i}'s RSS differs from the reference"
                );
            }
            assert_eq!(
                gossip.messages_sent(),
                oracle.messages_sent,
                "cycle {cycle}"
            );
            assert_eq!(gossip.records_sent(), oracle.records_sent, "cycle {cycle}");
        }
        assert!(gossip.evictions() > 0 && gossip.stale_rejects() > 0);
    }
}
