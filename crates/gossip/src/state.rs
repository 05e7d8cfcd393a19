//! Per-node state records and the bounded resource state set `RSS`.

use p2pgrid_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a peer node (dense index, shared with `p2pgrid-topology`).
pub type PeerId = usize;

/// A gossiped record describing one resource node's state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeStateRecord {
    /// The node this record describes.
    pub node: PeerId,
    /// Its *aggregate* computing capacity in MIPS: all execution slots combined.  With the
    /// paper's single CPU this is exactly the node's Table I capacity.
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).  A scheduler must divide
    /// `capacity_mips` by this to obtain the rate one task actually runs at — a 16-slot node
    /// drains its *queue* 16× faster, but runs a *single* task no faster than one slot.
    pub slots: usize,
    /// Total load (running + waiting tasks) in MI, `l_r` in the paper.
    pub total_load_mi: f64,
    /// Virtual time at which the record was produced by its origin node.
    pub updated_at: SimTime,
    /// Number of gossip hops this record has already travelled.
    pub hops: u32,
}

impl NodeStateRecord {
    /// The queuing-delay estimate the paper derives from this record: `l_r / c_r` seconds.
    /// The backlog drains on all slots at once, so this correctly uses the aggregate capacity.
    pub fn queuing_delay_secs(&self) -> f64 {
        if self.capacity_mips <= 0.0 {
            f64::INFINITY
        } else {
            self.total_load_mi / self.capacity_mips
        }
    }

    /// The execution rate of *one* slot in MIPS — what a single task runs at.
    pub fn per_slot_capacity_mips(&self) -> f64 {
        self.capacity_mips / self.slots.max(1) as f64
    }
}

/// The bounded set of resource-state records a node has aggregated, `RSS(p_i)` in the paper.
///
/// The set keeps at most `capacity` records (the freshest ones win) and purges records older
/// than the configured staleness limit, which together keep the per-node space complexity at
/// `O(log n)` as claimed in Section III and measured in Fig. 11(a).
///
/// Records are stored in a `Vec` sorted by node id, so iteration is *always* in ascending
/// node-id order — the deterministic order scheduling decisions need — and lookups are a
/// binary search over the ~log n records.  While the set is full it also tracks its stalest
/// record, the next eviction victim: most records a node receives are staler than that one,
/// and [`ResourceStateSet::merge`] rejects them with one comparison.
#[derive(Debug, Clone)]
pub struct ResourceStateSet {
    records: Vec<NodeStateRecord>,
    capacity: usize,
    /// Index of the record with the least `(updated_at, node)` key; kept only while
    /// `records.len() == capacity`.  `purge` and `remove` either remove nothing or leave the
    /// set below capacity, so only `merge` updates it.
    stalest: usize,
}

/// What one merge did to a [`ResourceStateSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeOutcome {
    /// The set is full and the record is staler than its stalest record: either the node's
    /// held record is fresher, or the record would be evicted on arrival.
    Stale,
    /// The held record for the node is at least as fresh.
    NotFresher,
    /// Inserted or replaced a record without evicting one.
    Changed,
    /// Inserted a record and evicted the stalest held one.
    Evicted,
}

impl MergeOutcome {
    /// True if the merge changed the set.
    pub(crate) fn changed(self) -> bool {
        matches!(self, MergeOutcome::Changed | MergeOutcome::Evicted)
    }
}

impl ResourceStateSet {
    /// Create an empty set bounded to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        ResourceStateSet {
            records: Vec::new(),
            capacity: capacity.max(1),
            stalest: 0,
        }
    }

    /// Maximum number of records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for `node`, if known.
    pub fn get(&self, node: PeerId) -> Option<&NodeStateRecord> {
        self.position(node).ok().map(|i| &self.records[i])
    }

    /// Iterate over all known records, always in ascending node-id order.
    pub fn records(&self) -> impl Iterator<Item = &NodeStateRecord> {
        self.records.iter()
    }

    /// Known records sorted by node id (deterministic order for scheduling decisions).
    ///
    /// The set is kept in this order, so this is a plain copy — no per-call re-sort.  Prefer
    /// [`ResourceStateSet::records`] when borrowing suffices.
    pub fn records_sorted(&self) -> Vec<NodeStateRecord> {
        self.records.clone()
    }

    /// Insert or refresh a record.  A record only replaces an existing one for the same node if
    /// it is strictly fresher; when the set is full, the stalest record by `(updated_at, node)`
    /// is evicted, which may be the new record itself.  Returns `true` if the set changed.
    pub fn merge(&mut self, record: NodeStateRecord) -> bool {
        self.merge_outcome(record).changed()
    }

    /// [`ResourceStateSet::merge`], reporting what happened.
    pub(crate) fn merge_outcome(&mut self, record: NodeStateRecord) -> MergeOutcome {
        let full = self.records.len() == self.capacity;
        // A held record of the same node has a key at least the stalest one, so a key at or
        // below it is either not fresher than the held record or the eviction victim itself.
        if full && stale_key(&record) <= stale_key(&self.records[self.stalest]) {
            return MergeOutcome::Stale;
        }
        match self.position(record.node) {
            Ok(i) => {
                if self.records[i].updated_at >= record.updated_at {
                    return MergeOutcome::NotFresher;
                }
                self.records[i] = record;
                if full && i == self.stalest {
                    self.stalest = self.find_stalest();
                }
                MergeOutcome::Changed
            }
            Err(i) if !full => {
                self.records.insert(i, record);
                if self.records.len() == self.capacity {
                    self.stalest = self.find_stalest();
                }
                MergeOutcome::Changed
            }
            Err(i) => {
                // Overwrite the victim's slot and rotate the record into sorted position.
                let victim = self.stalest;
                self.records[victim] = record;
                if victim < i {
                    self.records[victim..i].rotate_left(1);
                } else {
                    self.records[i..=victim].rotate_right(1);
                }
                self.stalest = self.find_stalest();
                MergeOutcome::Evicted
            }
        }
    }

    /// Remove every record older than `limit` relative to `now`, and any record describing a
    /// node in `departed`.
    pub fn purge(&mut self, now: SimTime, limit: SimDuration, departed: &dyn Fn(PeerId) -> bool) {
        self.records
            .retain(|r| !departed(r.node) && now.saturating_duration_since(r.updated_at) <= limit);
    }

    /// Remove the record for a specific node (e.g. observed to have churned away).
    pub fn remove(&mut self, node: PeerId) {
        if let Ok(i) = self.position(node) {
            self.records.remove(i);
        }
    }

    fn position(&self, node: PeerId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&node, |r| r.node)
    }

    fn find_stalest(&self) -> usize {
        (0..self.records.len())
            .min_by_key(|&i| stale_key(&self.records[i]))
            .expect("a full set is non-empty")
    }
}

/// Eviction order: stalest first, ties broken by node id for determinism.
fn stale_key(record: &NodeStateRecord) -> (SimTime, PeerId) {
    (record.updated_at, record.node)
}

/// The `BTreeMap` resource state set the sorted `Vec` replaced, kept as a reference model
/// for the tests: the simplest correct statement of the merge, eviction and purge rules.
#[cfg(test)]
pub(crate) mod reference {
    use super::{NodeStateRecord, PeerId};
    use p2pgrid_sim::{SimDuration, SimTime};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    pub(crate) struct BTreeRss {
        records: BTreeMap<PeerId, NodeStateRecord>,
        capacity: usize,
    }

    impl BTreeRss {
        pub(crate) fn new(capacity: usize) -> Self {
            BTreeRss {
                records: BTreeMap::new(),
                capacity: capacity.max(1),
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.records.len()
        }

        pub(crate) fn get(&self, node: PeerId) -> Option<&NodeStateRecord> {
            self.records.get(&node)
        }

        pub(crate) fn records(&self) -> impl Iterator<Item = &NodeStateRecord> {
            self.records.values()
        }

        /// Returns `true` if the set changed: not when the record was evicted on arrival.
        pub(crate) fn merge(&mut self, record: NodeStateRecord) -> bool {
            match self.records.get(&record.node) {
                Some(existing) if existing.updated_at >= record.updated_at => false,
                _ => {
                    self.records.insert(record.node, record);
                    self.enforce_capacity();
                    self.records.contains_key(&record.node)
                }
            }
        }

        pub(crate) fn purge(
            &mut self,
            now: SimTime,
            limit: SimDuration,
            departed: &dyn Fn(PeerId) -> bool,
        ) {
            self.records.retain(|&node, r| {
                !departed(node) && now.saturating_duration_since(r.updated_at) <= limit
            });
        }

        pub(crate) fn remove(&mut self, node: PeerId) {
            self.records.remove(&node);
        }

        fn enforce_capacity(&mut self) {
            while self.records.len() > self.capacity {
                let victim = self
                    .records
                    .values()
                    .min_by_key(|r| (r.updated_at, r.node))
                    .map(|r| r.node)
                    .expect("set is non-empty");
                self.records.remove(&victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: PeerId, t: u64) -> NodeStateRecord {
        NodeStateRecord {
            node,
            capacity_mips: 4.0,
            slots: 1,
            total_load_mi: 100.0,
            updated_at: SimTime::from_secs(t),
            hops: 0,
        }
    }

    #[test]
    fn queuing_delay_is_load_over_capacity() {
        assert_eq!(rec(0, 0).queuing_delay_secs(), 25.0);
        let zero_cap = NodeStateRecord {
            capacity_mips: 0.0,
            ..rec(0, 0)
        };
        assert_eq!(zero_cap.queuing_delay_secs(), f64::INFINITY);
    }

    #[test]
    fn per_slot_capacity_divides_the_aggregate() {
        // A 4-slot node advertising 4 MIPS aggregate runs one task at 1 MIPS, but still drains
        // its 100 MI backlog in 25 s.
        let quad = NodeStateRecord {
            slots: 4,
            ..rec(0, 0)
        };
        assert_eq!(quad.per_slot_capacity_mips(), 1.0);
        assert_eq!(quad.queuing_delay_secs(), 25.0);
        assert_eq!(rec(0, 0).per_slot_capacity_mips(), 4.0);
    }

    #[test]
    fn merge_prefers_fresher_records() {
        let mut rss = ResourceStateSet::new(10);
        assert!(rss.merge(rec(1, 10)));
        assert!(!rss.merge(rec(1, 5)), "stale record must not overwrite");
        assert!(
            !rss.merge(rec(1, 10)),
            "equal freshness must not count as a change"
        );
        assert!(rss.merge(rec(1, 20)));
        assert_eq!(rss.get(1).unwrap().updated_at, SimTime::from_secs(20));
        assert_eq!(rss.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_stalest() {
        let mut rss = ResourceStateSet::new(3);
        rss.merge(rec(1, 10));
        rss.merge(rec(2, 20));
        rss.merge(rec(3, 30));
        rss.merge(rec(4, 40));
        assert_eq!(rss.len(), 3);
        assert!(rss.get(1).is_none(), "the stalest record must be evicted");
        assert!(rss.get(4).is_some());
    }

    #[test]
    fn merge_that_evicts_its_own_record_reports_no_change() {
        let mut rss = ResourceStateSet::new(1);
        assert!(rss.merge(rec(1, 10)));
        assert!(
            !rss.merge(rec(2, 5)),
            "a record evicted as the stalest on arrival leaves the set unchanged"
        );
        assert_eq!(rss.records_sorted(), vec![rec(1, 10)]);
    }

    #[test]
    fn purge_removes_stale_and_departed() {
        let mut rss = ResourceStateSet::new(10);
        rss.merge(rec(1, 100));
        rss.merge(rec(2, 500));
        rss.merge(rec(3, 900));
        rss.purge(
            SimTime::from_secs(1000),
            SimDuration::from_secs(600),
            &|n| n == 3,
        );
        assert!(rss.get(1).is_none(), "older than the staleness limit");
        assert!(rss.get(2).is_some());
        assert!(rss.get(3).is_none(), "departed node");
    }

    #[test]
    fn sorted_records_are_deterministic() {
        let mut rss = ResourceStateSet::new(10);
        rss.merge(rec(5, 1));
        rss.merge(rec(2, 2));
        rss.merge(rec(9, 3));
        let order: Vec<PeerId> = rss.records_sorted().iter().map(|r| r.node).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn iteration_order_stays_sorted_under_merges_evictions_and_purges() {
        // The sorted order is maintained incrementally, so *every* read path — records(),
        // records_sorted(), after merges, capacity evictions and purges — must observe
        // ascending node ids.
        let mut rss = ResourceStateSet::new(4);
        for (node, t) in [(7, 10), (1, 20), (9, 30), (4, 40), (3, 50), (8, 60)] {
            rss.merge(rec(node, t));
            let via_iter: Vec<PeerId> = rss.records().map(|r| r.node).collect();
            let mut expected = via_iter.clone();
            expected.sort_unstable();
            assert_eq!(
                via_iter, expected,
                "records() out of order after merging {node}"
            );
            assert_eq!(
                rss.records_sorted()
                    .iter()
                    .map(|r| r.node)
                    .collect::<Vec<_>>(),
                via_iter,
                "records_sorted() disagrees with records()"
            );
        }
        assert_eq!(rss.len(), 4, "capacity bound respected");
        rss.purge(SimTime::from_secs(100), SimDuration::from_secs(55), &|n| {
            n == 9
        });
        let after: Vec<PeerId> = rss.records().map(|r| r.node).collect();
        let mut expected = after.clone();
        expected.sort_unstable();
        assert_eq!(after, expected);
        assert!(!after.contains(&9));
    }

    #[test]
    fn remove_and_empty() {
        let mut rss = ResourceStateSet::new(2);
        assert!(rss.is_empty());
        rss.merge(rec(1, 1));
        rss.remove(1);
        assert!(rss.is_empty());
        assert_eq!(rss.capacity(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random merge / purge / remove sequences leave the sorted `Vec` and the `BTreeMap`
        /// reference in the same state after every operation.  Twelve timestamps over sixteen
        /// nodes make `(updated_at, node)` ties common.
        #[test]
        fn sorted_vec_matches_the_btreemap_reference(
            capacity in 1usize..9,
            ops in proptest::collection::vec(0u64..1_920, 1..200),
        ) {
            let mut rss = ResourceStateSet::new(capacity);
            let mut oracle = reference::BTreeRss::new(capacity);
            for op in ops {
                let (kind, node, t) = (op % 10, (op / 10 % 16) as PeerId, op / 160);
                match kind {
                    0 => {
                        let departed = |p: PeerId| p == node;
                        let limit = SimDuration::from_secs(t);
                        rss.purge(SimTime::from_secs(12), limit, &departed);
                        oracle.purge(SimTime::from_secs(12), limit, &departed);
                    }
                    1 => {
                        rss.remove(node);
                        oracle.remove(node);
                    }
                    _ => {
                        let record = NodeStateRecord {
                            hops: kind as u32,
                            ..rec(node, t)
                        };
                        let held = oracle.get(node).is_some();
                        let full = oracle.len() == capacity;
                        let changed = oracle.merge(record);
                        let outcome = rss.merge_outcome(record);
                        proptest::prop_assert_eq!(outcome.changed(), changed, "merge {:?}", record);
                        proptest::prop_assert_eq!(
                            outcome == MergeOutcome::Evicted,
                            changed && full && !held
                        );
                    }
                }
                proptest::prop_assert_eq!(rss.len(), oracle.len());
                proptest::prop_assert!(rss.records().eq(oracle.records()));
                for p in 0..16 {
                    proptest::prop_assert_eq!(rss.get(p), oracle.get(p));
                }
            }
        }
    }
}
