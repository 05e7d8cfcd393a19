//! Second-phase (resource-node) ready-set selection — Algorithm 2 and its competitor rules.

use crate::algorithm::SecondPhase;
use std::cmp::Ordering;

/// The attributes of one ready task that the second-phase rules consult.
///
/// All of them were captured when the task was dispatched (the paper migrates the task
/// "together with its rest path makespan and its workflow's makespan").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyTaskView {
    /// Remaining makespan of the task's workflow at dispatch time, seconds.
    pub workflow_ms_secs: f64,
    /// Rest path makespan of the task at dispatch time, seconds.
    pub rpm_secs: f64,
    /// Execution time of the task on *this* node, seconds.
    pub exec_secs: f64,
    /// Sufferage value captured at dispatch time, seconds.
    pub sufferage_secs: f64,
    /// Monotonic arrival sequence number at this node (for FCFS and deterministic ties).
    pub enqueued_seq: u64,
}

/// The priority key a second-phase rule assigns to one ready task.
///
/// Every built-in rule is a *static* ordering over values captured at dispatch time, so it can
/// be expressed as a two-component lexicographic key: the task with the **smallest** key runs
/// first, with the arrival sequence number as the final tie-break.  This is what lets the
/// engine keep each node's data-ready tasks in a priority heap (`engine::node::ReadySet`)
/// instead of re-scanning and re-ranking the whole ready set on every CPU-idle event.
///
/// Under the time-sliced preemptive substrate the same key also arbitrates *displacement*: a
/// newly ready task preempts the lowest-priority running task iff its key is *strictly*
/// smaller — the arrival sequence number plays no part, so equal keys never preempt and FCFS
/// (whose key is constant) degenerates to the non-preemptive behaviour by construction.  A
/// preempted task re-enters the ready heap with its remaining load and a key recomputed from
/// its updated attributes, so rules keyed on execution time rank it by *remaining* time
/// (shortest-remaining-time semantics) while the ms/rpm-based rules reproduce the original
/// key unchanged.
#[derive(Debug, Clone, Copy)]
pub struct ReadyKey {
    k0: f64,
    k1: f64,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        // Defined via the total order so equality always agrees with `Ord` (IEEE `==` would
        // disagree on NaN components, which can arise from infinite finish-time estimates).
        self.cmp(other) == Ordering::Equal
    }
}

impl ReadyKey {
    /// Build a key from its lexicographic components (smaller runs first).
    ///
    /// Negative zero is normalised to positive zero so that keys derived through negation
    /// (e.g. "longest RPM first" = `-rpm`) compare exactly like the underlying values.
    pub fn new(k0: f64, k1: f64) -> Self {
        let norm = |v: f64| if v == 0.0 { 0.0 } else { v };
        ReadyKey {
            k0: norm(k0),
            k1: norm(k1),
        }
    }
}

impl Eq for ReadyKey {}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.k0
            .total_cmp(&other.k0)
            .then(self.k1.total_cmp(&other.k1))
    }
}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The priority key `rule` assigns to `task` (smallest key runs first).
pub fn ready_key(rule: SecondPhase, task: &ReadyTaskView) -> ReadyKey {
    match rule {
        // Formula 10 with Algorithm 2's tie-break: shortest workflow makespan first, then
        // longest RPM.
        SecondPhase::ShortestWorkflowMakespan => {
            ReadyKey::new(task.workflow_ms_secs, -task.rpm_secs)
        }
        SecondPhase::LongestRpmFirst => ReadyKey::new(-task.rpm_secs, 0.0),
        SecondPhase::ShortestDeadlineFirst => {
            ReadyKey::new(task.workflow_ms_secs - task.rpm_secs, 0.0)
        }
        SecondPhase::ShortestTaskFirst => ReadyKey::new(task.exec_secs, 0.0),
        SecondPhase::LongestTaskFirst => ReadyKey::new(-task.exec_secs, 0.0),
        SecondPhase::LargestSufferageFirst => ReadyKey::new(-task.sufferage_secs, 0.0),
        SecondPhase::Fcfs => ReadyKey::new(0.0, 0.0),
    }
}

/// Select the index of the task to execute next from `tasks` (the data-complete subset of a
/// resource node's ready set) according to `rule`.  Returns `None` when the slice is empty.
///
/// This is the naive linear-scan formulation (every call ranks the whole slice); the engine's
/// hot path keeps a [`ReadyKey`]-ordered heap instead, and the `micro_substrates` bench
/// compares the two.
pub fn select_next(rule: SecondPhase, tasks: &[ReadyTaskView]) -> Option<usize> {
    if tasks.is_empty() {
        return None;
    }
    let cmp = |a: &ReadyTaskView, b: &ReadyTaskView| -> Ordering {
        ready_key(rule, a)
            .cmp(&ready_key(rule, b))
            .then(a.enqueued_seq.cmp(&b.enqueued_seq))
    };
    let mut best = 0usize;
    for i in 1..tasks.len() {
        if cmp(&tasks[i], &tasks[best]) == Ordering::Less {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(ms: f64, rpm: f64, exec: f64, suff: f64, seq: u64) -> ReadyTaskView {
        ReadyTaskView {
            workflow_ms_secs: ms,
            rpm_secs: rpm,
            exec_secs: exec,
            sufferage_secs: suff,
            enqueued_seq: seq,
        }
    }

    #[test]
    fn empty_ready_set_selects_nothing() {
        assert_eq!(select_next(SecondPhase::Fcfs, &[]), None);
    }

    #[test]
    fn dsmf_rule_prefers_shortest_workflow_makespan() {
        let tasks = [
            task(300.0, 120.0, 10.0, 0.0, 0),
            task(100.0, 50.0, 10.0, 0.0, 1),
            task(200.0, 80.0, 10.0, 0.0, 2),
        ];
        assert_eq!(
            select_next(SecondPhase::ShortestWorkflowMakespan, &tasks),
            Some(1)
        );
    }

    #[test]
    fn dsmf_rule_breaks_ties_by_longest_rpm() {
        // Two tasks from workflows with equal remaining makespans: Algorithm 2 line 4 picks the
        // longer RPM.
        let tasks = [
            task(100.0, 30.0, 10.0, 0.0, 0),
            task(100.0, 90.0, 10.0, 0.0, 1),
        ];
        assert_eq!(
            select_next(SecondPhase::ShortestWorkflowMakespan, &tasks),
            Some(1)
        );
    }

    #[test]
    fn longest_rpm_and_deadline_rules() {
        let tasks = [
            task(200.0, 150.0, 10.0, 0.0, 0), // slack 50
            task(200.0, 195.0, 10.0, 0.0, 1), // slack 5
            task(500.0, 180.0, 10.0, 0.0, 2), // slack 320
        ];
        assert_eq!(select_next(SecondPhase::LongestRpmFirst, &tasks), Some(1));
        assert_eq!(
            select_next(SecondPhase::ShortestDeadlineFirst, &tasks),
            Some(1)
        );
    }

    #[test]
    fn task_length_rules() {
        let tasks = [
            task(0.0, 0.0, 40.0, 0.0, 0),
            task(0.0, 0.0, 5.0, 0.0, 1),
            task(0.0, 0.0, 90.0, 0.0, 2),
        ];
        assert_eq!(select_next(SecondPhase::ShortestTaskFirst, &tasks), Some(1));
        assert_eq!(select_next(SecondPhase::LongestTaskFirst, &tasks), Some(2));
    }

    #[test]
    fn sufferage_rule_uses_captured_value() {
        let tasks = [task(0.0, 0.0, 10.0, 3.0, 0), task(0.0, 0.0, 10.0, 42.0, 1)];
        assert_eq!(
            select_next(SecondPhase::LargestSufferageFirst, &tasks),
            Some(1)
        );
    }

    #[test]
    fn fcfs_takes_arrival_order_and_breaks_all_other_ties() {
        let tasks = [
            task(1.0, 1.0, 1.0, 1.0, 7),
            task(999.0, 0.0, 999.0, 0.0, 2),
            task(500.0, 3.0, 5.0, 9.0, 5),
        ];
        assert_eq!(select_next(SecondPhase::Fcfs, &tasks), Some(1));
        // Identical tasks: every rule falls back to arrival order.
        let same = [task(9.0, 9.0, 9.0, 9.0, 4), task(9.0, 9.0, 9.0, 9.0, 1)];
        for rule in [
            SecondPhase::ShortestWorkflowMakespan,
            SecondPhase::LongestRpmFirst,
            SecondPhase::ShortestDeadlineFirst,
            SecondPhase::ShortestTaskFirst,
            SecondPhase::LongestTaskFirst,
            SecondPhase::LargestSufferageFirst,
            SecondPhase::Fcfs,
        ] {
            assert_eq!(select_next(rule, &same), Some(1), "rule {rule}");
        }
    }

    #[test]
    fn ready_key_ordering_agrees_with_the_linear_scan_for_every_rule() {
        // The engine's heap executes tasks in ascending (ReadyKey, seq) order; for every rule
        // that whole drain order must equal repeated picks of the reference linear scan.
        let mut tasks = Vec::new();
        for i in 0u64..24 {
            let f = i as f64;
            tasks.push(task(
                (f * 37.0) % 11.0,
                (f * 13.0) % 7.0,
                (f * 5.0) % 9.0,
                (f * 3.0) % 4.0,
                (i * 31) % 24, // distinct seqs in scrambled order
            ));
        }
        // Two workflows far apart in makespan, the DSMF case of Formula 10.
        tasks.push(task(300.0, 120.0, 10.0, 0.0, 24));
        tasks.push(task(100.0, 50.0, 10.0, 0.0, 25));
        for rule in [
            SecondPhase::ShortestWorkflowMakespan,
            SecondPhase::LongestRpmFirst,
            SecondPhase::ShortestDeadlineFirst,
            SecondPhase::ShortestTaskFirst,
            SecondPhase::LongestTaskFirst,
            SecondPhase::LargestSufferageFirst,
            SecondPhase::Fcfs,
        ] {
            let mut heap_order: Vec<usize> = (0..tasks.len()).collect();
            heap_order.sort_by(|&a, &b| {
                ready_key(rule, &tasks[a])
                    .cmp(&ready_key(rule, &tasks[b]))
                    .then(tasks[a].enqueued_seq.cmp(&tasks[b].enqueued_seq))
            });
            let mut left: Vec<usize> = (0..tasks.len()).collect();
            let mut scan_order = Vec::new();
            while let Some(pick) =
                select_next(rule, &left.iter().map(|&i| tasks[i]).collect::<Vec<_>>())
            {
                scan_order.push(left.remove(pick));
            }
            assert_eq!(heap_order, scan_order, "rule {rule}");
        }
    }

    #[test]
    fn ready_key_normalises_negative_zero() {
        let a = ReadyKey::new(-0.0, -0.0);
        let b = ReadyKey::new(0.0, 0.0);
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn single_task_is_always_selected() {
        let tasks = [task(1.0, 2.0, 3.0, 4.0, 0)];
        for rule in [
            SecondPhase::ShortestWorkflowMakespan,
            SecondPhase::Fcfs,
            SecondPhase::LongestTaskFirst,
        ] {
            assert_eq!(select_next(rule, &tasks), Some(0));
        }
    }
}
