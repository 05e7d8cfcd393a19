//! Window-barrier bookkeeping for the event loop.
//!
//! While a time window executes, the engine touches only node-local state: it neither
//! updates grid-wide state (workflow progress, metrics, recovery) nor calls observers.  It
//! records what happened into the barrier buffers instead, and the barrier applies them in a
//! *canonical* order that is part of the model — replica cancellation, fault recovery and the
//! observer stream all follow it:
//!
//! * [`ArrivalNotice`]s — workflow arrivals that must flip the workflow's `arrived` flag and
//!   count a submission — are sorted by `(time, workflow)` and applied *before* the window's
//!   completion notices (nothing completes before it arrives);
//! * [`CompletionNotice`]s — task completions that must update workflow state — are sorted by
//!   `(time, workflow, task, node)` before being applied, which fixes the floating-point
//!   accumulation order inside the metrics and which replica twin wins a tie;
//! * [`FaultRecord`]s and [`BufferedEvent`]s — fault transitions and observer callbacks — are
//!   sorted by `(time, node, seq)`: the engine-wide sequence counter preserves each node's
//!   causal order while the node id orders concurrent events of different nodes.

use crate::NodeId;
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::TaskId;

/// A workflow arrival recorded inside a window (its `WorkflowArrival` event fired at the home
/// node), applied to workflow state and metrics at the barrier — before any completion notice
/// of the same window, since nothing can complete before it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrivalNotice {
    /// Arrival instant.
    pub time: SimTime,
    /// Global workflow index.
    pub wf: usize,
}

/// Sort arrival notices into the canonical application order: `(time, workflow)`.  Each
/// workflow arrives exactly once, so the key is unique and the order total.
pub(crate) fn sort_arrivals(arrivals: &mut [ArrivalNotice]) {
    arrivals.sort_unstable_by_key(|a| (a.time, a.wf));
}

/// A task completion recorded inside a window, applied to workflow state at the barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CompletionNotice {
    /// Completion instant.
    pub time: SimTime,
    /// Global workflow index.
    pub wf: usize,
    /// The completed task.
    pub task: TaskId,
    /// Node the task ran on (becomes the task's output location).
    pub node: NodeId,
    /// The completing run's load in MI — what the barrier books as wasted work when this
    /// notice turns out to be a redundant replica completion.
    pub load_mi: f64,
}

/// Sort notices into the canonical application order: `(time, workflow, task, node)`.
///
/// Without replication a `(workflow, task)` pair completes at most once per window — re-
/// dispatch of lost tasks only happens at barriers — so `(time, workflow, task)` is already
/// unique.  Under `RecoveryPolicy::Replicate` two replicas of the same task can complete in
/// the same window (the earlier one wins, the later is booked as wasted work); they
/// necessarily ran on distinct nodes, so the node id makes the key unique and the order
/// total again.
pub(crate) fn sort_notices(notices: &mut [CompletionNotice]) {
    notices.sort_unstable_by_key(|n| (n.time, n.wf, n.task, n.node));
}

/// What a [`FaultRecord`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultKind {
    /// The node went down (stochastic failure).  Follows the node's `Lost` records.
    Down,
    /// The node came back up (stochastic repair).
    Up,
    /// A task was resident on the node when it went down.  `running` tasks carry their
    /// execution timing so the barrier can book wasted work and compute checkpoint residues;
    /// queued tasks carry zeros.
    Lost {
        /// Global workflow index.
        wf: usize,
        /// The lost task.
        task: TaskId,
        /// True when the task held an execution slot (vs. merely queued).
        running: bool,
        /// Full execution time of the run on this node, in seconds.
        total_secs: f64,
        /// Execution time already spent when the node died, in seconds.
        executed_secs: f64,
        /// The node's per-slot rate in MIPS (converts seconds to MI).
        rate_mips: f64,
    },
}

/// A node-local fault event recorded inside a window, applied to recovery state at the
/// barrier.  Sorted like [`BufferedEvent`]s: `(time, node, seq)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultRecord {
    /// When the transition happened.
    pub time: SimTime,
    /// The failing / repaired node.
    pub node: NodeId,
    /// The engine's monotone fault counter.
    pub seq: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// Sort fault records into the canonical application order: `(time, node, seq)`.
pub(crate) fn sort_faults(records: &mut [FaultRecord]) {
    records.sort_unstable_by_key(|r| (r.time, r.node, r.seq));
}

/// Which observer hook a buffered event replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferedKind {
    /// A task occupied an execution slot (`on_task_started`).
    Started {
        /// Global workflow index.
        wf: usize,
        /// The started task.
        task: TaskId,
    },
    /// A task finished executing (`on_task_finished`, possibly followed by
    /// `on_workflow_completed` for the exit task).
    Finished {
        /// Global workflow index.
        wf: usize,
        /// The finished task.
        task: TaskId,
    },
    /// A running task was displaced by a higher-priority arrival (`on_task_displaced`).
    Displaced {
        /// Global workflow index.
        wf: usize,
        /// The displaced task.
        task: TaskId,
    },
    /// A workflow arrived at its home node (`on_workflow_submitted`; the event's `node` is the
    /// home node).  Only emitted for arrivals after time zero — time-zero submissions are
    /// announced before the first window, as in the paper's batch model.
    Submitted {
        /// Global workflow index.
        wf: usize,
    },
    /// A task was lost with its node (`on_task_lost`; the event's `node` is the dead node).
    Lost {
        /// Global workflow index.
        wf: usize,
        /// The lost task.
        task: TaskId,
    },
    /// The node went down (`on_node_departed`, stochastic failure path; churn departures are
    /// barrier-side and emit directly).
    Departed,
    /// The node came back up (`on_node_joined`, stochastic repair path).
    Joined,
}

/// One observer callback recorded during a window, replayed at the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferedEvent {
    /// Virtual time the transition happened.
    pub time: SimTime,
    /// The node it happened on.
    pub node: NodeId,
    /// The engine's monotone emission counter; orders events of the *same node*.
    pub seq: u64,
    /// Which hook to replay.
    pub kind: BufferedKind,
}

/// Sort buffered observations into the canonical replay order: `(time, node, seq)`.
pub(crate) fn sort_observations(events: &mut [BufferedEvent]) {
    events.sort_unstable_by_key(|e| (e.time, e.node, e.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_sort_by_time_then_workflow() {
        let t = SimTime::from_secs;
        let mut arrivals = vec![
            ArrivalNotice { time: t(9), wf: 0 },
            ArrivalNotice { time: t(2), wf: 5 },
            ArrivalNotice { time: t(2), wf: 1 },
        ];
        sort_arrivals(&mut arrivals);
        let order: Vec<usize> = arrivals.iter().map(|a| a.wf).collect();
        assert_eq!(order, vec![1, 5, 0]);
    }

    #[test]
    fn notices_sort_by_time_then_workflow_then_task() {
        let t = SimTime::from_secs;
        let mut notices = vec![
            CompletionNotice {
                time: t(5),
                wf: 1,
                task: TaskId(0),
                node: 3,
                load_mi: 0.0,
            },
            CompletionNotice {
                time: t(2),
                wf: 9,
                task: TaskId(4),
                node: 0,
                load_mi: 0.0,
            },
            CompletionNotice {
                time: t(5),
                wf: 0,
                task: TaskId(2),
                node: 1,
                load_mi: 0.0,
            },
            CompletionNotice {
                time: t(5),
                wf: 0,
                task: TaskId(1),
                node: 2,
                load_mi: 0.0,
            },
        ];
        sort_notices(&mut notices);
        let order: Vec<(u64, usize, TaskId)> = notices
            .iter()
            .map(|n| (n.time.as_millis() / 1000, n.wf, n.task))
            .collect();
        assert_eq!(
            order,
            vec![
                (2, 9, TaskId(4)),
                (5, 0, TaskId(1)),
                (5, 0, TaskId(2)),
                (5, 1, TaskId(0)),
            ]
        );
    }

    #[test]
    fn observations_interleave_nodes_canonically_but_keep_per_node_order() {
        let t = SimTime::from_secs(1);
        // Concurrent events of different nodes order by node id first, then by emission
        // sequence within one node.
        let mut events = vec![
            BufferedEvent {
                time: t,
                node: 7,
                seq: 11,
                kind: BufferedKind::Finished {
                    wf: 0,
                    task: TaskId(0),
                },
            },
            BufferedEvent {
                time: t,
                node: 2,
                seq: 1,
                kind: BufferedKind::Started {
                    wf: 1,
                    task: TaskId(1),
                },
            },
            BufferedEvent {
                time: t,
                node: 7,
                seq: 4,
                kind: BufferedKind::Started {
                    wf: 0,
                    task: TaskId(0),
                },
            },
            BufferedEvent {
                time: SimTime::ZERO,
                node: 9,
                seq: 99,
                kind: BufferedKind::Displaced {
                    wf: 2,
                    task: TaskId(2),
                },
            },
        ];
        sort_observations(&mut events);
        let order: Vec<(NodeId, u64)> = events.iter().map(|e| (e.node, e.seq)).collect();
        assert_eq!(order, vec![(9, 99), (2, 1), (7, 4), (7, 11)]);
    }

    #[test]
    fn replica_twin_completions_tie_break_on_node() {
        let t = SimTime::from_secs(4);
        let mut notices = vec![
            CompletionNotice {
                time: t,
                wf: 0,
                task: TaskId(1),
                node: 8,
                load_mi: 100.0,
            },
            CompletionNotice {
                time: t,
                wf: 0,
                task: TaskId(1),
                node: 3,
                load_mi: 100.0,
            },
        ];
        sort_notices(&mut notices);
        assert_eq!(notices[0].node, 3, "same (time, wf, task): node id decides");
    }

    #[test]
    fn fault_records_sort_by_time_node_then_seq() {
        let t = SimTime::from_secs;
        let mut records = vec![
            FaultRecord {
                time: t(3),
                node: 5,
                seq: 9,
                kind: FaultKind::Down,
            },
            FaultRecord {
                time: t(3),
                node: 5,
                seq: 7,
                kind: FaultKind::Lost {
                    wf: 0,
                    task: TaskId(0),
                    running: true,
                    total_secs: 10.0,
                    executed_secs: 4.0,
                    rate_mips: 2.0,
                },
            },
            FaultRecord {
                time: t(1),
                node: 9,
                seq: 0,
                kind: FaultKind::Up,
            },
        ];
        sort_faults(&mut records);
        let order: Vec<(NodeId, u64)> = records.iter().map(|r| (r.node, r.seq)).collect();
        assert_eq!(order, vec![(9, 0), (5, 7), (5, 9)]);
    }
}
