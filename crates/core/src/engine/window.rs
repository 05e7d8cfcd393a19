//! Executing one conservative time window: the node-local half of the event loop.
//!
//! Every event that happens *at* one resource node — data arrivals, task completions, slot
//! refills, workflow arrivals, stochastic failures and repairs — sits on the engine's node
//! event queue as a [`NodeEvent`].  A window drains that queue up to its end instant and only
//! touches node state; whatever the grid-wide state must learn about (workflow progress,
//! arrivals, faults, observer callbacks) is recorded into the engine's barrier buffers and
//! applied at the window barrier in canonical order (see [`super::barrier`]).

use super::barrier::{
    ArrivalNotice, BufferedEvent, BufferedKind, CompletionNotice, FaultKind, FaultRecord,
};
use super::node::ReadyEntry;
use super::Engine;
use crate::policy::second_phase::ready_key;
use crate::NodeId;
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::TaskId;

/// Node-local events: everything that happens *at* one resource node.
///
/// The grid-wide cadences (gossip, scheduling, metrics) are *not* node events — they run at
/// window barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeEvent {
    /// All input data of a dispatched task has arrived at its resource node.
    DataReady {
        /// The resource node.
        node: NodeId,
        /// Churn epoch the dispatch belongs to.
        epoch: u64,
        /// Global workflow index.
        wf: usize,
        /// The task whose inputs arrived.
        task: TaskId,
    },
    /// A running task finished on its resource node.
    TaskCompleted {
        /// The resource node.
        node: NodeId,
        /// Churn epoch the execution belongs to.
        epoch: u64,
        /// Global workflow index.
        wf: usize,
        /// The finished task.
        task: TaskId,
        /// Run generation the completion belongs to; a preemption of the same task bumps the
        /// generation, turning the displaced run's in-flight completion event stale.
        run: u64,
    },
    /// A workflow with a nonzero submission time arrives at its home node.  Scheduled once at
    /// engine construction, before any window runs; the window records an [`ArrivalNotice`]
    /// for the barrier, which flips the workflow's `arrived` flag and counts the submission.
    /// Home nodes are always stable (never churn), so no epoch guard is needed.
    WorkflowArrival {
        /// The home node.
        node: NodeId,
        /// Global workflow index.
        wf: usize,
    },
    /// The node fails (its pre-drawn stochastic lifetime expired).  Scheduled once at engine
    /// construction from the scenario's fault schedule, like [`NodeEvent::WorkflowArrival`].
    /// The window surrenders everything in flight on the node and records [`FaultRecord`]s
    /// for the barrier's recovery pass.
    NodeFailure {
        /// The failing node.
        node: NodeId,
    },
    /// The node comes back after its pre-drawn repair time, empty.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// One execution slot was freed *at the barrier* (a running replica twin was cancelled
    /// after another copy completed first).  Scheduled at the window's end instant, which the
    /// next window drains first — the node then refills the slot from its ready queue at the
    /// correct virtual time.
    SlotFreed {
        /// The node with the freed slot.
        node: NodeId,
    },
}

impl Engine {
    /// Drain and handle every queued node event with a timestamp `<= end` (the window's
    /// inclusive upper bound).  Events scheduled *during* the window at instants still `<= end`
    /// — e.g. a zero-length execution's completion — are drained too.
    pub(super) fn run_window(&mut self, end: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= end) {
            let ev = self.queue.pop().expect("peeked event must pop");
            match ev.event {
                NodeEvent::DataReady {
                    node,
                    epoch,
                    wf,
                    task,
                } => self.on_data_ready(node, epoch, wf, task, ev.time),
                NodeEvent::TaskCompleted {
                    node,
                    epoch,
                    wf,
                    task,
                    run,
                } => self.on_task_completed(node, epoch, wf, task, run, ev.time),
                NodeEvent::WorkflowArrival { node, wf } => {
                    self.arrivals.push(ArrivalNotice { time: ev.time, wf });
                    self.buffer(ev.time, node, BufferedKind::Submitted { wf });
                }
                NodeEvent::NodeFailure { node } => self.on_node_failure(node, ev.time),
                NodeEvent::NodeRepair { node } => self.on_node_repair(node, ev.time),
                NodeEvent::SlotFreed { node } => self.try_start_tasks(node, ev.time),
            }
        }
    }

    /// Record one fault event for the barrier's recovery pass.
    fn record_fault(&mut self, time: SimTime, node: NodeId, kind: FaultKind) {
        self.fault_records.push(FaultRecord {
            time,
            node,
            seq: self.fault_seq,
            kind,
        });
        self.fault_seq += 1;
    }

    /// The node's pre-drawn lifetime expired: surrender everything resident on it and record
    /// what was lost.  The `Down` record precedes the per-task `Lost` records so the barrier
    /// forgets the node before re-planning its tasks.
    fn on_node_failure(&mut self, node: NodeId, now: SimTime) {
        if !self.nodes[node].alive {
            return;
        }
        let rate_mips = self.nodes[node].capacity_mips;
        let (waiting, running) = self.nodes[node].depart(now);
        self.record_fault(now, node, FaultKind::Down);
        for (wf, task) in waiting {
            self.record_fault(
                now,
                node,
                FaultKind::Lost {
                    wf,
                    task,
                    running: false,
                    total_secs: 0.0,
                    executed_secs: 0.0,
                    rate_mips,
                },
            );
            self.buffer(now, node, BufferedKind::Lost { wf, task });
        }
        for lost in running {
            self.record_fault(
                now,
                node,
                FaultKind::Lost {
                    wf: lost.wf,
                    task: lost.task,
                    running: true,
                    total_secs: lost.total_secs,
                    executed_secs: lost.executed_secs,
                    rate_mips,
                },
            );
            self.buffer(
                now,
                node,
                BufferedKind::Lost {
                    wf: lost.wf,
                    task: lost.task,
                },
            );
        }
        self.buffer(now, node, BufferedKind::Departed);
    }

    /// The node's pre-drawn repair completed: it rejoins empty.
    fn on_node_repair(&mut self, node: NodeId, now: SimTime) {
        if self.nodes[node].alive {
            return;
        }
        self.nodes[node].join();
        self.record_fault(now, node, FaultKind::Up);
        self.buffer(now, node, BufferedKind::Joined);
    }

    /// Record one observer callback for the barrier's replay (skipped entirely when no
    /// observer is attached — the observer fast path).
    fn buffer(&mut self, time: SimTime, node: NodeId, kind: BufferedKind) {
        if !self.observing {
            return;
        }
        self.observations.push(BufferedEvent {
            time,
            node,
            seq: self.emit_seq,
            kind,
        });
        self.emit_seq += 1;
    }

    fn on_data_ready(&mut self, node: NodeId, epoch: u64, wf: usize, task: TaskId, now: SimTime) {
        if !self.nodes[node].accepts(epoch) {
            return;
        }
        self.nodes[node].ready.mark_data_ready(wf, task);
        self.try_start_tasks(node, now);
    }

    fn on_task_completed(
        &mut self,
        node: NodeId,
        epoch: u64,
        wf: usize,
        task: TaskId,
        run: u64,
        now: SimTime,
    ) {
        if !self.nodes[node].accepts(epoch) {
            return;
        }
        // The executed work (for the barrier's useful/wasted ledger) must be read before
        // `complete()` removes the running entry.
        let Some(load_mi) = self.nodes[node]
            .running
            .iter()
            .find(|r| r.wf == wf && r.task == task && r.run == run)
            .map(|r| r.view.exec_secs * self.nodes[node].capacity_mips)
        else {
            return;
        };
        let completed = self.nodes[node].complete(wf, task, run);
        debug_assert!(completed, "the entry located above must complete");
        self.buffer(now, node, BufferedKind::Finished { wf, task });
        self.notices.push(CompletionNotice {
            time: now,
            wf,
            task,
            node,
            load_mi,
        });
        self.try_start_tasks(node, now);
    }

    /// Occupy one slot of the node with `chosen` and schedule its completion.
    fn start_task(&mut self, node: NodeId, chosen: &ReadyEntry, now: SimTime) {
        let run = self.next_run;
        self.next_run += 1;
        let finish_at = self.nodes[node].start(chosen, now, run);
        self.executed += 1;
        self.buffer(
            now,
            node,
            BufferedKind::Started {
                wf: chosen.wf,
                task: chosen.task,
            },
        );
        self.queue.schedule(
            finish_at,
            NodeEvent::TaskCompleted {
                node,
                epoch: self.nodes[node].epoch,
                wf: chosen.wf,
                task: chosen.task,
                run,
            },
        );
    }

    /// Algorithm 2: while the node has free execution slots, pick the next data-complete ready
    /// task (smallest scheduler key) and run it.  Under the time-sliced preemptive substrate a
    /// remaining ready task that outranks the lowest-priority running task then displaces it —
    /// the victim re-enters the ready heap with its residual load and resumes later.
    pub(super) fn try_start_tasks(&mut self, node: NodeId, now: SimTime) {
        if !self.nodes[node].alive {
            return;
        }
        while self.nodes[node].has_free_slot() {
            let Some(chosen) = self.nodes[node].ready.pop_next() else {
                break;
            };
            self.start_task(node, &chosen, now);
        }
        if !self.config.resource.is_preemptive() {
            return;
        }
        // Each round swaps a strictly higher-priority ready task into a slot, so the worst
        // running key strictly improves and the loop terminates.
        while let Some((key, _seq)) = self.nodes[node].ready.peek_next() {
            let Some(mut displaced) = self.nodes[node].preempt_lowest_priority(key, now) else {
                break;
            };
            let chosen = self.nodes[node]
                .ready
                .pop_next()
                .expect("peeked entry must still be queued");
            self.buffer(
                now,
                node,
                BufferedKind::Displaced {
                    wf: displaced.wf,
                    task: displaced.task,
                },
            );
            // Re-key the displaced task against its updated view: rules keyed on exec time
            // now see the *remaining* time (shortest-remaining-time semantics), while
            // ms/rpm-based rules and FCFS recompute the same key as before.
            displaced.key = ready_key(self.algorithm.second_phase, &displaced.view);
            self.nodes[node].ready.insert(displaced);
            self.start_task(node, &chosen, now);
        }
    }
}
