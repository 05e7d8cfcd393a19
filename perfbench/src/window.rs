//! Engine windows timed from outside: a session is driven one `Simulation::step` at a time,
//! and an observer tags each window with the cadence events it contained.

use crate::trace::Tracer;
use p2pgrid::core::NodeId;
use p2pgrid::core::{Algorithm, Observer, Scenario, SimulationReport};
use p2pgrid::sim::{SimDuration, SimTime};
use p2pgrid::workflow::TaskId;
use std::cell::Cell;
use std::time::Instant;

/// What a window did at its barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowClass {
    /// Ran the scheduling cycle.  Scheduling instants are multiples of the scheduling
    /// interval, which is a multiple of the gossip interval, so these windows run a gossip
    /// cycle too.
    Scheduling,
    /// Ran a gossip cycle and no scheduling cycle.
    GossipOnly,
    /// Ran no grid-wide cadence event (at most a metrics sample): shard events only.
    Plain,
}

impl WindowClass {
    /// Span name of a window of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            WindowClass::Scheduling => "engine.window.scheduling",
            WindowClass::GossipOnly => "engine.window.gossip",
            WindowClass::Plain => "engine.window.plain",
        }
    }
}

/// Classify a window by its end instant and the gossip cycles observed during it.  Every
/// cadence starts at time zero, the scheduling interval is a multiple of the gossip interval
/// and windows always close at the next cadence instant, so a window that ran a gossip cycle
/// and ended on a multiple of the scheduling interval also ran the scheduling cycle.
pub fn classify(end: SimTime, gossip_cycles: u64, scheduling_interval: SimDuration) -> WindowClass {
    let period = scheduling_interval.as_millis().max(1);
    if gossip_cycles == 0 {
        WindowClass::Plain
    } else if end.as_millis().is_multiple_of(period) {
        WindowClass::Scheduling
    } else {
        WindowClass::GossipOnly
    }
}

/// Observer callbacks counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `on_gossip_cycle` calls.
    pub gossip_cycles: u64,
    /// `on_task_dispatched` calls (first-phase dispatches).
    pub dispatches: u64,
    /// `on_task_started` calls.
    pub starts: u64,
    /// `on_task_finished` calls.
    pub finishes: u64,
    /// `on_task_displaced` calls (time-sliced substrates only).
    pub displacements: u64,
}

impl Counts {
    /// Engine events: dispatch, start, finish and displace callbacks.
    pub fn events(&self) -> u64 {
        self.dispatches + self.starts + self.finishes + self.displacements
    }
}

/// Counts callbacks into a shared cell, so the stepping loop can read them between steps
/// while the session holds the observer.
struct Tagger<'a>(&'a Cell<Counts>);

impl Tagger<'_> {
    fn bump(&mut self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.0.get();
        f(&mut c);
        self.0.set(c);
    }
}

impl Observer for Tagger<'_> {
    fn on_gossip_cycle(&mut self, _now: SimTime, _cycle: u64) {
        self.bump(|c| c.gossip_cycles += 1);
    }
    fn on_task_dispatched(&mut self, _now: SimTime, _wf: usize, _task: TaskId, _node: NodeId) {
        self.bump(|c| c.dispatches += 1);
    }
    fn on_task_started(&mut self, _now: SimTime, _wf: usize, _task: TaskId, _node: NodeId) {
        self.bump(|c| c.starts += 1);
    }
    fn on_task_finished(&mut self, _now: SimTime, _wf: usize, _task: TaskId, _node: NodeId) {
        self.bump(|c| c.finishes += 1);
    }
    fn on_task_displaced(&mut self, _now: SimTime, _wf: usize, _task: TaskId, _node: NodeId) {
        self.bump(|c| c.displacements += 1);
    }
}

/// Count and host time of one window class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTotals {
    /// Windows of the class.
    pub windows: u64,
    /// Their summed host time, ns.
    pub ns: u64,
}

impl ClassTotals {
    /// Mean host time of one window of the class, ms (`0` when there was none).
    pub fn mean_ms(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.ns as f64 / self.windows as f64 / 1e6
        }
    }
}

/// Per-class totals of one stepped run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Windows that ran the scheduling cycle.
    pub scheduling: ClassTotals,
    /// Windows that ran a gossip cycle only.
    pub gossip_only: ClassTotals,
    /// Windows without a cadence event.
    pub plain: ClassTotals,
    /// Observer callbacks over the whole run.
    pub counts: Counts,
    /// Estimated gossip part of the scheduling windows, ns.
    pub sched_gossip_ns: u64,
    /// The rest of the scheduling windows (the first phase), ns.
    pub phase1_ns: u64,
    /// Host time of the whole stepped run (all windows plus the final report), ns.
    pub run_ns: u64,
}

impl WindowStats {
    /// All windows executed.
    pub fn windows(&self) -> u64 {
        self.scheduling.windows + self.gossip_only.windows + self.plain.windows
    }

    /// Host time of the gossip cycles, ms: the gossip-only windows plus the estimated gossip
    /// part of every scheduling window.
    pub fn gossip_ms(&self) -> f64 {
        (self.gossip_only.ns + self.sched_gossip_ns) as f64 / 1e6
    }

    /// Mean first-phase cost of one scheduling cycle, ms.
    pub fn phase1_ms(&self) -> f64 {
        if self.scheduling.windows == 0 {
            0.0
        } else {
            self.phase1_ns as f64 / self.scheduling.windows as f64 / 1e6
        }
    }

    /// Split each scheduling window into its gossip cycle and its first phase.  A cycle's cost
    /// drifts as the RSS fill up and loads change, so the gossip part is estimated from the
    /// nearest gossip-only windows on either side (their mean, or the one that exists), and
    /// capped at the window itself.
    fn split_scheduling(&mut self, cadence: &[(WindowClass, u64)]) {
        fn gossip_near<'a>(mut it: impl Iterator<Item = &'a (WindowClass, u64)>) -> Option<u64> {
            it.find(|(c, _)| *c == WindowClass::GossipOnly).map(|w| w.1)
        }
        for (j, &(class, ns)) in cadence.iter().enumerate() {
            if class != WindowClass::Scheduling {
                continue;
            }
            let before = gossip_near(cadence[..j].iter().rev());
            let after = gossip_near(cadence[j + 1..].iter());
            let estimate = match (before, after) {
                (Some(a), Some(b)) => (a + b) / 2,
                (Some(a), None) | (None, Some(a)) => a,
                (None, None) => 0,
            }
            .min(ns);
            self.sched_gossip_ns += estimate;
            self.phase1_ns += ns - estimate;
        }
    }
}

/// Run `algorithm` on `scenario` one window at a time, recording each window as a span
/// under the tracer's innermost open span.
pub fn run_windows(
    scenario: &Scenario,
    algorithm: Algorithm,
    tracer: &mut Tracer,
    op: u64,
) -> (SimulationReport, WindowStats) {
    let counts = Cell::new(Counts::default());
    let mut tagger = Tagger(&counts);
    let scheduling_interval = scenario.config().scheduling_interval;
    let start = Instant::now();
    let mut session = scenario.simulate_algorithm(algorithm).observe(&mut tagger);
    let mut stats = WindowStats::default();
    let mut cadence = Vec::new();
    loop {
        let before = counts.get().gossip_cycles;
        let t0 = Instant::now();
        let Some(end) = session.step() else { break };
        let t1 = Instant::now();
        let class = classify(
            end,
            counts.get().gossip_cycles - before,
            scheduling_interval,
        );
        tracer.record(class.span_name(), op, t0, t1);
        let totals = match class {
            WindowClass::Scheduling => &mut stats.scheduling,
            WindowClass::GossipOnly => &mut stats.gossip_only,
            WindowClass::Plain => &mut stats.plain,
        };
        let ns = (t1 - t0).as_nanos() as u64;
        totals.windows += 1;
        totals.ns += ns;
        if class != WindowClass::Plain {
            cadence.push((class, ns));
        }
    }
    stats.split_scheduling(&cadence);
    let report = session.finish();
    stats.run_ns = start.elapsed().as_nanos() as u64;
    stats.counts = counts.get();
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid::core::GridConfig;

    #[test]
    fn classification_rules() {
        let sched = SimDuration::from_mins(15);
        let at = |mins: u64| SimTime::from_millis(mins * 60_000);
        assert_eq!(classify(SimTime::ZERO, 1, sched), WindowClass::Scheduling);
        assert_eq!(classify(at(30), 1, sched), WindowClass::Scheduling);
        assert_eq!(classify(at(35), 1, sched), WindowClass::GossipOnly);
        assert_eq!(
            classify(SimTime::from_millis(123_456), 0, sched),
            WindowClass::Plain
        );
        // A second window closing on a scheduling instant after its cadence already ran.
        assert_eq!(classify(at(30), 0, sched), WindowClass::Plain);
    }

    #[test]
    fn scheduling_windows_split_against_neighbouring_gossip_windows() {
        use WindowClass::*;
        let mut stats = WindowStats::default();
        let cadence = [
            (Scheduling, 5),
            (GossipOnly, 10),
            (GossipOnly, 20),
            (Scheduling, 50),
            (GossipOnly, 30),
            (Scheduling, 100),
        ];
        stats.split_scheduling(&cadence);
        // 5 → capped at itself; 50 → (20 + 30) / 2 = 25; 100 → 30.
        assert_eq!(stats.sched_gossip_ns, 5 + 25 + 30);
        assert_eq!(stats.phase1_ns, 25 + 70);
    }

    #[test]
    fn stepped_smoke_run_tags_every_cadence_window() {
        let config = GridConfig::small(12).with_seed(5);
        let scenario = Scenario::build(config.clone()).unwrap();
        let mut tracer = Tracer::new();
        let (report, stats) = run_windows(&scenario, Algorithm::Dsmf, &mut tracer, 0);

        // Cadences fire at 0, interval, 2·interval, … up to and including the horizon.
        let horizon = config.horizon.as_millis();
        let sched_cycles = horizon / config.scheduling_interval.as_millis() + 1;
        let gossip_cycles = horizon / config.gossip_interval.as_millis() + 1;
        assert_eq!(stats.scheduling.windows, sched_cycles);
        assert_eq!(stats.counts.gossip_cycles, gossip_cycles);
        assert_eq!(stats.gossip_only.windows, gossip_cycles - sched_cycles);
        assert_eq!(report.gossip_stats.cycles, gossip_cycles);
        assert!(stats.plain.windows > 0, "task events run in plain windows");
        assert_eq!(
            stats.sched_gossip_ns + stats.phase1_ns,
            stats.scheduling.ns,
            "scheduling windows split into gossip and first phase"
        );
        assert!(stats.counts.dispatches > 0 && stats.counts.finishes > 0);
        assert_eq!(tracer.spans().len() as u64, stats.windows());

        // Stepping with the tagger attached reproduces the one-shot report.
        let oneshot = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        assert_eq!(format!("{report:?}"), format!("{oneshot:?}"));
    }
}
