//! Golden digests of whole runs: each pinned configuration's report *and* its full ordered
//! observer stream must hash to the value checked in below, so an engine refactor can change
//! no report field, no event, no timestamp and no event order.  A digest that moves is a
//! model change: say so in the change log before updating the table.
//!
//! The CI matrix re-runs this suite under `P2PGRID_POOL_THREADS` ∈ {1, 8}, so every pin also
//! covers the worker-pool width.

use p2pgrid::prelude::*;

/// `(pin name, digest)`: one row per pinned configuration.
const PINS: &[(&str, u64)] = &[
    ("static_dsmf", 0xfd7389d832c0d404),
    ("heft_full_ahead", 0x9bd1525e9b2059d9),
    ("churn", 0x1eeb8e26cfdf04bf),
    ("rescheduling_churn", 0xf35f4cde95359f78),
    ("het_preemptive", 0x2d6d9f00fba4f2b8),
    ("multicore", 0xc7ac9170f3b8a3c1),
    ("observed_churn", 0x808ce22f6f6b3f10),
    ("stochastic_fail_workflow", 0x0fc855275ed19441),
    ("stochastic_retry", 0x364e238b17d02fda),
    ("stochastic_unlimited_retry", 0xd1da52a9d1655a60),
    ("stochastic_checkpoint", 0x01f5f269d29acf82),
    ("stochastic_replicate", 0x802a4950bbae2e8e),
    ("correlated_outages", 0x261bc5e4f84afd36),
    ("fault_trace", 0x9991b350b5ce6e30),
    ("trace_workload", 0x4f44ca5154f227bd),
    ("poisson_arrivals", 0x9ef36799fb717fbb),
];

/// FNV-1a over a byte stream: stable across platforms and toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn series(&mut self, series: &p2pgrid::metrics::TimeSeries) {
        self.u64(series.points().len() as u64);
        for &(t, v) in series.points() {
            self.u64(t.as_millis());
            self.f64(v);
        }
    }
}

/// Digest of every externally observable report field plus the full `(time, event)` stream.
fn digest(report: &SimulationReport, events: &[(SimTime, TraceEvent)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.submitted);
    h.u64(report.completed);
    h.u64(report.failed);
    h.f64(report.act_secs());
    h.f64(report.average_efficiency());
    h.f64(report.avg_rss_size);
    h.series(report.metrics.throughput_series());
    h.series(report.metrics.act_series());
    h.series(report.metrics.ae_series());
    let s = &report.robustness;
    for count in [
        s.node_failures,
        s.node_repairs,
        s.tasks_lost,
        s.retries,
        s.recoveries,
    ] {
        h.u64(count);
    }
    h.f64(s.useful_mi);
    h.f64(s.wasted_mi);
    h.f64(s.recovery_latency_secs_sum);
    h.u64(events.len() as u64);
    for (t, event) in events {
        h.u64(t.as_millis());
        h.bytes(format!("{event:?}").as_bytes());
    }
    h.0
}

/// Run `cfg` under `alg` with a trace recorder attached.
fn record(cfg: GridConfig, alg: Algorithm) -> (SimulationReport, Vec<(SimTime, TraceEvent)>) {
    let mut trace = TraceRecorder::new();
    let report = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(alg)
        .observe(&mut trace)
        .run();
    (report, trace.events().to_vec())
}

/// Assert that the run hashes to the digest pinned under `name`.
fn assert_pinned(name: &str, report: &SimulationReport, events: &[(SimTime, TraceEvent)]) {
    let pinned = PINS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no pin named {name}"))
        .1;
    let actual = digest(report, events);
    assert_eq!(
        actual, pinned,
        "{name}: digest {actual:#018x} differs from the pinned {pinned:#018x}"
    );
}

fn config(seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(20).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=10;
    cfg
}

/// Run a progress-making config and check it against its pin.
fn assert_progressing_run_pinned(name: &str, cfg: GridConfig, alg: Algorithm) {
    let (report, events) = record(cfg, alg);
    assert!(
        report.completed > 0,
        "{name}: the run must make progress for the pin to mean anything"
    );
    assert_pinned(name, &report, &events);
}

#[test]
fn static_dsmf_run_matches_its_pin() {
    assert_progressing_run_pinned("static_dsmf", config(91), Algorithm::Dsmf);
}

#[test]
fn heft_full_ahead_run_matches_its_pin() {
    assert_progressing_run_pinned("heft_full_ahead", config(92), Algorithm::Heft);
}

#[test]
fn churned_run_matches_its_pin() {
    assert_progressing_run_pinned(
        "churn",
        config(93).with_churn(ChurnConfig::with_dynamic_factor(0.2)),
        Algorithm::Dsmf,
    );
}

#[test]
fn rescheduling_churn_run_matches_its_pin() {
    assert_progressing_run_pinned(
        "rescheduling_churn",
        config(94)
            .with_churn(ChurnConfig::with_dynamic_factor(0.3))
            .with_recovery(RecoveryPolicy::unlimited_retry()),
        Algorithm::Dsmf,
    );
}

#[test]
fn heterogeneous_preemptive_run_matches_its_pin() {
    let resource = ResourceModel::heterogeneous(vec![
        SlotClass {
            slots: 1,
            weight: 0.8,
        },
        SlotClass {
            slots: 16,
            weight: 0.2,
        },
    ])
    .preemptive();
    assert_progressing_run_pinned(
        "het_preemptive",
        config(95).with_resource(resource),
        Algorithm::Dsmf,
    );
}

#[test]
fn multicore_run_matches_its_pin() {
    assert_progressing_run_pinned(
        "multicore",
        config(96).with_slots_per_node(4),
        Algorithm::Dsmf,
    );
}

#[test]
fn observed_churn_run_matches_its_pin() {
    assert_progressing_run_pinned(
        "observed_churn",
        config(97).with_churn(ChurnConfig::with_dynamic_factor(0.15)),
        Algorithm::Dsmf,
    );
}

fn faulty_config(nodes: usize, seed: u64, mtbf_hours: f64, recovery: RecoveryPolicy) -> GridConfig {
    let faults = StochasticFaults::new(
        SimDuration::from_secs_f64(mtbf_hours * 3600.0),
        SimDuration::from_secs(20 * 60),
    );
    let mut cfg = GridConfig::small(nodes)
        .with_seed(seed)
        .with_faults(FaultModel::Stochastic(faults))
        .with_recovery(recovery);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=8;
    cfg
}

#[test]
fn stochastic_fault_runs_match_their_pins_for_every_policy() {
    let policies = [
        ("stochastic_fail_workflow", RecoveryPolicy::FailWorkflow),
        (
            "stochastic_retry",
            RecoveryPolicy::Retry {
                budget: 2,
                backoff: SimDuration::from_secs(120),
            },
        ),
        (
            "stochastic_unlimited_retry",
            RecoveryPolicy::unlimited_retry(),
        ),
        (
            "stochastic_checkpoint",
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(10 * 60),
            },
        ),
        (
            "stochastic_replicate",
            RecoveryPolicy::Replicate { copies: 2 },
        ),
    ];
    for (i, (name, policy)) in policies.into_iter().enumerate() {
        let (report, events) = record(
            faulty_config(20, 700 + i as u64, 2.0, policy),
            Algorithm::Dsmf,
        );
        assert!(
            report.robustness.node_failures > 0,
            "{name}: the pin is vacuous unless nodes actually fail"
        );
        assert_pinned(name, &report, &events);
    }
}

#[test]
fn correlated_outage_run_matches_its_pin() {
    let outage = CorrelatedOutage {
        group_size: 4,
        mtbf: SimDuration::from_hours(3),
        duration: SimDuration::from_secs(30 * 60),
    };
    let faults = StochasticFaults::new(SimDuration::from_hours(6), SimDuration::from_secs(20 * 60))
        .with_outage(outage);
    let mut cfg = GridConfig::small(24)
        .with_seed(808)
        .with_faults(FaultModel::Stochastic(faults))
        .with_recovery(RecoveryPolicy::unlimited_retry());
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=8;
    let (report, events) = record(cfg, Algorithm::Dsmf);
    assert!(report.robustness.node_failures > 0);
    assert_pinned("correlated_outages", &report, &events);
}

#[test]
fn fault_trace_run_matches_its_pin() {
    let cfg = faulty_config(20, 811, 2.0, RecoveryPolicy::unlimited_retry());
    let (report, events) = record(cfg, Algorithm::Dsmf);
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    assert!(
        count(|e| matches!(e, TraceEvent::TaskLost { .. })) > 0,
        "a 2h-MTBF run must lose some task"
    );
    assert!(
        count(|e| matches!(e, TraceEvent::TaskRetried { .. })) > 0,
        "unlimited retry must re-queue some lost running task"
    );
    assert_pinned("fault_trace", &report, &events);
}

#[test]
fn trace_workload_run_matches_its_pin() {
    let diamond = WorkflowSpec::from_workflow("d", &shapes::diamond(100.0, 500.0, 10.0)).unwrap();
    let montage = WorkflowSpec::from_workflow("m", &shapes::montage_like(3, 800.0, 100.0)).unwrap();
    let entry = |workflow: &str, submit_at_ms: u64, home: HomePolicy| WorkloadEntry {
        workflow: workflow.into(),
        submit_at_ms,
        home,
    };
    let workload = WorkloadSpec {
        name: "staggered".into(),
        workflows: vec![diamond, montage],
        entries: vec![
            entry("d", 0, HomePolicy::Auto),
            entry("m", 900_000, HomePolicy::Node(0)),
            entry("d", 1_800_000, HomePolicy::Auto),
        ],
    };
    let cfg = GridConfig::small(20).with_seed(21).with_workload(workload);
    let (report, events) = record(cfg, Algorithm::Dsmf);
    assert_eq!(report.completed, 3);
    assert_pinned("trace_workload", &report, &events);
}

#[test]
fn poisson_arrival_run_matches_its_pin() {
    let mut cfg = GridConfig::small(20)
        .with_seed(31)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 6.0 });
    cfg.workflows_per_node = 2;
    let (report, events) = record(cfg, Algorithm::Dsmf);
    assert!(
        events
            .iter()
            .any(|(t, e)| matches!(e, TraceEvent::WorkflowSubmitted { .. }) && t.as_millis() > 0),
        "Poisson arrivals must actually spread submissions"
    );
    assert_pinned("poisson_arrivals", &report, &events);
}
