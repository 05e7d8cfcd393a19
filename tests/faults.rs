//! The fault-injection substrate end to end: conservation invariants under arbitrary fault
//! schedules × every recovery policy.  Byte-for-byte pins of faulty runs (every recovery
//! policy, correlated outages, the fault trace) live in `tests/pinned_runs.rs`.

use p2pgrid::prelude::*;
use proptest::prelude::*;

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

/// Everything a faulty run reports, flattened to exact bits.
#[derive(Debug, PartialEq)]
struct FaultFingerprint {
    submitted: u64,
    completed: u64,
    failed: u64,
    act_bits: u64,
    ae_bits: u64,
    node_failures: u64,
    node_repairs: u64,
    tasks_lost: u64,
    retries: u64,
    recoveries: u64,
    useful_bits: u64,
    wasted_bits: u64,
    latency_bits: u64,
}

fn fingerprint(r: &SimulationReport) -> FaultFingerprint {
    let s = &r.robustness;
    FaultFingerprint {
        submitted: r.submitted,
        completed: r.completed,
        failed: r.failed,
        act_bits: r.act_secs().to_bits(),
        ae_bits: r.average_efficiency().to_bits(),
        node_failures: s.node_failures,
        node_repairs: s.node_repairs,
        tasks_lost: s.tasks_lost,
        retries: s.retries,
        recoveries: s.recoveries,
        useful_bits: s.useful_mi.to_bits(),
        wasted_bits: s.wasted_mi.to_bits(),
        latency_bits: s.recovery_latency_secs_sum.to_bits(),
    }
}

fn run(cfg: GridConfig) -> SimulationReport {
    Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .run()
}

#[test]
fn fault_model_off_is_byte_identical_to_the_default_config() {
    let mut plain = GridConfig::small(16).with_seed(900);
    plain.workflows_per_node = 2;
    let explicit = plain
        .clone()
        .with_faults(FaultModel::Off)
        .with_recovery(RecoveryPolicy::FailWorkflow);
    let a = run(plain);
    let b = run(explicit);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.robustness.node_failures, 0);
    assert_eq!(a.robustness.tasks_lost, 0);
    assert_eq!(a.robustness.wasted_mi, 0.0);
}

proptest! {
    // Each case is a full end-to-end run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Workflow conservation holds for any fault schedule × any recovery policy: every
    /// submitted workflow is either completed, failed, or still active at the horizon —
    /// never double-counted, never dropped.  The robustness ledger stays consistent with
    /// the event counts, and metric records are in bijection with completions.
    #[test]
    fn prop_fault_schedules_conserve_workflows(
        seed in 0u64..10_000,
        mtbf_hours in 1.0f64..12.0,
        policy_idx in 0usize..5,
        budget in 1u32..4,
        backoff_secs in 0u64..600,
        interval_secs in 300u64..3600,
        copies in 2usize..4,
    ) {
        let policy = match policy_idx {
            0 => RecoveryPolicy::FailWorkflow,
            1 => RecoveryPolicy::Retry {
                budget,
                backoff: SimDuration::from_secs(backoff_secs),
            },
            2 => RecoveryPolicy::unlimited_retry(),
            3 => RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(interval_secs),
            },
            _ => RecoveryPolicy::Replicate { copies },
        };
        let mut cfg = faulty_config(16, seed, mtbf_hours, policy);
        cfg.workflows_per_node = 1;
        cfg.horizon = SimDuration::from_hours(10);
        let report = Scenario::build(cfg)
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run();
        let s = &report.robustness;

        // submitted == completed + failed + still-active: the still-active remainder is
        // whatever the horizon cut off, so the two accounted buckets can never overshoot.
        prop_assert_eq!(report.submitted, 8); // 50% stable nodes host the workflows
        prop_assert!(report.completed + report.failed <= report.submitted);
        prop_assert!(report.metrics.records().len() as u64 == report.completed);

        // Repairs trail failures by at most the nodes still down at the horizon.
        prop_assert!(s.node_repairs <= s.node_failures);
        // Every recovery and every retry traces back to a distinct loss event.
        prop_assert!(s.recoveries <= s.tasks_lost);
        prop_assert!(s.retries <= s.tasks_lost);
        // The work ledger is non-negative and goodput is a proper fraction.
        prop_assert!(s.useful_mi >= 0.0);
        prop_assert!(s.wasted_mi >= 0.0);
        prop_assert!((0.0..=1.0).contains(&s.goodput()));
        prop_assert!(s.recovery_latency_secs_sum >= 0.0);
        if s.recoveries == 0 {
            prop_assert_eq!(s.recovery_latency_secs_sum, 0.0);
        }
        // Under the paper policy a lost running task fails its workflow, so nothing is
        // ever retried; with an unlimited retry budget nothing ever fails.
        match policy {
            RecoveryPolicy::FailWorkflow => prop_assert_eq!(s.retries, 0),
            RecoveryPolicy::Retry { budget, .. } if budget == u32::MAX => {
                prop_assert_eq!(report.failed, 0);
            }
            _ => {}
        }
    }
}
