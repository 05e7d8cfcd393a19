//! The observer fast-path pin: an unobserved run may never be more than 10 % slower than the
//! same run with a counting observer attached, plus criterion timings of both variants.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pgrid_bench::bench_criterion_config;
use p2pgrid_core::observer::GridSample;
use p2pgrid_core::{Algorithm, GridConfig, Observer, Scenario};
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::TaskId;
use std::hint::black_box;

fn smoke_config() -> GridConfig {
    let mut cfg = GridConfig::small(32).with_seed(20100913);
    cfg.workflows_per_node = 2;
    cfg
}

/// A minimal observer that forces the engine onto the observing slow path (buffer + replay)
/// while doing almost nothing per event.
#[derive(Default)]
struct CountingObserver {
    events: u64,
}

impl Observer for CountingObserver {
    fn on_task_dispatched(&mut self, _: SimTime, _: usize, _: TaskId, _: usize) {
        self.events += 1;
    }
    fn on_task_started(&mut self, _: SimTime, _: usize, _: TaskId, _: usize) {
        self.events += 1;
    }
    fn on_task_finished(&mut self, _: SimTime, _: usize, _: TaskId, _: usize) {
        self.events += 1;
    }
    fn on_sample(&mut self, _: SimTime, _: &GridSample) {
        self.events += 1;
    }
}

/// The observer fast path: with no observers registered, the engine must skip event buffering
/// and payload construction entirely.  Pinned with a wall-clock assert — the
/// unobserved run may not be slower than the observed one beyond noise — plus criterion
/// timings of both variants for the record.
fn bench_observer_fast_path(c: &mut Criterion) {
    let scenario = Scenario::build(smoke_config()).expect("bench config is valid");
    let unobserved = || {
        let r = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        black_box(r.completed)
    };
    let observed = || {
        let mut probe = CountingObserver::default();
        let r = scenario
            .simulate_algorithm(Algorithm::Dsmf)
            .observe(&mut probe)
            .run();
        black_box((r.completed, probe.events)).0
    };

    // The pin: min-of-N wall clocks, interleaved.  The fast path does strictly less work
    // (no buffering, no canonical sort, no callback dispatch), so even with generous
    // noise allowance the unobserved run must not come out slower.
    const REPS: usize = 5;
    let mut t_unobserved = std::time::Duration::MAX;
    let mut t_observed = std::time::Duration::MAX;
    for _ in 0..REPS {
        let t = std::time::Instant::now();
        unobserved();
        t_unobserved = t_unobserved.min(t.elapsed());
        let t = std::time::Instant::now();
        observed();
        t_observed = t_observed.min(t.elapsed());
    }
    println!(
        "# observer_fast_path: unobserved {t_unobserved:?} vs counting observer {t_observed:?}"
    );
    assert!(
        t_unobserved.as_secs_f64() <= t_observed.as_secs_f64() * 1.10,
        "observer fast path regressed: unobserved run {t_unobserved:?} \
         is slower than the observed run {t_observed:?} beyond the 10% noise band"
    );

    let mut group = c.benchmark_group("observer_fast_path");
    group.bench_function("dsmf_smoke_unobserved", |bencher| bencher.iter(unobserved));
    group.bench_function("dsmf_smoke_counting_observer", |bencher| {
        bencher.iter(observed)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_criterion_config();
    targets = bench_observer_fast_path
}
criterion_main!(benches);
