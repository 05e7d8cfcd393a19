//! The in-process workloads: `reduced_dsmf`, `paper_1000` and `contended_sweep`.
//!
//! An op builds the workload's world with `Scenario::build` and runs it: one DSMF session,
//! or all eight algorithms through `campaign::run` on the shared pool.  Every op of a run
//! uses the same world, so the `sim_*` metrics are exact at a fixed seed.

use crate::layers;
use crate::stats::median;
use crate::trace::{Tracer, REPLAY_OP};
use crate::window::{run_windows, WindowStats};
use crate::{catch, digest, ns_since, Env, Outcome, Run};
use p2pgrid::core::{
    Algorithm, GridConfig, ResourceModel, Scenario, SimulationReport, SlotClass, StreamKind,
};
use p2pgrid::experiments::campaign::{self, Job};
use p2pgrid::sim::SimDuration;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How an op uses its world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One DSMF session.
    Single,
    /// All eight paper algorithms through `campaign::run`.
    Sweep,
}

/// Seed of the platform streams: topology, landmarks, node capacities and slot counts.
/// The grid stays the same in every run and `--seed` draws the load on it (workflows,
/// gossip), so runs on different seeds measure comparable work.
pub const PLATFORM_SEED: u64 = 20_100_913;

/// `config` with its platform streams pinned to [`PLATFORM_SEED`].
fn pin_platform(config: GridConfig) -> GridConfig {
    [
        StreamKind::Topology,
        StreamKind::Landmarks,
        StreamKind::Capacity,
        StreamKind::Slots,
    ]
    .into_iter()
    .fold(config, |c, kind| c.with_stream_seed(kind, PLATFORM_SEED))
}

/// The world and op shape of one in-process workload.
pub fn workload(name: &str, seed: u64) -> Option<(GridConfig, Shape)> {
    let paper = GridConfig::paper_default().with_seed(seed);
    let (config, shape) = match name {
        "reduced_dsmf" => (
            p2pgrid::experiments::ExperimentScale::Reduced.base_config(seed),
            Shape::Single,
        ),
        "paper_1000" => {
            let mut config = paper;
            config.horizon = SimDuration::from_hours(PAPER_1000_HOURS);
            (config, Shape::Single)
        }
        "contended_sweep" => {
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
            let config = paper
                .with_nodes(16)
                .with_load_factor(60)
                .with_resource(resource);
            (config, Shape::Sweep)
        }
        _ => return None,
    };
    Some((pin_platform(config), shape))
}

/// Simulated horizon of `paper_1000`: long enough for workflows to complete, short enough
/// for several ops per run at 1 000 nodes.
pub const PAPER_1000_HOURS: u64 = 2;

/// Position of DSMF in `campaign::paper_algorithms()` (the `Algorithm::ALL` order).
fn dsmf_index() -> usize {
    Algorithm::ALL
        .iter()
        .position(|&a| a == Algorithm::Dsmf)
        .expect("DSMF is a paper algorithm")
}

/// One op's timings and reports.
struct OpResult {
    setup_ns: u64,
    /// Host time of the work after setup: the DSMF run, or the pooled sweep.
    work_ns: u64,
    reports: Vec<SimulationReport>,
    workflows: usize,
}

impl OpResult {
    fn op_ns(&self) -> u64 {
        self.setup_ns + self.work_ns
    }

    fn dsmf(&self, shape: Shape) -> &SimulationReport {
        match shape {
            Shape::Single => &self.reports[0],
            Shape::Sweep => &self.reports[dsmf_index()],
        }
    }
}

fn jobs(scenario: &Scenario) -> Vec<Job> {
    campaign::cross(
        std::slice::from_ref(scenario),
        &campaign::paper_algorithms(),
    )
}

/// Build the world and run it, untraced.
fn op(config: &GridConfig, shape: Shape) -> Result<OpResult, String> {
    let config = config.clone();
    let t0 = Instant::now();
    let scenario = Scenario::build(config).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let reports = match shape {
        Shape::Single => vec![scenario.simulate_algorithm(Algorithm::Dsmf).run()],
        Shape::Sweep => campaign::run(&jobs(&scenario)),
    };
    Ok(OpResult {
        setup_ns: ns_since(t0, t1),
        work_ns: ns_since(t1, Instant::now()),
        reports,
        workflows: scenario.workflow_count(),
    })
}

/// Build the world and run it with spans: the build, then every engine window of the DSMF
/// session (`Single`) or the pooled sweep (`Sweep`).
fn traced_op(
    config: &GridConfig,
    shape: Shape,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(OpResult, Option<WindowStats>), String> {
    let config = config.clone();
    let root = tracer.begin("op", id);
    let t0 = Instant::now();
    let span = tracer.begin("scenario.build", id);
    let built = Scenario::build(config);
    tracer.end(span);
    let t1 = Instant::now();
    let scenario = match built {
        Ok(scenario) => scenario,
        Err(e) => {
            tracer.end(root);
            return Err(e.to_string());
        }
    };
    let (reports, windows) = match shape {
        Shape::Single => {
            let span = tracer.begin("engine.run", id);
            let (report, stats) = run_windows(&scenario, Algorithm::Dsmf, tracer, id);
            tracer.end(span);
            (vec![report], Some(stats))
        }
        Shape::Sweep => {
            let span = tracer.begin("campaign.sweep", id);
            let reports = campaign::run(&jobs(&scenario));
            tracer.end(span);
            (reports, None)
        }
    };
    let t2 = Instant::now();
    tracer.end(root);
    let result = OpResult {
        setup_ns: ns_since(t0, t1),
        work_ns: ns_since(t1, t2),
        reports,
        workflows: scenario.workflow_count(),
    };
    Ok((result, windows))
}

/// The invariants every report of an op must satisfy.
pub fn check_report(report: &SimulationReport, workflows: usize) -> Result<(), String> {
    if report.submitted != workflows as u64 {
        return Err(format!(
            "{}: submitted {} of {workflows} workflows",
            report.algorithm, report.submitted
        ));
    }
    if report.completed + report.failed > report.submitted {
        return Err(format!(
            "{}: completed {} + failed {} > submitted {}",
            report.algorithm, report.completed, report.failed, report.submitted
        ));
    }
    let (act, ae) = (report.act_secs(), report.average_efficiency());
    if !act.is_finite() || !ae.is_finite() {
        return Err(format!(
            "{}: ACT {act} / AE {ae} not finite",
            report.algorithm
        ));
    }
    Ok(())
}

/// The worlds one run cycles through, with each world's reference digest and DSMF outcome,
/// both fixed by the first op that ran on it.
struct Worlds {
    configs: Vec<GridConfig>,
    references: Vec<Option<u64>>,
    sims: Vec<Option<(f64, f64, f64)>>,
}

impl Worlds {
    fn new(name: &str, seed: u64) -> Option<(Worlds, Shape)> {
        let k = worlds_per_run(name);
        let mut shape = Shape::Single;
        let mut configs = Vec::with_capacity(k);
        for i in 0..k as u64 {
            let (config, s) = workload(name, seed.wrapping_mul(k as u64).wrapping_add(i))?;
            configs.push(config);
            shape = s;
        }
        let worlds = Worlds {
            references: vec![None; k],
            sims: vec![None; k],
            configs,
        };
        Some((worlds, shape))
    }

    /// Check an op's reports on world `w`; the first op on a world sets its reference.
    fn check(&mut self, w: usize, result: &OpResult, shape: Shape) -> Result<(), String> {
        for report in &result.reports {
            check_report(report, result.workflows)?;
        }
        let d = digest(&result.reports);
        let reference = *self.references[w].get_or_insert(d);
        if d != reference {
            return Err(format!(
                "world {w}: report digest {d:016x} differs from the reference {reference:016x}"
            ));
        }
        let dsmf = result.dsmf(shape);
        self.sims[w].get_or_insert((
            dsmf.completed as f64 / dsmf.submitted.max(1) as f64,
            dsmf.act_secs() / 3600.0,
            dsmf.average_efficiency(),
        ));
        Ok(())
    }

    fn all_ran(&self) -> bool {
        self.sims.iter().all(Option::is_some)
    }

    /// Mean DSMF outcome over the worlds (exact at a fixed seed: every world contributes
    /// once, however many ops ran on it).
    fn sim(&self) -> (f64, f64, f64) {
        let ran: Vec<(f64, f64, f64)> = self.sims.iter().flatten().copied().collect();
        let n = ran.len() as f64;
        let mean = |f: fn(&(f64, f64, f64)) -> f64| ran.iter().map(f).sum::<f64>() / n;
        (mean(|s| s.0), mean(|s| s.1), mean(|s| s.2))
    }
}

/// Worlds a run cycles through.  Averaging over several worlds drawn from the seed keeps
/// one unusual draw from moving a run's figures; `contended_sweep` varies most per world.
fn worlds_per_run(name: &str) -> usize {
    match name {
        "contended_sweep" => 8,
        "reduced_dsmf" => 3,
        _ => 2,
    }
}

/// Pooled-then-sequential sweeps of world 0 behind `campaign.parallel_efficiency`.
const EFFICIENCY_ROUNDS: usize = 3;

/// Builds of an op's world that follow each untimed op, so `setup_s` is a median over
/// several builds per op.  Small worlds build in milliseconds and get more of them.
fn extra_builds(name: &str) -> usize {
    match name {
        "paper_1000" => 1,
        _ => 4,
    }
}

/// Host time of `n` builds of `config`, s each.
pub fn build_times(config: &GridConfig, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let scenario = Scenario::build(config.clone()).map_err(|e| e.to_string())?;
            let s = ns_since(t0, Instant::now()) as f64 / 1e9;
            drop(std::hint::black_box(scenario));
            Ok(s)
        })
        .collect()
}

/// Run one in-process workload for `--seconds`.
pub fn run(name: &str, run: &Run, env: &mut Env) -> Result<Outcome, String> {
    let (mut worlds, shape) = Worlds::new(name, run.seed).ok_or("unknown workload")?;
    let k = worlds.configs.len();
    let mut out = Outcome::default();

    // Untimed warm-up op: spawns the lazily started pool and fixes world 0's reference.
    let warm = op(&worlds.configs[0], shape)?;
    worlds.check(0, &warm, shape)?;
    let scenario = Scenario::build(worlds.configs[0].clone()).map_err(|e| e.to_string())?;
    env.shards = scenario.simulate_algorithm(Algorithm::Dsmf).shard_count();

    // A traced run alternates untraced and traced ops on the same world, so both halves see
    // the same machine conditions and `trace.overhead_frac` compares like with like.
    let mut tracer = Tracer::new();
    let (mut setup, mut ops, mut work) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ops, mut builds) = (Vec::new(), Vec::new());
    let mut stats = Vec::new();
    let mut sweep0 = None;
    let per_world = if run.trace { 2 } else { 1 };
    let extra = extra_builds(name);
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut i: u64 = 0;
    while Instant::now() < deadline
        || (out.failed == 0 && (!worlds.all_ran() || (run.trace && sweep0.is_none())))
    {
        let w = (i / per_world) as usize % k;
        let config = &worlds.configs[w];
        out.attempted += 1;
        if run.trace && i % 2 == 1 {
            match catch(|| traced_op(config, shape, &mut tracer, i))
                .and_then(|(r, s)| worlds.check(w, &r, shape).map(|()| (r, s)))
            {
                Ok((r, s)) => {
                    traced_ops.push(r.op_ns() as f64 / 1e9);
                    builds.push(r.setup_ns as f64 / 1e6);
                    stats.extend(s);
                    if w == 0 {
                        sweep0 = Some(r);
                    }
                }
                Err(e) => {
                    tracer.close_open();
                    out.fail(e);
                }
            }
        } else {
            match catch(|| Ok((op(config, shape)?, build_times(config, extra)?)))
                .and_then(|(r, b)| worlds.check(w, &r, shape).map(|()| (r, b)))
            {
                Ok((r, more)) => {
                    setup.push(r.setup_ns as f64 / 1e9);
                    setup.extend(more);
                    ops.push(r.op_ns() as f64 / 1e9);
                    work.push(r.work_ns as f64 / 1e9);
                }
                Err(e) => out.fail(e),
            }
        }
        i += 1;
    }
    // A run may end after one op per world, so no percentile above the median is sure to
    // have ten samples beyond it.
    out.set_timings(&setup, &ops, &work, 0);
    let (completed, act_h, ae) = worlds.sim();
    out.set_sim(completed, act_h, ae);
    if !run.trace {
        return Ok(out);
    }

    // The standalone replays, on world 0.
    let mut layer = BTreeMap::new();
    layer.insert("scenario.build_ms", median(&builds));
    insert_replays(&mut layer, &scenario, &mut tracer);

    // Engine, gossip and policy come from the traced DSMF sessions (`Single`) or from a
    // stepped DSMF replay of the sweep's world (`Sweep`), as shares of that session.
    let (windows, base_ms) = match shape {
        Shape::Single => {
            let total = mean_windows(&stats);
            let op_ms: f64 = traced_ops.iter().sum::<f64>() * 1e3;
            (total, op_ms / stats.len().max(1) as f64)
        }
        Shape::Sweep => {
            let pooled = sweep0.ok_or("no traced op completed on world 0")?;
            // Each round times a pooled sweep of world 0 and, right after it, the same jobs
            // one by one, so both halves of an efficiency ratio see the same machine.
            let root = tracer.begin("replay.sequential", REPLAY_OP);
            let (mut job_ms, mut efficiency) = (Vec::new(), Vec::new());
            for _ in 0..EFFICIENCY_ROUNDS {
                let t0 = Instant::now();
                let pooled_again = campaign::run(&jobs(&scenario));
                let pooled_ms = ns_since(t0, Instant::now()) as f64 / 1e6;
                let mut sequential = Vec::new();
                let mut seq_ms = 0.0;
                for job in jobs(&scenario) {
                    let t0 = Instant::now();
                    sequential.push(job.run());
                    let ms = ns_since(t0, Instant::now()) as f64 / 1e6;
                    job_ms.push(ms);
                    seq_ms += ms;
                }
                efficiency.push(seq_ms / (env.pool_threads as f64 * pooled_ms));
                out.attempted += 2;
                if digest(&sequential) != digest(&pooled.reports) {
                    out.fail("the traced op's pooled reports differ from a sequential run".into());
                }
                if digest(&pooled_again) != digest(&pooled.reports) {
                    out.fail("a pooled sweep of world 0 differs from the traced op's".into());
                }
            }
            tracer.end(root);
            layer.insert("campaign.job_ms_p50", median(&job_ms));
            layer.insert("campaign.parallel_efficiency", median(&efficiency));
            let root = tracer.begin("replay.engine", REPLAY_OP);
            let (report, w) = run_windows(&scenario, Algorithm::Dsmf, &mut tracer, REPLAY_OP);
            tracer.end(root);
            if digest(std::slice::from_ref(&report))
                != digest(&pooled.reports[dsmf_index()..=dsmf_index()])
            {
                out.fail("stepped DSMF replay differs from the pooled DSMF report".into());
            }
            let run_ms = w.run_ns as f64 / 1e6;
            (w, run_ms)
        }
    };
    insert_windows(&mut layer, &windows, base_ms);
    layer.insert(
        "trace.overhead_frac",
        median(&traced_ops) / median(&ops) - 1.0,
    );
    out.layers = layer;
    out.tracer = Some(tracer);
    Ok(out)
}

/// Per-op mean of several stepped runs.
fn mean_windows(stats: &[WindowStats]) -> WindowStats {
    let mut total = WindowStats::default();
    for s in stats {
        for (t, x) in [
            (&mut total.scheduling, s.scheduling),
            (&mut total.gossip_only, s.gossip_only),
            (&mut total.plain, s.plain),
        ] {
            t.windows += x.windows;
            t.ns += x.ns;
        }
        let (c, x) = (&mut total.counts, s.counts);
        c.gossip_cycles += x.gossip_cycles;
        c.dispatches += x.dispatches;
        c.starts += x.starts;
        c.finishes += x.finishes;
        c.displacements += x.displacements;
        total.sched_gossip_ns += s.sched_gossip_ns;
        total.phase1_ns += s.phase1_ns;
        total.run_ns += s.run_ns;
    }
    let runs = stats.len().max(1) as u64;
    for t in [
        &mut total.scheduling,
        &mut total.gossip_only,
        &mut total.plain,
    ] {
        t.windows /= runs;
        t.ns /= runs;
    }
    let c = &mut total.counts;
    for x in [
        &mut c.gossip_cycles,
        &mut c.dispatches,
        &mut c.starts,
        &mut c.finishes,
        &mut c.displacements,
    ] {
        *x /= runs;
    }
    total.sched_gossip_ns /= runs;
    total.phase1_ns /= runs;
    total.run_ns /= runs;
    total
}

/// Engine, gossip and policy metrics of one (per-run mean) stepped DSMF session; shares are
/// of `base_ms`, the host time the session's work is compared against.
pub fn insert_windows(layer: &mut BTreeMap<&'static str, f64>, w: &WindowStats, base_ms: f64) {
    let windows = w.windows().max(1) as f64;
    layer.insert("engine.windows", w.windows() as f64);
    layer.insert("engine.plain_window_ms", w.plain.mean_ms());
    layer.insert("engine.events", w.counts.events() as f64);
    layer.insert(
        "engine.events_per_window",
        w.counts.events() as f64 / windows,
    );
    layer.insert("engine.share", w.plain.ns as f64 / 1e6 / base_ms);
    layer.insert("gossip.cycles", w.counts.gossip_cycles as f64);
    layer.insert("gossip.cycle_ms", w.gossip_only.mean_ms());
    layer.insert("gossip.share", w.gossip_ms() / base_ms);
    layer.insert("policy.sched_cycles", w.scheduling.windows as f64);
    layer.insert("policy.phase1_ms", w.phase1_ms());
    layer.insert(
        "policy.share",
        w.scheduling.windows as f64 * w.phase1_ms() / base_ms,
    );
    layer.insert("policy.dispatches", w.counts.dispatches as f64);
    layer.insert("policy.displacements", w.counts.displacements as f64);
}

/// The standalone replays of the layers below an op, on `scenario`: deriving a sibling
/// world, the topology tables, the workflow set and the parts of a gossip cycle.
pub fn insert_replays(
    layer: &mut BTreeMap<&'static str, f64>,
    scenario: &Scenario,
    tracer: &mut Tracer,
) {
    let config = scenario.config();
    let derives: Vec<f64> = (0..5)
        .map(|_| layers::replay_derive(scenario, tracer))
        .collect();
    layer.insert("scenario.derive_ms", median(&derives));
    let topo = layers::replay_topology(config, tracer);
    layer.insert("topology.waxman_ms", topo.waxman_ms);
    layer.insert("topology.pairwise_ms", topo.pairwise_ms);
    layer.insert("topology.landmark_ms", topo.landmark_ms);
    layer.insert("topology.edges", topo.edges as f64);
    let wf = layers::replay_workflows(scenario, tracer);
    layer.insert("workflow.generate_ms", wf.generate_ms);
    layer.insert("workflow.analysis_ms", wf.analysis_ms);
    layer.insert("workflow.tasks", wf.tasks as f64);
    layer.insert("workflow.edges", wf.edges as f64);
    let g = layers::replay_gossip(config, tracer);
    layer.insert("gossip.replay_views_ms", g.views_ms);
    layer.insert("gossip.replay_epidemic_ms", g.epidemic_ms);
    layer.insert("gossip.replay_aggregation_ms", g.aggregation_ms);
    layer.insert("gossip.messages", g.messages);
    layer.insert("gossip.records_sent", g.records_sent);
    layer.insert("gossip.avg_rss", g.avg_rss);
    layer.insert("gossip.rss_change_frac", g.rss_change_frac);
}
