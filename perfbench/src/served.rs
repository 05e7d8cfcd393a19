//! The `campaign_served` workload: a smoke-scale campaign through an in-process TCP master.
//!
//! One worker connection and one client connection are both driven from the main thread in a
//! closed loop: the worker pulls its next unit only after completing the previous one.  An op
//! is one run-unit (`Worker::step`).  Both connections go through [`Timed`], a wrapper around
//! the public `Transport` trait that times every request.

use crate::stats::median;
use crate::trace::{Tracer, REPLAY_OP};
use crate::window::run_windows;
use crate::world::{build_times, insert_replays, insert_windows, PLATFORM_SEED};
use crate::{catch, ns_since, Env, Outcome, Run};
use p2pgrid::core::{Algorithm, Scenario};
use p2pgrid::experiments::rununit::{render_result, run_local};
use p2pgrid::experiments::{CampaignSpec, ExperimentScale};
use p2pgrid::server::protocol::JobStatus;
use p2pgrid::server::tcp::{serve, TcpTransport};
use p2pgrid::server::{
    Client, MasterConfig, Request, Response, Step, Transport, TransportError, Worker,
};
use serde::json::Value;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Seeds per campaign; with three algorithms a campaign is 18 units.
const SEEDS: usize = 6;

/// Campaigns a run cycles through.  Together they are 108 units, so one pass reaches
/// [`MIN_UNITS`] and a run has at least six setups and six campaign times.
const CAMPAIGNS: usize = 6;

/// Units a measured phase serves at least, so its p90 has ten samples beyond it.
const MIN_UNITS: usize = 100;

/// The campaigns a run cycles through.  The first seed of each anchors the base world whose
/// topology every unit shares, so it is the fixed [`PLATFORM_SEED`]; `--seed` draws the
/// other worlds on that topology, different ones for every campaign.
pub fn specs(seed: u64) -> Vec<CampaignSpec> {
    let drawn = CAMPAIGNS * (SEEDS - 1);
    let seeds: Vec<u64> = (0..)
        .map(|i| seed.wrapping_mul(drawn as u64).wrapping_add(i))
        .filter(|&s| s != PLATFORM_SEED)
        .take(drawn)
        .collect();
    seeds
        .chunks(SEEDS - 1)
        .map(|chunk| CampaignSpec {
            name: "perfbench".into(),
            scale: ExperimentScale::Smoke,
            seeds: std::iter::once(PLATFORM_SEED)
                .chain(chunk.iter().copied())
                .collect(),
            algorithms: vec![Algorithm::Dsmf, Algorithm::Dheft, Algorithm::MinMin],
            workload: None,
        })
        .collect()
}

/// One timed request.
#[derive(Debug, Clone)]
struct Call {
    kind: &'static str,
    start: Instant,
    end: Instant,
    /// Unit index of an `Assignment` response.
    assigned: Option<usize>,
}

/// What a [`Timed`] transport saw.
#[derive(Debug, Default)]
struct Log {
    calls: Vec<Call>,
    /// Serialized artifact sizes of `Complete` requests (measured only when tracing).
    artifact_bytes: Option<Vec<f64>>,
    /// Host time spent measuring those sizes, ns (subtracted from the unit's own time).
    measuring_ns: u64,
}

type SharedLog = Rc<RefCell<Log>>;

/// A `Transport` that times every call it forwards into a log the caller keeps a handle to
/// (`Client` and `Worker` own their transports).
struct Timed<T> {
    inner: T,
    log: SharedLog,
}

fn timed<T>(inner: T, measure_bytes: bool) -> (Timed<T>, SharedLog) {
    let log = Rc::new(RefCell::new(Log {
        artifact_bytes: measure_bytes.then(Vec::new),
        ..Log::default()
    }));
    let transport = Timed {
        inner,
        log: Rc::clone(&log),
    };
    (transport, log)
}

fn kind(request: &Request) -> &'static str {
    match request {
        Request::Register { .. } => "register",
        Request::Heartbeat { .. } => "heartbeat",
        Request::Pull { .. } => "pull",
        Request::Complete { .. } => "complete",
        Request::FailUnit { .. } => "fail_unit",
        Request::Submit { .. } => "submit",
        Request::Status { .. } => "status",
        Request::Fetch { .. } => "fetch",
        Request::Shutdown => "shutdown",
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn call(&mut self, request: &Request) -> Result<Response, TransportError> {
        if let Request::Complete { artifact, .. } = request {
            let mut log = self.log.borrow_mut();
            let t = Instant::now();
            if let Some(sizes) = &mut log.artifact_bytes {
                sizes.push(artifact.to_string().len() as f64);
                log.measuring_ns += ns_since(t, Instant::now());
            }
        }
        let start = Instant::now();
        let response = self.inner.call(request);
        let end = Instant::now();
        let assigned = match &response {
            Ok(Response::Assignment { unit, .. }) => Some(unit.index),
            _ => None,
        };
        self.log.borrow_mut().calls.push(Call {
            kind: kind(request),
            start,
            end,
            assigned,
        });
        response
    }
}

/// Everything one served campaign measured.
struct Served {
    setup_ns: u64,
    /// Per executed unit: (step host time, step minus its transport calls), ns.
    units: Vec<(u64, u64)>,
    campaign_ns: u64,
    artifact: String,
    worker_calls: Vec<Call>,
    client_calls: Vec<Call>,
    artifact_bytes: Vec<f64>,
}

fn transport_err(e: TransportError) -> String {
    e.to_string()
}

/// Serve one campaign end to end: master start, submit, closed-loop worker, fetch, shutdown.
fn serve_campaign(
    spec: &CampaignSpec,
    tracer: Option<&mut Tracer>,
    first_op: u64,
) -> Result<Served, String> {
    let t_start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Connect before the master starts accepting, so its first accept finds both peers
    // queued instead of polling for them.
    let worker_conn = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let client_conn = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let master = std::thread::spawn(move || serve(listener, MasterConfig::default()));

    let (client_transport, client_log) = timed(client_conn, false);
    let (worker_transport, worker_log) = timed(worker_conn, tracer.is_some());
    let mut client = Client::new(client_transport);
    let mut worker = Worker::new(worker_transport, "perfbench-worker");
    let result = drive(
        spec,
        &mut client,
        &mut worker,
        &worker_log,
        tracer,
        first_op,
        t_start,
    );

    // Stop the master whatever happened: shut it down, close both connections, join it.
    let stop = client.shutdown().map_err(transport_err);
    drop(client);
    drop(worker);
    let joined = master
        .join()
        .map_err(|_| "master thread panicked".to_string())
        .and_then(|r| r.map_err(|e| e.to_string()));
    let (setup_ns, units, campaign_ns, artifact) = result?;
    stop?;
    joined?;
    let worker_log = worker_log.take();
    Ok(Served {
        setup_ns,
        units,
        campaign_ns,
        artifact,
        worker_calls: worker_log.calls,
        client_calls: client_log.take().calls,
        artifact_bytes: worker_log.artifact_bytes.unwrap_or_default(),
    })
}

type Driven = (u64, Vec<(u64, u64)>, u64, String);

fn drive(
    spec: &CampaignSpec,
    client: &mut Client<Timed<TcpTransport>>,
    worker: &mut Worker<Timed<TcpTransport>>,
    worker_log: &SharedLog,
    mut tracer: Option<&mut Tracer>,
    first_op: u64,
    t_start: Instant,
) -> Result<Driven, String> {
    let t_submit = Instant::now();
    let (job, total) = client.submit(spec).map_err(transport_err)?;
    let mut units = Vec::with_capacity(total);
    let mut setup_ns = None;
    loop {
        let id = first_op + units.len() as u64;
        let (calls_before, measuring_before) = {
            let log = worker_log.borrow();
            (log.calls.len(), log.measuring_ns)
        };
        let span = tracer.as_deref_mut().map(|t| t.begin("rununit.step", id));
        let t0 = Instant::now();
        let step = worker.step().map_err(transport_err);
        let t1 = Instant::now();
        let log = worker_log.borrow();
        let new_calls = &log.calls[calls_before..];
        if let Some(t) = tracer.as_deref_mut() {
            for c in new_calls {
                t.record(server_span(c.kind), id, c.start, c.end);
            }
            if let Some(span) = span {
                t.end(span);
            }
        }
        if setup_ns.is_none() {
            if let Some(pull) = new_calls.iter().find(|c| c.kind == "pull") {
                setup_ns = Some(ns_since(t_start, pull.end));
            }
        }
        let in_calls: u64 = new_calls.iter().map(|c| ns_since(c.start, c.end)).sum();
        let measuring = log.measuring_ns - measuring_before;
        drop(log);
        match step? {
            Step::Executed { .. } => {
                let step_ns = ns_since(t0, t1);
                units.push((step_ns, step_ns.saturating_sub(in_calls + measuring)));
            }
            Step::Idle | Step::Stopped => break,
        }
    }
    if units.len() != total {
        return Err(format!(
            "worker went idle after {} of {total} units",
            units.len()
        ));
    }
    let status: JobStatus = client.status(job).map_err(transport_err)?;
    if status.state != "complete" {
        return Err(format!("job is {} after every unit ran", status.state));
    }
    let body: Value = client.fetch(job).map_err(transport_err)?;
    let campaign_ns = ns_since(t_submit, Instant::now());
    let setup_ns = setup_ns.ok_or("the worker never pulled")?;
    Ok((setup_ns, units, campaign_ns, render_result(&body)))
}

fn server_span(kind: &'static str) -> &'static str {
    match kind {
        "pull" => "server.pull",
        "complete" => "server.complete",
        "register" => "server.register",
        _ => "server.other",
    }
}

/// Check every unit artifact's invariants in the merged document and collect the DSMF
/// units' `(completed fraction, ACT h, AE)`.
fn check_units(artifact: &str, spec: &CampaignSpec) -> Result<Vec<(f64, f64, f64)>, String> {
    let doc = serde::json::parse(artifact).map_err(|e| e.to_string())?;
    let units = doc
        .get("units")
        .and_then(Value::as_array)
        .ok_or("merged artifact has no units")?;
    let workflows = spec.base_config().nodes * spec.base_config().workflows_per_node;
    let mut dsmf = Vec::new();
    for unit in units {
        let field = |key: &str| {
            unit.get("summary")
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
                .ok_or(format!("unit summary lacks a numeric `{key}`"))
        };
        let (submitted, completed, failed) =
            (field("submitted")?, field("completed")?, field("failed")?);
        let (act, ae) = (field("act_secs")?, field("average_efficiency")?);
        if submitted != workflows as f64 || completed + failed > submitted {
            return Err(format!(
                "unit submitted {submitted} of {workflows}, completed {completed}, failed {failed}"
            ));
        }
        if !act.is_finite() || !ae.is_finite() {
            return Err(format!("unit ACT {act} / AE {ae} not finite"));
        }
        if unit.get("algorithm").and_then(Value::as_str) == Some(Algorithm::Dsmf.name()) {
            dsmf.push((completed / submitted, act / 3600.0, ae));
        }
    }
    if units.len() != spec.units().len() {
        return Err(format!("merged artifact has {} units", units.len()));
    }
    Ok(dsmf)
}

/// Unit assignments beyond the first for the same unit index.
fn requeues(calls: &[Call]) -> usize {
    let mut seen = BTreeSet::new();
    calls
        .iter()
        .filter_map(|c| c.assigned)
        .filter(|&u| !seen.insert(u))
        .count()
}

fn call_ms(calls: &[Call], kind: &str) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| c.kind == kind)
        .map(|c| ns_since(c.start, c.end) as f64 / 1e6)
        .collect()
}

/// Run `campaign_served` for `--seconds` (and at least [`MIN_UNITS`] units untraced).
pub fn run(run: &Run, env: &mut Env) -> Result<Outcome, String> {
    let specs = specs(run.seed);
    let mut out = Outcome::default();

    // The single-process references every served campaign must reproduce byte for byte.
    let mut references = Vec::with_capacity(specs.len());
    let mut dsmf = Vec::new();
    for spec in &specs {
        let reference = run_local(spec).map_err(|e| e.to_string())?;
        dsmf.extend(check_units(&reference, spec)?);
        references.push(reference);
    }
    let n = dsmf.len() as f64;
    out.set_sim(
        dsmf.iter().map(|d| d.0).sum::<f64>() / n,
        dsmf.iter().map(|d| d.1).sum::<f64>() / n,
        dsmf.iter().map(|d| d.2).sum::<f64>() / n,
    );
    let base = specs[0].base_config();
    let scenario = Scenario::build(base.clone()).map_err(|e| e.to_string())?;
    env.shards = scenario.simulate_algorithm(Algorithm::Dsmf).shard_count();

    // A traced run alternates untraced and traced campaigns, so both see the same machine
    // conditions; an untraced run serves at least `MIN_UNITS` units.
    let mut tracer = Tracer::new();
    let (mut setup, mut ops, mut campaigns) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let enough = |ops: &Vec<f64>, traced: &Vec<Served>| {
        if run.trace {
            !ops.is_empty() && !traced.is_empty()
        } else {
            ops.len() >= MIN_UNITS
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut i: u64 = 0;
    while Instant::now() < deadline || (!enough(&ops, &traced) && out.failed == 0) {
        let trace_this = run.trace && i % 2 == 1;
        let c = i as usize % specs.len();
        let units_per_campaign = specs[c].units().len() as u64;
        let first_op = out.attempted;
        out.attempted += units_per_campaign;
        let served = catch(|| {
            let tracer = if trace_this { Some(&mut tracer) } else { None };
            serve_campaign(&specs[c], tracer, first_op)
        })
        .and_then(|s| verify(s, &references[c]));
        match served {
            Ok(s) if trace_this => traced.push(s),
            Ok(s) => {
                setup.push(s.setup_ns as f64 / 1e9);
                ops.extend(s.units.iter().map(|u| u.0 as f64 / 1e9));
                campaigns.push(s.campaign_ns as f64 / 1e9);
            }
            Err(e) => {
                tracer.close_open();
                out.fail_many(units_per_campaign, e);
            }
        }
        i += 1;
    }
    out.set_timings(&setup, &ops, &campaigns, MIN_UNITS);
    if !run.trace {
        return Ok(out);
    }

    let worker_calls: Vec<Call> = traced.iter().flat_map(|s| s.worker_calls.clone()).collect();
    let client_calls: Vec<Call> = traced.iter().flat_map(|s| s.client_calls.clone()).collect();
    let unit_ms: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.units.iter().map(|u| u.1 as f64 / 1e6))
        .collect();
    let traced_ops: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.units.iter().map(|u| u.0 as f64 / 1e9))
        .collect();
    let bytes: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.artifact_bytes.clone())
        .collect();
    let mut layer = BTreeMap::new();
    layer.insert("rununit.unit_ms_p50", median(&unit_ms));
    layer.insert("rununit.artifact_bytes_p50", median(&bytes));
    layer.insert(
        "server.submit_ms",
        median(&call_ms(&client_calls, "submit")),
    );
    layer.insert(
        "server.pull_ms_p50",
        median(&call_ms(&worker_calls, "pull")),
    );
    layer.insert(
        "server.complete_ms_p50",
        median(&call_ms(&worker_calls, "complete")),
    );
    layer.insert("server.fetch_ms", median(&call_ms(&client_calls, "fetch")));
    layer.insert(
        "server.requests",
        (worker_calls.len() + client_calls.len()) as f64 / traced.len() as f64,
    );
    layer.insert("server.requeues", requeues(&worker_calls) as f64);

    // The layers below the run-unit, replayed on the campaigns' base world.
    let builds: Vec<f64> = build_times(&base, 5)?.iter().map(|s| s * 1e3).collect();
    layer.insert("scenario.build_ms", median(&builds));
    insert_replays(&mut layer, &scenario, &mut tracer);
    let root = tracer.begin("replay.engine", REPLAY_OP);
    let (_, windows) = run_windows(&scenario, Algorithm::Dsmf, &mut tracer, REPLAY_OP);
    tracer.end(root);
    insert_windows(&mut layer, &windows, windows.run_ns as f64 / 1e6);
    layer.insert(
        "trace.overhead_frac",
        median(&traced_ops) / median(&ops) - 1.0,
    );
    out.layers = layer;
    out.tracer = Some(tracer);
    Ok(out)
}

/// A served campaign counts only if its merged artifact is byte-identical to the local run.
fn verify(served: Served, reference: &str) -> Result<Served, String> {
    if served.artifact != reference {
        return Err("served artifact differs from run_local".into());
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_over_the_campaigns_serves_enough_distinct_worlds() {
        let specs = specs(PLATFORM_SEED / (CAMPAIGNS * (SEEDS - 1)) as u64);
        assert_eq!(specs.len(), CAMPAIGNS);
        let units: usize = specs.iter().map(|s| s.units().len()).sum();
        assert!(units >= MIN_UNITS);
        let mut drawn = BTreeSet::new();
        for spec in &specs {
            assert_eq!(spec.seeds.len(), SEEDS);
            assert_eq!(spec.seeds[0], PLATFORM_SEED);
            for &s in &spec.seeds[1..] {
                assert!(
                    s != PLATFORM_SEED && drawn.insert(s),
                    "seed {s} drawn twice"
                );
            }
        }
    }
}
