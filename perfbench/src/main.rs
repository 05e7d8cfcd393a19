//! The p2pgrid benchmark: one command, four workloads, end-to-end metrics with tracing off
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records the environment.  Spans of a traced
//! run are written to `perfbench/traces/<workload>-<seed>.json`.  See `README.md`.

mod layers;
mod served;
mod stats;
mod trace;
mod window;
mod world;

use p2pgrid::core::SimulationReport;
use stats::{median, quantile, tail_percentile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "reduced_dsmf",
    "paper_1000",
    "contended_sweep",
    "campaign_served",
];

/// End-to-end metrics and their units (tracing off).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_s_p90", "s"),
    ("campaign_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("sim_completed_frac", "ratio"),
    ("sim_act_h", "sim_h"),
    ("sim_ae", "ratio"),
];

/// Per-layer metrics and their units (traced run).  A workload that does not reach a layer
/// reports `0` for it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("topology.waxman_ms", "ms"),
    ("topology.pairwise_ms", "ms"),
    ("topology.landmark_ms", "ms"),
    ("topology.edges", "count"),
    ("workflow.generate_ms", "ms"),
    ("workflow.analysis_ms", "ms"),
    ("workflow.tasks", "count"),
    ("workflow.edges", "count"),
    ("scenario.build_ms", "ms"),
    ("scenario.derive_ms", "ms"),
    ("engine.windows", "count"),
    ("engine.plain_window_ms", "ms"),
    ("engine.events", "count"),
    ("engine.events_per_window", "ratio"),
    ("engine.share", "ratio"),
    ("gossip.cycles", "count"),
    ("gossip.cycle_ms", "ms"),
    ("gossip.share", "ratio"),
    ("gossip.replay_views_ms", "ms"),
    ("gossip.replay_epidemic_ms", "ms"),
    ("gossip.replay_aggregation_ms", "ms"),
    ("gossip.messages", "count"),
    ("gossip.records_sent", "count"),
    ("gossip.avg_rss", "count"),
    ("gossip.rss_change_frac", "ratio"),
    ("policy.sched_cycles", "count"),
    ("policy.phase1_ms", "ms"),
    ("policy.share", "ratio"),
    ("policy.dispatches", "count"),
    ("policy.displacements", "count"),
    ("campaign.job_ms_p50", "ms"),
    ("campaign.parallel_efficiency", "ratio"),
    ("rununit.unit_ms_p50", "ms"),
    ("rununit.artifact_bytes_p50", "bytes"),
    ("server.submit_ms", "ms"),
    ("server.pull_ms_p50", "ms"),
    ("server.complete_ms_p50", "ms"),
    ("server.fetch_ms", "ms"),
    ("server.requests", "count"),
    ("server.requeues", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// One invocation's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "unknown --workload `{}` (accepted: {})",
            run.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

/// The environment a result was measured in.
#[derive(Debug, Clone, Default)]
pub struct Env {
    pub nproc: usize,
    pub pool_threads: usize,
    pub shards: usize,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub samples: usize,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Count one failed op.
    pub fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    /// Count `n` failed ops with one reason.
    pub fn fail_many(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 10 {
            self.problems.push(why);
        }
    }

    /// The `sim_*` metrics of the op's DSMF run.
    pub fn set_sim(&mut self, completed_frac: f64, act_h: f64, ae: f64) {
        self.e2e.insert("sim_completed_frac", completed_frac);
        self.e2e.insert("sim_act_h", act_h);
        self.e2e.insert("sim_ae", ae);
    }

    /// Host-time metrics from per-setup, per-op and per-submission samples, in seconds.
    /// Every run of the workload measures at least `guaranteed` ops.
    pub fn set_timings(
        &mut self,
        setup: &[f64],
        ops: &[f64],
        campaigns: &[f64],
        guaranteed: usize,
    ) {
        self.samples = ops.len();
        self.e2e.insert("setup_s", median(setup));
        self.e2e.insert("op_s", median(ops));
        self.e2e.insert("op_s_p90", tail_p90(ops, guaranteed));
        self.e2e.insert("campaign_s", median(campaigns));
    }
}

/// The p90 of `samples` when every run has at least ten samples beyond it, that is when at
/// least `guaranteed` ≥ 100 samples are; otherwise the highest percentile with ten of
/// `guaranteed` samples beyond it, or the median when none has.  The percentile follows the
/// count a run is sure to reach, not the count it happened to reach, so a faster program,
/// which fits more ops into a run, is not read at a higher percentile.
pub fn tail_p90(samples: &[f64], guaranteed: usize) -> f64 {
    let n = guaranteed.min(samples.len());
    let p = tail_percentile(n).map_or(50.0, |p| p.min(90.0));
    quantile(samples, p / 100.0)
}

/// Run `f`, turning a panic into an error.
pub fn catch<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {why}"))
    })
}

/// Nanoseconds from `a` to `b`.
pub fn ns_since(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// FNV-1a digest of the reports' full debug rendering (every field, every float digit).
pub fn digest(reports: &[SimulationReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{reports:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Process high-water resident memory, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The commit being measured (`git rev-parse HEAD`), or `"unknown"` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

fn json_str(s: &str) -> String {
    serde::json::Value::from(s).to_string()
}

/// Finite numbers as JSON; anything else as `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pin the pool to the machine's width before anything spawns it.
    std::env::set_var("P2PGRID_POOL_THREADS", nproc.to_string());
    std::env::remove_var("P2PGRID_SHARDS");
    let mut env = Env {
        nproc,
        pool_threads: rayon::current_num_threads(),
        shards: 0,
    };

    let started = Instant::now();
    let result = catch(|| match run.workload.as_str() {
        "campaign_served" => served::run(&run, &mut env),
        name => world::run(name, &run, &mut env),
    });
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak = match peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if out.attempted == 0 {
        eprintln!("perfbench: no op ran within --seconds {}", run.seconds);
        return ExitCode::FAILURE;
    }
    out.e2e.insert("peak_rss_mb", peak);
    out.e2e
        .insert("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    for p in &out.problems {
        eprintln!("perfbench: failed op: {p}");
    }

    if let Some(tracer) = &out.tracer {
        out.layers
            .insert("trace.spans", tracer.spans().len() as f64);
        let dir = std::path::Path::new("perfbench/traces");
        let path = dir.join(format!("{}-{}.json", run.workload, run.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let values = if run.trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.failed == 0 && metrics.iter().all(|m| !m.contains("null"));

    println!(
        "{{\"env\":{{\"commit\":{},\"rustc\":{},\"nproc\":{},\"pool_threads\":{},\"shards\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"op_samples\":{},\"wall_s\":{}}}}}",
        json_str(&commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        env.nproc,
        env.pool_threads,
        env.shards,
        json_str(&run.workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        out.samples,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let run = parse_args(&args(
            "--workload paper_1000 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, "paper_1000");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 12.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload paper_1000 --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_1000 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload paper_1000 --seed")).is_err());
    }

    #[test]
    fn tail_p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((tail_p90(&xs, 100) - quantile(&xs, 0.9)).abs() < 1e-12);
        assert!((tail_p90(&xs, 40) - quantile(&xs, 0.75)).abs() < 1e-12);
        assert_eq!(tail_p90(&xs, 0), median(&xs));
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        assert!((tail_p90(&few, 100) - quantile(&few, 0.75)).abs() < 1e-12);
        let three = [3.0, 1.0, 2.0];
        assert_eq!(tail_p90(&three, 100), 2.0);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde::json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(serde::json::Value::as_str).unwrap();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(serde::json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(serde::json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
