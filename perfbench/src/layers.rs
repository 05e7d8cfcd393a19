//! Standalone replays of the layers a world build and a gossip cycle are made of, driven
//! through each crate's public API at a workload's size and configuration.
//!
//! Each replay runs under its own root span ([`REPLAY_OP`]), so it never inflates an op.

use crate::trace::{Tracer, REPLAY_OP};
use p2pgrid::core::{GridConfig, Scenario, StreamKind};
use p2pgrid::gossip::aggregation::AggregationConfig;
use p2pgrid::gossip::epidemic::{EpidemicConfig, LocalAdvertisement};
use p2pgrid::gossip::{
    default_fanout, AggregationGossip, EpidemicGossip, NewscastView, NodeStateRecord,
};
use p2pgrid::sim::{SimDuration, SimRng, SimTime};
use p2pgrid::topology::{LandmarkEstimator, PairwiseMetrics, WaxmanGenerator};
use p2pgrid::workflow::{WorkflowAnalysis, WorkflowGenerator};
use std::hint::black_box;
use std::time::Instant;

/// The RNG stream `Scenario::build` draws `kind` from.
fn stream(config: &GridConfig, kind: StreamKind) -> SimRng {
    SimRng::seed_from_u64(config.stream_seed(kind)).derive(kind.label())
}

fn timed<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    tracer.record(name, REPLAY_OP, t0, t1);
    (out, (t1 - t0).as_secs_f64() * 1e3)
}

/// The topology tables of one world build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyReplay {
    /// Waxman graph generation, ms.
    pub waxman_ms: f64,
    /// All-pairs bottleneck bandwidth and latency (`PairwiseMetrics::compute`), ms.
    pub pairwise_ms: f64,
    /// Landmark selection and estimates, ms.
    pub landmark_ms: f64,
    /// Edges of the generated graph.
    pub edges: usize,
}

/// Rebuild `config`'s topology tables from the same streams `Scenario::build` uses.
pub fn replay_topology(config: &GridConfig, tracer: &mut Tracer) -> TopologyReplay {
    let root = tracer.begin("replay.topology", REPLAY_OP);
    let mut topo_rng = stream(config, StreamKind::Topology);
    let (topology, waxman_ms) = timed(tracer, "topology.waxman", || {
        WaxmanGenerator::new(config.waxman).generate(&mut topo_rng)
    });
    let (metrics, pairwise_ms) = timed(tracer, "topology.pairwise", || {
        PairwiseMetrics::compute(&topology)
    });
    let mut landmark_rng = stream(config, StreamKind::Landmarks);
    let (landmarks, landmark_ms) = timed(tracer, "topology.landmark", || {
        LandmarkEstimator::build_default(&metrics, &mut landmark_rng)
    });
    black_box(landmarks);
    tracer.end(root);
    TopologyReplay {
        waxman_ms,
        pairwise_ms,
        landmark_ms,
        edges: topology.edge_count(),
    }
}

/// The workflow set of one world build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowReplay {
    /// Generating every DAG, ms.
    pub generate_ms: f64,
    /// `WorkflowAnalysis` of every DAG against the world's true costs, ms.
    pub analysis_ms: f64,
    /// Tasks over all DAGs.
    pub tasks: usize,
    /// Dependency edges over all DAGs.
    pub edges: usize,
}

/// Regenerate and analyse `scenario`'s synthetic workflow set (one batch per home node).
pub fn replay_workflows(scenario: &Scenario, tracer: &mut Tracer) -> WorkflowReplay {
    let config = scenario.config();
    let generator = WorkflowGenerator::new(
        config
            .workload
            .generator()
            .expect("benchmark workloads use the synthetic generator")
            .clone(),
    );
    let root = tracer.begin("replay.workflow", REPLAY_OP);
    let mut rng = stream(config, StreamKind::Workflows);
    let count = scenario.workflow_count();
    let (workflows, generate_ms) = timed(tracer, "workflow.generate", || {
        (0..count)
            .map(|_| generator.generate(&mut rng))
            .collect::<Vec<_>>()
    });
    let costs = scenario.expected_costs();
    let ((), analysis_ms) = timed(tracer, "workflow.analysis", || {
        for w in &workflows {
            black_box(WorkflowAnalysis::new(w, costs));
        }
    });
    tracer.end(root);
    WorkflowReplay {
        generate_ms,
        analysis_ms,
        tasks: workflows.iter().map(|w| w.task_count()).sum(),
        edges: workflows.iter().map(|w| w.edge_count()).sum(),
    }
}

/// Means per measured gossip cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipReplay {
    /// Newscast view exchanges, ms per cycle.
    pub views_ms: f64,
    /// Epidemic push cycle, ms per cycle.
    pub epidemic_ms: f64,
    /// Both aggregation instances, ms per cycle.
    pub aggregation_ms: f64,
    /// Epidemic push messages per cycle.
    pub messages: f64,
    /// Records carried by those messages per cycle.
    pub records_sent: f64,
    /// Received records that changed some node's RSS (own-record refreshes excluded), per
    /// record sent.
    pub rss_change_frac: f64,
    /// Mean RSS size after the last cycle.
    pub avg_rss: f64,
}

/// Cycles run before measuring, so every RSS has filled up.
const WARM_CYCLES: usize = 4;
/// Cycles measured.
const MEASURED_CYCLES: usize = 8;

/// Run the three parts of a mixed-gossip cycle separately at `config`'s size and gossip
/// parameters, sized and bootstrapped exactly as `MixedGossip::new` does and fed what
/// `MixedGossip::run_cycle` is fed: every node's slots and capacity.  Local loads and
/// landmark bandwidths are drawn at random instead of simulated, the loads afresh every
/// cycle, as a busy grid's would change.  The replay mirrors `MixedGossip` as it is; a
/// change to how a gossip cycle is composed must change this replay with it.
pub fn replay_gossip(config: &GridConfig, tracer: &mut Tracer) -> GossipReplay {
    let n = config.nodes;
    let g = config.gossip;
    let fanout = g.fanout.unwrap_or_else(|| default_fanout(n));
    let view_size = g
        .view_size
        .unwrap_or_else(|| (2 * default_fanout(n)).max(4));
    let rss_capacity = g
        .rss_capacity
        .unwrap_or_else(|| (4 * default_fanout(n)).max(8));

    let mut rng = stream(config, StreamKind::Gossip);
    let all: Vec<usize> = (0..n).collect();
    let mut views: Vec<NewscastView> = (0..n).map(|i| NewscastView::new(i, view_size)).collect();
    for (i, view) in views.iter_mut().enumerate() {
        for &p in rng.choose_multiple(&all, view_size.min(n.saturating_sub(1)) + 1) {
            if p != i {
                view.insert(p, SimTime::ZERO);
            }
        }
    }
    let mut epidemic = EpidemicGossip::new(
        n,
        EpidemicConfig {
            fanout,
            ttl: g.ttl,
            rss_capacity,
            staleness_limit: g.staleness_limit,
        },
    );
    let agg = AggregationConfig {
        restart_every: g.aggregation_restart_every,
    };
    let mut agg_capacity = AggregationGossip::new(n, agg);
    let mut agg_bandwidth = AggregationGossip::new(n, agg);

    let mut local_rng = SimRng::seed_from_u64(config.seed).derive("perfbench-gossip-local");
    // Per-slot capacities and slot counts from the streams `Scenario::build` draws them
    // from.  A node advertises all its slots combined and feeds its per-slot rate into the
    // capacity average, as the engine's gossip cycle does.
    let mut cap_rng = stream(config, StreamKind::Capacity);
    let mut slot_rng = stream(config, StreamKind::Slots);
    let nodes: Vec<(f64, usize)> = (0..n)
        .map(|_| {
            let slots = config.resource.slots.sample(&mut slot_rng);
            (config.capacity.sample(&mut cap_rng), slots)
        })
        .collect();
    let bws: Vec<Option<f64>> = (0..n)
        .map(|_| Some(local_rng.gen_range(10.0..100.0)))
        .collect();
    let cap_est: Vec<Option<f64>> = nodes.iter().map(|&(c, _)| Some(c)).collect();

    let root = tracer.begin("replay.gossip", REPLAY_OP);
    let (mut views_ms, mut epidemic_ms, mut aggregation_ms) = (0.0, 0.0, 0.0);
    let (mut messages, mut records, mut changed) = (0u64, 0u64, 0u64);
    for cycle in 0..WARM_CYCLES + MEASURED_CYCLES {
        let now = SimTime::ZERO + SimDuration::from_mins(5 * cycle as u64);
        let adverts: Vec<Option<LocalAdvertisement>> = nodes
            .iter()
            .map(|&(per_slot_mips, slots)| {
                Some(LocalAdvertisement {
                    capacity_mips: per_slot_mips * slots as f64,
                    slots,
                    total_load_mi: local_rng.gen_range(0.0..20_000.0),
                })
            })
            .collect();
        let ((), v_ms) = timed(tracer, "gossip.views", || {
            for i in 0..n {
                let Some(p) = views[i].random_peer(&mut rng).filter(|&p| p != i) else {
                    continue;
                };
                let (a, b) = if i < p {
                    let (lo, hi) = views.split_at_mut(p);
                    (&mut lo[i], &mut hi[0])
                } else {
                    let (lo, hi) = views.split_at_mut(i);
                    (&mut hi[0], &mut lo[p])
                };
                NewscastView::exchange(a, b, now);
            }
        });
        let before: Vec<Vec<NodeStateRecord>> =
            (0..n).map(|i| epidemic.rss(i).records_sorted()).collect();
        let (sent_before, msgs_before) = (epidemic.records_sent(), epidemic.messages_sent());
        let mut cycle_rng = rng.derive_indexed("epidemic", cycle as u64);
        let ((), e_ms) = timed(tracer, "gossip.epidemic", || {
            epidemic.run_cycle(now, &adverts, &views, &mut cycle_rng)
        });
        let mut agg_rng = rng.derive_indexed("aggregation", cycle as u64);
        let ((), a_ms) = timed(tracer, "gossip.aggregation", || {
            agg_capacity.run_cycle(&cap_est, &views, &mut agg_rng);
            agg_bandwidth.run_cycle(&bws, &views, &mut agg_rng);
        });
        if cycle >= WARM_CYCLES {
            views_ms += v_ms;
            epidemic_ms += e_ms;
            aggregation_ms += a_ms;
            messages += epidemic.messages_sent() - msgs_before;
            records += epidemic.records_sent() - sent_before;
            changed += (0..n)
                .map(|i| {
                    let after = epidemic.rss(i).records_sorted();
                    after
                        .iter()
                        .filter(|r| r.node != i && !before[i].contains(r))
                        .count() as u64
                })
                .sum::<u64>();
        }
    }
    tracer.end(root);
    let cycles = MEASURED_CYCLES as f64;
    GossipReplay {
        views_ms: views_ms / cycles,
        epidemic_ms: epidemic_ms / cycles,
        aggregation_ms: aggregation_ms / cycles,
        messages: messages as f64 / cycles,
        records_sent: records as f64 / cycles,
        rss_change_frac: changed as f64 / records.max(1) as f64,
        avg_rss: (0..n).map(|i| epidemic.rss(i).len() as f64).sum::<f64>() / n.max(1) as f64,
    }
}

/// Host time of deriving a sibling world (`Scenario::with_seed`), ms.
pub fn replay_derive(scenario: &Scenario, tracer: &mut Tracer) -> f64 {
    let seed = scenario.config().seed ^ 0x5eed;
    let (derived, ms) = timed(tracer, "scenario.derive", || scenario.with_seed(seed));
    black_box(derived.expect("a derived seed of a valid world is valid"));
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_match_the_world_they_mirror() {
        let config = GridConfig::small(16).with_seed(9);
        let scenario = Scenario::build(config.clone()).unwrap();
        let mut tracer = Tracer::new();
        let topo = replay_topology(&config, &mut tracer);
        assert!(topo.edges >= 15, "a connected 16-node graph has ≥ 15 edges");
        let wf = replay_workflows(&scenario, &mut tracer);
        assert!(wf.tasks >= scenario.workflow_count());
        let gossip = replay_gossip(&config, &mut tracer);
        assert!(gossip.messages > 0.0 && gossip.records_sent >= gossip.messages);
        assert!(gossip.rss_change_frac > 0.0 && gossip.rss_change_frac <= 1.0);
        assert!(replay_derive(&scenario, &mut tracer) >= 0.0);
        assert!(tracer.spans().iter().all(|s| s.op == REPLAY_OP));
        let roots = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 4, "three replay roots plus the derive span");
    }
}
