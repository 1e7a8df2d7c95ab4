//! Partition-owned shards, proven rather than assumed: each shard builds
//! only the nodes it owns, so whatever one node's construction does to
//! another's — and every sweep that used to walk a full replica — must
//! come out exactly as in the one-shard run.
//!
//! * **Build couplings.** Providers sign the tags some attackers start
//!   with and count every tag they issue; with the holder in one shard
//!   and the provider in another, both halves must still happen. Checked
//!   for every [`AttackerStrategy`] and every traffic [`AttackClass`], at
//!   a zero horizon (the build alone) and after five simulated seconds.
//! * **Sweeps over owned nodes.** A crash, a link cut and a recovery
//!   reroute every shard's own routers while clients roam and the
//!   sampler ticks: report and time series at K = 4 are K = 1's, on both
//!   planes.
//!
//! (That every node is *constructed* exactly once is counted on the toy
//! plane of `tests/plane_harness.rs`.)

use tactic::consumer::AttackerStrategy;
use tactic::net::{run_scenario, run_scenario_sharded};
use tactic::scenario::{AttackClass, AttackPlan, Scenario};
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_net::{FaultEvent, FaultKind, MobilityConfig};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::timeseries_to_jsonl;
use tactic_topology::graph::{LinkId, Role};
use tactic_topology::paper::{PaperTopology, TopologyChoice};
use tactic_topology::roles::TopologySpec;

/// Enough attackers for two of every strategy, spread over four edge
/// routers so that at K = 4 holders and providers do land in different
/// shards.
fn coupled(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: 12,
        edge_routers: 4,
        providers: 3,
        clients: 12,
        attackers: 10,
    });
    s.duration = SimDuration::from_secs(secs);
    s.attacker_mix = vec![
        AttackerStrategy::NoTag,
        AttackerStrategy::FakeTag,
        AttackerStrategy::ExpiredTag,
        AttackerStrategy::InsufficientLevel,
        AttackerStrategy::SharedTag,
    ];
    s
}

fn assert_same_at_every_shard_count(scenario: &Scenario, what: &str) {
    let sequential = run_scenario(scenario, 5);
    let reference = format!("{sequential:#?}");
    for k in [1, 2, 4] {
        let (report, _) = run_scenario_sharded(scenario, 5, k).expect("sixteen routers fit");
        assert_eq!(
            sequential.providers.tags_issued, report.providers.tags_issued,
            "{what}, K={k}: a provider in one shard lost count of tags held in another"
        );
        assert_eq!(reference, format!("{report:#?}"), "{what}, K={k}");
    }
}

#[test]
fn preset_tags_are_issued_across_shard_boundaries() {
    for secs in [0, 5] {
        let scenario = coupled(secs);
        let report = run_scenario(&scenario, 5);
        // Two ExpiredTag and two SharedTag attackers, three providers.
        assert!(report.providers.tags_issued >= 12, "{report:#?}");
        assert_same_at_every_shard_count(&scenario, &format!("every strategy, {secs} s"));
    }
}

#[test]
fn fleet_credentials_are_issued_across_shard_boundaries() {
    for class in [
        AttackClass::Flood,
        AttackClass::ReplayExpired,
        AttackClass::BfPollution,
        AttackClass::ForgeTags,
    ] {
        for secs in [0, 5] {
            let mut scenario = coupled(secs);
            scenario.attack = AttackPlan {
                class: Some(class),
                intensity: 200,
            };
            assert_same_at_every_shard_count(&scenario, &format!("{class:?} fleet, {secs} s"));
        }
    }
}

#[test]
fn faults_reroute_and_samples_sum_over_owned_nodes_only() {
    const SEED: u64 = 3;
    let topo = PaperTopology::Topo1.build(SEED);
    let trunk = (0..topo.graph.link_count())
        .map(|i| topo.graph.link(LinkId::from_index(i)))
        .find(|l| [l.a, l.b].map(|n| topo.graph.role(n)) == [Role::CoreRouter; 2])
        .expect("the core is connected");
    let edge = topo.edge_routers[0];
    let at = |secs, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        kind,
    };

    let mut scenario = Scenario::paper(PaperTopology::Topo1);
    scenario.duration = SimDuration::from_secs(6);
    scenario.objects_per_provider = 10;
    scenario.chunks_per_object = 10;
    scenario.sample_every = Some(SimDuration::from_millis(500));
    scenario.mobility = Some(MobilityConfig {
        mean_dwell: SimDuration::from_secs(2),
        mobile_fraction: 0.5,
    });
    scenario.faults.schedule = vec![
        at(1, FaultKind::NodeDown { node: edge }),
        at(
            2,
            FaultKind::LinkDown {
                a: trunk.a,
                b: trunk.b,
            },
        ),
        at(4, FaultKind::NodeUp { node: edge }),
    ];

    let sequential = run_scenario(&scenario, SEED);
    assert!(sequential.moves > 0 && sequential.drops.node_down > 0);
    let (sharded, _) = run_scenario_sharded(&scenario, SEED, 4).expect("Topo1 fits");
    assert_eq!(format!("{sequential:#?}"), format!("{sharded:#?}"));
    assert_eq!(sequential.samples.len(), 12);
    assert_eq!(
        timeseries_to_jsonl("tactic", &sequential.samples),
        timeseries_to_jsonl("tactic", &sharded.samples),
    );

    let mechanism = Mechanism::ClientSideAc;
    let sequential = run_baseline(&scenario, mechanism, SEED);
    assert!(sequential.drops.node_down > 0);
    let (sharded, _) = run_baseline_sharded(&scenario, mechanism, SEED, 4).expect("Topo1 fits");
    assert_eq!(format!("{sequential:#?}"), format!("{sharded:#?}"));
    assert_eq!(
        timeseries_to_jsonl("client-side-ac", &sequential.samples),
        timeseries_to_jsonl("client-side-ac", &sharded.samples),
    );
}
