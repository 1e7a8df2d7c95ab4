//! The headline determinism guarantee of the sharded PDES: a K-sharded
//! run is **byte-identical** to the sequential run — same `RunReport`
//! / `BaselineReport` debug dump, same telemetry JSONL export, same
//! transport counters — for K ∈ {2, 4, 8} on both planes.
//!
//! The sequential engine is the specification; the epoch-synchronized
//! shard fleet is the implementation under test.

use tactic::net::{run_scenario, run_scenario_sharded};
use tactic::scenario::Scenario;
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_net::{harness, MobilityConfig, NetCounters};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::ProtocolRecorder;
use tactic_topology::shard::ShardError;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

/// A canonical, ordering-independent dump of [`NetCounters`] (its
/// `link_load` map iterates in hash order, so `{:?}` is not stable).
fn counters_dump(c: &NetCounters) -> String {
    let mut loads: Vec<_> = c
        .link_load
        .iter()
        .map(|(&(a, b), l)| (a, b, l.packets, l.bytes, l.busy))
        .collect();
    loads.sort();
    format!(
        "scheduled={} delivered={} drops={:?} handovers={} bytes={} loads={loads:?}",
        c.scheduled,
        c.delivered,
        c.drops.values(),
        c.handovers,
        c.bytes_on_wire,
    )
}

#[test]
fn tactic_reports_are_byte_identical_across_shard_counts() {
    let scenario = small(10);
    let sequential = format!("{:#?}", run_scenario(&scenario, 42));
    for k in SHARD_COUNTS {
        let (report, stats) =
            run_scenario_sharded(&scenario, 42, k).expect("small topology fits 8 shards");
        assert_eq!(stats.k, k);
        assert_eq!(stats.per_shard_events.len(), k);
        assert_eq!(stats.per_shard_peak_queue.len(), k);
        assert_eq!(
            sequential,
            format!("{report:#?}"),
            "K={k} sharded TACTIC report diverged from sequential"
        );
    }
}

#[test]
fn baseline_reports_are_byte_identical_across_shard_counts() {
    let scenario = small(10);
    for mechanism in [
        Mechanism::NoAccessControl,
        Mechanism::ClientSideAc,
        Mechanism::ProviderAuthAc,
    ] {
        let sequential = format!("{:#?}", run_baseline(&scenario, mechanism, 42));
        for k in SHARD_COUNTS {
            let (report, _) = run_baseline_sharded(&scenario, mechanism, 42, k)
                .expect("small topology fits 8 shards");
            assert_eq!(
                sequential,
                format!("{report:#?}"),
                "K={k} sharded {mechanism:?} report diverged from sequential"
            );
        }
    }
}

#[test]
fn telemetry_and_transport_counters_merge_to_sequential() {
    let scenario = small(10);
    let (seq_report, seq_counters, seq_recorders, _) = harness::run(
        &scenario,
        42,
        1,
        |_| NetCounters::default(),
        |_| ProtocolRecorder::default(),
    )
    .expect("one shard always fits");
    let seq_jsonl = seq_recorders[0].export_registry().to_jsonl();
    let seq_dump = counters_dump(&seq_counters[0]);

    for k in SHARD_COUNTS {
        let (report, counters, recorders, _) = harness::run(
            &scenario,
            42,
            k,
            |_| NetCounters::default(),
            |_| ProtocolRecorder::default(),
        )
        .expect("small topology fits 8 shards");
        assert_eq!(format!("{seq_report:#?}"), format!("{report:#?}"));

        let mut merged_counters = NetCounters::default();
        for c in &counters {
            merged_counters.merge(c);
        }
        assert_eq!(
            seq_dump,
            counters_dump(&merged_counters),
            "K={k} merged transport counters diverged from sequential"
        );

        let mut merged = ProtocolRecorder::default();
        for r in &recorders {
            merged.merge(r);
        }
        assert_eq!(
            seq_jsonl,
            merged.export_registry().to_jsonl(),
            "K={k} merged telemetry export diverged from sequential"
        );
    }
}

#[test]
fn mobility_runs_are_byte_identical_across_shard_counts() {
    let mut scenario = small(10);
    scenario.mobility = Some(MobilityConfig {
        mean_dwell: SimDuration::from_secs(3),
        mobile_fraction: 0.5,
    });
    let sequential = format!("{:#?}", run_scenario(&scenario, 7));
    for k in SHARD_COUNTS {
        let (report, _) =
            run_scenario_sharded(&scenario, 7, k).expect("small topology fits 8 shards");
        assert_eq!(
            sequential,
            format!("{report:#?}"),
            "K={k} sharded mobility run diverged from sequential"
        );
    }
}

#[test]
fn retransmitting_faulty_runs_are_byte_identical_across_shard_counts() {
    use tactic_net::{FaultEvent, FaultKind, LossModel, RetransmitPolicy};
    use tactic_topology::NodeId;
    let mut scenario = small(10);
    scenario.faults.loss = LossModel::Uniform { p: 0.02 };
    scenario.faults.schedule = vec![
        FaultEvent {
            at: SimTime::from_secs(2),
            kind: FaultKind::NodeDown { node: NodeId(3) },
        },
        FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::NodeUp { node: NodeId(3) },
        },
    ];
    scenario.retransmit = Some(RetransmitPolicy::default());
    let sequential = format!("{:#?}", run_scenario(&scenario, 11));
    for k in SHARD_COUNTS {
        let (report, _) =
            run_scenario_sharded(&scenario, 11, k).expect("small topology fits 8 shards");
        assert_eq!(
            sequential,
            format!("{report:#?}"),
            "K={k} sharded faulty run diverged from sequential"
        );
    }
}

/// An attacked-and-defended run: the flood fleet's extra traffic and
/// the send-time defense drops (counted in the transmitting shard) must
/// merge to the sequential transport counters byte for byte, and the
/// token bucket must actually have fired.
#[test]
fn attacked_defended_transport_counters_merge_to_sequential() {
    use tactic::scenario::{AttackClass, AttackPlan};
    let mut scenario = small(8);
    scenario.attack = AttackPlan {
        class: Some(AttackClass::Flood),
        intensity: 500,
    };
    scenario.defense = tactic_experiments::attacks::armed_defense();
    let (seq_report, seq_counters, ..) = harness::run(
        &scenario,
        42,
        1,
        |_| NetCounters::default(),
        |_| ProtocolRecorder::default(),
    )
    .expect("one shard always fits");
    assert!(
        seq_counters[0].drops.rate_limited > 0,
        "flood at 500/s must trip the 150/s token bucket"
    );
    let seq_dump = counters_dump(&seq_counters[0]);

    for k in SHARD_COUNTS {
        let (report, counters, _, _) = harness::run(
            &scenario,
            42,
            k,
            |_| NetCounters::default(),
            |_| ProtocolRecorder::default(),
        )
        .expect("small topology fits 8 shards");
        assert_eq!(format!("{seq_report:#?}"), format!("{report:#?}"));
        let mut merged = NetCounters::default();
        for c in &counters {
            merged.merge(c);
        }
        assert_eq!(
            seq_dump,
            counters_dump(&merged),
            "K={k} merged defense-drop counters diverged from sequential"
        );
    }
}

/// A sharded run reproduces the *checked-in* golden snapshot, not just
/// the in-process sequential dump — the full determinism chain.
#[test]
fn sharded_run_matches_checked_in_golden_snapshot() {
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/tactic_small_seed42.txt");
    let want = std::fs::read_to_string(&golden).expect("golden snapshot present");
    let (report, _) = run_scenario_sharded(&small(5), 42, 4).expect("small topology fits 4 shards");
    assert_eq!(
        want,
        format!("{report:#?}\n"),
        "K=4 sharded run diverged from the checked-in golden snapshot"
    );
}

#[test]
fn one_shard_matches_sequential_and_oversharding_is_rejected() {
    let scenario = small(5);
    let sequential = format!("{:#?}", run_scenario(&scenario, 42));
    let (report, stats) = run_scenario_sharded(&scenario, 42, 1).expect("K=1 always fits");
    assert_eq!(stats.k, 1);
    assert_eq!(sequential, format!("{report:#?}"));

    let routers = scenario.topology.spec().routers();
    match run_scenario_sharded(&scenario, 42, routers + 1) {
        Err(ShardError::TooManyShards { requested, .. }) => {
            assert_eq!(requested, routers + 1)
        }
        other => panic!("expected TooManyShards, got {other:?}"),
    }
}
