//! Protocol-observer neutrality: attaching a recording
//! [`ProtocolRecorder`] must not perturb a single simulation byte.
//!
//! The observer contract (the `tactic_telemetry` crate docs, "Determinism
//! contract") is that hooks receive references only, never draw from the
//! simulation RNG, and never feed back into protocol state. These tests
//! enforce it end to end: the same (scenario, seed) run with the default
//! no-op observer and with a full recorder must produce byte-identical
//! `RunReport`s on both planes — while the recorder itself comes back
//! non-trivially populated, proving the hooks actually fired.

use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::{run_baseline, BaselineSpec};
use tactic_net::{harness, NoopObserver};
use tactic_sim::time::SimDuration;
use tactic_telemetry::ProtocolRecorder;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

#[test]
fn recording_observer_leaves_tactic_plane_byte_identical() {
    let scenario = small(5);
    let plain = run_scenario(&scenario, 42);
    let (recorded, _, mut recorders, _) = harness::run(
        &scenario,
        42,
        1,
        |_| NoopObserver,
        |_| ProtocolRecorder::default(),
    )
    .expect("one shard always fits");
    let recorder = recorders.remove(0);
    assert_eq!(
        format!("{plain:#?}"),
        format!("{recorded:#?}"),
        "ProtocolRecorder must not perturb the tactic plane"
    );
    let registry = recorder.export_registry();
    assert!(
        registry.counter_prefix_sum("tactic.bf_lookup.") > 0,
        "recorder saw no BF lookups — hooks not wired?"
    );
    assert!(
        registry.counter("tactic.lifecycle.completed.data") > 0,
        "recorder saw no completed retrievals"
    );
}

#[test]
fn recording_observer_leaves_baseline_planes_byte_identical() {
    let scenario = small(5);
    for mechanism in Mechanism::ALL {
        let plain = run_baseline(&scenario, mechanism, 42);
        let spec = BaselineSpec::new(&scenario, mechanism);
        let (recorded, _, mut recorders, _) = harness::run(
            &spec,
            42,
            1,
            |_| NoopObserver,
            |_| ProtocolRecorder::default(),
        )
        .expect("one shard always fits");
        let recorder = recorders.remove(0);
        assert_eq!(
            format!("{plain:#?}"),
            format!("{recorded:#?}"),
            "ProtocolRecorder must not perturb the {mechanism} baseline"
        );
        let registry = recorder.export_registry();
        assert!(
            registry.counter("tactic.lifecycle.completed.data") > 0,
            "{mechanism}: recorder saw no completed retrievals"
        );
    }
}

/// What the recorder sees, pinned: a digest of the exported registry's
/// JSONL for `Scenario::small()` at seed 42, on the TACTIC plane and on
/// every baseline. The hooks fire from the plane harness and from each
/// plane's node logic; moving one between them (a retrieval reported at
/// a user, say) must neither drop nor double a single observation. The
/// TACTIC digest moved twice on purpose: when a content-store hit came to
/// run both pre-check halves and an untagged aggregated requester to be
/// reported as a missing tag, as every other refusal of one is; then when
/// an edge router's hit for its own client stopped repeating the edge
/// half its Interest had just passed (`tactic.precheck.edge.edge.accept`
/// 34 713 → 17 755, no other counter moved).
#[test]
fn recorded_registries_are_pinned() {
    use tactic_crypto::hash::Hasher64;

    fn digest(mut recorders: Vec<ProtocolRecorder>) -> u64 {
        let mut h = Hasher64::new();
        h.update(recorders.remove(0).export_registry().to_jsonl().as_bytes());
        h.finish()
    }
    let scenario = Scenario::small();
    let record = |_| ProtocolRecorder::default();
    let (_, _, recorders, _) =
        harness::run(&scenario, 42, 1, |_| NoopObserver, record).expect("one shard always fits");
    let mut seen = vec![("tactic".to_string(), digest(recorders))];
    for mechanism in Mechanism::ALL {
        let spec = BaselineSpec::new(&scenario, mechanism);
        let (_, _, recorders, _) =
            harness::run(&spec, 42, 1, |_| NoopObserver, record).expect("one shard always fits");
        seen.push((mechanism.to_string(), digest(recorders)));
    }
    let seen: Vec<(&str, u64)> = seen.iter().map(|(m, d)| (m.as_str(), *d)).collect();
    assert_eq!(
        seen,
        [
            ("tactic", 0x40E9_9B95_6C75_D06C),
            ("no-access-control", 0x6778_66AA_527B_CAFE),
            ("client-side-ac", 0x6778_66AA_527B_CAFE),
            ("provider-auth-ac", 0x70E3_2365_6F39_08F2),
        ]
    );
}
