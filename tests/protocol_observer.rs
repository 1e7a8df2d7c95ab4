//! Protocol-observer neutrality: attaching a recording
//! [`ProtocolRecorder`] must not perturb a single simulation byte.
//!
//! The observer contract (see DESIGN.md §Telemetry) is that hooks receive
//! references only, never draw from the simulation RNG, and never feed
//! back into protocol state. These tests enforce it end to end: the same
//! (scenario, seed) run with the default no-op observer and with a full
//! recorder must produce byte-identical `RunReport`s on both planes —
//! while the recorder itself comes back non-trivially populated, proving
//! the hooks actually fired.

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
