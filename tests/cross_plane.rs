//! Cross-plane equivalence: the TACTIC plane and the baseline planes ride
//! the *same* shared transport, so pass-through mechanisms must agree on
//! the schedule, and transport-level invariants must hold identically on
//! both sides.

use tactic::scenario::Scenario;
use tactic_baselines::net::{run_baseline, BaselineSpec};
use tactic_baselines::Mechanism;
use tactic_net::{harness, NetCounters};
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;

fn scenario() -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(8);
    s
}

#[test]
fn pass_through_mechanisms_share_one_transport_schedule() {
    // NoAccessControl and ClientSideAc are both pass-through at the
    // forwarding layer (same names, same caching, no provider auth), so
    // on the same (topology, seed) the shared transport must produce the
    // identical event total and delivery counts — the mechanisms differ
    // only in what the received bytes *mean*.
    let a = run_baseline(&scenario(), Mechanism::NoAccessControl, 7);
    let b = run_baseline(&scenario(), Mechanism::ClientSideAc, 7);
    assert_eq!(a.events, b.events, "event totals must match");
    assert_eq!(a.client_requested, b.client_requested);
    assert_eq!(a.client_received, b.client_received);
    assert_eq!(a.attacker_requested, b.attacker_requested);
    assert_eq!(a.attacker_received, b.attacker_received);
    assert_eq!(a.attacker_bytes, b.attacker_bytes);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.provider_handled, b.provider_handled);
    assert!(
        a.client_received > 0,
        "the schedule must carry real traffic"
    );
}

#[test]
fn both_planes_uphold_the_transport_invariants() {
    let s = scenario();
    let counters = |_| NetCounters::default();
    let (_tactic, tc, ..) =
        harness::run(&s, 7, 1, counters, |_| NoopProtocolObserver).expect("one shard always fits");
    let baseline = BaselineSpec::new(&s, Mechanism::NoAccessControl);
    let (_baseline, bc, ..) = harness::run(&baseline, 7, 1, counters, |_| NoopProtocolObserver)
        .expect("one shard always fits");
    for (plane, c) in [("tactic", &tc[0]), ("baseline", &bc[0])] {
        assert!(c.delivered > 0, "{plane}: no deliveries observed");
        assert!(
            c.delivered <= c.scheduled,
            "{plane}: delivered {} > scheduled {}",
            c.delivered,
            c.scheduled
        );
        assert_eq!(
            c.dropped(),
            0,
            "{plane}: a static topology must not drop packets"
        );
        assert_eq!(c.handovers, 0, "{plane}: no mobility configured");
        assert!(c.bytes_on_wire > 0, "{plane}: links must carry bytes");
    }
}
