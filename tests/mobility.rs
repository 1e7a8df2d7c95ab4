//! The mobility extension (§9 future work): mobile clients hand over
//! between access points, re-registering from each new location — the
//! behaviour §4.A prescribes ("a mobile client needs to request a new tag
//! every time she moves").

use tactic::net::run_scenario;
use tactic::scenario::{MobilityConfig, Scenario};
use tactic_sim::time::SimDuration;

fn mobile_scenario(mean_dwell_secs: u64, fraction: f64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(20);
    s.mobility = Some(MobilityConfig {
        mean_dwell: SimDuration::from_secs(mean_dwell_secs),
        mobile_fraction: fraction,
    });
    s
}

#[test]
fn handovers_happen_and_clients_stay_served() {
    let r = run_scenario(&mobile_scenario(4, 1.0), 1);
    assert!(
        r.moves >= 10,
        "expected plenty of handovers, got {}",
        r.moves
    );
    assert!(
        r.delivery.client_ratio() > 0.85,
        "mobile clients must keep retrieving (ratio {})",
        r.delivery.client_ratio()
    );
    assert!(r.delivery.attacker_ratio() < 0.01);
}

#[test]
fn mobility_increases_tag_traffic() {
    let static_run = run_scenario(
        &{
            let mut s = Scenario::small();
            s.duration = SimDuration::from_secs(20);
            s
        },
        2,
    );
    let mobile_run = run_scenario(&mobile_scenario(3, 1.0), 2);
    assert_eq!(static_run.moves, 0);
    assert!(
        mobile_run.tag_requests > static_run.tag_requests,
        "each handover forces re-registrations: mobile {} vs static {}",
        mobile_run.tag_requests,
        static_run.tag_requests
    );
}

#[test]
fn per_consumer_move_counts_are_reported() {
    let r = run_scenario(&mobile_scenario(4, 0.5), 3);
    let total_consumer_moves: u64 = r.consumers.iter().map(|(_, s)| s.moves).sum();
    assert_eq!(
        total_consumer_moves, r.moves,
        "network and consumer move counts agree"
    );
    // Only the mobile fraction moves.
    let movers = r.consumers.iter().filter(|(_, s)| s.moves > 0).count();
    assert!(
        (1..=3).contains(&movers),
        "roughly half of 6 clients move, got {movers}"
    );
}

#[test]
fn mobility_with_access_path_enforcement_still_works() {
    // The hard case: AP checks on. After each move the old tag's frozen
    // path mismatches the new location, so the client MUST re-register —
    // and does, because handover drops its tags.
    let mut s = mobile_scenario(5, 1.0);
    s.access_path_enabled = true;
    let r = run_scenario(&s, 4);
    assert!(r.moves >= 5);
    assert!(
        r.delivery.client_ratio() > 0.8,
        "post-handover re-registration must restore access (ratio {})",
        r.delivery.client_ratio()
    );
}

#[test]
fn longer_dwell_means_fewer_moves() {
    let fast = run_scenario(&mobile_scenario(2, 1.0), 5);
    let slow = run_scenario(&mobile_scenario(50, 1.0), 5);
    assert!(
        fast.moves > slow.moves * 2,
        "dwell 2 s: {} moves vs dwell 50 s: {}",
        fast.moves,
        slow.moves
    );
}
