//! Cross-crate integration: the full stack (topology → routers →
//! providers → consumers → engine) exercised end to end.

use tactic::net::run_scenario;
use tactic::scenario::{Scenario, TopologyChoice};
use tactic_sim::time::SimDuration;
use tactic_topology::roles::TopologySpec;

fn quick(mut s: Scenario, secs: u64, seed: u64) -> tactic::metrics::RunReport {
    s.duration = SimDuration::from_secs(secs);
    run_scenario(&s, seed)
}

#[test]
fn clients_are_served_attackers_are_not() {
    let r = quick(Scenario::small(), 12, 1);
    assert!(r.delivery.client_requested > 100);
    assert!(
        r.delivery.client_ratio() > 0.95,
        "client ratio {}",
        r.delivery.client_ratio()
    );
    assert!(
        r.delivery.attacker_ratio() < 0.01,
        "attacker ratio {}",
        r.delivery.attacker_ratio()
    );
    // Attackers are throttled by request expiry, so they request far less
    // than clients (the paper's Table IV shape).
    assert!(r.delivery.attacker_requested < r.delivery.client_requested / 2);
}

#[test]
fn run_is_bit_deterministic() {
    let a = quick(Scenario::small(), 8, 7);
    let b = quick(Scenario::small(), 8, 7);
    assert_eq!(a.events, b.events);
    assert_eq!(a.delivery, b.delivery);
    assert_eq!(a.edge_ops, b.edge_ops);
    assert_eq!(a.core_ops, b.core_ops);
    assert_eq!(a.tag_requests, b.tag_requests);
}

#[test]
fn registration_cycle_follows_tag_expiry() {
    let mut s = Scenario::small();
    s.tag_validity = SimDuration::from_secs(5);
    let r = quick(s, 16, 2);
    // 16 s with 5 s tags: active clients re-register at least twice.
    let per_client_q = r.tag_requests as f64 / 6.0;
    assert!(
        per_client_q >= 2.0,
        "per-client registrations {per_client_q}"
    );
    // Essentially all registrations are answered.
    assert!(r.tags_received * 10 >= r.tag_requests * 8);
}

#[test]
fn longer_tags_mean_fewer_registrations() {
    let mut short = Scenario::small();
    short.tag_validity = SimDuration::from_secs(5);
    let mut long = Scenario::small();
    long.tag_validity = SimDuration::from_secs(60);
    let rs = quick(short, 15, 3);
    let rl = quick(long, 15, 3);
    assert!(
        rs.tag_requests > rl.tag_requests * 2,
        "short {} vs long {}",
        rs.tag_requests,
        rl.tag_requests
    );
}

#[test]
fn caches_offload_the_providers() {
    let r = quick(Scenario::small(), 12, 4);
    let served_by_network = r
        .delivery
        .client_received
        .saturating_sub(r.providers.chunks_served);
    assert!(
        served_by_network > r.delivery.client_received / 4,
        "cache hits should serve a sizeable share: origin {} of {}",
        r.providers.chunks_served,
        r.delivery.client_received
    );
}

#[test]
fn edge_routers_shoulder_the_validation_load() {
    let r = quick(Scenario::small(), 12, 5);
    assert!(r.edge_ops.bf_lookups > r.core_ops.bf_lookups);
    assert!(
        r.edge_ops.bf_lookups > 10 * r.edge_ops.sig_verifications,
        "lookups {} should dwarf verifications {}",
        r.edge_ops.bf_lookups,
        r.edge_ops.sig_verifications
    );
}

#[test]
fn public_catalog_needs_no_tags_at_all() {
    let mut s = Scenario::small();
    s.content_levels = vec![tactic::access::AccessLevel::Public];
    let r = quick(s, 10, 6);
    assert!(r.delivery.client_ratio() > 0.95);
    // Most attackers succeed too — the content is public. (Expired-tag
    // attackers are still dropped: Protocol 1 rejects a stale tag at the
    // edge before anyone knows the content is public.)
    assert!(
        r.delivery.attacker_ratio() > 0.5,
        "attacker ratio {}",
        r.delivery.attacker_ratio()
    );
    assert!(
        r.edge_ops.precheck_rejections > 0,
        "expired tags are rejected regardless of content level"
    );
}

#[test]
fn bigger_networks_scale_without_breaking_invariants() {
    let mut s = Scenario::small();
    s.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: 40,
        edge_routers: 8,
        providers: 4,
        clients: 16,
        attackers: 8,
    });
    let r = quick(s, 10, 8);
    assert!(r.delivery.client_ratio() > 0.9);
    assert!(r.delivery.attacker_ratio() < 0.02);
    assert!(r.events > 50_000);
}

#[test]
fn zero_attackers_is_a_clean_network() {
    let mut s = Scenario::small();
    s.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: 10,
        edge_routers: 3,
        providers: 2,
        clients: 6,
        attackers: 0,
    });
    let r = quick(s, 10, 9);
    assert_eq!(r.delivery.attacker_requested, 0);
    assert!(r.delivery.client_ratio() > 0.95);
}

#[test]
fn latency_series_covers_the_run() {
    let r = quick(Scenario::small(), 15, 10);
    let series = r.latency.per_second_means();
    assert!(series.len() >= 12, "series has {} points", series.len());
    for &(_, mean) in &series {
        assert!(mean > 0.0 && mean < 2.0, "implausible latency {mean}");
    }
}
