//! End-to-end behaviour of the TACTIC plane on the shared transport:
//! delivery ratios, tag cycling, router workload shape, latency recording,
//! determinism, and observer accounting.

use tactic::metrics::RunReport;
use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_net::{harness, NetCounters};
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;

fn small_run(seed: u64) -> RunReport {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(15);
    run_scenario(&s, seed)
}

#[test]
fn clients_retrieve_attackers_do_not() {
    let r = small_run(1);
    assert!(
        r.delivery.client_requested > 100,
        "clients requested {}",
        r.delivery.client_requested
    );
    assert!(
        r.delivery.client_ratio() > 0.95,
        "client delivery ratio {} (req {}, recv {})",
        r.delivery.client_ratio(),
        r.delivery.client_requested,
        r.delivery.client_received
    );
    assert!(r.delivery.attacker_requested > 10);
    assert!(
        r.delivery.attacker_ratio() < 0.01,
        "attacker delivery ratio {}",
        r.delivery.attacker_ratio()
    );
}

#[test]
fn tags_cycle_with_expiry() {
    let r = small_run(2);
    // 15 s run, 10 s tags: every client re-registers at least once per
    // provider it talks to.
    assert!(r.tag_requests > 0);
    assert!(r.tags_received > 0);
    assert!(r.tags_received <= r.tag_requests);
    // Substantially all client registrations are answered.
    assert!(
        r.tags_received as f64 >= 0.8 * r.tag_requests as f64,
        "Q {} vs R {}",
        r.tag_requests,
        r.tags_received
    );
}

#[test]
fn routers_do_work_and_lookups_dominate_verifications() {
    let r = small_run(3);
    assert!(r.edge_ops.bf_lookups > 0);
    assert!(r.edge_ops.interests > 0);
    assert!(r.core_ops.interests > 0);
    // Fig. 7's headline: BF lookups far outnumber signature
    // verifications at the edge.
    assert!(
        r.edge_ops.bf_lookups > r.edge_ops.sig_verifications,
        "edge L {} vs V {}",
        r.edge_ops.bf_lookups,
        r.edge_ops.sig_verifications
    );
}

#[test]
fn latencies_are_recorded_and_plausible() {
    let r = small_run(4);
    assert!(r.latency.len() > 100);
    let mean = r.mean_latency();
    assert!(mean > 0.001 && mean < 1.0, "mean latency {mean}s");
    let series = r.latency.per_second_means();
    assert!(
        series.len() > 5,
        "per-second series has {} points",
        series.len()
    );
}

#[test]
fn deterministic_per_seed() {
    let a = small_run(7);
    let b = small_run(7);
    assert_eq!(a.delivery, b.delivery);
    assert_eq!(a.events, b.events);
    assert_eq!(a.edge_ops, b.edge_ops);
}

#[test]
fn different_seeds_differ() {
    let a = small_run(8);
    let b = small_run(9);
    assert_ne!(a.events, b.events);
}

#[test]
fn observer_sees_every_delivery_once() {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(10);
    let (report, counters, ..) = harness::run(
        &s,
        12,
        1,
        |_| NetCounters::default(),
        |_| NoopProtocolObserver,
    )
    .expect("one shard always fits");
    let counters = &counters[0];
    assert!(counters.delivered > 0);
    assert!(counters.scheduled >= counters.delivered);
    assert!(counters.bytes_on_wire > 0);
    assert!(!counters.link_load.is_empty());
    // The transport's event total includes non-delivery events too.
    assert!(report.events >= counters.delivered);
}
