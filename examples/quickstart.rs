//! Quickstart: run a small TACTIC network end to end and print what
//! happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_sim::time::SimDuration;

fn main() {
    // A small ISP: 12 core + 4 edge routers, 2 providers, 6 clients and 3
    // attackers behind wireless access points (see `Scenario::small`).
    let mut scenario = Scenario::small();
    scenario.duration = SimDuration::from_secs(20);

    println!("Running TACTIC for {}...", scenario.duration);
    let report = run_scenario(&scenario, 42);

    println!();
    println!("simulated duration      : {}", report.duration);
    println!("engine events           : {}", report.events);
    println!();
    println!("-- Delivery (the paper's Table IV view) --");
    println!(
        "clients   : {} requested, {} received (ratio {:.4})",
        report.delivery.client_requested,
        report.delivery.client_received,
        report.delivery.client_ratio()
    );
    println!(
        "attackers : {} requested, {} received (ratio {:.4})",
        report.delivery.attacker_requested,
        report.delivery.attacker_received,
        report.delivery.attacker_ratio()
    );
    println!();
    println!("-- Tags (Fig. 6 view) --");
    println!(
        "tag requests: {} ({:.2}/s), tags received: {} ({:.2}/s)",
        report.tag_requests,
        report.tag_request_rate(),
        report.tags_received,
        report.tag_receive_rate()
    );
    println!();
    println!("-- Router work (Fig. 7 view) --");
    println!(
        "edge routers: {} BF lookups, {} insertions, {} signature verifications",
        report.edge_ops.bf_lookups,
        report.edge_ops.bf_insertions,
        report.edge_ops.sig_verifications
    );
    println!(
        "core routers: {} BF lookups, {} insertions, {} signature verifications",
        report.core_ops.bf_lookups,
        report.core_ops.bf_insertions,
        report.core_ops.sig_verifications
    );
    println!();
    println!(
        "mean retrieval latency  : {:.1} ms",
        report.mean_latency() * 1e3
    );

    assert!(
        report.delivery.client_ratio() > 0.9,
        "clients should be served"
    );
    assert!(
        report.delivery.attacker_ratio() < 0.05,
        "attackers should be blocked"
    );
    println!("\nOK: legitimate clients served, attackers blocked.");
}
