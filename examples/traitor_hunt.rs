//! Traitor tracing in action — the paper's §9 future work, runnable.
//!
//! A subscriber shares her tag with friends behind other access points.
//! Access-path *enforcement* is off (the paper's own simulation config),
//! so the shared tag works on the wire... but edge routers record
//! sightings, and the tracer convicts the shared identity from location
//! conflicts alone. The provider can then revoke, and expiry finishes the
//! job within one validity period.
//!
//! ```sh
//! cargo run --release --example traitor_hunt
//! ```

use tactic::consumer::AttackerStrategy;
use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic::traitor::TraitorTracer;
use tactic_sim::time::SimDuration;

fn main() {
    let mut scenario = Scenario::small();
    scenario.duration = SimDuration::from_secs(20);
    scenario.attacker_mix = vec![AttackerStrategy::SharedTag];
    scenario.access_path_enabled = false; // enforcement off — detection only
    scenario.record_sightings = true;

    println!("Running with shared-tag freeloaders, access-path ENFORCEMENT OFF...");
    let report = run_scenario(&scenario, 99);

    println!(
        "\non the wire, sharing 'works': freeloaders received {} of {} chunks ({:.1}%)",
        report.delivery.attacker_received,
        report.delivery.attacker_requested,
        100.0 * report.delivery.attacker_ratio()
    );
    println!(
        "edge routers recorded {} tag sightings",
        report.sightings.len()
    );

    // Feed the sightings (chronologically) to the tracer.
    let mut sightings = report.sightings.clone();
    sightings.sort_by_key(|s| s.at);
    let mut tracer = TraitorTracer::new(SimDuration::from_secs(10));
    let alerts = tracer.observe_all(sightings);

    println!("\n-- tracer verdicts --");
    let flagged: Vec<(u64, usize)> = tracer.flagged().collect();
    for (identity, conflicts) in &flagged {
        println!("identity {identity:#018x}: {conflicts} location conflicts");
    }
    if let Some(first) = alerts.first() {
        println!(
            "\nfirst conviction after {} of simulated time:",
            first.conflict.at
        );
        println!(
            "  seen at edge router n{} (path {}), then at edge router n{} (path {}) within {}",
            first.first.edge_router,
            first.first.observed_path,
            first.conflict.edge_router,
            first.conflict.observed_path,
            first.spread()
        );
    }

    let observed: std::collections::HashSet<u64> =
        report.sightings.iter().map(|s| s.identity).collect();
    println!(
        "\n{} of {} observed identities convicted — honest clients untouched.",
        flagged.len(),
        observed.len()
    );
    assert!(
        !flagged.is_empty(),
        "the shared identities must be convicted"
    );
    assert!(flagged.len() < observed.len(), "no blanket accusations");
    println!("Next step for a provider: refuse the identity fresh tags — expiry does the rest.");
}
