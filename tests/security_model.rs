//! The threat model (§3.C), attacker by attacker: each strategy isolated
//! in its own run, asserting exactly which defence stops it.

use tactic::consumer::AttackerStrategy;
use tactic::net::run_scenario;
use tactic::scenario::{Scenario, TopologyChoice};
use tactic_sim::time::SimDuration;
use tactic_topology::fleet::FleetSpec;

fn run_with_mix(
    mix: Vec<AttackerStrategy>,
    ap_enabled: bool,
    seed: u64,
) -> tactic::metrics::RunReport {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(12);
    s.attacker_mix = mix;
    s.access_path_enabled = ap_enabled;
    run_scenario(&s, seed)
}

#[test]
fn threat_a_no_tag_is_blocked() {
    let r = run_with_mix(vec![AttackerStrategy::NoTag], false, 1);
    assert!(r.delivery.attacker_requested > 20);
    assert_eq!(
        r.delivery.attacker_received, 0,
        "untagged requests must never retrieve protected content"
    );
}

#[test]
fn threat_b_fake_tag_is_blocked_by_signature_verification() {
    let r = run_with_mix(vec![AttackerStrategy::FakeTag], false, 2);
    assert!(r.delivery.attacker_requested > 20);
    // Only Bloom-filter false positives may leak (≈1e-4); at this scale
    // that means zero-to-a-few.
    assert!(
        r.delivery.attacker_ratio() < 0.01,
        "fake tags must fail verification (ratio {})",
        r.delivery.attacker_ratio()
    );
    // Fake tags pass the pre-check, so routers *do* burn verifications on
    // them — the cost the Bloom filter bounds.
    assert!(r.edge_ops.sig_verifications + r.core_ops.sig_verifications > 0);
}

#[test]
fn threat_c_expired_tag_dies_at_the_edge_precheck() {
    let r = run_with_mix(vec![AttackerStrategy::ExpiredTag], false, 3);
    assert!(r.delivery.attacker_requested > 20);
    assert_eq!(r.delivery.attacker_received, 0);
    // The defence is the cheap pre-check, not signature work.
    assert!(
        r.edge_ops.precheck_rejections > 20,
        "expired tags must be caught by the pre-check ({} rejections)",
        r.edge_ops.precheck_rejections
    );
}

#[test]
fn threat_d_insufficient_level_is_blocked_at_content_routers() {
    let mix = || vec![AttackerStrategy::InsufficientLevel];
    // Seed 26 and the fleet are where an aggregation point that flipped the
    // `F` coin before the pre-check once served such a request (1 of 181
    // and 6 of 676): every path now pre-checks first.
    let mut fleet = Scenario::small();
    fleet.topology = TopologyChoice::Custom(FleetSpec::sized(2_000).to_table_spec());
    fleet.duration = SimDuration::from_secs(2);
    fleet.objects_per_provider = 10;
    fleet.chunks_per_object = 10;
    fleet.attacker_mix = mix();
    for (what, r) in [
        ("small, seed 4", run_with_mix(mix(), false, 4)),
        ("small, seed 26", run_with_mix(mix(), false, 26)),
        ("2 000-node fleet, seed 1", run_scenario(&fleet, 1)),
    ] {
        assert!(r.delivery.attacker_requested > 20, "{what}");
        assert_eq!(
            r.delivery.attacker_received, 0,
            "{what}: {} of {} requests served",
            r.delivery.attacker_received, r.delivery.attacker_requested
        );
        // These principals hold GENUINE tags (they register like clients),
        // so the Q/R machinery sees them; the AL comparison rejects the
        // content.
        let rejections = r.edge_ops.precheck_rejections + r.core_ops.precheck_rejections;
        assert!(
            rejections > 0,
            "{what}: AL mismatches must be pre-check rejections"
        );
    }
}

#[test]
fn threat_e_shared_tag_succeeds_without_access_paths() {
    // The paper's own simulation config (access paths off): a tag issued
    // for another location works — this is exactly the gap §4.A's access
    // path feature closes.
    let r = run_with_mix(vec![AttackerStrategy::SharedTag], false, 5);
    assert!(r.delivery.attacker_requested > 20);
    assert!(
        r.delivery.attacker_ratio() > 0.5,
        "without AP checks, shared tags pass (ratio {})",
        r.delivery.attacker_ratio()
    );
}

#[test]
fn threat_e_shared_tag_blocked_by_access_paths() {
    let r = run_with_mix(vec![AttackerStrategy::SharedTag], true, 5);
    assert!(r.delivery.attacker_requested > 20);
    assert_eq!(
        r.delivery.attacker_received, 0,
        "with AP checks the shared tag's frozen path mismatches"
    );
    assert!(
        r.edge_ops.ap_rejections > 20,
        "AP rejections: {}",
        r.edge_ops.ap_rejections
    );
}

#[test]
fn access_paths_do_not_harm_legitimate_clients() {
    let r = run_with_mix(AttackerStrategy::PAPER_MIX.to_vec(), true, 6);
    assert!(
        r.delivery.client_ratio() > 0.95,
        "clients' own tags carry matching paths (ratio {})",
        r.delivery.client_ratio()
    );
    assert_eq!(r.delivery.attacker_received, 0);
}

#[test]
fn revocation_takes_effect_within_one_validity_period() {
    // Expired-tag attackers ARE revoked clients: they hold a once-genuine
    // tag and are refused fresh ones. Their success count must be zero
    // from the very start of the run (their preset tag is already stale).
    let r = run_with_mix(vec![AttackerStrategy::ExpiredTag], false, 7);
    assert_eq!(r.delivery.attacker_received, 0);
    assert_eq!(
        r.providers.tags_issued,
        r.tags_received + {
            // Setup-time issuance for the preset tags (2 providers × attackers).
            let attackers = 3;
            let providers = 2;
            attackers * providers
        }
    );
}

#[test]
fn mixed_fleet_matches_table_iv_shape() {
    let r = run_with_mix(AttackerStrategy::PAPER_MIX.to_vec(), false, 8);
    assert!(r.delivery.client_ratio() > 0.95);
    assert!(r.delivery.attacker_ratio() < 0.01);
    assert!(r.delivery.attacker_requested < r.delivery.client_requested);
}
