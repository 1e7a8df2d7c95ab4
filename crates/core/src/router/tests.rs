use super::*;
use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::tag::Tag;
use tactic_crypto::cert::Certificate;
use tactic_crypto::schnorr::{KeyPair, Signature};
use tactic_ndn::name::Name;
use tactic_ndn::packet::Payload;
use tactic_telemetry::{PrecheckStage, PrecheckVerdict};

const UP: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);
const CLIENT2: FaceId = FaceId::new(2);

struct Fixture {
    router: TacticRouter,
    provider: KeyPair,
    rng: Rng,
    cost: CostModel,
}

/// What relaying `nack` downstream sends.
fn relay_nack(router: &mut TacticRouter, nack: Nack) -> RouterOutput {
    let (mut rng, cost) = (Rng::seed_from_u64(1), CostModel::free());
    RouterOutput::collect(
        router,
        Packet::Nack(nack),
        UP,
        SimTime::ZERO,
        &mut rng,
        &cost,
    )
}

/// Inserts `key` into the router's validation cache the way a validated
/// tag is inserted.
fn bf_insert(
    router: &mut TacticRouter,
    prefix: &[u8],
    key: &[u8],
    rng: &mut Rng,
    cost: &CostModel,
) {
    standalone(SimTime::ZERO, rng, cost, |ctx| {
        let obs = &mut NoopProtocolObserver;
        let step = &mut Step {
            hop: test_hop(),
            obs,
            ctx,
            compute: SimDuration::ZERO,
        };
        router.bf_insert(step, prefix, key);
    });
}

fn fixture(role: RouterRole) -> Fixture {
    let anchor = KeyPair::derive(b"anchor", 0);
    let provider = KeyPair::derive(b"/prov", 0);
    let mut certs = CertStore::new();
    certs.add_anchor(anchor.public());
    certs
        .register(Certificate::issue("/prov", provider.public(), &anchor))
        .unwrap();
    let mut config = RouterConfig::paper(role);
    config.cs_capacity = 100;
    let mut router = TacticRouter::new(config, certs);
    router.add_route("/prov".parse().unwrap(), UP, 1);
    router.mark_downstream(CLIENT);
    router.mark_downstream(CLIENT2);
    Fixture {
        router,
        provider,
        rng: Rng::seed_from_u64(1),
        cost: CostModel::free(),
    }
}

fn make_tag(f: &Fixture, expiry_secs: u64) -> SignedTag {
    Tag {
        provider_key_locator: "/prov/KEY/1".parse().unwrap(),
        access_level: AccessLevel::Level(2),
        client_key_locator: "/prov/users/u/KEY".parse().unwrap(),
        access_path: AccessPath::EMPTY,
        expiry: SimTime::from_secs(expiry_secs),
    }
    .sign(&f.provider)
}

fn content(name: &str, al: AccessLevel) -> Data {
    let mut d = Data::new(name.parse().unwrap(), Payload::Synthetic(1024));
    ext::set_data_access_level(&mut d, al);
    ext::set_data_key_locator(&mut d, &"/prov/KEY/1".parse().unwrap());
    d
}

fn tagged_interest(name: &str, nonce: u64, tag: &SignedTag) -> Interest {
    let mut i = Interest::new(name.parse().unwrap(), nonce);
    ext::set_interest_tag(&mut i, tag);
    i
}

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

/// A throwaway hook stamp for driving the private helpers directly.
fn test_hop() -> Hop {
    Hop::new(0, NodeRole::EdgeRouter, SimTime::default())
}

#[test]
fn edge_forwards_valid_tag_with_f_zero_on_bf_miss() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    let i = tagged_interest("/prov/obj/0", 1, &tag);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(out.sends.len(), 1);
    let (face, pkt) = &out.sends[0];
    assert_eq!(*face, UP);
    let Packet::Interest(fw) = pkt else {
        panic!("expected Interest")
    };
    assert_eq!(ext::interest_flag_f(fw), 0.0);
    assert_eq!(f.router.counters().bf_lookups, 1);
}

#[test]
fn edge_sets_nonzero_f_after_tag_known() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    // Seed the BF as if the tag had been validated before.
    bf_insert(
        &mut f.router,
        tag.partition_key(),
        &tag.bloom_key(),
        &mut f.rng.clone(),
        &f.cost,
    );
    let i = tagged_interest("/prov/obj/0", 1, &tag);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Interest(fw) = &out.sends[0].1 else {
        panic!("expected Interest")
    };
    assert!(
        ext::interest_flag_f(fw) > 0.0,
        "F must be the BF's FPP, nonzero"
    );
}

#[test]
fn edge_drops_expired_tag_silently() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 5);
    let i = tagged_interest("/prov/obj/0", 1, &tag);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::from_secs(6), &mut f.rng, &f.cost);
    // Protocol 1 at the edge DROPS: no NACK, so the requester's window
    // slot frees only via request expiry (the DoS throttle of §8.B).
    assert!(out.sends.is_empty());
    assert_eq!(f.router.counters().precheck_rejections, 1);
    assert_eq!(
        f.router.counters().bf_lookups,
        0,
        "pre-check precedes BF lookup"
    );
}

#[test]
fn edge_drops_cross_provider_tag() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    let i = tagged_interest("/other/obj/0", 1, &tag);
    let mut router = f.router;
    router.add_route(name("/other"), UP, 1);
    let out = router.handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(out.sends.is_empty());
    assert_eq!(router.counters().precheck_rejections, 1);
}

#[test]
fn access_path_mismatch_nacked_when_enabled() {
    let mut f = fixture(RouterRole::Edge);
    let mut cfg = RouterConfig::paper(RouterRole::Edge);
    cfg.access_path_enabled = true;
    let certs = {
        let anchor = KeyPair::derive(b"anchor", 0);
        let mut c = CertStore::new();
        c.add_anchor(anchor.public());
        c.register(Certificate::issue("/prov", f.provider.public(), &anchor))
            .unwrap();
        c
    };
    let mut router = TacticRouter::new(cfg, certs);
    router.mark_downstream(CLIENT);
    router.add_route(name("/prov"), UP, 1);
    // Tag frozen with AP {7}; request arrives with AP {8}.
    let tag = Tag {
        provider_key_locator: "/prov/KEY/1".parse().unwrap(),
        access_level: AccessLevel::Level(2),
        client_key_locator: "/prov/users/u/KEY".parse().unwrap(),
        access_path: AccessPath::of([7]),
        expiry: SimTime::from_secs(100),
    }
    .sign(&f.provider);
    let mut i = tagged_interest("/prov/obj/0", 1, &tag);
    ext::set_interest_access_path(&mut i, AccessPath::of([8]));
    let out = router.handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(
        matches!(&out.sends[0].1, Packet::Nack(n) if n.reason() == NackReason::AccessPathMismatch)
    );
    assert_eq!(router.counters().ap_rejections, 1);
}

#[test]
fn content_router_serves_valid_tag_after_signature_verification() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    let i = tagged_interest("/prov/obj/0", 1, &tag);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert!(ext::data_nack(d).is_none());
    assert_eq!(ext::data_tag(d).as_deref(), Some(&tag));
    assert_eq!(ext::data_flag_f(d), 0.0);
    assert_eq!(f.router.counters().sig_verifications, 1);
    assert_eq!(f.router.counters().bf_insertions, 1);
    assert_eq!(f.router.counters().cache_hits, 1);
}

#[test]
fn content_router_skips_verification_on_bf_hit() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    // First request verifies + inserts; second only looks up.
    let _ = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag),
        UP,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let out = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &tag),
        UP,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert!(matches!(&out.sends[0].1, Packet::Data(_)));
    assert_eq!(
        f.router.counters().sig_verifications,
        1,
        "no re-verification"
    );
    assert_eq!(f.router.counters().bf_lookups, 2);
}

#[test]
fn content_router_nacks_forged_tag_with_content_attached() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let mut forged = make_tag(&f, 100);
    forged.signature = Signature::forged(9);
    let i = tagged_interest("/prov/obj/0", 1, &forged);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data+NACK")
    };
    assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
}

#[test]
fn edge_cache_hit_with_invalid_tag_drops_silently() {
    let mut f = fixture(RouterRole::Edge);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let mut forged = make_tag(&f, 100);
    forged.signature = Signature::forged(5);
    let i = tagged_interest("/prov/obj/0", 1, &forged);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    // Content must NOT reach the client; the attacker waits out its
    // request expiry.
    assert!(out.sends.is_empty(), "client must not get content");
    assert_eq!(
        f.router.counters().sig_verifications,
        1,
        "the forged tag was checked"
    );
}

#[test]
fn public_content_served_without_tag() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Public));
    let i = Interest::new(name("/prov/obj/0"), 1);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert!(ext::data_nack(d).is_none());
    assert_eq!(f.router.counters().sig_verifications, 0);
    assert_eq!(f.router.counters().bf_lookups, 0);
}

#[test]
fn protected_content_without_tag_gets_content_nack_for_routers() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let i = Interest::new(name("/prov/obj/0"), 1);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
}

#[test]
fn insufficient_access_level_rejected_at_content_router() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(5)));
    let tag = make_tag(&f, 100); // grants Level(2)
    let i = tagged_interest("/prov/obj/0", 1, &tag);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
    assert_eq!(f.router.counters().precheck_rejections, 1);
}

#[test]
fn interest_aggregation_and_data_fanout() {
    let mut f = fixture(RouterRole::Core);
    let tag1 = make_tag(&f, 100);
    let tag2 = Tag {
        provider_key_locator: "/prov/KEY/1".parse().unwrap(),
        access_level: AccessLevel::Level(2),
        client_key_locator: "/prov/users/w/KEY".parse().unwrap(),
        access_path: AccessPath::EMPTY,
        expiry: SimTime::from_secs(100),
    }
    .sign(&f.provider);
    let out1 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag1),
        FaceId::new(5),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert_eq!(out1.sends.len(), 1, "first forwards");
    let out2 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &tag2),
        FaceId::new(6),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert!(out2.sends.is_empty(), "second aggregates");
    // Content returns echoing tag1.
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &tag1);
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(out.sends.len(), 2, "both downstreams served");
    let faces: Vec<FaceId> = out.sends.iter().map(|(fc, _)| *fc).collect();
    assert!(faces.contains(&FaceId::new(5)) && faces.contains(&FaceId::new(6)));
    // The aggregated tag (tag2) was validated: one verification.
    assert_eq!(f.router.counters().sig_verifications, 1);
    // Content is now cached.
    assert!(f.router.tables().cs.peek(&name("/prov/obj/0")).is_some());
}

#[test]
fn aggregated_invalid_tag_gets_content_nack_downstream() {
    let mut f = fixture(RouterRole::Core);
    let good = make_tag(&f, 100);
    let mut bad = make_tag(&f, 100);
    bad.tag.client_key_locator = "/prov/users/evil/KEY".parse().unwrap();
    bad.signature = Signature::forged(3);
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &good),
        FaceId::new(5),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &bad),
        FaceId::new(6),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &good);
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    let to6: Vec<_> = out
        .sends
        .iter()
        .filter(|(fc, _)| *fc == FaceId::new(6))
        .collect();
    assert_eq!(to6.len(), 1);
    let Packet::Data(dd) = &to6[0].1 else {
        panic!("expected data")
    };
    assert_eq!(ext::data_nack(dd), Some(NackReason::InvalidTag));
}

#[test]
fn edge_drops_invalid_aggregated_requests_to_clients() {
    let mut f = fixture(RouterRole::Edge);
    let good = make_tag(&f, 100);
    let mut bad = make_tag(&f, 100);
    bad.signature = Signature::forged(4);
    // Two clients request the same chunk; the bad one is nonzero-F-free.
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &good),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &bad),
        CLIENT2,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &good);
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    // Only the good client receives data; the bad aggregated one is
    // dropped (no content, no NACK at the edge).
    assert_eq!(out.sends.len(), 1);
    assert_eq!(out.sends[0].0, CLIENT);
}

#[test]
fn edge_inserts_echo_tag_when_data_f_is_zero() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &tag);
    ext::set_data_flag_f(&mut d, 0.0);
    let inserts_before = f.router.counters().bf_insertions;
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(out.sends.len(), 1);
    assert_eq!(f.router.counters().bf_insertions, inserts_before + 1);
    assert!(f
        .router
        .validation_cache()
        .contains(tag.partition_key(), &tag.bloom_key()));
}

#[test]
fn edge_skips_insert_when_data_f_nonzero() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    // Pre-insert so the edge sets F != 0 on the interest.
    let mut rng2 = f.rng.clone();
    bf_insert(
        &mut f.router,
        tag.partition_key(),
        &tag.bloom_key(),
        &mut rng2,
        &f.cost,
    );
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &tag);
    ext::set_data_flag_f(&mut d, 1e-4);
    let inserts_before = f.router.counters().bf_insertions;
    f.router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(
        f.router.counters().bf_insertions,
        inserts_before,
        "no redundant insert"
    );
}

#[test]
fn edge_drops_nacked_request_without_forwarding_content() {
    let mut f = fixture(RouterRole::Edge);
    let mut forged = make_tag(&f, 100);
    forged.signature = Signature::forged(7);
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &forged),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &forged);
    ext::set_data_nack(&mut d, NackReason::InvalidTag);
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(
        out.sends.is_empty(),
        "nacked content must not reach the client"
    );
    // But it IS cached for future valid requests.
    assert!(f.router.tables().cs.peek(&name("/prov/obj/0")).is_some());
}

#[test]
fn core_forwards_nacked_content_downstream() {
    let mut f = fixture(RouterRole::Core);
    let mut forged = make_tag(&f, 100);
    forged.signature = Signature::forged(8);
    f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &forged),
        FaceId::new(5),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let mut d = content("/prov/obj/0", AccessLevel::Level(1));
    ext::set_data_tag(&mut d, &forged);
    ext::set_data_nack(&mut d, NackReason::InvalidTag);
    let out = f
        .router
        .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(out.sends.len(), 1);
    let Packet::Data(dd) = &out.sends[0].1 else {
        panic!("data expected")
    };
    assert_eq!(ext::data_nack(dd), Some(NackReason::InvalidTag));
}

#[test]
fn registration_response_inserted_at_edge_and_forwarded() {
    let mut f = fixture(RouterRole::Edge);
    let mut reg = Interest::new(name("/prov/register/u/1"), 1);
    reg.set_extension(ext::EXT_REGISTRATION, vec![1]);
    let out = f
        .router
        .handle_interest(reg, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(matches!(&out.sends[0].1, Packet::Interest(_)));
    let tag = make_tag(&f, 100);
    let mut resp = Data::new(name("/prov/register/u/1"), Payload::Synthetic(200));
    ext::set_data_new_tag(&mut resp, &tag);
    let out = f
        .router
        .handle_data(resp, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(out.sends.len(), 1);
    assert_eq!(out.sends[0].0, CLIENT);
    assert!(f
        .router
        .validation_cache()
        .contains(tag.partition_key(), &tag.bloom_key()));
    // Registration responses are never cached.
    assert!(f.router.tables().cs.is_empty());
}

#[test]
fn no_route_nacks() {
    let mut f = fixture(RouterRole::Core);
    let i = Interest::new(name("/unknown/x"), 1);
    let out = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(matches!(&out.sends[0].1, Packet::Nack(n) if n.reason() == NackReason::NoRoute));
}

#[test]
fn bf_reset_accounting_tracks_request_counts() {
    let mut f = fixture(RouterRole::Core);
    let mut cfg = RouterConfig::paper(RouterRole::Core);
    cfg.bf_params = BloomParams::paper(20); // tiny: saturates fast
    let mut router = TacticRouter::new(cfg, CertStore::new());
    for i in 0..500u64 {
        router.requests_since_reset += 1; // simulate request arrivals
        bf_insert(&mut router, b"/prov", &i.to_le_bytes(), &mut f.rng, &f.cost);
    }
    assert!(router.counters().bf_resets >= 5);
    // Every request is absorbed before a reset or since the last one.
    assert_eq!(
        router.counters().reset_requests + router.requests_since_reset,
        500
    );
}

#[test]
fn flag_f_disabled_forces_validation() {
    let mut f = fixture(RouterRole::Core);
    let mut cfg = RouterConfig::paper(RouterRole::Core);
    cfg.flag_f_enabled = false;
    cfg.cs_capacity = 10;
    let certs = {
        let anchor = KeyPair::derive(b"anchor", 0);
        let mut c = CertStore::new();
        c.add_anchor(anchor.public());
        c.register(Certificate::issue("/prov", f.provider.public(), &anchor))
            .unwrap();
        c
    };
    let mut router = TacticRouter::new(cfg, certs);
    router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    let mut i = tagged_interest("/prov/obj/0", 1, &tag);
    ext::set_interest_flag_f(&mut i, 0.5); // would normally mostly skip
    let _ = router.handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    // With flag F ignored, the router takes the F == 0 path: BF lookup
    // then signature verification.
    assert_eq!(router.counters().bf_lookups, 1);
    assert_eq!(router.counters().sig_verifications, 1);
}

#[test]
fn duplicate_nonce_is_dropped_silently() {
    let mut f = fixture(RouterRole::Core);
    let tag = make_tag(&f, 100);
    let i = tagged_interest("/prov/obj/0", 7, &tag);
    f.router.handle_interest(
        i.clone(),
        FaceId::new(5),
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    let out = f
        .router
        .handle_interest(i, FaceId::new(6), SimTime::ZERO, &mut f.rng, &f.cost);
    assert!(out.sends.is_empty());
}

/// Regression: a client forging F = 1.0 on its own Interest must not
/// be able to steer the content router off the full-validation path —
/// F is discarded on every downstream face.
#[test]
fn forged_flag_f_one_from_downstream_still_verifies() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    let mut i = tagged_interest("/prov/obj/0", 1, &tag);
    ext::set_interest_flag_f(&mut i, 1.0);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert!(ext::data_nack(d).is_none());
    assert_eq!(
        ext::data_flag_f(d),
        0.0,
        "forged F must not be mirrored into D"
    );
    assert_eq!(
        f.router.counters().sig_verifications,
        1,
        "full validation must run"
    );
    assert_eq!(
        f.router.counters().bf_lookups,
        1,
        "F = 0 path: BF lookup first"
    );

    // Downstream faces need be neither dense nor marked in order: a forged
    // F (here one that decodes as is) is zeroed on every marked face,
    // whatever its index, and left alone on an unmarked one — at an edge
    // router and a core router alike.
    for role in [RouterRole::Edge, RouterRole::Core] {
        let mut f = fixture(role);
        for face in [300, 0, 7] {
            f.router.mark_downstream(FaceId::new(face));
        }
        for (nonce, face, want) in [(1, 0, 0.0), (2, 7, 0.0), (3, 300, 0.0), (4, 8, 0.5)] {
            let mut i = tagged_interest(&format!("/prov/obj/{nonce}"), nonce, &tag);
            ext::set_interest_flag_f(&mut i, 0.5);
            let in_face = FaceId::new(face);
            let out = f
                .router
                .handle_interest(i, in_face, SimTime::ZERO, &mut f.rng, &f.cost);
            let [(_, Packet::Interest(fw))] = &out.sends[..] else {
                panic!("{role:?} router, face {face}: expected the Interest forwarded")
            };
            assert_eq!(
                ext::interest_flag_f(fw),
                want,
                "{role:?} router, face {face}"
            );
        }
    }
}

/// Regression: F = NaN made `rng.chance(F)` false, so the pre-fix
/// router fell into the "trust the edge" branch and served protected
/// content with zero verifications. NaN (or any out-of-range F) must
/// now be discarded like every other downstream F.
#[test]
fn forged_flag_f_nan_from_downstream_still_verifies() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    let mut i = tagged_interest("/prov/obj/0", 1, &tag);
    ext::set_interest_flag_f(&mut i, f64::NAN);
    let out = f
        .router
        .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
    let Packet::Data(d) = &out.sends[0].1 else {
        panic!("expected Data")
    };
    assert!(ext::data_nack(d).is_none());
    assert_eq!(
        f.router.counters().sig_verifications,
        1,
        "NaN F must not skip validation"
    );
}

/// Even on a non-downstream face, a NaN F on the wire decodes as 0
/// (sanitized at the codec), forcing the full-validation path rather
/// than the trust branch.
#[test]
fn nan_flag_f_from_upstream_decodes_as_zero() {
    let mut f = fixture(RouterRole::Core);
    f.router
        .tables
        .cs
        .insert(content("/prov/obj/0", AccessLevel::Level(1)));
    let tag = make_tag(&f, 100);
    let mut i = tagged_interest("/prov/obj/0", 1, &tag);
    ext::set_interest_flag_f(&mut i, f64::NAN);
    assert_eq!(
        ext::interest_flag_f(&i),
        0.0,
        "decode sanitizes non-finite F"
    );
    let _ = f
        .router
        .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
    assert_eq!(f.router.counters().sig_verifications, 1);
}

#[test]
fn nack_relay_counts_every_notified_requester() {
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    // Two clients aggregate on the same name in the PIT.
    let out1 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert_eq!(out1.sends.len(), 1, "first request forwards upstream");
    let out2 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &tag),
        CLIENT2,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert!(out2.sends.is_empty(), "second request aggregates");
    let before = f.router.counters().nacks;
    let nack = Nack::new(Interest::new(name("/prov/obj/0"), 3), NackReason::NoRoute);
    let out = relay_nack(&mut f.router, nack.clone());
    assert_eq!(out.sends.len(), 2, "both requesters get the NACK");
    assert_eq!(
        f.router.counters().nacks - before,
        2,
        "one count per relayed NACK"
    );
    // The PIT entry is consumed: a repeat NACK relays (and counts) nothing.
    let again = relay_nack(&mut f.router, nack);
    assert!(again.sends.is_empty());
    assert_eq!(f.router.counters().nacks - before, 2);
}

#[test]
fn pit_sweep_expires_aggregated_records_instead_of_leaking() {
    // Lossy-link scenario: the forwarded Interest's Data never comes
    // back. The periodic purge must reclaim the aggregated
    // `<tag, F, in-face>` records, and a Data that straggles in after
    // the sweep is unsolicited — dropped without panic or caching.
    let mut f = fixture(RouterRole::Edge);
    let tag = make_tag(&f, 100);
    let out1 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 1, &tag),
        CLIENT,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert_eq!(out1.sends.len(), 1, "first request forwards upstream");
    let out2 = f.router.handle_interest(
        tagged_interest("/prov/obj/0", 2, &tag),
        CLIENT2,
        SimTime::ZERO,
        &mut f.rng,
        &f.cost,
    );
    assert!(out2.sends.is_empty(), "second request aggregates");
    assert_eq!(f.router.tables().pit.total_records(), 2);

    // Both records expire at t0 + Interest lifetime; sweep well past it.
    let later = SimTime::from_secs(60);
    assert_eq!(f.router.tables_mut().pit.purge_expired(later), 2);
    assert_eq!(f.router.tables().pit.total_records(), 0);

    // The straggler Data finds no PIT entry: no sends, no cache entry.
    let d = content("/prov/obj/0", AccessLevel::Level(1));
    let out = f.router.handle_data(d, UP, later, &mut f.rng, &f.cost);
    assert!(out.sends.is_empty(), "unsolicited Data goes nowhere");
    assert!(
        f.router.tables().cs.peek(&name("/prov/obj/0")).is_none(),
        "unsolicited Data is not cached (NFD policy)"
    );
}

/// Counts pre-check verdicts by stage.
#[derive(Default)]
struct Prechecks {
    edge: u32,
    content: u32,
}

impl ProtocolObserver for Prechecks {
    fn on_precheck(&mut self, _: Hop, stage: PrecheckStage, _: PrecheckVerdict) {
        match stage {
            PrecheckStage::Edge => self.edge += 1,
            PrecheckStage::Content => self.content += 1,
        }
    }
}

#[test]
fn a_cache_hit_runs_each_precheck_half_once() {
    for (role, face) in [(RouterRole::Edge, CLIENT), (RouterRole::Core, UP)] {
        let mut f = fixture(role);
        (f.router.tables.cs).insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let interest = tagged_interest("/prov/obj/0", 1, &make_tag(&f, 100));
        let (mut seen, mut sends) = (Prechecks::default(), Vec::new());
        standalone(SimTime::ZERO, &mut f.rng, &f.cost, |ctx| {
            let send = &mut |face, packet| sends.push((face, packet));
            let packet = Packet::Interest(interest);
            f.router.handle(packet, face, 0, &mut seen, ctx, send)
        });
        assert!(matches!(sends[..], [(_, Packet::Data(_))]), "{role:?}");
        // An edge router's client request passed the edge half on its way
        // in; a core router runs it at the hit.
        assert_eq!((seen.edge, seen.content), (1, 1), "{role:?}");
    }
}

#[test]
fn a_stale_chunk_is_a_cache_miss() {
    let mut f = fixture(RouterRole::Edge);
    let mut stale = content("/prov/obj/0", AccessLevel::Public);
    stale.set_freshness_ms(500);
    f.router.tables.cs.insert_at(stale, SimTime::from_secs(1));
    let ask = |f: &mut Fixture, nonce, at| {
        let i = Interest::new(name("/prov/obj/0"), nonce);
        (f.router).handle_interest(i, CLIENT, at, &mut f.rng, &f.cost)
    };
    let fresh = ask(&mut f, 1, SimTime::from_secs_f64(1.4));
    assert!(matches!(fresh.sends[..], [(CLIENT, Packet::Data(_))]));
    let late = ask(&mut f, 2, SimTime::from_secs(2));
    assert!(
        matches!(late.sends[..], [(UP, Packet::Interest(_))]),
        "past its freshness the chunk is fetched again"
    );
    assert_eq!(f.router.counters().cache_hits, 1);
}
