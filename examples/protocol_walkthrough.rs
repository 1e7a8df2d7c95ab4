//! A step-by-step walkthrough of TACTIC's protocols against the public
//! API — no event engine, just the state machines: registration, tag
//! issuance, the edge router's Protocol 2, a content router's Protocol 3,
//! revocation by expiry, and a forged tag dying at signature verification.
//!
//! ```sh
//! cargo run --example protocol_walkthrough
//! ```

use tactic::access::AccessLevel;
use tactic::ext;
use tactic::provider::{registration_interest, Provider, ProviderConfig};
use tactic::router::{RouterConfig, RouterRole, TacticRouter};
use tactic::tag::SignedTag;
use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::{KeyPair, Signature};
use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Interest, Packet};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::SimTime;

const UPSTREAM: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);

fn main() {
    let mut rng = Rng::seed_from_u64(1);
    let cost = CostModel::paper();

    // ── The PKI the paper assumes (§3.B) ──
    let anchor = KeyPair::derive(b"isp-root", 0);
    let mut certs = CertStore::new();
    certs.add_anchor(anchor.public());

    // ── A provider with a 50x50 catalog (§8.A) ──
    let mut provider = Provider::new(ProviderConfig::paper("/films".parse().unwrap()));
    certs
        .register(Certificate::issue(
            "/films",
            provider.keypair().public(),
            &anchor,
        ))
        .expect("anchor-signed certificate");
    println!(
        "provider /films certified; routers hold {} provider key(s)",
        certs.len()
    );

    // ── An edge router and a core (content) router ──
    let mut edge = TacticRouter::new(RouterConfig::paper(RouterRole::Edge), certs.clone());
    edge.mark_downstream(CLIENT);
    edge.add_route("/films".parse().unwrap(), UPSTREAM, 1);
    let mut core = TacticRouter::new(RouterConfig::paper(RouterRole::Core), certs.clone());
    core.add_route("/films".parse().unwrap(), UPSTREAM, 1);

    // ── 1. Registration: client 7 obtains a tag (§4.A) ──
    provider.grant(7, AccessLevel::Level(2));
    let reg = registration_interest(&"/films".parse().unwrap(), 7, 1, 1001);
    let (replies, _) = provider.handle_interest(&reg, SimTime::ZERO, &mut rng, &cost);
    let Packet::Data(reg_resp) = &replies[0] else {
        panic!("registration answered")
    };
    let tag = ext::data_new_tag(reg_resp).expect("fresh tag");
    println!(
        "client 7 registered: tag grants {} until {}, signed by /films",
        tag.tag.access_level, tag.tag.expiry
    );
    assert!(tag.verify(&provider.keypair().public()));

    // ── 2. The tagged Interest crosses the edge router (Protocol 2) ──
    let mut interest = Interest::new("/films/obj3/c0".parse().unwrap(), 2001);
    ext::set_interest_tag(&mut interest, tag.clone());
    let out = edge.handle_interest(interest, CLIENT, SimTime::from_secs(1), &mut rng, &cost);
    let (fw_face, Packet::Interest(forwarded)) = (&out.sends[0].0, &out.sends[0].1) else {
        panic!("edge forwards upstream");
    };
    println!(
        "edge router: pre-check OK, BF miss -> F = {} (forwarded on {fw_face}, {} BF lookups so far)",
        ext::interest_flag_f(forwarded),
        edge.counters().bf_lookups
    );

    // ── 3. A content router holds the chunk: Protocol 3 ──
    let chunk = provider.build_chunk(3, 0);
    // (Seed the core router's cache the way a prior delivery would have.)
    let mut seed = Interest::new("/films/obj3/c0".parse().unwrap(), 1);
    ext::set_interest_tag(&mut seed, tag.clone());
    core.handle_interest(seed, UPSTREAM, SimTime::from_secs(1), &mut rng, &cost);
    let mut echo = chunk.clone();
    ext::set_data_tag(&mut echo, tag.clone());
    core.handle_data(echo, UPSTREAM, SimTime::from_secs(1), &mut rng, &cost);

    let out = core.handle_interest(
        forwarded.clone(),
        UPSTREAM,
        SimTime::from_secs(1),
        &mut rng,
        &cost,
    );
    let Packet::Data(served) = &out.sends[0].1 else {
        panic!("content served")
    };
    assert!(ext::data_nack(served).is_none());
    println!(
        "content router: cache hit, tag verified ({} verification(s)), chunk served with F echoed",
        core.counters().sig_verifications
    );

    // ── 4. Revocation: the same tag after expiry (Protocol 1) ──
    let mut stale = Interest::new("/films/obj3/c1".parse().unwrap(), 2002);
    ext::set_interest_tag(&mut stale, tag.clone());
    let out = edge.handle_interest(stale, CLIENT, SimTime::from_secs(999), &mut rng, &cost);
    assert!(out.sends.is_empty(), "expired tag is dropped at the edge");
    println!(
        "revocation: the expired tag died at the edge pre-check ({} rejections) — no signature work",
        edge.counters().precheck_rejections
    );

    // ── 5. A forged tag dies at signature verification ──
    // (A copy of the tag itself, not of the handle: its memos start cold.)
    let mut forged = SignedTag::clone(&tag);
    forged.signature = Signature::forged(99);
    forged.tag.expiry = SimTime::from_secs(10_000);
    let mut evil = Interest::new("/films/obj3/c0".parse().unwrap(), 3001);
    ext::set_interest_tag(&mut evil, &forged);
    let out = core.handle_interest(evil, UPSTREAM, SimTime::from_secs(2), &mut rng, &cost);
    let Packet::Data(nacked) = &out.sends[0].1 else {
        panic!("content+NACK for routers")
    };
    assert!(ext::data_nack(nacked).is_some());
    println!(
        "forgery: bogus signature -> content-tag-NACK tuple toward routers (edges drop it before clients)"
    );

    println!("\nOK: registration, enforcement, revocation, and forgery handling all exercised.");
}
