//! Adversarial property tests on the router: for *arbitrary* hostile
//! inputs, protected content must never flow to a client-side face
//! without a genuinely valid tag.

use std::sync::Arc;

use proptest::prelude::*;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::ext;
use tactic::provider::{Provider, ProviderConfig};
use tactic::router::{RouterConfig, RouterRole, TacticRouter};
use tactic::tag::{SignedTag, Tag};
use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::{KeyPair, Signature};
use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, Interest, NackReason, Packet, Payload};
use tactic_net::{DropTotals, PlaneCtx};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{Hop, ProtocolObserver};

const UP: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);

fn provider() -> KeyPair {
    KeyPair::derive(b"/prov", 0)
}

fn edge_router_with_cache(cache_level: AccessLevel) -> TacticRouter {
    router_with_cache(RouterRole::Edge, cache_level)
}

/// A certificate store that trusts `/prov`'s key.
fn certs() -> CertStore {
    let anchor = KeyPair::derive(b"anchor", 0);
    let mut certs = CertStore::new();
    certs.add_anchor(anchor.public());
    certs
        .register(Certificate::issue("/prov", provider().public(), &anchor))
        .unwrap();
    certs
}

fn router_with_cache(role: RouterRole, cache_level: AccessLevel) -> TacticRouter {
    let mut config = RouterConfig::paper(role);
    config.access_path_enabled = true;
    let mut r = TacticRouter::new(config, certs());
    r.mark_downstream(CLIENT);
    r.add_route("/prov".parse().unwrap(), UP, 1);
    // Pre-cache protected content so every hostile Interest faces the full
    // Protocol 3 decision.
    let mut d = Data::new("/prov/obj0/c0".parse().unwrap(), Payload::Synthetic(1024));
    ext::set_data_access_level(&mut d, cache_level);
    ext::set_data_key_locator(&mut d, &"/prov/KEY/1".parse().unwrap());
    let mut rng = Rng::seed_from_u64(0);
    let cost = CostModel::free();
    // Sneak it into the CS via the data path (PIT entry first).
    let mut i = Interest::new("/prov/obj0/c0".parse().unwrap(), u64::MAX);
    ext::set_interest_tag(&mut i, genuine_tag(AccessLevel::Level(5), 1_000));
    r.handle_interest(i, UP, SimTime::ZERO, &mut rng, &cost);
    let mut echo = d.clone();
    ext::set_data_tag(&mut echo, genuine_tag(AccessLevel::Level(5), 1_000));
    r.handle_data(echo, UP, SimTime::ZERO, &mut rng, &cost);
    r
}

fn genuine_tag(level: AccessLevel, expiry_secs: u64) -> SignedTag {
    Tag {
        provider_key_locator: "/prov/KEY/1".parse().unwrap(),
        access_level: level,
        client_key_locator: "/prov/users/honest/KEY".parse().unwrap(),
        access_path: AccessPath::EMPTY,
        expiry: SimTime::from_secs(expiry_secs),
    }
    .sign(&provider())
}

/// A hostile tag: arbitrary fields, arbitrary (usually bogus) signature.
fn arb_hostile_tag() -> impl Strategy<Value = SignedTag> {
    (
        any::<u8>(),         // access level byte
        any::<u64>(),        // access path
        0u64..2_000,         // expiry seconds
        any::<u64>(),        // forged signature seed
        proptest::bool::ANY, // correct provider locator or not
    )
        .prop_map(|(al, ap, exp, sig_seed, right_provider)| {
            let locator = if right_provider {
                "/prov/KEY/1"
            } else {
                "/mallory/KEY/1"
            };
            SignedTag::new(
                Tag {
                    provider_key_locator: locator.parse().unwrap(),
                    access_level: AccessLevel::from_byte(al),
                    client_key_locator: "/prov/users/evil/KEY".parse().unwrap(),
                    access_path: AccessPath::from_u64(ap),
                    expiry: SimTime::from_secs(exp),
                },
                Signature::forged(sig_seed),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No forged tag — whatever its fields claim — ever pulls protected
    /// cached content out of a client-side face.
    #[test]
    fn forged_tags_never_receive_content(tag in arb_hostile_tag(), now_secs in 0u64..1_000, seed in any::<u64>()) {
        let mut r = edge_router_with_cache(AccessLevel::Level(1));
        let mut rng = Rng::seed_from_u64(seed);
        let cost = CostModel::free();
        let mut i = Interest::new("/prov/obj0/c0".parse().unwrap(), 7);
        ext::set_interest_tag(&mut i, &tag);
        ext::set_interest_access_path(&mut i, tag.tag.access_path); // even a matching path
        let out = r.handle_interest(i, CLIENT, SimTime::from_secs(now_secs), &mut rng, &cost);
        for (face, pkt) in &out.sends {
            if *face == CLIENT {
                prop_assert!(
                    !matches!(pkt, Packet::Data(_)),
                    "forged tag pulled content to the client face"
                );
            }
        }
    }

    /// Interests without any tag never pull protected cached content.
    #[test]
    fn untagged_interests_never_receive_protected_content(nonce in any::<u64>(), now_secs in 0u64..1_000) {
        let mut r = edge_router_with_cache(AccessLevel::Level(1));
        let mut rng = Rng::seed_from_u64(1);
        let cost = CostModel::free();
        let i = Interest::new("/prov/obj0/c0".parse().unwrap(), nonce);
        let out = r.handle_interest(i, CLIENT, SimTime::from_secs(now_secs), &mut rng, &cost);
        for (face, pkt) in &out.sends {
            prop_assert!(!(*face == CLIENT && matches!(pkt, Packet::Data(_))));
        }
    }

    /// A GENUINE tag is honoured exactly when it should be: unexpired,
    /// matching path, sufficient level.
    #[test]
    fn genuine_tags_follow_the_rules(level_byte in 0u8..6, expiry in 1u64..200, now in 0u64..200, path_seed in any::<u64>()) {
        let level = AccessLevel::from_byte(level_byte);
        let tag = Tag {
            provider_key_locator: "/prov/KEY/1".parse().unwrap(),
            access_level: level,
            client_key_locator: "/prov/users/honest/KEY".parse().unwrap(),
            access_path: AccessPath::from_u64(path_seed),
            expiry: SimTime::from_secs(expiry),
        }
        .sign(&provider());
        let mut r = edge_router_with_cache(AccessLevel::Level(1));
        let mut rng = Rng::seed_from_u64(2);
        let cost = CostModel::free();
        let mut i = Interest::new("/prov/obj0/c0".parse().unwrap(), 9);
        ext::set_interest_tag(&mut i, &tag);
        ext::set_interest_access_path(&mut i, tag.tag.access_path);
        let out = r.handle_interest(i, CLIENT, SimTime::from_secs(now), &mut rng, &cost);
        let served = out
            .sends
            .iter()
            .any(|(f, p)| *f == CLIENT && matches!(p, Packet::Data(d) if ext::data_nack(d).is_none()));
        let should_serve = expiry > now && level.satisfies(AccessLevel::Level(1));
        prop_assert_eq!(served, should_serve, "expiry {} now {} level {}", expiry, now, level);
    }

    /// Data carrying a NACK marker never reaches a client-side face.
    #[test]
    fn nacked_content_never_reaches_clients(sig_seed in any::<u64>(), f_flag in 0.0f64..1.0) {
        let mut r = edge_router_with_cache(AccessLevel::Level(1));
        let mut rng = Rng::seed_from_u64(3);
        let cost = CostModel::free();
        // A pending hostile request...
        let mut hostile = genuine_tag(AccessLevel::Level(3), 1_000);
        hostile.signature = Signature::forged(sig_seed);
        let mut i = Interest::new("/prov/obj1/c0".parse().unwrap(), 11);
        ext::set_interest_tag(&mut i, &hostile);
        ext::set_interest_access_path(&mut i, hostile.tag.access_path);
        r.handle_interest(i, CLIENT, SimTime::ZERO, &mut rng, &cost);
        // ...answered upstream with content + NACK.
        let mut d = Data::new("/prov/obj1/c0".parse().unwrap(), Payload::Synthetic(512));
        ext::set_data_access_level(&mut d, AccessLevel::Level(1));
        ext::set_data_key_locator(&mut d, &"/prov/KEY/1".parse().unwrap());
        ext::set_data_tag(&mut d, &hostile);
        ext::set_data_flag_f(&mut d, f_flag);
        ext::set_data_nack(&mut d, tactic_ndn::packet::NackReason::InvalidTag);
        let out = r.handle_data(d, UP, SimTime::ZERO, &mut rng, &cost);
        for (face, pkt) in &out.sends {
            if *face == CLIENT {
                if let Packet::Data(dd) = pkt {
                    prop_assert!(ext::data_nack(dd).is_none(), "NACKed content leaked to client");
                }
            }
        }
    }

    /// Protocol 4 at an edge router: a genuine tag whose level is too low,
    /// already in the edge filter (so its request carries `F ≠ 0`),
    /// aggregates behind a valid high-level request. Whatever the `F` coin
    /// draws, the Data answering the high one never reaches the low one.
    #[test]
    fn aggregated_requesters_never_receive_above_their_level(seed in any::<u64>(), low_byte in 0u8..6, gap in 1u8..6) {
        const LOW: FaceId = FaceId::new(2);
        let low = AccessLevel::from_byte(low_byte);
        let level = AccessLevel::from_byte(low_byte + gap);
        let low_tag = genuine_tag(low, 1_000);
        let high_tag = genuine_tag(AccessLevel::Level(20), 1_000);
        let mut r = TacticRouter::new(RouterConfig::paper(RouterRole::Edge), certs());
        r.mark_downstream(CLIENT);
        r.mark_downstream(LOW);
        r.add_route("/prov".parse().unwrap(), UP, 1);
        let (mut rng, cost, t0) = (Rng::seed_from_u64(seed), CostModel::free(), SimTime::ZERO);
        let content = |name: &str, tag: &SignedTag| {
            let mut d = Data::new(name.parse().unwrap(), Payload::Synthetic(512));
            ext::set_data_access_level(&mut d, level);
            ext::set_data_key_locator(&mut d, &"/prov/KEY/1".parse().unwrap());
            ext::set_data_tag(&mut d, tag);
            ext::set_data_flag_f(&mut d, 0.0);
            d
        };
        let interest = |name: &str, nonce, tag: &SignedTag| {
            let mut i = Interest::new(name.parse().unwrap(), nonce);
            ext::set_interest_tag(&mut i, tag);
            i
        };
        // The low tag's own first request: the upstream vouches (F = 0 in
        // the echo), so the edge inserts it into its filter.
        r.handle_interest(interest("/prov/obj1/c0", 1, &low_tag), LOW, t0, &mut rng, &cost);
        r.handle_data(content("/prov/obj1/c0", &low_tag), UP, t0, &mut rng, &cost);
        // The high request goes upstream; the low one, now F ≠ 0, aggregates.
        let high = interest("/prov/obj0/c0", 2, &high_tag);
        let up = r.handle_interest(high, CLIENT, t0, &mut rng, &cost);
        prop_assert!(matches!(&up.sends[..], [(UP, Packet::Interest(_))]));
        let low_req = interest("/prov/obj0/c0", 3, &low_tag);
        let agg = r.handle_interest(low_req, LOW, t0, &mut rng, &cost);
        prop_assert!(agg.sends.is_empty(), "the low request aggregates");
        let out = r.handle_data(content("/prov/obj0/c0", &high_tag), UP, t0, &mut rng, &cost);
        let data_to = |face| out.sends.iter().any(|(f, p)| *f == face && matches!(p, Packet::Data(_)));
        prop_assert!(data_to(CLIENT));
        prop_assert!(!data_to(LOW), "level {} content reached a level {} tag", level, low);
    }
}

/// Counts the signature checks a handler reports, by verdict.
#[derive(Debug, Default, PartialEq)]
struct Checks {
    valid: u64,
    invalid: u64,
}

impl ProtocolObserver for Checks {
    fn on_sig_verify(&mut self, _: Hop, valid: bool, _: bool) {
        if valid {
            self.valid += 1;
        } else {
            self.invalid += 1;
        }
    }
}

/// What one presentation of a tagged Interest does: whether it was served
/// without a NACK, the computation it charged and the next draw of its
/// RNG — equal draws, equal positions in the stream.
#[derive(Debug, PartialEq)]
struct Presented {
    served: bool,
    charged: SimDuration,
    next_draw: u64,
}

/// Runs `handle` on a transport context with a fresh paper cost model and
/// an RNG seeded with `seed`; `handle` returns the reply and its charge.
fn present(
    seed: u64,
    handle: impl FnOnce(&mut PlaneCtx<'_>) -> (Option<Packet>, SimDuration),
) -> Presented {
    let (mut rng, cost, mut drops) = (
        Rng::seed_from_u64(seed),
        CostModel::paper(),
        DropTotals::default(),
    );
    let mut ctx = PlaneCtx {
        now: SimTime::from_secs(1),
        rng: &mut rng,
        cost: &cost,
        profiler: None,
        drops: &mut drops,
    };
    let (reply, charged) = handle(&mut ctx);
    let served = match &reply {
        Some(Packet::Data(d)) => match ext::data_nack(d) {
            None => true,
            Some(reason) => {
                assert_eq!(reason, NackReason::InvalidTag);
                false
            }
        },
        _ => false,
    };
    Presented {
        served,
        charged,
        next_draw: rng.next_u64(),
    }
}

/// A tag's verdict is memoised per instance, but only host work is saved:
/// one forged instance presented again and again to a content router and
/// to the provider is refused every time, reported every time, and
/// charged every time exactly what a forgery nothing has checked costs.
#[test]
fn a_forgery_presented_again_is_refused_and_charged_again() {
    const N: u64 = 6;
    let forged = Arc::new({
        let mut t = genuine_tag(AccessLevel::Level(5), 1_000);
        t.signature = Signature::forged(11);
        t
    });
    let interest = |tag: &Arc<SignedTag>, nonce| {
        let mut i = Interest::new("/prov/obj0/c0".parse().unwrap(), nonce);
        ext::set_interest_tag(&mut i, tag.clone());
        i
    };
    // A copy no one has verified: its verdict is computed, not recalled.
    let cold = || Arc::new(SignedTag::clone(&forged));

    // Protocol 3 at a content router, on the cached chunk.
    let mut router = router_with_cache(RouterRole::Core, AccessLevel::Level(1));
    let mut checks = Checks::default();
    let before = router.counters().sig_verifications;
    for k in 0..N {
        let mut via_router = |tag: &Arc<SignedTag>, obs: &mut Checks| {
            present(k, |ctx| {
                let mut reply = None;
                let send = &mut |_, packet| reply = Some(packet);
                let charged = router.handle(
                    Packet::Interest(interest(tag, 100 + k)),
                    UP,
                    0,
                    obs,
                    ctx,
                    send,
                );
                (reply, charged)
            })
        };
        let memoised = via_router(&forged, &mut checks);
        let fresh = via_router(&cold(), &mut Checks::default());
        assert!(!memoised.served, "presentation {k}: the forgery was served");
        assert!(memoised.charged > SimDuration::ZERO);
        assert_eq!(
            memoised, fresh,
            "presentation {k}: charged unlike a fresh check"
        );
    }
    assert_eq!(
        checks,
        Checks {
            valid: 0,
            invalid: N
        }
    );
    assert_eq!(router.counters().sig_verifications - before, 2 * N);

    // The origin.
    let mut origin = Provider::new(ProviderConfig::paper("/prov".parse().unwrap()));
    let mut checks = Checks::default();
    for k in 0..N {
        let memoised = present(k, |ctx| {
            origin.handle(&interest(&forged, k), 0, &mut checks, ctx)
        });
        let fresh = present(k, |ctx| {
            origin.handle(&interest(&cold(), k), 0, &mut Checks::default(), ctx)
        });
        assert!(!memoised.served, "presentation {k}: the forgery was served");
        assert!(memoised.charged > SimDuration::ZERO);
        assert_eq!(
            memoised, fresh,
            "presentation {k}: charged unlike a fresh check"
        );
    }
    assert_eq!(
        checks,
        Checks {
            valid: 0,
            invalid: N
        }
    );
    assert_eq!(origin.counters().nacks, 2 * N);
    assert_eq!(origin.counters().chunks_served, 0);
}
