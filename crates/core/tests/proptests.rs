//! Property-based tests for TACTIC's data model and protocol invariants.

use proptest::prelude::*;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::ext;
use tactic::precheck::{content_precheck, edge_precheck};
use tactic::provider::{Provider, ProviderConfig};
use tactic::tag::{SignedTag, Tag};
use tactic_crypto::hash::Digest256;
use tactic_crypto::schnorr::{KeyPair, Signature};
use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Data, Interest, Payload};
use tactic_sim::time::SimTime;

fn arb_level() -> impl Strategy<Value = AccessLevel> {
    prop_oneof![
        Just(AccessLevel::Public),
        (0u8..=254).prop_map(AccessLevel::Level)
    ]
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..10), 1..4)
        .prop_map(|comps| Name::from_components(comps.into_iter().map(Component::new).collect()))
}

fn arb_tag() -> impl Strategy<Value = Tag> {
    (
        arb_name(),
        arb_level(),
        arb_name(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(pk, al, ck, ap, exp)| Tag {
            provider_key_locator: pk,
            access_level: al,
            client_key_locator: ck,
            access_path: AccessPath::from_u64(ap),
            expiry: SimTime::from_nanos(exp),
        })
}

/// The streamed forms of a tag — what `verify`, `bloom_key`,
/// `client_identity` and a link's size compute without a buffer — against
/// their definitions over the collected bytes.
fn streamed_equals_collected(st: &SignedTag, key: &KeyPair) -> Result<(), TestCaseError> {
    let body = st.tag.to_bytes();
    let sig = st.signature.to_bytes();
    prop_assert_eq!(st.wire_len(), st.encode().len());
    prop_assert_eq!(st.tag.bytes_len(), body.len());
    prop_assert_eq!(&st.encode()[..body.len()], &body[..]);
    prop_assert_eq!(
        st.bloom_key(),
        Digest256::of_parts(&[&body, &sig]).to_bytes()
    );
    prop_assert_eq!(
        st.client_identity(),
        Digest256::of(&st.tag.client_key_locator.to_bytes()).fold64()
    );
    prop_assert_eq!(
        st.verify(&key.public()),
        key.public().verify(&body, &st.signature)
    );
    Ok(())
}

proptest! {
    #[test]
    fn streamed_tag_digests_and_checks_equal_the_collected_bytes(tag in arb_tag(), nonce in 0u64..1000, forgery in any::<u64>(), field in 0usize..6, other in arb_tag()) {
        let key = KeyPair::derive(b"any-provider", nonce);
        let genuine = tag.clone().sign(&key);
        prop_assert!(genuine.verify(&key.public()));
        streamed_equals_collected(&genuine, &key)?;
        // A forged signature on the genuine body.
        let forged = SignedTag::new(tag, Signature::forged(forgery));
        prop_assert!(!forged.verify(&key.public()));
        streamed_equals_collected(&forged, &key)?;
        // Copies decoded off the wire.
        for st in [&genuine, &forged] {
            let decoded = SignedTag::decode(&st.encode()).unwrap();
            prop_assert_eq!(decoded.bloom_key(), st.bloom_key());
            streamed_equals_collected(&decoded, &key)?;
        }
        // Clone-then-mutate forgeries of a warmed tag: one field swapped
        // for another tag's.
        genuine.bloom_key();
        genuine.client_identity();
        let mut mutated = genuine.clone();
        match field {
            0 => mutated.tag.provider_key_locator = other.provider_key_locator,
            1 => mutated.tag.access_level = other.access_level,
            2 => mutated.tag.client_key_locator = other.client_key_locator,
            3 => mutated.tag.access_path = other.access_path,
            4 => mutated.tag.expiry = other.expiry,
            _ => mutated.signature = Signature::forged(forgery),
        }
        streamed_equals_collected(&mutated, &key)?;
        if mutated != genuine {
            prop_assert!(!mutated.verify(&key.public()));
        }
    }

    #[test]
    fn streamed_data_signatures_equal_signatures_over_the_signable_bytes(tag in arb_tag(), obj in 0usize..50, chunk in 0usize..50, level in arb_level(), f in 0.0f64..1.0) {
        let mut provider = Provider::new(ProviderConfig::paper("/prov0".parse().unwrap()));
        let d = provider.build_chunk(obj, chunk);
        let key = provider.keypair();
        prop_assert_eq!(d.signable_len(), d.signable_bytes().len());
        prop_assert_eq!(d.signature(), Some(&key.sign(&d.signable_bytes())));
        // Any content, annotated or not: the streamed signature is the
        // signature over the collected bytes, and so is the check.
        let mut d = d;
        ext::set_data_access_level(&mut d, level);
        ext::set_data_tag(&mut d, tag.sign(key));
        ext::set_data_flag_f(&mut d, f);
        let streamed = key.sign_with(d.signable_len(), |out| d.write_signable(out));
        prop_assert_eq!(streamed, key.sign(&d.signable_bytes()));
        let signature = d.signature().copied().unwrap();
        prop_assert_eq!(
            key.public().verify_with(d.signable_len(), |out| d.write_signable(out), &signature),
            key.public().verify(&d.signable_bytes(), &signature)
        );
    }

    #[test]
    fn access_level_satisfies_is_a_total_preorder(a in arb_level(), b in arb_level(), c in arb_level()) {
        // Reflexive.
        prop_assert!(a.satisfies(a));
        // Total: a satisfies b or b satisfies a.
        prop_assert!(a.satisfies(b) || b.satisfies(a));
        // Transitive.
        if a.satisfies(b) && b.satisfies(c) {
            prop_assert!(a.satisfies(c));
        }
        // Consistent with Ord.
        prop_assert_eq!(a.satisfies(b), a >= b);
    }

    #[test]
    fn access_level_byte_roundtrip(a in arb_level()) {
        prop_assert_eq!(AccessLevel::from_byte(a.to_byte()), a);
    }

    #[test]
    fn access_path_is_commutative_and_self_inverse(ids in proptest::collection::vec(any::<u64>(), 0..10), extra in any::<u64>()) {
        let forward = AccessPath::of(ids.clone());
        let mut reversed = ids.clone();
        reversed.reverse();
        prop_assert_eq!(forward, AccessPath::of(reversed));
        // Adding then removing an entity is the identity.
        prop_assert_eq!(forward.extended(extra).extended(extra), forward);
    }

    #[test]
    fn tag_encode_decode_roundtrip(tag in arb_tag(), nonce in 0u64..1000) {
        let kp = KeyPair::derive(b"any-provider", nonce);
        let st = tag.sign(&kp);
        let back = SignedTag::decode(&st.encode()).unwrap();
        prop_assert_eq!(&back, &st);
        prop_assert!(back.verify(&kp.public()));
    }

    /// `SignedTag::decode` is total and canonical on hostile input: it
    /// returns an error or a tag that re-encodes to exactly the input —
    /// never a panic — on every truncation and every single-bit flip of
    /// a valid encoding. (Forged tags reach routers through this path.)
    #[test]
    fn tag_decode_survives_every_truncation_and_bit_flip(tag in arb_tag()) {
        let kp = KeyPair::derive(b"p", 0);
        let bytes = tag.sign(&kp).encode();
        for cut in 0..bytes.len() {
            prop_assert!(SignedTag::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert!(SignedTag::decode(&longer).is_err(), "trailing byte");
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = SignedTag::decode(&flipped) {
                prop_assert_eq!(&back.encode(), &flipped, "bit {}", bit);
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn tag_decode_of_arbitrary_bytes_is_an_error_or_canonical(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        if let Ok(tag) = SignedTag::decode(&bytes) {
            prop_assert_eq!(tag.encode(), bytes);
        }
    }

    #[test]
    fn edge_precheck_accepts_iff_prefix_and_freshness(tag in arb_tag(), now_ns in any::<u64>()) {
        let now = SimTime::from_nanos(now_ns);
        let content = tag.provider_prefix().child("obj").child("c0");
        let verdict = edge_precheck(&tag, &content, now);
        prop_assert_eq!(verdict.is_ok(), !tag.is_expired(now));
    }

    #[test]
    fn edge_precheck_rejects_foreign_prefixes(tag in arb_tag(), other in arb_name()) {
        prop_assume!(other.prefix(1) != tag.provider_prefix());
        let verdict = edge_precheck(&tag, &other, SimTime::ZERO);
        prop_assert!(verdict.is_err());
    }

    #[test]
    fn content_precheck_mirrors_satisfies(tag in arb_tag(), content_level in arb_level()) {
        let verdict = content_precheck(&tag, content_level, &tag.provider_key_locator);
        prop_assert_eq!(verdict.is_ok(), tag.access_level.satisfies(content_level));
    }

    #[test]
    fn interest_tag_extension_roundtrip(tag in arb_tag(), name in arb_name(), nonce in any::<u64>()) {
        let kp = KeyPair::derive(b"p", 0);
        let st = tag.sign(&kp);
        let mut i = Interest::new(name, nonce);
        ext::set_interest_tag(&mut i, &st);
        let got = ext::interest_tag(&i);
        prop_assert_eq!(got.as_deref(), Some(&st));
    }

    #[test]
    fn data_annotations_roundtrip_and_strip(tag in arb_tag(), f in 0.0f64..1.0, level in arb_level()) {
        let kp = KeyPair::derive(b"p", 0);
        let st = tag.sign(&kp);
        let mut d = Data::new("/x/y".parse().unwrap(), Payload::Synthetic(10));
        ext::set_data_access_level(&mut d, level);
        ext::set_data_tag(&mut d, &st);
        ext::set_data_flag_f(&mut d, f);
        let got = ext::data_tag(&d);
        prop_assert_eq!(got.as_deref(), Some(&st));
        prop_assert_eq!(ext::data_flag_f(&d), f);
        let d = Data::from_content(d.into_content());
        prop_assert_eq!(ext::data_tag(&d), None);
        prop_assert_eq!(ext::data_flag_f(&d), 0.0);
        prop_assert_eq!(ext::data_access_level(&d), level, "signed fields survive stripping");
    }

    #[test]
    fn garbage_extension_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut i = Interest::new("/x".parse().unwrap(), 1);
        i.set_extension(ext::EXT_TAG, bytes.clone());
        let _ = ext::interest_tag(&i);
        let mut d = Data::new("/x".parse().unwrap(), Payload::Synthetic(1));
        d.set_extension(ext::EXT_TAG, bytes.clone());
        d.set_extension(ext::EXT_FLAG_F, bytes.clone());
        d.set_extension(ext::EXT_NACK, bytes);
        let _ = ext::data_tag(&d);
        let _ = ext::data_flag_f(&d);
        let _ = ext::data_nack(&d);
    }
}
