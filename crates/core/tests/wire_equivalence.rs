//! The in-memory packet representation against the wire (ROADMAP 4b, a
//! differential oracle).
//!
//! In memory, annotations travel decoded — inline values and shared
//! handles (`tactic::ext`, `tactic_ndn::packet`); on the wire they are
//! TLV bytes. The two must be indistinguishable: same encoding as the
//! commit before the in-memory representation existed (pinned vectors),
//! same size as the link model charges, and the same answer from every
//! `ext` reader whether a packet was annotated in memory or came off the
//! wire.

use std::sync::Arc;

use proptest::prelude::*;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::ext;
use tactic::provider::{registration_interest, registration_principal};
use tactic::tag::{SignedTag, Tag};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Data, Interest, NackReason, Packet, Payload};
use tactic_ndn::wire;
use tactic_sim::time::SimTime;

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn pinned_tag() -> SignedTag {
    Tag {
        provider_key_locator: name("/prov0/KEY/1"),
        access_level: AccessLevel::Level(2),
        client_key_locator: name("/prov0/users/u7/KEY"),
        access_path: AccessPath::of([5]),
        expiry: SimTime::from_secs(10),
    }
    .sign(&KeyPair::derive(b"/prov0", 0))
}

/// Hand-written packets whose encodings were printed by this very code
/// at the parent commit (extensions held as TLV bytes in memory).
fn pinned_packets() -> [Packet; 4] {
    let tag = pinned_tag();
    let mut interest = Interest::new(name("/prov0/obj3/c7"), 0x0102_0304_0506_0708);
    interest.set_lifetime_ms(1_000);
    ext::set_interest_tag(&mut interest, &tag);
    ext::set_interest_access_path(&mut interest, AccessPath::of([5, 9]));
    ext::set_interest_flag_f(&mut interest, 0.25);

    let mut data = Data::new(name("/prov0/obj3/c7"), Payload::Synthetic(1_024));
    ext::set_data_access_level(&mut data, AccessLevel::Level(1));
    ext::set_data_key_locator(&mut data, &name("/prov0/KEY/1"));
    let sig = KeyPair::derive(b"/prov0", 0).sign(&data.signable_bytes());
    data.set_signature(sig);
    ext::set_data_tag(&mut data, &tag);
    ext::set_data_flag_f(&mut data, 1e-4);
    ext::set_data_nack(&mut data, NackReason::InvalidTag);

    let reg = registration_interest(&name("/prov0"), 7, 3, 42);
    let mut response = Data::new(reg.name().clone(), Payload::Bytes(vec![0xAB; 5].into()));
    response.set_freshness_ms(250);
    ext::set_data_new_tag(&mut response, &tag);
    response.set_extension(0x9001, (1u8..=12).collect::<Vec<u8>>());
    response.set_extension(0x9002, vec![0xEE]);
    [interest.into(), data.into(), response.into(), reg.into()]
}

const PINNED: [&str; 4] = [
    "0500ba00000007001d00000008000500000070726f76300800040000006f626a3308000200000063370a000800000008070605040302010c0004000000e803000001805d000000150000000500000070726f7630030000004b45590100000031031f0000000500000070726f7630050000007573657273020000007537030000004b45598727f38b91c9ce3a00e40b5402000000ffe2b17a644d5f1baf5fe7bec79e3d090480080000008069fbfa1abacd05028008000000000000000000d03f",
    "0600e200000007001d00000008000500000070726f76300800040000006f626a330800020000006337170008000000000400000000000019000400000000000000160010000000c60ab1119b45db11c70d3377837922081080010000000211800c0000002f70726f76302f4b45592f3101805d000000150000000500000070726f7630030000004b45590100000031031f0000000500000070726f7630050000007573657273020000007537030000004b45598727f38b91c9ce3a00e40b5402000000ffe2b17a644d5f1baf5fe7bec79e3d090280080000002d431cebe2361a3f03800100000003",
    "0600bf00000007002800000008000500000070726f76300800080000007265676973746572080002000000753708000100000033150005000000ababababab190004000000fa00000006805d000000150000000500000070726f7630030000004b45590100000031031f0000000500000070726f7630050000007573657273020000007537030000004b45598727f38b91c9ce3a00e40b5402000000ffe2b17a644d5f1baf5fe7bec79e3d0901900c0000000102030405060708090a0b0c029001000000ee",
    "05005400000007002800000008000500000070726f763008000800000072656769737465720800020000007537080001000000330a00080000002a000000000000000c0004000000a00f00000580080000000700000000000000",
];

#[test]
fn encodings_are_the_parent_commits_byte_for_byte() {
    for (packet, expected) in pinned_packets().iter().zip(PINNED) {
        assert_eq!(hex(&wire::encode(packet)), expected, "{packet:?}");
    }
}

/// What every `ext` reader says about an Interest.
fn read_interest(i: &Interest) -> impl PartialEq + std::fmt::Debug {
    (
        ext::interest_tag(i),
        ext::interest_flag_f(i).to_bits(),
        ext::interest_access_path(i),
        ext::is_registration(i),
        registration_principal(i),
    )
}

/// What every `ext` reader says about a Data packet.
fn read_data(d: &Data) -> impl PartialEq + std::fmt::Debug {
    (
        ext::data_tag(d),
        ext::data_new_tag(d),
        ext::data_flag_f(d).to_bits(),
        ext::data_nack(d),
        ext::data_access_level(d),
        ext::data_key_locator(d),
    )
}

/// `Some` of the strategy's value, or `None`, evenly.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(present, value)| present.then_some(value))
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..8), 1..4)
        .prop_map(|comps| Name::from_components(comps.into_iter().map(Component::new).collect()))
}

fn arb_tag() -> impl Strategy<Value = Arc<SignedTag>> {
    (
        arb_name(),
        any::<u8>(),
        arb_name(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(provider, level, client, path, expiry)| {
            Arc::new(
                Tag {
                    provider_key_locator: provider,
                    access_level: AccessLevel::from_byte(level),
                    client_key_locator: client,
                    access_path: AccessPath::from_u64(path),
                    expiry: SimTime::from_nanos(expiry),
                }
                .sign(&KeyPair::derive(b"p", 0)),
            )
        })
}

/// Raw extensions of types `tactic::ext` does not know, of every length
/// class (inline, exactly at the inline limit, shared bytes).
fn arb_raw() -> impl Strategy<Value = Vec<(u16, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0x9000u16..0x9004,
            proptest::collection::vec(any::<u8>(), 0..20),
        ),
        0..3,
    )
}

fn arb_interest() -> impl Strategy<Value = Interest> {
    (
        (arb_name(), any::<u64>(), arb_raw()),
        maybe(arb_tag()),
        maybe(0.0f64..1.0),
        maybe(any::<u64>()),
        maybe(any::<u64>()),
    )
        .prop_map(|((name, nonce, raw), tag, f, path, principal)| {
            let mut i = match principal {
                Some(p) => registration_interest(&name, p, 1, nonce),
                None => Interest::new(name, nonce),
            };
            if let Some(tag) = tag {
                ext::set_interest_tag(&mut i, tag);
            }
            if let Some(path) = path {
                ext::set_interest_access_path(&mut i, AccessPath::from_u64(path));
            }
            for (ty, bytes) in raw {
                i.set_extension(ty, bytes);
            }
            if let Some(f) = f {
                ext::set_interest_flag_f(&mut i, f);
            }
            i
        })
}

fn arb_data() -> impl Strategy<Value = Data> {
    (
        arb_name(),
        prop_oneof![
            (0usize..3_000).prop_map(Payload::Synthetic),
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(|b| Payload::Bytes(b.into())),
        ],
        maybe((any::<u8>(), arb_name())),
        (maybe(arb_tag()), maybe(arb_tag())),
        (maybe(0.0f64..1.0), maybe(0usize..4)),
        arb_raw(),
    )
        .prop_map(|(name, payload, signed, (tag, new_tag), (f, nack), raw)| {
            let mut d = Data::new(name, payload);
            if let Some((level, locator)) = signed {
                ext::set_data_access_level(&mut d, AccessLevel::from_byte(level));
                ext::set_data_key_locator(&mut d, &locator);
                let sig = KeyPair::derive(b"p", 0).sign(&d.signable_bytes());
                d.set_signature(sig);
            }
            for (ty, bytes) in raw {
                d.set_extension(ty, bytes);
            }
            if let Some(tag) = tag {
                ext::set_data_tag(&mut d, tag);
            }
            if let Some(f) = f {
                ext::set_data_flag_f(&mut d, f);
            }
            if let Some(n) = nack {
                let reasons = [
                    NackReason::NoRoute,
                    NackReason::Duplicate,
                    NackReason::InvalidTag,
                    NackReason::AccessPathMismatch,
                ];
                ext::set_data_nack(&mut d, reasons[n]);
            }
            if let Some(tag) = new_tag {
                ext::set_data_new_tag(&mut d, tag);
            }
            d
        })
}

/// Encodes, checks the size the link model charges, decodes, and checks
/// the round trip is the identity under `==`.
fn round_trip(packet: &Packet) -> Result<Packet, TestCaseError> {
    let bytes = wire::encode(packet);
    // A synthetic payload is charged at its logical length but encoded
    // as an 8-byte length field.
    let unmaterialised = match packet {
        Packet::Data(d) => match d.payload() {
            Payload::Synthetic(n) => n.saturating_sub(8),
            Payload::Bytes(_) => 0,
        },
        _ => 0,
    };
    prop_assert_eq!(wire::wire_size(packet), bytes.len() + unmaterialised);
    let back = wire::decode(&bytes).expect("own encoding decodes");
    prop_assert_eq!(&back, packet);
    prop_assert_eq!(wire::encode(&back), bytes);
    Ok(back)
}

proptest! {
    #[test]
    fn an_annotated_interest_and_its_wire_copy_read_the_same(interest in arb_interest()) {
        let Packet::Interest(back) = round_trip(&interest.clone().into())? else {
            panic!("an Interest decodes as an Interest");
        };
        prop_assert_eq!(read_interest(&back), read_interest(&interest));
    }

    #[test]
    fn an_annotated_data_and_its_wire_copy_read_the_same(data in arb_data()) {
        let Packet::Data(back) = round_trip(&data.clone().into())? else {
            panic!("a Data decodes as a Data");
        };
        prop_assert_eq!(read_data(&back), read_data(&data));
        prop_assert_eq!(back.signable_bytes(), data.signable_bytes());

        // Keeping the content alone drops the per-delivery annotations
        // and leaves the same packet on both sides, and the signed fields
        // on it.
        let stripped = Data::from_content(data.clone().into_content());
        let back = Data::from_content(back.into_content());
        prop_assert_eq!(&back, &stripped);
        prop_assert_eq!(read_data(&back), read_data(&stripped));
        prop_assert_eq!(ext::data_access_level(&stripped), ext::data_access_level(&data));
        prop_assert_eq!(ext::data_key_locator(&stripped), ext::data_key_locator(&data));
        prop_assert!(ext::data_tag(&stripped).is_none() && ext::data_new_tag(&stripped).is_none());
        round_trip(&stripped.into())?;
    }
}
