//! Property-based tests for the NDN substrate: codec round-trips and
//! table invariants.

use proptest::prelude::*;

use tactic_ndn::cs::ContentStore;
use tactic_ndn::face::FaceId;
use tactic_ndn::fib::Fib;
use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Data, Interest, Nack, NackReason, Packet, Payload};
use tactic_ndn::pit::Pit;
use tactic_ndn::table::{Keyed, NameTable};
use tactic_ndn::wire;
use tactic_sim::time::SimTime;

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..5)
        .prop_map(|comps| Name::from_components(comps.into_iter().map(Component::new).collect()))
}

/// A table entry whose name hash is forced into one of five values, so
/// the index's runs collide, merge and wrap around its end.
#[derive(Debug, Clone)]
struct Rigged {
    name: Name,
    hash: u64,
}

impl Keyed for Rigged {
    fn name(&self) -> &Name {
        &self.name
    }

    fn key_hash(&self) -> u64 {
        self.hash
    }
}

fn rigged_hash(i: usize) -> u64 {
    // Low bits pick the home bucket: neighbours, and one at the end.
    [5, 6, 7, 63, 127][i % 5] | (i as u64) << 48
}

fn arb_interest() -> impl Strategy<Value = Interest> {
    (
        arb_name(),
        any::<u64>(),
        1u32..100_000,
        proptest::collection::vec(
            (
                0x8000u16..0x9000,
                proptest::collection::vec(any::<u8>(), 0..64),
            ),
            0..4,
        ),
    )
        .prop_map(|(name, nonce, lifetime, exts)| {
            let mut i = Interest::new(name, nonce);
            i.set_lifetime_ms(lifetime);
            for (t, v) in exts {
                i.set_extension(t, v);
            }
            i
        })
}

fn arb_data() -> impl Strategy<Value = Data> {
    (
        arb_name(),
        prop_oneof![
            (0usize..100_000).prop_map(Payload::Synthetic),
            proptest::collection::vec(any::<u8>(), 0..256)
                .prop_map(|v: Vec<u8>| Payload::Bytes(v.into())),
        ],
        any::<u32>(),
        proptest::collection::vec(
            (
                0x8000u16..0x9000,
                proptest::collection::vec(any::<u8>(), 0..64),
            ),
            0..4,
        ),
    )
        .prop_map(|(name, payload, freshness, exts)| {
            let mut d = Data::new(name, payload);
            d.set_freshness_ms(freshness);
            for (t, v) in exts {
                d.set_extension(t, v);
            }
            d
        })
}

/// `name` as a view into a block that holds `before` ahead of it and
/// `after` behind it — how the catalog lays an object's chunk names
/// side by side.
fn in_block(before: &Name, name: &Name, after: &Name) -> Name {
    let block: Arc<[Component]> = [before, name, after]
        .iter()
        .flat_map(|n| n.components().iter().cloned())
        .collect();
    Name::view(&block, before.len()..before.len() + name.len())
}

/// `name`, parsed on its own from its URI form.
fn alone(name: &Name) -> Name {
    name.to_string().parse().expect("a name's URI parses")
}

/// Byte strings on both sides of the 7/8-byte boundary between an inline
/// and a shared component.
fn arb_component_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..17)
}

fn default_hash(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The URI spelling of a component's bytes, written out independently.
fn escaped(bytes: &[u8]) -> String {
    let plain = |b: u8| b.is_ascii_alphanumeric() || b"-_.~".contains(&b);
    bytes
        .iter()
        .map(|&b| {
            if plain(b) {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// A name whose components straddle the inline limit (7 and 8 bytes)
/// survives the wire codec in both forms.
#[test]
fn components_of_seven_and_eight_bytes_roundtrip_through_the_wire() {
    let name: Name = "/prov123/1234567/12345678/register/u999999/u1000000"
        .parse()
        .unwrap();
    let lens: Vec<usize> = name.components().iter().map(Component::len).collect();
    assert_eq!(lens, [7, 7, 8, 8, 7, 8]);
    let pkt = Packet::from(Interest::new(name.clone(), 9));
    let decoded = wire::decode(&wire::encode(&pkt)).unwrap();
    assert_eq!(decoded, pkt);
    assert_eq!(decoded.name().to_string(), name.to_string());
    assert_eq!(decoded.name().hash64(), name.hash64());
}

proptest! {
    /// Whether a component holds its bytes inline (up to 7) or shared
    /// (8 and more), it is those bytes to everything that reads it: the
    /// same bytes held as an `Arc<[u8]>` compare, order, hash and print
    /// alike.
    #[test]
    fn components_behave_as_their_bytes_in_either_form(
        a in arb_component_bytes(),
        b in arb_component_bytes(),
        same in any::<bool>(),
    ) {
        let b = if same { a.clone() } else { b };
        let (ca, cb) = (Component::from(&a[..]), Component::from(&b[..]));
        let (ra, rb): (Arc<[u8]>, Arc<[u8]>) = (a.clone().into(), b.clone().into());
        prop_assert_eq!(ca.as_bytes(), &a[..]);
        let owned = Component::new(a.clone());
        prop_assert_eq!(owned.as_bytes(), &a[..]);
        prop_assert_eq!(ca.len(), a.len());
        prop_assert_eq!(ca == cb, ra == rb);
        prop_assert_eq!(ca.cmp(&cb), ra.cmp(&rb));
        prop_assert_eq!(ca.partial_cmp(&cb), ra.partial_cmp(&rb));
        prop_assert_eq!(default_hash(&ca), default_hash(&ra));
        prop_assert_eq!(format!("{ca:?}"), format!("Component({ra:?})"));
        prop_assert_eq!(ca.to_string(), escaped(&ra));
        #[allow(clippy::redundant_clone)]
        let cloned = ca.clone();
        prop_assert_eq!(cloned.as_bytes(), &a[..]);
    }

    #[test]
    fn name_uri_roundtrip(name in arb_name()) {
        let uri = name.to_string();
        let back: Name = uri.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn name_prefix_relation_is_reflexive_and_monotone(name in arb_name(), take in 0usize..6) {
        prop_assert!(name.is_prefix_of(&name));
        let p = name.prefix(take);
        prop_assert!(p.is_prefix_of(&name));
        prop_assert!(p.len() <= name.len());
    }

    #[test]
    fn name_prefix_view_equals_owned_rebuild(name in arb_name(), take in 0usize..6) {
        // A prefix is a view sharing the parent's interned buffer; it must
        // be indistinguishable from a name built from scratch out of the
        // same components — equality, ordering, and hashing included.
        let take = take.min(name.len());
        let view = name.prefix(take);
        let owned = Name::from_components(name.components()[..take].to_vec());
        prop_assert_eq!(&view, &owned);
        prop_assert_eq!(view.cmp(&owned), std::cmp::Ordering::Equal);
        let mut map = std::collections::HashMap::new();
        map.insert(owned, 7u32);
        prop_assert_eq!(map.get(&view), Some(&7));
    }

    #[test]
    fn name_hash_is_repr_independent(name in arb_name()) {
        // The precomputed hash must depend only on the component bytes,
        // never on how the name was produced (parsed, rebuilt, cloned).
        use std::hash::{BuildHasher, RandomState};
        let s = RandomState::new();
        let reparsed: Name = name.to_string().parse().unwrap();
        let rebuilt = Name::from_components(name.components().to_vec());
        prop_assert_eq!(s.hash_one(&name), s.hash_one(&reparsed));
        prop_assert_eq!(s.hash_one(&name), s.hash_one(&rebuilt));
        #[allow(clippy::redundant_clone)]
        let cloned = name.clone();
        prop_assert_eq!(s.hash_one(&name), s.hash_one(&cloned));
    }

    /// A view into a shared block is the name it shows, to everything
    /// that reads a name: compared, hashed, ordered, printed, serialised,
    /// sent, cut and extended, it is that name parsed on its own.
    #[test]
    fn a_view_into_a_block_is_the_name_it_shows(
        name in arb_name(),
        other in arb_name(),
        before in arb_name(),
        after in arb_name(),
        take in 0usize..6,
        tail in arb_name(),
    ) {
        let view = in_block(&before, &name, &after);
        let (own, other_view, other_own) =
            (alone(&name), in_block(&after, &other, &before), alone(&other));
        prop_assert_eq!(&view, &own);
        prop_assert_eq!(view.len(), own.len());
        prop_assert_eq!(view.components(), own.components());
        prop_assert_eq!(view.hash64(), own.hash64());
        prop_assert_eq!(default_hash(&view), default_hash(&own));
        prop_assert_eq!(view == other_view, own == other_own);
        prop_assert_eq!(view.cmp(&other_view), own.cmp(&other_own));
        prop_assert_eq!(view.to_string(), own.to_string());
        prop_assert_eq!(format!("{view:?}"), format!("{own:?}"));
        prop_assert_eq!(view.to_bytes(), own.to_bytes());
        prop_assert_eq!(view.bytes_len(), own.bytes_len());

        let pkt = Packet::from(Interest::new(view.clone(), 7));
        let encoded = wire::encode(&pkt);
        prop_assert_eq!(&encoded, &wire::encode(&Packet::from(Interest::new(own.clone(), 7))));
        prop_assert_eq!(wire::wire_size(&pkt), encoded.len());
        match wire::decode(&encoded).unwrap() {
            Packet::Interest(back) => prop_assert_eq!(back.name(), &own),
            other => prop_assert!(false, "decoded {other:?}"),
        }

        prop_assert_eq!(view.prefix(take), own.prefix(take));
        prop_assert_eq!(view.prefix(take).hash64(), own.prefix(take).hash64());
        prop_assert_eq!(view.parent(), own.parent());
        prop_assert_eq!(view.parent().to_string(), own.parent().to_string());
        prop_assert_eq!(
            view.prefix_hashes().collect::<Vec<_>>(),
            own.prefix_hashes().collect::<Vec<_>>()
        );
        prop_assert_eq!(view.is_prefix_of(&other_view), own.is_prefix_of(&other_own));
        prop_assert_eq!(other_view.is_prefix_of(&view), other_own.is_prefix_of(&own));
        prop_assert!(view.prefix(take).is_prefix_of(&own));
        let joined = view.join(tail.components());
        prop_assert_eq!(&joined, &own.join(tail.components()));
        prop_assert_eq!(joined.hash64(), own.join(tail.components()).hash64());
        prop_assert_eq!(joined.components(), &[own.components(), tail.components()].concat()[..]);
    }

    #[test]
    fn prefix_compare_matches_structural_definition(a in arb_name(), b in arb_name()) {
        let structural = a.len() <= b.len() && a.components() == &b.components()[..a.len()];
        prop_assert_eq!(a.is_prefix_of(&b), structural);
    }

    #[test]
    fn interest_wire_roundtrip(interest in arb_interest()) {
        let pkt = Packet::from(interest);
        let encoded = wire::encode(&pkt);
        prop_assert_eq!(wire::wire_size(&pkt), encoded.len());
        prop_assert_eq!(wire::decode(&encoded).unwrap(), pkt);
    }

    #[test]
    fn data_wire_roundtrip(data in arb_data()) {
        let pkt = Packet::from(data);
        let encoded = wire::encode(&pkt);
        prop_assert_eq!(wire::decode(&encoded).unwrap(), pkt);
    }

    /// A set of extensions that once outgrew a packet's inline room
    /// lives on the heap from then on. Through everything a packet
    /// offers, such a packet is the packet that never spilled.
    #[test]
    fn inline_and_spilled_extension_storage_are_indistinguishable(
        name in arb_name(),
        ops in proptest::collection::vec(
            (any::<bool>(), 0usize..6, proptest::collection::vec(any::<u8>(), 0..20)),
            0..24,
        ),
    ) {
        // Three annotation types, three of a Data's signed types.
        const TYPES: [u16; 6] = [0x8001, 0x8002, 0x9003, 0x8010, 0x8011, 0x8012];
        // Types the operations never use, to push a set over the edge.
        const FILL: std::ops::Range<u16> = 0xA000..0xA004;
        let signed_fill = |ty: u16| ty - FILL.start + 0x8020;
        let mut inline_i = Interest::new(name.clone(), 1);
        let mut spilled_i = inline_i.clone();
        let mut inline_d = Data::new(name, Payload::Synthetic(9));
        let mut spilled_d = inline_d.clone();
        for ty in FILL {
            spilled_i.set_extension(ty, [1]);
            spilled_d.set_extension(ty, [1]);
            spilled_d.set_extension(signed_fill(ty), [1]);
        }
        for ty in FILL {
            prop_assert!(spilled_i.remove_extension(ty) && spilled_d.remove_extension(ty));
            prop_assert!(spilled_d.remove_extension(signed_fill(ty)));
        }
        for (set, ty, value) in ops {
            let ty = TYPES[ty];
            if set {
                inline_i.set_extension(ty, value.clone());
                spilled_i.set_extension(ty, value.clone());
                inline_d.set_extension(ty, value.clone());
                spilled_d.set_extension(ty, value);
            } else {
                let had = inline_i.remove_extension(ty);
                prop_assert_eq!(spilled_i.remove_extension(ty), had);
                prop_assert_eq!(inline_d.remove_extension(ty), had);
                prop_assert_eq!(spilled_d.remove_extension(ty), had);
            }
            for ty in TYPES {
                prop_assert_eq!(inline_i.extension(ty), spilled_i.extension(ty));
                prop_assert_eq!(inline_d.extension(ty), spilled_d.extension(ty));
                prop_assert_eq!(inline_i.extension(ty), inline_d.extension(ty));
            }
            prop_assert_eq!(&inline_i, &spilled_i);
            prop_assert_eq!(&inline_d, &spilled_d);
            prop_assert_eq!(format!("{inline_i:?}"), format!("{spilled_i:?}"));
            prop_assert_eq!(format!("{inline_d:?}"), format!("{spilled_d:?}"));
            prop_assert_eq!(inline_d.signable_bytes(), spilled_d.signable_bytes());
            for (a, b) in [
                (Packet::from(inline_i.clone()), Packet::from(spilled_i.clone())),
                (Packet::from(inline_d.clone()), Packet::from(spilled_d.clone())),
            ] {
                prop_assert_eq!(wire::encode(&a), wire::encode(&b));
                prop_assert_eq!(wire::wire_size(&a), wire::wire_size(&b));
                prop_assert_eq!(wire::decode(&wire::encode(&b)).unwrap(), a);
            }
        }
    }

    #[test]
    fn nack_wire_roundtrip(interest in arb_interest()) {
        let pkt = Packet::from(Nack::new(interest, NackReason::InvalidTag));
        let encoded = wire::encode(&pkt);
        prop_assert_eq!(wire::wire_size(&pkt), encoded.len());
        prop_assert_eq!(wire::decode(&encoded).unwrap(), pkt);
    }

    #[test]
    fn mutated_wire_never_panics(
        data in arb_data(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        // Corrupt arbitrary bytes of a valid encoding — including TLV
        // length fields, whose forged values feed the reader's offset
        // arithmetic — and require a clean Ok/Err, never a panic.
        let mut encoded = wire::encode(&Packet::from(data));
        for (pos, byte) in flips {
            let idx = pos % encoded.len();
            encoded[idx] = byte;
        }
        let _ = wire::decode(&encoded);
    }

    #[test]
    fn forged_max_length_tlv_is_rejected_not_panicking(data in arb_data()) {
        // Overwrite the outermost TLV length with u32::MAX: the reader's
        // `start + len` must fail closed as Truncated (an unchecked add
        // would wrap on 32-bit targets and mis-slice).
        let mut encoded = wire::encode(&Packet::from(data));
        encoded[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert_eq!(wire::decode(&encoded), Err(wire::WireError::Truncated));
    }

    #[test]
    fn truncated_wire_never_panics(data in arb_data(), cut_frac in 0.0f64..1.0) {
        let encoded = wire::encode(&Packet::from(data));
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        // Must error or produce a packet, never panic.
        let _ = wire::decode(&encoded[..cut]);
    }

    #[test]
    fn fib_lpm_returns_a_registered_prefix(prefixes in proptest::collection::vec(arb_name(), 1..10), lookup in arb_name()) {
        let mut fib = Fib::new();
        for (i, p) in prefixes.iter().enumerate() {
            fib.add_route(p.clone(), FaceId::new(i as u32), 1);
        }
        if let Some(hops) = fib.lookup(&lookup) {
            prop_assert!(!hops.is_empty());
            // The matched prefix must actually prefix the lookup name.
            let matched = &prefixes[hops[0].face.index() as usize];
            prop_assert!(matched.is_prefix_of(&lookup) || prefixes.iter().any(|p| p.is_prefix_of(&lookup)));
        } else {
            prop_assert!(prefixes.iter().all(|p| !p.is_prefix_of(&lookup)));
        }
    }

    #[test]
    fn cs_never_exceeds_capacity(cap in 1usize..50, names in proptest::collection::vec(arb_name(), 0..100)) {
        let mut cs = ContentStore::new(cap);
        for n in &names {
            cs.insert(Data::new(n.clone(), Payload::Synthetic(1)));
            prop_assert!(cs.len() <= cap);
        }
    }

    /// The longest-prefix match against the obvious model: every route
    /// of the longest registered prefix of the name, cheapest first.
    #[test]
    fn fib_lpm_is_the_longest_registered_prefix(
        prefixes in proptest::collection::vec(arb_name(), 1..24),
        lookups in proptest::collection::vec((0usize..24, 0usize..5, arb_name()), 1..8),
    ) {
        let mut fib = Fib::new();
        for (i, p) in prefixes.iter().enumerate() {
            fib.add_route(p.clone(), FaceId::new(i as u32), 1);
        }
        for (base, keep, tail) in lookups {
            // Names under, above and beside the registered prefixes.
            let lookup = prefixes[base % prefixes.len()].prefix(keep).join(tail.components());
            let longest = prefixes.iter().filter(|p| p.is_prefix_of(&lookup)).map(Name::len).max();
            let want: Option<Vec<FaceId>> = longest.map(|len| {
                let mut faces: Vec<FaceId> = (0..prefixes.len())
                    .filter(|&i| prefixes[i] == lookup.prefix(len))
                    .map(|i| FaceId::new(i as u32))
                    .collect();
                faces.sort();
                faces
            });
            let got = fib.lookup(&lookup).map(|hops| hops.iter().map(|h| h.face).collect());
            prop_assert_eq!(got, want);
        }
    }

    /// The name table against a set: found exactly when present, through
    /// pushes, swap-removals, in-place replacements and bulk retains,
    /// scanning and indexed.
    #[test]
    fn name_table_matches_a_set_model(ops in proptest::collection::vec((0u8..10, 0usize..64), 0..400)) {
        let names: Vec<Name> = (0..64).map(|i| format!("/t/{i}").parse().unwrap()).collect();
        let find = |t: &NameTable<Rigged>, n: usize| t.find_by(rigged_hash(n), |e| e.name == names[n]);
        let mut table = NameTable::new();
        let mut model = std::collections::BTreeSet::new();
        for (op, n) in ops {
            let at = find(&table, n);
            prop_assert_eq!(at.is_some(), model.contains(&n));
            match op {
                0..=3 => {
                    if at.is_none() {
                        table.push(Rigged { name: names[n].clone(), hash: rigged_hash(n) });
                        model.insert(n);
                    }
                }
                4..=6 => {
                    if let Some(at) = at {
                        prop_assert_eq!(&table.swap_remove(at).name, &names[n]);
                        model.remove(&n);
                    }
                }
                7 => {
                    // Drops the whole class of `n`'s home bucket.
                    table.retain(|e| e.hash as u8 != rigged_hash(n) as u8);
                    model.retain(|&m| m % 5 != n % 5);
                }
                _ => {
                    // `n` takes the place of the entry at its own position
                    // if present, else of another one (if any), which
                    // leaves; no other entry moves.
                    let Some(at) = at.or_else(|| (!table.is_empty()).then(|| n % table.len())) else {
                        continue;
                    };
                    let before: Vec<Name> = table.iter().map(|e| e.name.clone()).collect();
                    let old = table.replace(at, Rigged { name: names[n].clone(), hash: rigged_hash(n) });
                    prop_assert_eq!(&old.name, &before[at]);
                    model.retain(|&m| names[m] != old.name);
                    model.insert(n);
                    for (i, e) in table.iter().enumerate() {
                        prop_assert_eq!(&e.name, if i == at { &names[n] } else { &before[i] });
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for (m, name) in names.iter().enumerate() {
                let found = find(&table, m).map(|at| table[at].name.clone());
                prop_assert_eq!(found, model.contains(&m).then(|| name.clone()));
            }
        }
    }

    /// A bounded PIT evicts its oldest pending names first, whatever was
    /// satisfied and re-requested in between.
    #[test]
    fn bounded_pit_evicts_in_insertion_order(cap in 1usize..20, ops in proptest::collection::vec((any::<bool>(), 0usize..40), 0..300)) {
        let names: Vec<Name> = (0..40).map(|i| format!("/p/{i}").parse().unwrap()).collect();
        let mut pit: Pit<()> = Pit::new();
        pit.set_capacity(Some(cap));
        let mut model: Vec<usize> = Vec::new(); // oldest first
        for (nonce, (request, n)) in ops.into_iter().enumerate() {
            if request {
                pit.on_interest(&names[n], FaceId::new(1), nonce as u64, SimTime::from_secs(4), ());
                if !model.contains(&n) {
                    model.push(n);
                }
                let evicted: Vec<Name> = pit.evict_over_capacity().iter().map(|e| e.name().clone()).collect();
                let over = model.len().saturating_sub(cap);
                let want: Vec<Name> = model.drain(..over).map(|m| names[m].clone()).collect();
                prop_assert_eq!(evicted, want);
            } else {
                let at = model.iter().position(|&m| m == n);
                prop_assert_eq!(pit.take(&names[n]).is_some(), at.is_some());
                if let Some(at) = at {
                    model.remove(at);
                }
            }
            prop_assert_eq!(pit.len(), model.len());
        }
    }

    /// The slot-linked LRU against the obvious model: a list of names in
    /// recency order — small stores scan, larger ones are indexed.
    #[test]
    fn cs_matches_a_naive_lru_model(cap in 1usize..40, ops in proptest::collection::vec((0u8..3, 0usize..48), 0..300)) {
        let names: Vec<Name> = (0..48).map(|i| format!("/n/{i}").parse().unwrap()).collect();
        let mut cs = ContentStore::new(cap);
        let mut model: Vec<usize> = Vec::new(); // least recently used first
        for (op, n) in ops {
            let at = model.iter().position(|&m| m == n);
            match op {
                0 => {
                    cs.insert(Data::new(names[n].clone(), Payload::Synthetic(n)));
                    if let Some(at) = at {
                        model.remove(at);
                    } else if model.len() == cap {
                        model.remove(0);
                    }
                    model.push(n);
                }
                1 => {
                    prop_assert_eq!(cs.get(&names[n]).map(|d| d.payload().len()), at.map(|_| n));
                    if let Some(at) = at {
                        model.remove(at);
                        model.push(n);
                    }
                }
                _ => {
                    prop_assert_eq!(cs.remove(&names[n]), at.is_some());
                    if let Some(at) = at {
                        model.remove(at);
                    }
                }
            }
            prop_assert_eq!(cs.len(), model.len());
            for (i, name) in names.iter().enumerate() {
                prop_assert_eq!(cs.peek(name).is_some(), model.contains(&i));
            }
        }
        // Draining by insertion of fresh names evicts in model order.
        for (k, &expected) in model.clone().iter().enumerate() {
            if model.len() < cap {
                break; // not full: nothing would be evicted
            }
            cs.insert(Data::new(format!("/fresh/{k}").parse().unwrap(), Payload::Synthetic(0)));
            prop_assert!(cs.peek(&names[expected]).is_none(), "eviction out of LRU order");
        }
    }

    #[test]
    fn pit_aggregation_preserves_all_records(name in arb_name(), faces in proptest::collection::vec(0u32..100, 1..20)) {
        let mut pit = Pit::new();
        let mut expected = 0;
        for (i, &f) in faces.iter().enumerate() {
            let r = pit.on_interest(&name, FaceId::new(f), i as u64, SimTime::from_secs(10), vec![i as u8]);
            if r != tactic_ndn::pit::PitInsert::DuplicateNonce {
                expected += 1;
            }
        }
        let entry = pit.take(&name).unwrap();
        prop_assert_eq!(entry.records().len(), expected);
    }
}
