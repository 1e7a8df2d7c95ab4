//! TACTIC's packet extension fields.
//!
//! TACTIC annotates standard NDN packets rather than defining new ones:
//! Interests carry the signed tag, the cooperation flag `F`, and the
//! accumulated access path; Data packets carry the (signed) access level
//! and provider key locator, plus the per-delivery echoes — the tag being
//! answered, the flag `F` the content router chose, and the NACK marker
//! for invalid tags ("the content router returns the content-tag-NACK
//! tuple to inform downstream routers on the invalidity of `T_u`", §5.B).
//!
//! Extension type codes live in the application range (`0x8000..`) of
//! `tactic_ndn::packet`.
//!
//! # Representation
//!
//! Annotations travel *decoded* (see `tactic_ndn::packet`'s "In memory
//! vs on the wire"): `F`, the access path, the access level, the NACK
//! code and the registration marker are at most 8 bytes and sit inline in
//! the packet; the tag and the key locator are attached as shared
//! handles — the packet holds the very `Arc<SignedTag>` the consumer,
//! the PIT records and the validation path use — so [`interest_tag`],
//! [`data_tag`], [`data_new_tag`] and [`data_key_locator`] are pointer
//! clones. Bytes exist only where `tactic_ndn::wire` produces or parses
//! them; a packet that did come off the wire holds plain bytes, and the
//! readers here decode those on each read (the cold path — the simulator
//! never round-trips a packet through the codec).
//!
//! [`EXT_ACCESS_LEVEL`] and [`EXT_KEY_LOCATOR`] are signed extension
//! types (`tactic_ndn::packet::SIGNED_EXTENSIONS`): they live in the
//! content every copy of a Data shares and are what
//! `Data::write_signable` covers. The tag echo, `F`, the NACK marker and
//! a fresh tag are annotations of one delivery: attaching or stripping
//! them touches neither the shared content nor the signature.

use std::sync::Arc;

use tactic_crypto::hash::ByteSink;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Annotation, Data, ExtValue, Extension, Interest, NackReason};

use crate::access::AccessLevel;
use crate::tag::SignedTag;

/// Interest/Data extension: the [`SignedTag`].
pub const EXT_TAG: u16 = 0x8001;
/// Interest/Data extension: the flag `F` (f64 bits, little-endian).
pub const EXT_FLAG_F: u16 = 0x8002;
/// Data extension: NACK marker (one reason byte) attached to content.
pub const EXT_NACK: u16 = 0x8003;
/// Interest extension: access path accumulated hop-by-hop (u64 LE).
pub const EXT_ACCESS_PATH: u16 = 0x8004;
/// Interest extension: registration request body.
pub const EXT_REGISTRATION: u16 = 0x8005;
/// Data extension: a freshly issued tag (registration response).
pub const EXT_NEW_TAG: u16 = 0x8006;
/// Data extension: the content's access level `AL_D` (one byte, signed).
pub const EXT_ACCESS_LEVEL: u16 = 0x8010;
/// Data extension: the provider's key locator `Pub_p^D` (the name's URI
/// bytes, signed).
pub const EXT_KEY_LOCATOR: u16 = 0x8011;

/// The tag in an extension slot: the shared handle when the packet was
/// annotated in memory, a decode of the bytes when it came off the wire
/// (`None` if those are malformed).
fn tag_in(value: Option<&Extension>) -> Option<Arc<SignedTag>> {
    let value = value?;
    value
        .shared()
        .or_else(|| SignedTag::decode(value.bytes()?).ok().map(Arc::new))
}

/// Read the TACTIC tag on an Interest.
pub fn interest_tag(i: &Interest) -> Option<Arc<SignedTag>> {
    tag_in(i.find_extension(EXT_TAG))
}

/// Attaches a tag to an Interest. Pass the `Arc` you hold to share it
/// (a refcount bump); an owned tag is moved into a fresh `Arc`, a
/// `&SignedTag` attaches that tag's [`SignedTag::shared`] copy.
pub fn set_interest_tag(i: &mut Interest, tag: impl Into<Arc<SignedTag>>) {
    i.set_extension(EXT_TAG, tag.into());
}

/// The flag `F` on an Interest (absent ⇒ treat as 0).
///
/// The value comes off the wire, so it is sanitized: anything non-finite
/// or outside `[0, 1)` reads as 0, which forces full validation.
pub fn interest_flag_f(i: &Interest) -> f64 {
    i.extension(EXT_FLAG_F).map_or(0.0, decode_f64)
}

/// Sets the flag `F` on an Interest.
pub fn set_interest_flag_f(i: &mut Interest, f: f64) {
    i.set_extension(EXT_FLAG_F, f.to_bits().to_le_bytes());
}

/// The access path accumulated in the request so far.
pub fn interest_access_path(i: &Interest) -> crate::access_path::AccessPath {
    let v = i
        .extension(EXT_ACCESS_PATH)
        .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
        .unwrap_or(0);
    crate::access_path::AccessPath::from_u64(v)
}

/// Stores the accumulated access path (each entity between the user and
/// the edge router calls this with its extended value).
pub fn set_interest_access_path(i: &mut Interest, ap: crate::access_path::AccessPath) {
    i.set_extension(EXT_ACCESS_PATH, ap.as_u64().to_le_bytes());
}

/// True if the Interest is a registration (tag) request.
pub fn is_registration(i: &Interest) -> bool {
    i.find_extension(EXT_REGISTRATION).is_some()
}

/// The tag echoed on a Data packet.
pub fn data_tag(d: &Data) -> Option<Arc<SignedTag>> {
    tag_in(d.find_extension(EXT_TAG))
}

/// Echoes a tag on a Data packet (shared or copied like
/// [`set_interest_tag`]).
pub fn set_data_tag(d: &mut Data, tag: impl Into<Arc<SignedTag>>) {
    d.set_extension(EXT_TAG, tag.into());
}

/// The flag `F` on a Data packet (absent ⇒ 0; sanitized like
/// [`interest_flag_f`]).
pub fn data_flag_f(d: &Data) -> f64 {
    d.extension(EXT_FLAG_F).map_or(0.0, decode_f64)
}

/// Sets the flag `F` on a Data packet.
pub fn set_data_flag_f(d: &mut Data, f: f64) {
    d.set_extension(EXT_FLAG_F, f.to_bits().to_le_bytes());
}

/// The NACK marker attached to content, if any.
pub fn data_nack(d: &Data) -> Option<NackReason> {
    d.extension(EXT_NACK).and_then(|b| match b.first() {
        Some(3) => Some(NackReason::InvalidTag),
        Some(4) => Some(NackReason::AccessPathMismatch),
        Some(1) => Some(NackReason::NoRoute),
        Some(2) => Some(NackReason::Duplicate),
        _ => None,
    })
}

/// Attaches a NACK marker to content.
pub fn set_data_nack(d: &mut Data, reason: NackReason) {
    let code = match reason {
        NackReason::NoRoute => 1u8,
        NackReason::Duplicate => 2,
        NackReason::InvalidTag => 3,
        NackReason::AccessPathMismatch => 4,
    };
    d.set_extension(EXT_NACK, [code]);
}

/// A freshly issued tag on a registration response.
pub fn data_new_tag(d: &Data) -> Option<Arc<SignedTag>> {
    tag_in(d.find_extension(EXT_NEW_TAG))
}

/// Attaches a freshly issued tag to a registration response (shared or
/// copied like [`set_interest_tag`]).
pub fn set_data_new_tag(d: &mut Data, tag: impl Into<Arc<SignedTag>>) {
    d.set_extension(EXT_NEW_TAG, tag.into());
}

/// The content's access level `AL_D` (absent ⇒ `Public`).
pub fn data_access_level(d: &Data) -> AccessLevel {
    d.extension(EXT_ACCESS_LEVEL)
        .and_then(|b| b.first().copied())
        .map_or(AccessLevel::Public, AccessLevel::from_byte)
}

/// Sets the content's access level.
pub fn set_data_access_level(d: &mut Data, al: AccessLevel) {
    d.set_extension(EXT_ACCESS_LEVEL, [al.to_byte()]);
}

/// A key locator as packets carry it: the name, decoded, beside the URI
/// bytes it has on the wire.
#[derive(Debug)]
struct KeyLocator {
    name: Name,
    uri: Box<[u8]>,
}

impl Annotation for KeyLocator {
    fn wire_len(&self) -> usize {
        self.uri.len()
    }

    fn write_wire(&self, out: &mut dyn ByteSink) {
        out.put(&self.uri);
    }
}

/// The [`EXT_KEY_LOCATOR`] value for `locator`, built once and cloned
/// (a refcount bump) onto every packet that carries it — a provider
/// stamps the same one on all its content.
pub fn key_locator_value(locator: &Name) -> ExtValue {
    Arc::new(KeyLocator {
        name: locator.clone(),
        uri: locator.to_string().into_bytes().into(),
    })
    .into()
}

/// The provider key locator embedded in the content (`Pub_p^D`).
pub fn data_key_locator(d: &Data) -> Option<Name> {
    let value = d.find_extension(EXT_KEY_LOCATOR)?;
    match value.shared::<KeyLocator>() {
        Some(locator) => Some(locator.name.clone()),
        None => std::str::from_utf8(value.bytes()?).ok()?.parse().ok(),
    }
}

/// Sets the provider key locator on content.
pub fn set_data_key_locator(d: &mut Data, locator: &Name) {
    d.set_extension(EXT_KEY_LOCATOR, key_locator_value(locator));
}

/// Clamps a wire-supplied cooperation flag to its valid domain.
///
/// `F` is a false-positive probability, so the only meaningful values are
/// finite and in `[0, 1)`. Anything else (`NaN`, `±inf`, negatives, or a
/// forged `F ≥ 1.0` that would let `rng.chance(F)` — or its complement —
/// skip validation deterministically) collapses to 0: full validation.
pub fn sanitize_flag_f(f: f64) -> f64 {
    if f.is_finite() && (0.0..1.0).contains(&f) {
        f
    } else {
        0.0
    }
}

fn decode_f64(b: &[u8]) -> f64 {
    sanitize_flag_f(
        b.try_into()
            .map(|arr| f64::from_bits(u64::from_le_bytes(arr)))
            .unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_path::AccessPath;
    use crate::tag::Tag;
    use tactic_crypto::schnorr::KeyPair;
    use tactic_ndn::packet::Payload;
    use tactic_sim::time::SimTime;

    fn tag() -> SignedTag {
        Tag {
            provider_key_locator: "/p/KEY/1".parse().unwrap(),
            access_level: AccessLevel::Level(1),
            client_key_locator: "/p/users/u/KEY".parse().unwrap(),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::from_secs(10),
        }
        .sign(&KeyPair::derive(b"/p", 0))
    }

    #[test]
    fn interest_tag_roundtrip() {
        let mut i = Interest::new("/p/o/0".parse().unwrap(), 1);
        assert!(interest_tag(&i).is_none());
        let t = tag();
        set_interest_tag(&mut i, &t);
        assert_eq!(interest_tag(&i).as_deref(), Some(&t));
    }

    #[test]
    fn flag_f_roundtrip_and_default() {
        let mut i = Interest::new("/p/o/0".parse().unwrap(), 1);
        assert_eq!(interest_flag_f(&i), 0.0);
        set_interest_flag_f(&mut i, 1e-4);
        assert_eq!(interest_flag_f(&i), 1e-4);
        let mut d = Data::new("/p/o/0".parse().unwrap(), Payload::Synthetic(1));
        assert_eq!(data_flag_f(&d), 0.0);
        set_data_flag_f(&mut d, 0.25);
        assert_eq!(data_flag_f(&d), 0.25);
    }

    #[test]
    fn access_path_roundtrip() {
        let mut i = Interest::new("/p/o/0".parse().unwrap(), 1);
        assert_eq!(interest_access_path(&i), AccessPath::EMPTY);
        let ap = AccessPath::of([3, 4]);
        set_interest_access_path(&mut i, ap);
        assert_eq!(interest_access_path(&i), ap);
    }

    #[test]
    fn data_annotations_roundtrip() {
        let mut d = Data::new("/p/o/0".parse().unwrap(), Payload::Synthetic(1));
        let t = tag();
        set_data_tag(&mut d, &t);
        set_data_nack(&mut d, NackReason::InvalidTag);
        set_data_access_level(&mut d, AccessLevel::Level(3));
        set_data_key_locator(&mut d, &"/p/KEY/1".parse().unwrap());
        assert_eq!(data_tag(&d).as_deref(), Some(&t));
        assert_eq!(data_nack(&d), Some(NackReason::InvalidTag));
        assert_eq!(data_access_level(&d), AccessLevel::Level(3));
        assert_eq!(data_key_locator(&d), Some("/p/KEY/1".parse().unwrap()));
    }

    #[test]
    fn the_content_alone_keeps_the_signed_fields() {
        let mut d = Data::new("/p/o/0".parse().unwrap(), Payload::Synthetic(1));
        set_data_tag(&mut d, tag());
        set_data_flag_f(&mut d, 0.5);
        set_data_nack(&mut d, NackReason::InvalidTag);
        set_data_access_level(&mut d, AccessLevel::Level(2));
        set_data_key_locator(&mut d, &"/p/KEY/1".parse().unwrap());
        // What a content store or a provider's catalogue keeps of it.
        let d = Data::from_content(d.into_content());
        assert!(data_tag(&d).is_none());
        assert_eq!(data_flag_f(&d), 0.0);
        assert!(data_nack(&d).is_none());
        assert_eq!(data_access_level(&d), AccessLevel::Level(2));
        assert!(data_key_locator(&d).is_some());
    }

    #[test]
    fn only_the_signed_fields_are_content() {
        use tactic_ndn::packet::SIGNED_EXTENSIONS;
        for signed in [EXT_ACCESS_LEVEL, EXT_KEY_LOCATOR] {
            assert!(SIGNED_EXTENSIONS.contains(&signed), "{signed:#x}");
        }
        for annotation in [EXT_TAG, EXT_FLAG_F, EXT_NACK, EXT_NEW_TAG] {
            assert!(!SIGNED_EXTENSIONS.contains(&annotation), "{annotation:#x}");
        }
    }

    #[test]
    fn annotations_leave_signature_and_shared_content_alone() {
        let provider = KeyPair::derive(b"/p", 0);
        let mut canonical = Data::new("/p/o/0".parse().unwrap(), Payload::Synthetic(1));
        set_data_access_level(&mut canonical, AccessLevel::Level(2));
        set_data_key_locator(&mut canonical, &"/p/KEY/1".parse().unwrap());
        canonical.set_signature(provider.sign(&canonical.signable_bytes()));
        let verifies = |d: &Data| {
            provider
                .public()
                .verify(&d.signable_bytes(), d.signature().expect("signed"))
        };

        let mut delivery = canonical.clone();
        set_data_tag(&mut delivery, tag());
        set_data_flag_f(&mut delivery, 0.5);
        set_data_nack(&mut delivery, NackReason::InvalidTag);
        assert!(verifies(&delivery), "annotating invalidated the signature");
        assert!(delivery.shares_content_with(&canonical));
        assert_ne!(delivery, canonical);

        let mut delivery = Data::from_content(delivery.into_content());
        assert_eq!(delivery, canonical);
        assert!(delivery.shares_content_with(&canonical));

        // Rewriting a signed field copies the content for the writer;
        // the other holder keeps the packet the provider signed.
        set_data_access_level(&mut delivery, AccessLevel::Level(9));
        assert!(!verifies(&delivery));
        assert!(verifies(&canonical));
        assert_eq!(data_access_level(&canonical), AccessLevel::Level(2));
    }

    #[test]
    fn missing_access_level_means_public() {
        let d = Data::new("/p/o/0".parse().unwrap(), Payload::Synthetic(1));
        assert_eq!(data_access_level(&d), AccessLevel::Public);
    }

    #[test]
    fn registration_marker() {
        let mut i = Interest::new("/p/register/u/1".parse().unwrap(), 1);
        assert!(!is_registration(&i));
        i.set_extension(EXT_REGISTRATION, vec![1]);
        assert!(is_registration(&i));
    }

    #[test]
    fn garbage_tag_bytes_read_as_none() {
        let mut i = Interest::new("/p/o/0".parse().unwrap(), 1);
        i.set_extension(EXT_TAG, vec![1, 2, 3]);
        assert!(interest_tag(&i).is_none());
    }
}
