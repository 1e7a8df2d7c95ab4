//! Authentication tags — TACTIC's central artifact.
//!
//! "A tag is a 6-tuple composed of the provider's public key locator
//! (`Pub_p`), the client's public key locator (`Pub_u`), the client's
//! access level (`AL_u`), the client's access path (`AP_u`), and an expiry
//! time (`T_e`)" (§4.A), signed by the provider to guarantee integrity and
//! provenance. Tag expiry is the revocation mechanism: a revoked client
//! simply stops receiving fresh tags.

use std::sync::{Arc, OnceLock};

use tactic_crypto::hash::{ByteSink, DigestStream};
use tactic_crypto::schnorr::{KeyPair, PublicKey, Signature};
use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::Annotation;
use tactic_net::catalog::Label;
use tactic_net::ChunkNames;
use tactic_sim::time::SimTime;

use crate::access::AccessLevel;
use crate::access_path::AccessPath;

/// The constant components of key-locator and registration names, built
/// once per process so that spelling such a name is one [`Name::join`].
/// (Four literals, not an interner: nothing is ever added.)
struct Literals {
    key: Component,
    one: Component,
    users: Component,
    register: Component,
}

fn literals() -> &'static Literals {
    static LITERALS: OnceLock<Literals> = OnceLock::new();
    LITERALS.get_or_init(|| Literals {
        key: "KEY".into(),
        one: "1".into(),
        users: "users".into(),
        register: "register".into(),
    })
}

/// `/<prefix>/KEY/1`: the key locator of the provider at `prefix`.
pub fn provider_key_locator(prefix: &Name) -> Name {
    let l = literals();
    prefix.join([&l.key, &l.one])
}

/// `/<prefix>/users/<user>/KEY`: the key locator of the client `user`
/// (its `u<principal>` component) registered with the provider at
/// `prefix`.
pub fn client_key_locator(prefix: &Name, user: &Component) -> Name {
    let l = literals();
    prefix.join([&l.users, user, &l.key])
}

/// `/<prefix>/register/<user>/<seq>`: the name of `user`'s `seq`-th tag
/// request to the provider at `prefix`.
pub fn registration_name(prefix: &Name, user: &Component, seq: u64) -> Name {
    prefix.join([&literals().register, user, &Label::new("", seq).into()])
}

/// The unsigned tag body `T_p^u = <Pub_p, AL_u, Pub_u, AP_u, T_e>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag {
    /// The provider's public key locator (`Pub_p`): a name whose first
    /// component is the provider's routable prefix.
    pub provider_key_locator: Name,
    /// The client's granted access level (`AL_u`).
    pub access_level: AccessLevel,
    /// The client's public key locator (`Pub_u`).
    pub client_key_locator: Name,
    /// The access path frozen at registration (`AP_u`).
    pub access_path: AccessPath,
    /// Expiry instant (`T_e`); the tag is invalid at and after this time.
    pub expiry: SimTime,
}

impl Tag {
    /// The provider's name prefix `N(Pub_p)` — the first component of the
    /// key locator, used by the Protocol 1 edge pre-check.
    pub fn provider_prefix(&self) -> Name {
        self.provider_key_locator.prefix(1)
    }

    /// True if the tag has expired at `now` (`T_e < T_current` in
    /// Protocol 1; we treat `T_e == now` as expired too).
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.expiry <= now
    }

    /// Canonical byte serialisation (also the signed message):
    /// `len·Pub_p | AL_u | len·Pub_u | AP_u | T_e`, names in their
    /// [`Name::to_bytes`] form behind a `u32` length. Collected for tests
    /// and tools; signing, verifying and hashing stream
    /// [`write_bytes`](Self::write_bytes) instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes_len());
        self.write_bytes(&mut out);
        out
    }

    /// Length of the [`to_bytes`](Self::to_bytes) form.
    pub fn bytes_len(&self) -> usize {
        4 + self.provider_key_locator.bytes_len()
            + 1
            + 4
            + self.client_key_locator.bytes_len()
            + 8
            + 8
    }

    /// Writes the [`to_bytes`](Self::to_bytes) form into `out` — a
    /// buffer, a digest, a signature — straight from the fields.
    pub fn write_bytes<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put(&(self.provider_key_locator.bytes_len() as u32).to_le_bytes());
        self.provider_key_locator.write_bytes(out);
        out.put(&[self.access_level.to_byte()]);
        out.put(&(self.client_key_locator.bytes_len() as u32).to_le_bytes());
        self.client_key_locator.write_bytes(out);
        out.put(&self.access_path.as_u64().to_le_bytes());
        out.put(&self.expiry.as_nanos().to_le_bytes());
    }

    /// The body of a fabricated tag: the public naming of the provider at
    /// `provider_prefix`, `principal` as the client, and a top access
    /// level that never expires. (Whoever forges many — a storm driver —
    /// builds one per provider and clones it under fresh signatures.)
    pub fn fabricated(provider_prefix: &Name, principal: u64) -> Self {
        Tag {
            provider_key_locator: provider_key_locator(provider_prefix),
            access_level: AccessLevel::Level(200),
            client_key_locator: client_key_locator(
                provider_prefix,
                &ChunkNames::session(principal),
            ),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::MAX,
        }
    }

    /// Signs the tag, producing a [`SignedTag`]: the body is streamed
    /// into the signature, never collected.
    pub fn sign(self, provider: &KeyPair) -> SignedTag {
        let signature = provider.sign_with(self.bytes_len(), |out| self.write_bytes(out));
        SignedTag::new(self, signature)
    }
}

/// A provider-signed tag as carried in Interests.
///
/// Packets and PIT records share one instance behind an `Arc`
/// (`tactic::ext` attaches the handle itself). Nothing about a tag is
/// ever serialised to be hashed, sized or checked: [`verify`](Self::verify)
/// streams the body into the signature check, and the two digests a
/// router keys on — the Bloom key and the client identity — are streamed
/// once per instance and memoised. So is the verdict of the first key the
/// instance is verified under: asked again under that key, `verify`
/// answers from the memo; under any other, it checks the signature. A tag
/// held by value also remembers the shared copy of itself that packets
/// carry (see [`shared`](Self::shared)). The memos are dropped by
/// `clone()` and invisible to `==`/`Debug`.
/// Mutating `tag`/`signature` *after* a memoised value was read from the
/// same instance (attaching it to a packet counts) is unsupported — code
/// that forges tags must mutate a fresh clone before first use (all of it
/// does; `clone_then_forge_*` tests).
pub struct SignedTag {
    /// The tag body.
    pub tag: Tag,
    /// The provider's signature over [`Tag::to_bytes`].
    pub signature: Signature,
    bloom_key: OnceLock<[u8; 32]>,
    client_identity: OnceLock<u64>,
    /// The first key this instance was verified under, and the verdict.
    verdict: OnceLock<(PublicKey, bool)>,
    shared: OnceLock<Arc<SignedTag>>,
}

impl std::fmt::Debug for SignedTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignedTag")
            .field("tag", &self.tag)
            .field("signature", &self.signature)
            .finish()
    }
}

impl Clone for SignedTag {
    fn clone(&self) -> Self {
        // Deliberately start the clone with cold memos: the clone-then-
        // forge pattern mutates the copy's fields, and a carried memo
        // would silently describe the pre-mutation tag.
        SignedTag::new(self.tag.clone(), self.signature)
    }
}

impl From<&SignedTag> for Arc<SignedTag> {
    /// [`SignedTag::shared`]: the convenience path for callers that hold
    /// a tag by value; hot paths pass the `Arc` they have.
    fn from(tag: &SignedTag) -> Self {
        tag.shared()
    }
}

impl PartialEq for SignedTag {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag && self.signature == other.signature
    }
}

impl Eq for SignedTag {}

/// A tag rides in packets as a shared handle; on the wire it is its
/// [`encode`](SignedTag::encode) form, written in place.
impl Annotation for SignedTag {
    fn wire_len(&self) -> usize {
        SignedTag::wire_len(self)
    }

    fn write_wire(&self, out: &mut dyn ByteSink) {
        SignedTag::write_wire(self, out);
    }
}

impl SignedTag {
    /// Assembles a signed tag from its body and signature.
    pub fn new(tag: Tag, signature: Signature) -> Self {
        SignedTag {
            tag,
            signature,
            bloom_key: OnceLock::new(),
            client_identity: OnceLock::new(),
            verdict: OnceLock::new(),
            shared: OnceLock::new(),
        }
    }

    /// A fabricated tag (threat (b), §3.C): [`Tag::fabricated`] under a
    /// signature no key produced — a different one per `signature_seed`.
    pub fn forged(provider_prefix: &Name, principal: u64, signature_seed: u64) -> Self {
        let tag = Tag::fabricated(provider_prefix, principal);
        SignedTag::new(tag, Signature::forged(signature_seed))
    }

    /// The shared copy of this tag that packets carry: made on the first
    /// call, handed out again on every later one, so attaching one
    /// borrowed tag to many packets makes them share one instance — and
    /// with it everything derived from the tag, once.
    pub fn shared(&self) -> Arc<SignedTag> {
        self.shared.get_or_init(|| Arc::new(self.clone())).clone()
    }

    /// Verifies the provider signature over the body, streamed — once
    /// per instance: the verdict under the first key asked is memoised
    /// and answers for that key alone. (The simulation charges the
    /// paper's verification time per check, not the host's, so a
    /// repeated check is host work with nothing to show for it.)
    pub fn verify(&self, provider_key: &PublicKey) -> bool {
        if let Some((key, ok)) = self.verdict.get() {
            if key == provider_key {
                return *ok;
            }
        }
        let tag = &self.tag;
        let ok =
            provider_key.verify_with(tag.bytes_len(), |out| tag.write_bytes(out), &self.signature);
        // Another key, or another thread, may have got there first: its
        // verdict stays, and this one is simply not remembered.
        let _ = self.verdict.set((*provider_key, ok));
        ok
    }

    /// The Bloom-filter key identifying this exact signed tag: a digest
    /// over body *and* signature
    /// (`Digest256::of_parts(&[&tag.to_bytes(), &signature.to_bytes()])`),
    /// so forged signatures on a copied body map to different filter
    /// bits. Streamed once per instance.
    pub fn bloom_key(&self) -> [u8; 32] {
        *self.bloom_key.get_or_init(|| {
            let mut d = DigestStream::new();
            d.part(self.tag.bytes_len());
            self.tag.write_bytes(&mut d);
            d.part(Signature::WIRE_LEN);
            d.put(&self.signature.to_bytes());
            d.finish().to_bytes()
        })
    }

    /// The provider-prefix bytes the validation cache partitions on:
    /// the first component of the provider key locator, borrowed
    /// without allocation (hot path — called once per cache insert and
    /// lookup). Empty for a rootless locator.
    pub fn partition_key(&self) -> &[u8] {
        self.tag
            .provider_key_locator
            .get(0)
            .map_or(&[], |c| c.as_bytes())
    }

    /// The stable client identity of this tag: a digest of the client key
    /// locator (`Digest256::of(&client_key_locator.to_bytes())`, folded).
    /// Stable across tag refreshes, so access points can demultiplex
    /// deliveries per requester and traitor tracing can link sightings of
    /// the same principal. Streamed once per instance.
    pub fn client_identity(&self) -> u64 {
        *self.client_identity.get_or_init(|| {
            let mut d = DigestStream::new();
            self.tag.client_key_locator.write_bytes(&mut d);
            d.finish().fold64()
        })
    }

    /// Length of the [`encode`](Self::encode) form: what a link charges
    /// for the tag.
    pub fn wire_len(&self) -> usize {
        self.tag.bytes_len() + Signature::WIRE_LEN
    }

    /// Writes the [`encode`](Self::encode) form into `out` (statically
    /// dispatched for a concrete sink; packets reach it through
    /// [`Annotation::write_wire`]).
    pub fn write_wire<S: ByteSink + ?Sized>(&self, out: &mut S) {
        self.tag.write_bytes(out);
        out.put(&self.signature.to_bytes());
    }

    /// Serialises tag + signature: the tag's wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_wire(&mut out);
        out
    }

    /// Parses the [`encode`](Self::encode) form.
    ///
    /// The input is untrusted (forged tags arrive this way): every length
    /// is bounds-checked with overflow-checked arithmetic, and each name
    /// component is copied exactly once, from the input into its shared
    /// buffer. A successful decode re-encodes to exactly `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`TagDecodeError`] on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<SignedTag, TagDecodeError> {
        let mut r = Cursor(bytes);
        let provider_key_locator = r.name()?;
        let access_level = AccessLevel::from_byte(r.array::<1>()?[0]);
        let client_key_locator = r.name()?;
        let access_path = AccessPath::from_u64(u64::from_le_bytes(r.array()?));
        let expiry = SimTime::from_nanos(u64::from_le_bytes(r.array()?));
        let signature = Signature::from_bytes(r.array()?);
        if !r.0.is_empty() {
            return Err(TagDecodeError);
        }
        Ok(SignedTag::new(
            Tag {
                provider_key_locator,
                access_level,
                client_key_locator,
                access_path,
                expiry,
            },
            signature,
        ))
    }
}

/// Error decoding a serialized tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagDecodeError;

impl std::fmt::Display for TagDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed serialized tag")
    }
}

impl std::error::Error for TagDecodeError {}

/// The unread rest of a serialized tag.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// Splits off the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], TagDecodeError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(TagDecodeError)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TagDecodeError> {
        Ok(self.take(N)?.try_into().expect("took exactly N bytes"))
    }

    /// A `u32` length and that many bytes.
    fn prefixed(&mut self) -> Result<&'a [u8], TagDecodeError> {
        let len = usize::try_from(u32::from_le_bytes(self.array()?)).map_err(|_| TagDecodeError)?;
        self.take(len)
    }

    /// A length-prefixed name: the inverse of [`Name::to_bytes`] behind
    /// its `u32` length.
    fn name(&mut self) -> Result<Name, TagDecodeError> {
        let mut inner = Cursor(self.prefixed()?);
        let mut components = Vec::new();
        while !inner.0.is_empty() {
            components.push(Component::from(inner.prefixed()?));
        }
        Ok(Name::from_components(components))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_crypto::hash::Digest256;

    fn sample_tag() -> Tag {
        Tag {
            provider_key_locator: "/prov3/KEY/k1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov3/users/u7/KEY".parse().unwrap(),
            access_path: AccessPath::of([7, 42]),
            expiry: SimTime::from_secs(10),
        }
    }

    #[test]
    fn sign_and_verify() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let st = sample_tag().sign(&kp);
        assert!(st.verify(&kp.public()));
        let other = KeyPair::derive(b"/prov4", 0);
        // The verdict is memoised for the key it was reached under alone.
        assert!(!st.verify(&other.public()), "A's verdict answered for B");
        assert!(st.verify(&kp.public()), "B's check displaced A's verdict");
        let st = sample_tag().sign(&kp);
        assert!(!st.verify(&other.public()));
        assert!(st.verify(&kp.public()), "B's verdict answered for A");
    }

    #[test]
    fn tampered_body_fails_verification() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let mut st = sample_tag().sign(&kp);
        st.tag.access_level = AccessLevel::Level(9);
        assert!(!st.verify(&kp.public()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let st = sample_tag().sign(&kp);
        let bytes = st.encode();
        let back = SignedTag::decode(&bytes).unwrap();
        assert_eq!(back, st);
        assert!(back.verify(&kp.public()));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let bytes = sample_tag().sign(&kp).encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(SignedTag::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SignedTag::decode(&padded).is_err());
    }

    #[test]
    fn decode_rejects_hostile_lengths() {
        // A length field far beyond the input — including one that would
        // wrap `pos + len` on a 32-bit target — is an error, not a panic.
        for len in [u32::MAX, u32::MAX - 3, 1 << 31, 1_000] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 64]);
            assert!(SignedTag::decode(&bytes).is_err(), "outer length {len}");
            // The same length on a component inside a well-sized name.
            let mut nested = 8u32.to_le_bytes().to_vec();
            nested.extend_from_slice(&len.to_le_bytes());
            nested.extend_from_slice(&[0; 64]);
            assert!(SignedTag::decode(&nested).is_err(), "inner length {len}");
        }
    }

    /// Reads every memoised value — the verdict under `key` among them —
    /// so a stale one could not hide.
    fn warm(st: &SignedTag, key: &PublicKey) -> ([u8; 32], u64, bool) {
        (st.bloom_key(), st.client_identity(), st.verify(key))
    }

    #[test]
    fn clone_then_forge_sees_no_stale_memo() {
        // `tag` and `signature` are public, so the memos are protected
        // only by "a clone starts cold": warm the original, then mutate
        // each field of a clone in turn — every derived value must be the
        // mutated tag's.
        let kp = KeyPair::derive(b"/prov3", 0);
        let pk = kp.public();
        let original = sample_tag().sign(&kp);
        let (key, identity, verdict) = warm(&original, &pk);
        assert!(
            verdict,
            "the original verifies, and the verdict is memoised"
        );
        let encoded = original.encode();

        type Mutation = (&'static str, fn(&mut SignedTag));
        let mutations: [Mutation; 6] = [
            ("provider key locator", |t| {
                t.tag.provider_key_locator = "/prov3/KEY/k2".parse().unwrap()
            }),
            ("access level", |t| {
                t.tag.access_level = AccessLevel::Level(9)
            }),
            ("client key locator", |t| {
                t.tag.client_key_locator = "/prov3/users/u8/KEY".parse().unwrap()
            }),
            ("access path", |t| t.tag.access_path = AccessPath::of([1])),
            ("expiry", |t| t.tag.expiry = SimTime::from_secs(10_000)),
            ("signature", |t| t.signature = Signature::forged(1)),
        ];
        for (what, mutate) in mutations {
            let mut forged = original.clone();
            mutate(&mut forged);
            assert!(!forged.verify(&pk), "{what}: forgery verified");
            assert!(
                !forged.verify(&pk),
                "{what}: forgery verified on asking again"
            );
            assert_ne!(forged.bloom_key(), key, "{what}: stale Bloom key");
            assert_ne!(forged.encode(), encoded, "{what}: stale encoding");
            assert_eq!(forged.wire_len(), forged.encode().len(), "{what}");
            // The memos answer for the mutated tag exactly as a tag built
            // from scratch with those fields does.
            let fresh = SignedTag::new(forged.tag.clone(), forged.signature);
            assert_eq!(warm(&forged, &pk), warm(&fresh, &pk), "{what}");
            assert_eq!(
                forged.client_identity() != identity,
                what == "client key locator",
                "{what}: identity is a digest of the client key locator alone"
            );
        }
        // And the original still answers for itself.
        assert_eq!(warm(&original, &pk), (key, identity, true));
    }

    #[test]
    fn attaching_by_reference_shares_one_copy_and_a_clone_gets_its_own() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let original = sample_tag().sign(&kp);
        let first: Arc<SignedTag> = (&original).into();
        let again: Arc<SignedTag> = (&original).into();
        assert!(Arc::ptr_eq(&first, &again), "one shared copy per instance");
        assert_eq!(*first, original);
        // Clone, forge, attach: the packets carry the forgery, not the
        // original's shared copy.
        let mut forged = original.clone();
        forged.signature = Signature::forged(2);
        let carried: Arc<SignedTag> = (&forged).into();
        assert!(!Arc::ptr_eq(&carried, &first));
        assert_eq!(carried.signature, Signature::forged(2));
        assert!(!carried.verify(&kp.public()));
        assert_ne!(carried.bloom_key(), first.bloom_key());
    }

    #[test]
    fn memoised_values_match_their_definitions() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let st = sample_tag().sign(&kp);
        let other = KeyPair::derive(b"/prov4", 0).public();
        for _ in 0..2 {
            // The verdict is the signature check over the collected body,
            // under each key, first asked and asked again.
            for key in [kp.public(), other] {
                assert_eq!(
                    st.verify(&key),
                    key.verify(&st.tag.to_bytes(), &st.signature)
                );
            }
        }
        assert!(st.verify(&kp.public()) && !st.verify(&other));
        assert_eq!(
            st.client_identity(),
            Digest256::of(&st.tag.client_key_locator.to_bytes()).fold64()
        );
        assert_eq!(
            st.bloom_key(),
            Digest256::of_parts(&[&st.tag.to_bytes(), &st.signature.to_bytes()]).to_bytes()
        );
        assert_eq!(st.wire_len(), st.encode().len());
        assert_eq!(
            st.encode()[..st.tag.to_bytes().len()],
            st.tag.to_bytes()[..]
        );
    }

    #[test]
    fn provider_prefix_extraction() {
        assert_eq!(sample_tag().provider_prefix().to_string(), "/prov3");
    }

    #[test]
    fn expiry_check() {
        let t = sample_tag();
        assert!(!t.is_expired(SimTime::from_secs(9)));
        assert!(t.is_expired(SimTime::from_secs(10)));
        assert!(t.is_expired(SimTime::from_secs(11)));
    }

    #[test]
    fn bloom_key_distinguishes_signatures_on_same_body() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let genuine = sample_tag().sign(&kp);
        let forged = SignedTag::new(sample_tag(), Signature::forged(1));
        assert_ne!(genuine.bloom_key(), forged.bloom_key());
    }

    #[test]
    fn tag_is_a_couple_hundred_bytes() {
        // §4.A: "a tag [should] be a couple hundred bytes".
        let kp = KeyPair::derive(b"/prov3", 0);
        let len = sample_tag().sign(&kp).encode().len();
        assert!((50..300).contains(&len), "tag wire length {len}");
    }
}
