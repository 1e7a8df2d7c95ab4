//! NDN packet types: Interest, Data, and Nack.
//!
//! Packets carry an open-ended list of **extensions** so higher layers
//! can attach fields without this crate knowing about them — TACTIC rides
//! its tag, flag `F`, and content-NACK marker in extensions (see
//! `tactic::ext`). Extension types `0x8000..` are reserved for
//! applications.
//!
//! # In memory vs on the wire
//!
//! On the wire an extension is a `(type, bytes)` TLV. In memory its value
//! is an [`ExtValue`], which is whichever of three forms is cheapest to
//! carry through a simulated network:
//!
//! * **inline** — values of at most [`ExtValue::INLINE_MAX`] bytes (a
//!   flag, a level, a 64-bit path) live in the packet itself;
//! * **bytes** — longer opaque values share one buffer; this is what
//!   [`wire::decode`](crate::wire::decode) produces;
//! * **shared handle** — a value the attaching layer keeps *decoded*
//!   behind an `Arc<dyn `[`Annotation`]`>`, read back by pointer clone
//!   ([`ExtValue::shared`]) with no parsing.
//!
//! Every form answers [`ExtValue::bytes`] with its TLV value bytes, and
//! equality, `Debug`, [`Data::signable_bytes`], `wire::encode` and
//! `wire::wire_size` are all defined over those bytes — so a packet built
//! in memory equals its own wire round trip, and the size a link charges
//! cannot drift from the encoding.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use tactic_crypto::schnorr::Signature;

use crate::name::Name;

/// A decoded extension value a higher layer shares by handle.
///
/// The implementor owns the wire form: `wire_bytes` must return the same
/// bytes for the lifetime of the value (memoise them if they are built
/// lazily), because packet equality and link sizes are computed from it.
pub trait Annotation: Any + Send + Sync + fmt::Debug {
    /// The TLV value bytes this annotation encodes to.
    fn wire_bytes(&self) -> &[u8];
}

/// The value of one extension (see the module docs for the three forms).
#[derive(Clone)]
pub enum ExtValue {
    /// At most [`ExtValue::INLINE_MAX`] bytes, stored in the packet.
    Inline {
        /// How many of `bytes` are the value.
        len: u8,
        /// The value, left-aligned.
        bytes: [u8; ExtValue::INLINE_MAX],
    },
    /// Longer opaque bytes, shared between clones of the packet.
    Bytes(Arc<[u8]>),
    /// A decoded value shared by handle.
    Shared(Arc<dyn Annotation>),
}

impl ExtValue {
    /// The longest value stored inline.
    pub const INLINE_MAX: usize = 8;

    /// The TLV value bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            ExtValue::Inline { len, bytes } => &bytes[..*len as usize],
            ExtValue::Bytes(b) => b,
            ExtValue::Shared(a) => a.wire_bytes(),
        }
    }

    /// The shared handle, if this value is one and holds a `T`.
    pub fn shared<T: Annotation>(&self) -> Option<Arc<T>> {
        match self {
            ExtValue::Shared(a) => {
                let any: Arc<dyn Any + Send + Sync> = a.clone();
                any.downcast().ok()
            }
            _ => None,
        }
    }
}

impl From<&[u8]> for ExtValue {
    /// Inline when it fits, one copy into a shared buffer otherwise.
    fn from(value: &[u8]) -> Self {
        if value.len() <= ExtValue::INLINE_MAX {
            let mut bytes = [0; ExtValue::INLINE_MAX];
            bytes[..value.len()].copy_from_slice(value);
            ExtValue::Inline {
                len: value.len() as u8,
                bytes,
            }
        } else {
            ExtValue::Bytes(value.into())
        }
    }
}

impl<const N: usize> From<[u8; N]> for ExtValue {
    fn from(value: [u8; N]) -> Self {
        value[..].into()
    }
}

impl From<Vec<u8>> for ExtValue {
    fn from(value: Vec<u8>) -> Self {
        value[..].into()
    }
}

impl<T: Annotation> From<Arc<T>> for ExtValue {
    fn from(value: Arc<T>) -> Self {
        ExtValue::Shared(value)
    }
}

impl PartialEq for ExtValue {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for ExtValue {}

impl fmt::Debug for ExtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes().fmt(f)
    }
}

/// An extension carried by a packet: its TLV type and value.
#[derive(Clone, PartialEq, Eq)]
pub struct Extension {
    /// The TLV type.
    pub ty: u16,
    /// The value.
    pub value: ExtValue,
}

impl fmt::Debug for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {:?})", self.ty, self.value)
    }
}

/// A packet's extension list.
#[derive(Debug, Default, PartialEq, Eq)]
struct Extensions(Vec<Extension>);

impl Clone for Extensions {
    /// A clone of an annotated packet is usually annotated further (a
    /// cache hit gains the tag echo and `F`), so it gets the room a
    /// first `push` would have reserved anyway instead of an exact fit
    /// that the next `set` has to regrow.
    fn clone(&self) -> Self {
        if self.0.is_empty() {
            return Extensions::default();
        }
        let mut list = Vec::with_capacity(self.0.len().max(4));
        list.extend_from_slice(&self.0);
        Extensions(list)
    }
}

impl Extensions {
    /// The first extension with the given type.
    fn get(&self, ty: u16) -> Option<&ExtValue> {
        self.0.iter().find(|e| e.ty == ty).map(|e| &e.value)
    }

    /// Replaces (or inserts) the extension with the given type.
    fn set(&mut self, ty: u16, value: ExtValue) {
        if let Some(slot) = self.0.iter_mut().find(|e| e.ty == ty) {
            slot.value = value;
        } else {
            self.0.push(Extension { ty, value });
        }
    }

    /// Removes an extension; returns whether it was present.
    fn remove(&mut self, ty: u16) -> bool {
        let before = self.0.len();
        self.0.retain(|e| e.ty != ty);
        self.0.len() != before
    }
}

/// An NDN Interest: a named request.
///
/// # Examples
///
/// ```
/// use tactic_ndn::packet::Interest;
///
/// let i = Interest::new("/prov/obj/0".parse()?, 42);
/// assert_eq!(i.name().to_string(), "/prov/obj/0");
/// assert_eq!(i.nonce(), 42);
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interest {
    name: Name,
    nonce: u64,
    lifetime_ms: u32,
    extensions: Extensions,
}

impl Interest {
    /// Default Interest lifetime (NDN's conventional 4 s is overridden by
    /// the paper's 1 s request expiry at clients; this is the packet-level
    /// default).
    pub const DEFAULT_LIFETIME_MS: u32 = 4_000;

    /// Creates an Interest for `name` with a caller-supplied nonce.
    pub fn new(name: Name, nonce: u64) -> Self {
        Interest {
            name,
            nonce,
            lifetime_ms: Self::DEFAULT_LIFETIME_MS,
            extensions: Extensions::default(),
        }
    }

    /// The requested name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The loop-detection nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The Interest lifetime in milliseconds.
    pub fn lifetime_ms(&self) -> u32 {
        self.lifetime_ms
    }

    /// Sets the Interest lifetime.
    pub fn set_lifetime_ms(&mut self, ms: u32) {
        self.lifetime_ms = ms;
    }

    /// All extensions.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions.0
    }

    /// Reads an extension's TLV value bytes by type.
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        self.extension_value(ty).map(ExtValue::bytes)
    }

    /// Reads an extension's in-memory value by type.
    pub fn extension_value(&self, ty: u16) -> Option<&ExtValue> {
        self.extensions.get(ty)
    }

    /// Sets an extension, replacing any previous value of the same type.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<ExtValue>) {
        self.extensions.set(ty, value.into());
    }

    /// Removes an extension; returns whether it was present.
    pub fn remove_extension(&mut self, ty: u16) -> bool {
        self.extensions.remove(ty)
    }
}

/// The payload of a Data packet.
///
/// Simulated contents are usually `Synthetic(len)` — the bytes never exist,
/// only their length (which the link model charges). Tests and examples may
/// carry real `Bytes`; those are shared (`Arc`), so cloning a Data packet
/// never copies content bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A payload of the given length whose bytes are never materialised.
    Synthetic(usize),
    /// Actual bytes, shared between all clones of the packet.
    Bytes(std::sync::Arc<[u8]>),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Synthetic(n) => *n,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Synthetic(0)
    }
}

/// An NDN Data packet: named, signed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    name: Name,
    payload: Payload,
    signature: Option<Signature>,
    freshness_ms: u32,
    extensions: Extensions,
}

impl Data {
    /// Creates a Data packet.
    pub fn new(name: Name, payload: Payload) -> Self {
        Data {
            name,
            payload,
            signature: None,
            freshness_ms: 0,
            extensions: Extensions::default(),
        }
    }

    /// The content name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The provider signature over the packet, if signed.
    pub fn signature(&self) -> Option<&Signature> {
        self.signature.as_ref()
    }

    /// Attaches a signature.
    pub fn set_signature(&mut self, sig: Signature) {
        self.signature = Some(sig);
    }

    /// Freshness period in milliseconds (0 = always fresh).
    pub fn freshness_ms(&self) -> u32 {
        self.freshness_ms
    }

    /// Sets the freshness period.
    pub fn set_freshness_ms(&mut self, ms: u32) {
        self.freshness_ms = ms;
    }

    /// All extensions.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions.0
    }

    /// Reads an extension's TLV value bytes by type.
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        self.extension_value(ty).map(ExtValue::bytes)
    }

    /// Reads an extension's in-memory value by type.
    pub fn extension_value(&self, ty: u16) -> Option<&ExtValue> {
        self.extensions.get(ty)
    }

    /// Sets an extension, replacing any previous value of the same type.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<ExtValue>) {
        self.extensions.set(ty, value.into());
    }

    /// Removes an extension; returns whether it was present.
    pub fn remove_extension(&mut self, ty: u16) -> bool {
        self.extensions.remove(ty)
    }

    /// The bytes a provider signs: name + payload length + extensions that
    /// are part of the signed content (access level, key locator).
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut exts: Vec<(u16, &[u8])> = self
            .extensions()
            .iter()
            .map(|e| (e.ty, e.value.bytes()))
            .collect();
        exts.sort_by_key(|(t, _)| *t);
        let len = self.name.bytes_len() + 8 + exts.iter().map(|(_, v)| 6 + v.len()).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        self.name.write_bytes(&mut out);
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        for (t, v) in exts {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        out
    }
}

/// Reasons a Nack may be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NackReason {
    /// No FIB entry for the requested name.
    NoRoute,
    /// Nonce already seen (loop).
    Duplicate,
    /// TACTIC: the request's tag failed validation.
    InvalidTag,
    /// TACTIC: the access path in the request did not match the tag's.
    AccessPathMismatch,
}

impl std::fmt::Display for NackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NackReason::NoRoute => "no route",
            NackReason::Duplicate => "duplicate nonce",
            NackReason::InvalidTag => "invalid tag",
            NackReason::AccessPathMismatch => "access path mismatch",
        };
        f.write_str(s)
    }
}

/// A standalone network-layer Nack (distinct from TACTIC's content-attached
/// NACK marker, which rides as a Data extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    interest: Interest,
    reason: NackReason,
}

impl Nack {
    /// Creates a Nack for the given Interest.
    pub fn new(interest: Interest, reason: NackReason) -> Self {
        Nack { interest, reason }
    }

    /// The nacked Interest.
    pub fn interest(&self) -> &Interest {
        &self.interest
    }

    /// Why the Interest was nacked.
    pub fn reason(&self) -> NackReason {
        self.reason
    }
}

/// Any NDN packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A request.
    Interest(Interest),
    /// A content reply.
    Data(Data),
    /// A network-layer negative acknowledgement.
    Nack(Nack),
}

impl Packet {
    /// The name the packet pertains to.
    pub fn name(&self) -> &Name {
        match self {
            Packet::Interest(i) => i.name(),
            Packet::Data(d) => d.name(),
            Packet::Nack(n) => n.interest().name(),
        }
    }
}

impl From<Interest> for Packet {
    fn from(i: Interest) -> Self {
        Packet::Interest(i)
    }
}

impl From<Data> for Packet {
    fn from(d: Data) -> Self {
        Packet::Data(d)
    }
}

impl From<Nack> for Packet {
    fn from(n: Nack) -> Self {
        Packet::Nack(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_crypto::schnorr::KeyPair;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn interest_extension_set_get_replace_remove() {
        let mut i = Interest::new(name("/a"), 1);
        assert_eq!(i.extension(0x8001), None);
        i.set_extension(0x8001, vec![1, 2]);
        assert_eq!(i.extension(0x8001), Some(&[1u8, 2][..]));
        i.set_extension(0x8001, vec![3]);
        assert_eq!(i.extension(0x8001), Some(&[3u8][..]));
        assert_eq!(i.extensions().len(), 1);
        assert!(i.remove_extension(0x8001));
        assert!(!i.remove_extension(0x8001));
    }

    #[test]
    fn packets_stay_small() {
        // Every calendar event, content-store entry and shard-mailbox
        // slot holds a `Packet` by value: growing it is a decision to
        // take here, visibly, not a side effect of a new field.
        assert!(
            size_of::<Packet>() <= 192,
            "Packet is {} B",
            size_of::<Packet>()
        );
        // An extension is 32 B in the packet's list, whatever it holds.
        assert!(size_of::<Extension>() <= 32);
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Synthetic(1024).len(), 1024);
        assert_eq!(Payload::Bytes(vec![0; 7].into()).len(), 7);
        assert!(Payload::default().is_empty());
    }

    #[test]
    fn data_signing_roundtrip() {
        let kp = KeyPair::derive(b"prov", 0);
        let mut d = Data::new(name("/prov/obj/0"), Payload::Synthetic(1024));
        d.set_extension(0x8002, vec![9]);
        let sig = kp.sign(&d.signable_bytes());
        d.set_signature(sig);
        assert!(kp
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
    }

    #[test]
    fn signable_bytes_cover_extensions_and_are_order_independent() {
        let mut a = Data::new(name("/x"), Payload::Synthetic(10));
        a.set_extension(1, vec![1]);
        a.set_extension(2, vec![2]);
        let mut b = Data::new(name("/x"), Payload::Synthetic(10));
        b.set_extension(2, vec![2]);
        b.set_extension(1, vec![1]);
        assert_eq!(a.signable_bytes(), b.signable_bytes());
        let mut c = b.clone();
        c.set_extension(2, vec![3]);
        assert_ne!(a.signable_bytes(), c.signable_bytes());
    }

    #[test]
    fn packet_names() {
        let i = Interest::new(name("/n"), 5);
        assert_eq!(Packet::from(i.clone()).name(), &name("/n"));
        let d = Data::new(name("/n"), Payload::default());
        assert_eq!(Packet::from(d).name(), &name("/n"));
        let nk = Nack::new(i, NackReason::NoRoute);
        assert_eq!(nk.reason(), NackReason::NoRoute);
        assert_eq!(Packet::from(nk).name(), &name("/n"));
    }

    #[test]
    fn nack_reason_display() {
        assert_eq!(NackReason::InvalidTag.to_string(), "invalid tag");
        assert_eq!(
            NackReason::AccessPathMismatch.to_string(),
            "access path mismatch"
        );
    }
}
