//! NDN packet types: Interest, Data, and Nack.
//!
//! Packets carry an open-ended set of **extensions** so higher layers
//! can attach fields without this crate knowing about them — TACTIC rides
//! its tag, flag `F`, and content-NACK marker in extensions (see
//! `tactic::ext`). Extension types `0x8000..` are reserved for
//! applications.
//!
//! # In memory vs on the wire
//!
//! On the wire an extension is a `(type, bytes)` TLV. In memory it is an
//! [`Extension`]: 24 bytes holding the type and whichever of three value
//! forms ([`ExtValue`]) is cheapest to carry through a simulated network:
//!
//! * **inline** — values of at most [`ExtValue::INLINE_MAX`] bytes (a
//!   flag, a level, a 64-bit path) live in the extension itself;
//! * **bytes** — longer opaque values share one buffer; this is what
//!   [`wire::decode`](crate::wire::decode) produces;
//! * **shared handle** — a value the attaching layer keeps *decoded*
//!   behind an `Arc<dyn `[`Annotation`]`>`, read back by pointer clone
//!   ([`Extension::shared`]) with no parsing.
//!
//! Every form writes its TLV value bytes through
//! [`Extension::write_wire`] into any [`ByteSink`] — a buffer, a digest,
//! a signature — and states their length as [`Extension::len`]; equality,
//! `Debug`, [`Data::write_signable`], `wire::encode` and `wire::wire_size`
//! are all defined over those bytes — so a packet built in memory equals
//! its own wire round trip, the size a link charges cannot drift from the
//! encoding, and a shared handle never has to hold its encoding.
//!
//! A packet keeps its first [`INLINE_EXTENSIONS`] extensions in itself
//! (room for TACTIC's three attaches: tag, `F`, access path) and moves
//! the whole set to the heap only beyond that, so attaching to a fresh
//! packet does not allocate and the API stays open-ended. Where a set
//! lives is invisible to every reader.
//!
//! # A Data is shared content plus per-delivery annotations
//!
//! What a provider publishes and signs — name, payload, freshness,
//! signature and the *signed* extensions — never changes on the way to a
//! consumer, so a [`Data`] holds it once, behind an `Arc`, however many
//! content stores, PIT fan-outs and calendar events hold a copy of the
//! packet: `Data::clone` is a refcount bump plus a small inline copy. What
//! a router adds hop by hop (TACTIC: the tag echo, `F`, the NACK marker)
//! is unsigned and differs per delivery; those *annotations* sit in the
//! `Data` itself. The two classes are told apart by extension type:
//! [`SIGNED_EXTENSIONS`] are content, every other type is an annotation.
//! [`Data::write_signable`] covers the content alone, so annotating a
//! signed packet never invalidates its signature, and a setter of a
//! content field copies the content first if another packet shares it.
//! On the wire the signed extensions precede the annotations. A content
//! store keeps the content alone: annotations describe one delivery, so a
//! cache hit is a fresh copy without them.
//!
//! # Sizes
//!
//! A [`Packet`] is 136 bytes — an Interest 128 (32 of name, 80 of inline
//! extensions), a Data 88 — pinned at most 192 by a unit test, because
//! every transport emit and every cross-shard mailbox slot holds one by
//! value. The encodings are pinned too:
//! `crates/core/tests/wire_equivalence.rs` holds hex vectors and a
//! property test that every TACTIC extension reader answers the same on
//! a packet and on its decoded copy; never regenerate them to make a
//! change pass.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use tactic_crypto::hash::ByteSink;
use tactic_crypto::schnorr::Signature;

use crate::name::Name;

/// A decoded extension value a higher layer shares by handle.
///
/// The implementor owns the wire form and writes it on demand: packet
/// equality, link sizes, encodings and signatures are computed from
/// `write_wire`, which must write exactly `wire_len` bytes.
pub trait Annotation: Any + Send + Sync + fmt::Debug {
    /// The length of the TLV value bytes this annotation encodes to.
    fn wire_len(&self) -> usize;

    /// Writes those `wire_len` bytes into `out`.
    fn write_wire(&self, out: &mut dyn ByteSink);
}

/// The value to attach as an extension (see the module docs for the
/// three forms); what [`Interest::set_extension`] and
/// [`Data::set_extension`] take.
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

/// An extension carried by a packet: its TLV type and value, the type
/// folded into the value's variant so the pair is 24 bytes.
#[derive(Clone)]
pub struct Extension(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        ty: u16,
        len: u8,
        bytes: [u8; ExtValue::INLINE_MAX],
    },
    Bytes {
        ty: u16,
        bytes: Arc<[u8]>,
    },
    Shared {
        ty: u16,
        value: Arc<dyn Annotation>,
    },
}

impl Extension {
    /// What an unused inline slot of a packet holds.
    const VACANT: Extension = Extension(Repr::Inline {
        ty: 0,
        len: 0,
        bytes: [0; ExtValue::INLINE_MAX],
    });

    /// The extension of type `ty` holding `value`.
    fn new(ty: u16, value: ExtValue) -> Self {
        Extension(match value {
            ExtValue::Inline { len, bytes } => Repr::Inline { ty, len, bytes },
            ExtValue::Bytes(bytes) => Repr::Bytes { ty, bytes },
            ExtValue::Shared(value) => Repr::Shared { ty, value },
        })
    }

    /// The TLV type.
    pub fn ty(&self) -> u16 {
        match self.0 {
            Repr::Inline { ty, .. } | Repr::Bytes { ty, .. } | Repr::Shared { ty, .. } => ty,
        }
    }

    /// The TLV value bytes of a value held as bytes — inline or off the
    /// wire; `None` for a shared handle, which holds no encoding (read it
    /// through [`shared`](Self::shared) or [`write_wire`](Self::write_wire)).
    pub fn bytes(&self) -> Option<&[u8]> {
        match &self.0 {
            Repr::Inline { len, bytes, .. } => Some(&bytes[..*len as usize]),
            Repr::Bytes { bytes, .. } => Some(bytes),
            Repr::Shared { .. } => None,
        }
    }

    /// The length of the TLV value bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Bytes { bytes, .. } => bytes.len(),
            Repr::Shared { value, .. } => value.wire_len(),
        }
    }

    /// True for an empty value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the TLV value bytes into `out`.
    pub fn write_wire(&self, out: &mut dyn ByteSink) {
        match &self.0 {
            Repr::Inline { len, bytes, .. } => out.put(&bytes[..*len as usize]),
            Repr::Bytes { bytes, .. } => out.put(bytes),
            Repr::Shared { value, .. } => value.write_wire(out),
        }
    }

    /// The TLV value bytes, collected (equality and `Debug` of a shared
    /// handle; never on the packet path).
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.write_wire(&mut out);
        out
    }

    /// The shared handle, if the value is one and holds a `T`.
    pub fn shared<T: Annotation>(&self) -> Option<Arc<T>> {
        match &self.0 {
            Repr::Shared { value, .. } => {
                let any: Arc<dyn Any + Send + Sync> = value.clone();
                any.downcast().ok()
            }
            _ => None,
        }
    }
}

impl PartialEq for Extension {
    fn eq(&self, other: &Self) -> bool {
        self.ty() == other.ty()
            && match (self.bytes(), other.bytes()) {
                (Some(a), Some(b)) => a == b,
                _ => self.to_vec() == other.to_vec(),
            }
    }
}

impl Eq for Extension {}

impl fmt::Debug for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {:?})", self.ty(), self.to_vec())
    }
}

/// How many extensions a packet (and a Data's content, and a Data's
/// annotations) holds without a heap block: TACTIC's three attaches.
pub const INLINE_EXTENSIONS: usize = 3;

/// A set of extensions, at most one per type, in attach order.
#[derive(Clone)]
enum Extensions {
    /// `items[..len]` are the set; the rest is [`Extension::VACANT`].
    Inline {
        len: u8,
        items: [Extension; INLINE_EXTENSIONS],
    },
    /// A set that outgrew the inline room (and stays here).
    Spilled(Vec<Extension>),
}

impl Default for Extensions {
    fn default() -> Self {
        Extensions::Inline {
            len: 0,
            items: [Extension::VACANT; INLINE_EXTENSIONS],
        }
    }
}

impl Extensions {
    fn as_slice(&self) -> &[Extension] {
        match self {
            Extensions::Inline { len, items } => &items[..*len as usize],
            Extensions::Spilled(list) => list,
        }
    }

    /// The extension with the given type.
    fn get(&self, ty: u16) -> Option<&Extension> {
        self.as_slice().iter().find(|e| e.ty() == ty)
    }

    /// Replaces (or appends) the extension of `ext`'s type.
    fn set(&mut self, ext: Extension) {
        let held = match self {
            Extensions::Inline { len, items } => &mut items[..*len as usize],
            Extensions::Spilled(list) => &mut list[..],
        };
        if let Some(slot) = held.iter_mut().find(|e| e.ty() == ext.ty()) {
            *slot = ext;
            return;
        }
        match self {
            Extensions::Inline { len, items } if (*len as usize) < INLINE_EXTENSIONS => {
                items[*len as usize] = ext;
                *len += 1;
            }
            Extensions::Inline { items, .. } => {
                let mut list = Vec::with_capacity(2 * INLINE_EXTENSIONS);
                list.extend(
                    items
                        .iter_mut()
                        .map(|e| std::mem::replace(e, Extension::VACANT)),
                );
                list.push(ext);
                *self = Extensions::Spilled(list);
            }
            Extensions::Spilled(list) => list.push(ext),
        }
    }

    /// Removes an extension, keeping the order of the rest; returns
    /// whether it was present.
    fn remove(&mut self, ty: u16) -> bool {
        let Some(at) = self.as_slice().iter().position(|e| e.ty() == ty) else {
            return false;
        };
        match self {
            Extensions::Inline { len, items } => {
                items[at] = Extension::VACANT;
                items[at..*len as usize].rotate_left(1);
                *len -= 1;
            }
            Extensions::Spilled(list) => {
                list.remove(at);
            }
        }
        true
    }
}

impl PartialEq for Extensions {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Extensions {}

impl fmt::Debug for Extensions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
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

    /// All extensions, in attach order.
    pub fn extensions(&self) -> &[Extension] {
        self.extensions.as_slice()
    }

    /// Reads an extension's TLV value bytes by type, if it holds bytes
    /// (see [`Extension::bytes`]).
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        self.find_extension(ty).and_then(Extension::bytes)
    }

    /// The extension of the given type, in its in-memory form.
    pub fn find_extension(&self, ty: u16) -> Option<&Extension> {
        self.extensions.get(ty)
    }

    /// Sets an extension, replacing any previous value of the same type.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<ExtValue>) {
        self.extensions.set(Extension::new(ty, value.into()));
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

/// The Data extension types that belong to the signed content object
/// (TACTIC: the access level and the provider key locator). Every other
/// type is a per-delivery annotation; see the module docs.
pub const SIGNED_EXTENSIONS: Range<u16> = 0x8010..0x8100;

/// What the provider published and signed: one allocation, shared by
/// every copy of the packet — and all a content store or a provider's
/// catalogue keeps of one. Opaque: read it through a [`Data`] built by
/// [`Data::from_content`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Content {
    pub(crate) name: Name,
    payload: Payload,
    signature: Option<Signature>,
    pub(crate) freshness_ms: u32,
    /// The extensions of a [`SIGNED_EXTENSIONS`] type.
    extensions: Extensions,
}

/// An NDN Data packet: named, signed content, plus the unsigned
/// annotations of this delivery (see the module docs).
#[derive(Clone)]
pub struct Data {
    content: Arc<Content>,
    /// The extensions of any other type.
    annotations: Extensions,
}

impl PartialEq for Data {
    fn eq(&self, other: &Self) -> bool {
        (self.shares_content_with(other) || self.content == other.content)
            && self.annotations == other.annotations
    }
}

impl Eq for Data {}

impl fmt::Debug for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct All<'a>(&'a Data);
        impl fmt::Debug for All<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.extensions()).finish()
            }
        }
        f.debug_struct("Data")
            .field("name", self.name())
            .field("payload", self.payload())
            .field("signature", &self.signature())
            .field("freshness_ms", &self.freshness_ms())
            .field("extensions", &All(self))
            .finish()
    }
}

impl Data {
    /// Creates a Data packet.
    pub fn new(name: Name, payload: Payload) -> Self {
        Data {
            content: Arc::new(Content {
                name,
                payload,
                signature: None,
                freshness_ms: 0,
                extensions: Extensions::default(),
            }),
            annotations: Extensions::default(),
        }
    }

    /// A copy of published content, with no annotations.
    pub fn from_content(content: Arc<Content>) -> Self {
        Data {
            content,
            annotations: Extensions::default(),
        }
    }

    /// The published content alone, this copy's annotations dropped.
    pub fn into_content(self) -> Arc<Content> {
        self.content
    }

    /// The content name.
    pub fn name(&self) -> &Name {
        &self.content.name
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.content.payload
    }

    /// The provider signature over the packet, if signed.
    pub fn signature(&self) -> Option<&Signature> {
        self.content.signature.as_ref()
    }

    /// Attaches a signature.
    pub fn set_signature(&mut self, sig: Signature) {
        Arc::make_mut(&mut self.content).signature = Some(sig);
    }

    /// Freshness period in milliseconds (0 = always fresh).
    pub fn freshness_ms(&self) -> u32 {
        self.content.freshness_ms
    }

    /// Sets the freshness period.
    pub fn set_freshness_ms(&mut self, ms: u32) {
        Arc::make_mut(&mut self.content).freshness_ms = ms;
    }

    /// True if `self` and `other` are copies of one published packet,
    /// holding the very same content allocation.
    pub fn shares_content_with(&self, other: &Data) -> bool {
        Arc::ptr_eq(&self.content, &other.content)
    }

    /// All extensions: the signed ones in attach order, then the
    /// annotations in attach order — the order they have on the wire.
    pub fn extensions(&self) -> impl Iterator<Item = &Extension> {
        let signed = self.content.extensions.as_slice();
        signed.iter().chain(self.annotations.as_slice())
    }

    /// Reads an extension's TLV value bytes by type, if it holds bytes
    /// (see [`Extension::bytes`]).
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        self.find_extension(ty).and_then(Extension::bytes)
    }

    /// The extension of the given type, in its in-memory form.
    pub fn find_extension(&self, ty: u16) -> Option<&Extension> {
        if SIGNED_EXTENSIONS.contains(&ty) {
            self.content.extensions.get(ty)
        } else {
            self.annotations.get(ty)
        }
    }

    /// Sets an extension, replacing any previous value of the same type.
    /// A [`SIGNED_EXTENSIONS`] type changes the content (copied first if
    /// shared); any other annotates this copy alone.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<ExtValue>) {
        let ext = Extension::new(ty, value.into());
        if SIGNED_EXTENSIONS.contains(&ty) {
            Arc::make_mut(&mut self.content).extensions.set(ext);
        } else {
            self.annotations.set(ext);
        }
    }

    /// Removes an extension; returns whether it was present.
    pub fn remove_extension(&mut self, ty: u16) -> bool {
        if !SIGNED_EXTENSIONS.contains(&ty) {
            return self.annotations.remove(ty);
        }
        // Nothing to remove leaves shared content shared.
        self.content.extensions.get(ty).is_some()
            && Arc::make_mut(&mut self.content).extensions.remove(ty)
    }

    /// Writes the bytes a provider signs into `out`: name + payload
    /// length + the signed extensions (access level, key locator), in
    /// ascending type order — extensions of one type in stored order —
    /// whatever order they were attached in. Annotations are no part of
    /// it. A signer or verifier streams them straight into its digest
    /// (`KeyPair::sign_with(data.signable_len(), |out| data.write_signable(out))`).
    pub fn write_signable(&self, out: &mut dyn ByteSink) {
        let content = &*self.content;
        let exts = content.extensions.as_slice();
        content.name.write_bytes(out);
        out.put(&(content.payload.len() as u64).to_le_bytes());
        // A handful of extensions: each round emits the smallest type not
        // yet written.
        let mut next = exts.iter().map(Extension::ty).min();
        while let Some(ty) = next {
            for e in exts.iter().filter(|e| e.ty() == ty) {
                out.put(&ty.to_le_bytes());
                out.put(&(e.len() as u32).to_le_bytes());
                e.write_wire(out);
            }
            next = exts.iter().map(Extension::ty).filter(|&t| t > ty).min();
        }
    }

    /// How many bytes [`write_signable`](Self::write_signable) writes.
    pub fn signable_len(&self) -> usize {
        let content = &*self.content;
        let exts = content.extensions.as_slice();
        content.name.bytes_len() + 8 + exts.iter().map(|e| 6 + e.len()).sum::<usize>()
    }

    /// The [`write_signable`](Self::write_signable) bytes, collected —
    /// for tests and tools; signing and verifying stream them instead.
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.signable_len());
        self.write_signable(&mut out);
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
            "Packet is {} B (136 when this was written)",
            size_of::<Packet>()
        );
        // A content store holds one of these per entry.
        assert!(size_of::<Data>() <= 96, "Data is {} B", size_of::<Data>());
        // An extension is 24 B in a packet, whatever it holds.
        assert!(size_of::<Extension>() <= 24);
    }

    #[test]
    fn a_fourth_extension_spills_and_nothing_else_changes() {
        let mut i = Interest::new(name("/a"), 1);
        for ty in 0x9000..0x9000 + INLINE_EXTENSIONS as u16 {
            i.set_extension(ty, [ty as u8]);
        }
        assert!(matches!(i.extensions, Extensions::Inline { .. }));
        i.set_extension(0x9100, vec![7; 20]);
        assert!(matches!(i.extensions, Extensions::Spilled(_)));
        let types: Vec<u16> = i.extensions().iter().map(Extension::ty).collect();
        assert_eq!(types, [0x9000, 0x9001, 0x9002, 0x9100]);
        // Back under the inline room, a spilled set equals one that
        // never left it.
        assert!(i.remove_extension(0x9001));
        assert!(i.remove_extension(0x9100));
        let mut inline = Interest::new(name("/a"), 1);
        inline.set_extension(0x9000, [0]);
        inline.set_extension(0x9002, [2]);
        assert_eq!(i, inline);
        assert_eq!(format!("{i:?}"), format!("{inline:?}"));
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Synthetic(1024).len(), 1024);
        assert_eq!(Payload::Bytes(vec![0; 7].into()).len(), 7);
        assert!(Payload::default().is_empty());
    }

    /// A signed (content) and an unsigned (annotation) extension type.
    const SIGNED: u16 = SIGNED_EXTENSIONS.start;
    const ANNOTATION: u16 = 0x8002;

    #[test]
    fn annotating_a_signed_packet_keeps_its_signature_valid() {
        let kp = KeyPair::derive(b"prov", 0);
        let mut d = Data::new(name("/prov/obj/0"), Payload::Synthetic(1024));
        d.set_extension(SIGNED, vec![9]);
        let signed = d.signable_bytes();
        d.set_signature(kp.sign(&signed));
        d.set_extension(ANNOTATION, vec![1, 2, 3]);
        d.set_extension(0x9000, vec![4; 40]);
        assert_eq!(d.signable_bytes(), signed);
        assert!(kp
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
        // The content extension is what the signature covers.
        d.set_extension(SIGNED, vec![8]);
        assert!(!kp
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
    }

    #[test]
    fn signable_bytes_cover_signed_extensions_and_are_order_independent() {
        let mut a = Data::new(name("/x"), Payload::Synthetic(10));
        a.set_extension(SIGNED, vec![1]);
        a.set_extension(SIGNED + 1, vec![2]);
        let mut b = Data::new(name("/x"), Payload::Synthetic(10));
        b.set_extension(SIGNED + 1, vec![2]);
        b.set_extension(SIGNED, vec![1]);
        assert_eq!(a.signable_bytes(), b.signable_bytes());
        let mut c = b.clone();
        c.set_extension(SIGNED + 1, vec![3]);
        assert_ne!(a.signable_bytes(), c.signable_bytes());
    }

    #[test]
    fn signable_bytes_order_a_duplicated_type_as_a_stable_sort_would() {
        // No setter stores a type twice, so the set is built by hand: the
        // order must still be the one a stable sort by type gives, which
        // is what every signature so far was made over.
        let ext = |ty, v: u8| Extension::new(ty, vec![v; 9].into());
        let stored = vec![
            ext(SIGNED + 2, 1),
            ext(SIGNED, 2),
            ext(SIGNED + 2, 3),
            ext(SIGNED + 1, 4),
            ext(SIGNED, 5),
        ];
        let mut d = Data::new(name("/x/y"), Payload::Synthetic(10));
        Arc::make_mut(&mut d.content).extensions = Extensions::Spilled(stored.clone());
        let mut sorted = stored;
        sorted.sort_by_key(Extension::ty);
        let mut want = Vec::new();
        name("/x/y").write_bytes(&mut want);
        want.extend_from_slice(&10u64.to_le_bytes());
        for e in &sorted {
            want.extend_from_slice(&e.ty().to_le_bytes());
            want.extend_from_slice(&(e.len() as u32).to_le_bytes());
            want.extend_from_slice(e.bytes().unwrap());
        }
        assert_eq!(d.signable_bytes(), want);
    }

    #[test]
    fn copies_share_content_until_one_writes_a_signed_field() {
        let mut original = Data::new(name("/x"), Payload::Synthetic(10));
        original.set_extension(SIGNED, vec![1]);
        let mut copy = original.clone();
        assert!(copy.shares_content_with(&original));
        // Annotations are per copy and leave the content shared...
        copy.set_extension(ANNOTATION, vec![5]);
        assert!(copy.remove_extension(ANNOTATION));
        assert!(!copy.remove_extension(SIGNED + 1), "absent: nothing to do");
        assert!(copy.shares_content_with(&original));
        assert_eq!(copy, original);
        // ... a signed field copies on write and the other holder keeps
        // what it had.
        copy.set_freshness_ms(250);
        assert!(!copy.shares_content_with(&original));
        assert_eq!(original.freshness_ms(), 0);
        let mut other = original.clone();
        assert!(other.remove_extension(SIGNED));
        assert_eq!(original.extension(SIGNED), Some(&[1u8][..]));
        assert_eq!(other.extension(SIGNED), None);
    }

    #[test]
    fn extensions_list_signed_before_annotations() {
        let mut d = Data::new(name("/x"), Payload::Synthetic(10));
        d.set_extension(ANNOTATION, vec![5]);
        d.set_extension(SIGNED, vec![1]);
        let types: Vec<u16> = d.extensions().map(Extension::ty).collect();
        assert_eq!(types, [SIGNED, ANNOTATION]);
        assert_eq!(
            format!("{d:?}"),
            "Data { name: Name(/x), payload: Synthetic(10), signature: None, \
             freshness_ms: 0, extensions: [(32784, [1]), (32770, [5])] }"
        );
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
