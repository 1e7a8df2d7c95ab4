//! TLV wire codec.
//!
//! Packets serialise to a TLV format so the link model can charge
//! byte-accurate transmission delays and so tests can assert lossless
//! round-trips. Headers are fixed-width (`u16` type + `u32` length, both
//! little-endian) rather than NDN's variable-width numbers — a documented
//! simplification that costs a few bytes per field and keeps the codec
//! trivially correct.
//!
//! Synthetic payloads encode as a length-only TLV (`TLV_PAYLOAD_SYNTH`), so
//! gigabytes of simulated content never materialise.

use tactic_crypto::schnorr::Signature;

use crate::name::{Component, Name};
use crate::packet::{Data, Extension, Interest, Nack, NackReason, Packet, Payload};

const TLV_INTEREST: u16 = 0x05;
const TLV_DATA: u16 = 0x06;
const TLV_NACK: u16 = 0x03;
const TLV_NAME: u16 = 0x07;
const TLV_COMPONENT: u16 = 0x08;
const TLV_NONCE: u16 = 0x0A;
const TLV_LIFETIME: u16 = 0x0C;
const TLV_PAYLOAD: u16 = 0x15;
const TLV_PAYLOAD_SYNTH: u16 = 0x17;
const TLV_SIGNATURE: u16 = 0x16;
const TLV_FRESHNESS: u16 = 0x19;
const TLV_NACK_REASON: u16 = 0x32;

const HEADER_LEN: usize = 2 + 4;

/// Errors produced when decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a TLV.
    Truncated,
    /// An unexpected TLV type was found.
    UnexpectedType {
        /// The type that was found.
        found: u16,
    },
    /// A field had an invalid length or value.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::UnexpectedType { found } => write!(f, "unexpected TLV type {found:#06x}"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(128),
        }
    }

    fn tlv(&mut self, ty: u16, value: &[u8]) {
        self.header(ty, value.len());
        self.buf.extend_from_slice(value);
    }

    fn header(&mut self, ty: u16, len: usize) {
        self.buf.extend_from_slice(&ty.to_le_bytes());
        self.buf.extend_from_slice(&(len as u32).to_le_bytes());
    }

    /// An extension's TLV, its value written in place.
    fn extension(&mut self, ext: &Extension) {
        self.header(ext.ty(), ext.len());
        ext.write_wire(&mut self.buf);
    }

    /// Opens a nested TLV, returning the patch position for its length.
    fn open(&mut self, ty: u16) -> usize {
        self.buf.extend_from_slice(&ty.to_le_bytes());
        let pos = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        pos
    }

    fn close(&mut self, pos: usize) {
        let len = (self.buf.len() - pos - 4) as u32;
        self.buf[pos..pos + 4].copy_from_slice(&len.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn peek_type(&self) -> Result<u16, WireError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 2)
            .ok_or(WireError::Truncated)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    fn read(&mut self) -> Result<(u16, &'a [u8]), WireError> {
        let ty = self.peek_type()?;
        let lenb = self
            .buf
            .get(self.pos + 2..self.pos + 6)
            .ok_or(WireError::Truncated)?;
        let len = u32::from_le_bytes(lenb.try_into().expect("4 bytes")) as usize;
        // `len` is attacker-controlled: `start + len` must not wrap (on
        // 32-bit targets a length near u32::MAX would, turning the range
        // check below into a successful empty-slice read).
        let start = self.pos + HEADER_LEN;
        let end = start.checked_add(len).ok_or(WireError::Truncated)?;
        let value = self.buf.get(start..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok((ty, value))
    }

    fn expect(&mut self, ty: u16) -> Result<&'a [u8], WireError> {
        let (found, value) = self.read()?;
        if found != ty {
            return Err(WireError::UnexpectedType { found });
        }
        Ok(value)
    }
}

fn encode_name(w: &mut Writer, name: &Name) {
    let pos = w.open(TLV_NAME);
    for c in name.components() {
        w.tlv(TLV_COMPONENT, c.as_bytes());
    }
    w.close(pos);
}

fn decode_name(bytes: &[u8]) -> Result<Name, WireError> {
    let mut r = Reader::new(bytes);
    let mut components = Vec::new();
    while !r.done() {
        components.push(Component::from(r.expect(TLV_COMPONENT)?));
    }
    Ok(Name::from_components(components))
}

fn u64_field(value: &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(
        value.try_into().map_err(|_| WireError::Malformed("u64"))?,
    ))
}

fn u32_field(value: &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(
        value.try_into().map_err(|_| WireError::Malformed("u32"))?,
    ))
}

/// Encodes any packet to its wire form.
///
/// Synthetic payload bytes are *not* materialised; the payload encodes as a
/// length-only TLV.
pub fn encode(packet: &Packet) -> Vec<u8> {
    let mut w = Writer::new();
    match packet {
        Packet::Interest(i) => encode_interest(&mut w, i),
        Packet::Data(d) => encode_data(&mut w, d),
        Packet::Nack(n) => {
            let pos = w.open(TLV_NACK);
            w.tlv(TLV_NACK_REASON, &[nack_reason_code(n.reason())]);
            encode_interest(&mut w, n.interest());
            w.close(pos);
        }
    }
    w.buf
}

fn encode_interest(w: &mut Writer, i: &Interest) {
    let pos = w.open(TLV_INTEREST);
    encode_name(w, i.name());
    w.tlv(TLV_NONCE, &i.nonce().to_le_bytes());
    w.tlv(TLV_LIFETIME, &i.lifetime_ms().to_le_bytes());
    for ext in i.extensions() {
        w.extension(ext);
    }
    w.close(pos);
}

fn encode_data(w: &mut Writer, d: &Data) {
    let pos = w.open(TLV_DATA);
    encode_name(w, d.name());
    match d.payload() {
        Payload::Synthetic(n) => w.tlv(TLV_PAYLOAD_SYNTH, &(*n as u64).to_le_bytes()),
        Payload::Bytes(b) => w.tlv(TLV_PAYLOAD, b),
    }
    w.tlv(TLV_FRESHNESS, &d.freshness_ms().to_le_bytes());
    if let Some(sig) = d.signature() {
        w.tlv(TLV_SIGNATURE, &sig.to_bytes());
    }
    for ext in d.extensions() {
        w.extension(ext);
    }
    w.close(pos);
}

fn nack_reason_code(r: NackReason) -> u8 {
    match r {
        NackReason::NoRoute => 1,
        NackReason::Duplicate => 2,
        NackReason::InvalidTag => 3,
        NackReason::AccessPathMismatch => 4,
    }
}

fn nack_reason_from(code: u8) -> Result<NackReason, WireError> {
    Ok(match code {
        1 => NackReason::NoRoute,
        2 => NackReason::Duplicate,
        3 => NackReason::InvalidTag,
        4 => NackReason::AccessPathMismatch,
        _ => return Err(WireError::Malformed("nack reason")),
    })
}

/// The on-the-wire size of a packet in bytes.
///
/// Equal to `encode(packet).len()`, but computed without building the
/// buffer — including for synthetic payloads, whose *logical* length is
/// charged as if the bytes were present (this is what the link model
/// transmits).
pub fn wire_size(packet: &Packet) -> usize {
    match packet {
        Packet::Interest(i) => interest_size(i),
        Packet::Data(d) => data_size(d),
        Packet::Nack(n) => HEADER_LEN + (HEADER_LEN + 1) + interest_size(n.interest()),
    }
}

fn name_size(name: &Name) -> usize {
    HEADER_LEN
        + name
            .components()
            .iter()
            .map(|c| HEADER_LEN + c.len())
            .sum::<usize>()
}

/// The same bytes [`encode`] writes, so the two cannot disagree.
fn extensions_size<'a>(extensions: impl IntoIterator<Item = &'a Extension>) -> usize {
    (extensions.into_iter()).map(|e| HEADER_LEN + e.len()).sum()
}

fn interest_size(i: &Interest) -> usize {
    HEADER_LEN
        + name_size(i.name())
        + (HEADER_LEN + 8)
        + (HEADER_LEN + 4)
        + extensions_size(i.extensions())
}

fn data_size(d: &Data) -> usize {
    let payload = match d.payload() {
        // Charge the logical content length on the wire.
        Payload::Synthetic(n) => HEADER_LEN + (*n).max(8),
        Payload::Bytes(b) => HEADER_LEN + b.len(),
    };
    HEADER_LEN
        + name_size(d.name())
        + payload
        + (HEADER_LEN + 4)
        + d.signature()
            .map_or(0, |_| HEADER_LEN + Signature::WIRE_LEN)
        + extensions_size(d.extensions())
}

/// Decodes a packet from its wire form.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown framing, or malformed
/// fields.
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    let mut r = Reader::new(bytes);
    let (ty, value) = r.read()?;
    match ty {
        TLV_INTEREST => Ok(Packet::Interest(decode_interest(value)?)),
        TLV_DATA => Ok(Packet::Data(decode_data(value)?)),
        TLV_NACK => {
            let mut inner = Reader::new(value);
            let reason = nack_reason_from(
                *inner
                    .expect(TLV_NACK_REASON)?
                    .first()
                    .ok_or(WireError::Malformed("nack reason"))?,
            )?;
            let interest = decode_interest(inner.expect(TLV_INTEREST)?)?;
            Ok(Packet::Nack(Nack::new(interest, reason)))
        }
        other => Err(WireError::UnexpectedType { found: other }),
    }
}

fn decode_interest(bytes: &[u8]) -> Result<Interest, WireError> {
    let mut r = Reader::new(bytes);
    let name = decode_name(r.expect(TLV_NAME)?)?;
    let nonce = u64_field(r.expect(TLV_NONCE)?)?;
    let lifetime = u32_field(r.expect(TLV_LIFETIME)?)?;
    let mut interest = Interest::new(name, nonce);
    interest.set_lifetime_ms(lifetime);
    while !r.done() {
        let (ty, v) = r.read()?;
        interest.set_extension(ty, v);
    }
    Ok(interest)
}

fn decode_data(bytes: &[u8]) -> Result<Data, WireError> {
    let mut r = Reader::new(bytes);
    let name = decode_name(r.expect(TLV_NAME)?)?;
    let (pty, pval) = r.read()?;
    let payload = match pty {
        TLV_PAYLOAD_SYNTH => Payload::Synthetic(u64_field(pval)? as usize),
        TLV_PAYLOAD => Payload::Bytes(pval.into()),
        found => return Err(WireError::UnexpectedType { found }),
    };
    let mut data = Data::new(name, payload);
    data.set_freshness_ms(u32_field(r.expect(TLV_FRESHNESS)?)?);
    while !r.done() {
        let (ty, v) = r.read()?;
        if ty == TLV_SIGNATURE {
            let arr: [u8; 16] = v
                .try_into()
                .map_err(|_| WireError::Malformed("signature"))?;
            data.set_signature(Signature::from_bytes(arr));
        } else {
            data.set_extension(ty, v);
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_crypto::schnorr::KeyPair;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn interest_roundtrip() {
        let mut i = Interest::new(name("/prov/obj/3"), 0xDEADBEEF);
        i.set_lifetime_ms(1_000);
        i.set_extension(0x8001, vec![1, 2, 3]);
        let wire = encode(&Packet::from(i.clone()));
        assert_eq!(decode(&wire).unwrap(), Packet::Interest(i));
    }

    #[test]
    fn data_roundtrip_with_signature_and_synthetic_payload() {
        let kp = KeyPair::derive(b"p", 0);
        let mut d = Data::new(name("/prov/obj/3"), Payload::Synthetic(1024));
        d.set_freshness_ms(2_000);
        d.set_extension(0x8002, vec![7]);
        d.set_signature(kp.sign(&d.signable_bytes()));
        let wire = encode(&Packet::from(d.clone()));
        let back = decode(&wire).unwrap();
        assert_eq!(back, Packet::Data(d));
    }

    #[test]
    fn data_roundtrip_with_real_bytes() {
        let d = Data::new(name("/x"), Payload::Bytes(vec![9; 33].into()));
        let wire = encode(&Packet::from(d.clone()));
        assert_eq!(decode(&wire).unwrap(), Packet::Data(d));
    }

    #[test]
    fn nack_roundtrip() {
        let i = Interest::new(name("/x/y"), 7);
        let n = Nack::new(i, NackReason::InvalidTag);
        let wire = encode(&Packet::from(n.clone()));
        assert_eq!(decode(&wire).unwrap(), Packet::Nack(n));
    }

    #[test]
    fn wire_size_matches_encoding_for_interest_and_nack() {
        let mut i = Interest::new(name("/a/bb/ccc"), 1);
        i.set_extension(0x8001, vec![0; 50]);
        let p = Packet::from(i);
        assert_eq!(wire_size(&p), encode(&p).len());
        let n = Packet::from(Nack::new(Interest::new(name("/z"), 2), NackReason::NoRoute));
        assert_eq!(wire_size(&n), encode(&n).len());
    }

    #[test]
    fn wire_size_charges_synthetic_payload() {
        let small = Packet::from(Data::new(name("/x"), Payload::Synthetic(0)));
        let big = Packet::from(Data::new(name("/x"), Payload::Synthetic(1024)));
        assert_eq!(wire_size(&big) - wire_size(&small), 1024 - 8);
        // For byte payloads the size matches the encoding exactly.
        let real = Packet::from(Data::new(name("/x"), Payload::Bytes(vec![0; 100].into())));
        assert_eq!(wire_size(&real), encode(&real).len());
    }

    #[test]
    fn truncated_buffers_error() {
        let wire = encode(&Packet::from(Interest::new(name("/a"), 1)));
        for cut in [0, 1, 5, wire.len() - 1] {
            assert!(decode(&wire[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn unknown_frame_type_errors() {
        let mut w = Writer::new();
        w.tlv(0x99, b"junk");
        assert_eq!(
            decode(&w.buf),
            Err(WireError::UnexpectedType { found: 0x99 })
        );
    }

    #[test]
    fn wire_error_display() {
        assert_eq!(WireError::Truncated.to_string(), "truncated packet");
        assert!(WireError::UnexpectedType { found: 0x99 }
            .to_string()
            .contains("0x0099"));
    }

    #[test]
    fn tag_sized_interest_is_a_couple_hundred_bytes() {
        // The paper (§4.A) estimates a tag at "a couple hundred bytes"; an
        // Interest carrying one should land in that ballpark.
        let mut i = Interest::new(name("/prov/obj/0"), 1);
        i.set_extension(0x8001, vec![0; 150]); // serialized tag
        let sz = wire_size(&Packet::from(i));
        assert!((150..400).contains(&sz), "interest size {sz}");
    }
}
