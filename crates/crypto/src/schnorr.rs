//! Toy Schnorr signatures over ℤp*, p = 2⁶¹ − 1.
//!
//! The paper's routers verify provider signatures on tags with standard
//! public-key cryptography (via ndn-cxx). A real crypto library is outside
//! this reproduction's dependency budget, so we implement a *behaviourally
//! faithful* miniature: textbook Schnorr identification-turned-signature in
//! the multiplicative group modulo the Mersenne prime `p = 2^61 - 1`.
//!
//! Faithful in the ways that matter to the simulation:
//!
//! * verification needs only the **public** key;
//! * signatures are deterministic (derandomised nonce, RFC 6979-style);
//! * any bit flip in the message or signature makes verification fail with
//!   overwhelming probability;
//! * a party without the private key cannot fabricate a passing signature
//!   short of solving a discrete log (which no simulated attacker attempts).
//!
//! **Not secure in the real world** — 61-bit discrete logs are trivially
//! breakable. The simulated *time cost* of operations is charged separately
//! from the paper's benchmarks (`tactic_sim::cost`), so the toy group's
//! speed does not skew results.

use crate::hash::{ByteSink, DigestStream, Hasher64};

/// The Mersenne prime 2⁶¹ − 1.
pub const P: u64 = (1 << 61) - 1;
/// Group order bound used for exponents (the multiplicative group has order
/// p − 1; we reduce exponents mod p − 1).
pub const Q: u64 = P - 1;
/// Generator of a large subgroup of ℤp*.
pub const G: u64 = 3;

/// `a * b mod m` without overflow.
#[inline]
fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a * b mod P` for `a, b < P`, with no division: `2⁶¹ ≡ 1 (mod P)`, so
/// the high bits of the product fold onto the low ones.
#[inline]
fn mulmod_p(a: u64, b: u64) -> u64 {
    let x = a as u128 * b as u128; // < 2¹²²
    let folded = (x as u64 & P) + (x >> 61) as u64; // < 2⁶²
    let folded = (folded & P) + (folded >> 61); // ≤ P + 1
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// `base ^ exp mod m` by square-and-multiply.
#[inline]
pub fn powmod(base: u64, exp: u64, m: u64) -> u64 {
    if m == P {
        square_and_multiply(base % P, exp, mulmod_p)
    } else {
        square_and_multiply(base % m, exp, |a, b| mulmod(a, b, m))
    }
}

#[inline(always)]
fn square_and_multiply(mut base: u64, mut exp: u64, mul: impl Fn(u64, u64) -> u64) -> u64 {
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// A Schnorr private key (a secret exponent).
#[derive(Clone, PartialEq, Eq)]
pub struct PrivateKey {
    x: u64,
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("PrivateKey")
            .field("x", &"<redacted>")
            .finish()
    }
}

/// A Schnorr public key `y = g^x mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    y: u64,
}

impl PublicKey {
    /// The group element.
    pub fn element(&self) -> u64 {
        self.y
    }

    /// A short fingerprint of the key, used as an identifier in
    /// certificates, key locators, and Bloom-filter entries.
    pub fn key_id(&self) -> KeyId {
        let mut h = Hasher64::with_seed(0x6B65_795F_6964); // "key_id"
        h.update_u64(self.y);
        KeyId(h.finish())
    }
}

/// A 64-bit public-key fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct KeyId(pub u64);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A Schnorr key pair.
///
/// # Examples
///
/// ```
/// use tactic_crypto::schnorr::KeyPair;
///
/// let kp = KeyPair::derive(b"provider/alpha", 0);
/// let sig = kp.sign(b"message");
/// assert!(kp.public().verify(b"message", &sig));
/// assert!(!kp.public().verify(b"tampered", &sig));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    private: PrivateKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a label and a nonce
    /// (simulation entities derive their keys from their names so that runs
    /// reproduce exactly).
    pub fn derive(label: &[u8], nonce: u64) -> Self {
        let mut h = Hasher64::with_seed(0x53_4348_4E4F_5252); // "SCHNORR"
        h.update(label);
        h.update_u64(nonce);
        // x in [1, Q-1]
        let x = h.finish() % (Q - 1) + 1;
        Self::from_secret(x)
    }

    /// Builds a key pair from an explicit secret exponent.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in `[1, Q-1]`.
    pub fn from_secret(x: u64) -> Self {
        assert!((1..Q).contains(&x), "secret exponent out of range");
        let y = powmod(G, x, P);
        KeyPair {
            private: PrivateKey { x },
            public: PublicKey { y },
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message (deterministic nonce).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_with(msg.len(), |out| out.put(msg))
    }

    /// Signs the `len` bytes `write` puts into its sink, without
    /// collecting them: equal to [`sign`](Self::sign) over those bytes.
    /// `write` is called twice (nonce, then challenge) and must write the
    /// same bytes each time.
    pub fn sign_with(&self, len: usize, write: impl Fn(&mut dyn ByteSink)) -> Signature {
        // Derandomised nonce: k = H(x || msg), nonzero mod Q.
        let mut h = Hasher64::with_seed(0x6E_6F6E_6365); // "nonce"
        h.update_u64(self.private.x);
        write(&mut h);
        let mut k = h.finish() % Q;
        if k == 0 {
            k = 1;
        }
        let r = powmod(G, k, P);
        let e = challenge(r, self.public.y, len, &write);
        // s = k - x*e mod Q
        let xe = ((self.private.x as u128 * e as u128) % Q as u128) as u64;
        let s = (k + Q - xe % Q) % Q;
        Signature { s, e }
    }
}

/// Schnorr challenge `e = H(R || y || msg) mod Q`, nonzero, over the
/// `len`-byte message `write` streams (the digest is
/// `Digest256::of_parts(&[R, y, msg])`).
fn challenge(r: u64, y: u64, len: usize, write: &dyn Fn(&mut dyn ByteSink)) -> u64 {
    let mut d = DigestStream::new();
    for word in [r, y] {
        d.part(8);
        d.put(&word.to_le_bytes());
    }
    d.part(len);
    let before = d.absorbed();
    write(&mut d);
    debug_assert_eq!(
        d.absorbed() - before,
        len as u64,
        "the message is not the length it was declared"
    );
    let mut e = d.finish().fold64() % Q;
    if e == 0 {
        e = 1;
    }
    e
}

/// A Schnorr signature `(s, e)` in compact (challenge) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature {
    /// Response scalar.
    pub s: u64,
    /// Challenge scalar.
    pub e: u64,
}

impl Signature {
    /// Wire size in bytes (two 8-byte scalars).
    pub const WIRE_LEN: usize = 16;

    /// Serialises to 16 bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.s.to_le_bytes());
        out[8..].copy_from_slice(&self.e.to_le_bytes());
        out
    }

    /// Parses from 16 bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Signature {
            s: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            e: u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }

    /// A syntactically valid but cryptographically garbage signature,
    /// deterministically derived from a seed. Used by simulated attackers
    /// forging tags (threat (b) in the paper's §3.C).
    pub fn forged(seed: u64) -> Self {
        let mut h = Hasher64::with_seed(0x666F_7267_6564); // "forged"
        h.update_u64(seed);
        let s = h.finish() % Q;
        h.update_u64(s);
        let e = h.finish() % Q;
        Signature {
            s,
            e: if e == 0 { 1 } else { e },
        }
    }
}

impl PublicKey {
    /// Verifies a signature on `msg`.
    ///
    /// Recomputes `R' = g^s · y^e` and accepts iff the challenge recomputed
    /// from `R'` equals `e`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_with(msg.len(), |out| out.put(msg), sig)
    }

    /// Verifies a signature on the `len` bytes `write` puts into its
    /// sink, without collecting them: equal to [`verify`](Self::verify)
    /// over those bytes.
    pub fn verify_with(
        &self,
        len: usize,
        write: impl Fn(&mut dyn ByteSink),
        sig: &Signature,
    ) -> bool {
        if sig.e == 0 || sig.e >= Q || sig.s >= Q {
            return false;
        }
        let r = mulmod_p(powmod(G, sig.s, P), powmod(self.y, sig.e, P));
        challenge(r, self.y, len, &write) == sig.e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_is_the_mersenne_prime() {
        assert_eq!(P, 2_305_843_009_213_693_951);
    }

    #[test]
    fn powmod_small_cases() {
        assert_eq!(powmod(2, 10, 1_000_000), 1024);
        assert_eq!(powmod(3, 0, 7), 1);
        assert_eq!(powmod(5, 3, 13), 8);
        // Fermat: g^(p-1) = 1 mod p.
        assert_eq!(powmod(G, P - 1, P), 1);
    }

    #[test]
    fn the_mersenne_fold_is_the_remainder() {
        let edges = [
            0,
            1,
            2,
            P - 2,
            P - 1,
            1 << 60,
            (1 << 60) + 1,
            G,
            0x0123_4567_89AB_CDEF,
        ];
        for a in edges {
            for b in edges {
                assert_eq!(mulmod_p(a, b), mulmod(a, b, P), "{a} * {b}");
            }
        }
        let mut h = Hasher64::with_seed(1);
        for i in 0..10_000u64 {
            h.update_u64(i);
            let a = h.finish() % P;
            h.update_u64(a);
            let b = h.finish() % P;
            assert_eq!(mulmod_p(a, b), mulmod(a, b, P), "{a} * {b}");
        }
    }

    /// Signatures are pinned: every tag and chunk in the goldens carries
    /// one.
    #[test]
    fn signature_known_answers() {
        for (label, nonce, msg, s, e) in [
            (
                &b"prov"[..],
                1,
                &b"message-0"[..],
                0x1f39_63c2_7d2b_f49e,
                0x164d_f35a_9ef4_bc02,
            ),
            (
                b"/prov0",
                0,
                b"",
                0x0f0d_4bbb_6ef3_771c,
                0x0ab6_60dc_0eaa_0593,
            ),
            (
                b"anchor",
                7,
                b"The quick brown fox jumps over the lazy dog",
                0x065d_4165_6e96_6d30,
                0x0890_751e_f020_2d58,
            ),
        ] {
            let kp = KeyPair::derive(label, nonce);
            let sig = kp.sign(msg);
            assert_eq!(sig, Signature { s, e }, "{label:?}/{nonce}");
            assert!(kp.public().verify(msg, &sig));
        }
        assert_eq!(
            KeyPair::derive(b"prov", 1).public().element(),
            0x11c3_fd09_1266_8568
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::derive(b"prov", 1);
        for i in 0..50u64 {
            let msg = format!("message-{i}");
            let sig = kp.sign(msg.as_bytes());
            assert!(kp.public().verify(msg.as_bytes(), &sig));
        }
    }

    #[test]
    fn verification_rejects_tampered_message() {
        let kp = KeyPair::derive(b"prov", 2);
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"0riginal", &sig));
    }

    #[test]
    fn verification_rejects_tampered_signature() {
        let kp = KeyPair::derive(b"prov", 3);
        let mut sig = kp.sign(b"msg");
        sig.s ^= 1;
        assert!(!kp.public().verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.e ^= 1;
        assert!(!kp.public().verify(b"msg", &sig2));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let a = KeyPair::derive(b"prov", 4);
        let b = KeyPair::derive(b"prov", 5);
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }

    #[test]
    fn forged_signatures_fail() {
        let kp = KeyPair::derive(b"prov", 6);
        for seed in 0..100 {
            assert!(!kp.public().verify(b"msg", &Signature::forged(seed)));
        }
    }

    #[test]
    fn signatures_are_deterministic() {
        let kp = KeyPair::derive(b"prov", 7);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn signature_wire_roundtrip() {
        let kp = KeyPair::derive(b"prov", 8);
        let sig = kp.sign(b"wire");
        assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
    }

    #[test]
    fn key_ids_distinguish_keys() {
        let a = KeyPair::derive(b"a", 0).public().key_id();
        let b = KeyPair::derive(b"b", 0).public().key_id();
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_private_key() {
        let kp = KeyPair::derive(b"secret-holder", 0);
        let s = format!("{:?}", kp);
        assert!(s.contains("redacted"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_secret_rejected() {
        KeyPair::from_secret(0);
    }

    #[test]
    fn malformed_scalars_rejected_fast() {
        let kp = KeyPair::derive(b"prov", 9);
        assert!(!kp.public().verify(b"m", &Signature { s: 0, e: 0 }));
        assert!(!kp.public().verify(b"m", &Signature { s: Q, e: 1 }));
        assert!(!kp.public().verify(b"m", &Signature { s: 1, e: Q }));
    }
}
