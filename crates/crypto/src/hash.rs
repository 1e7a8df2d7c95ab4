//! Self-contained non-cryptographic hashes.
//!
//! The simulator needs fast, deterministic, well-mixed hashes for Bloom
//! filters, access paths, key fingerprints, and the Schnorr challenge. We
//! use FNV-1a as the absorbing core and a SplitMix64-style finalizer for
//! avalanche. **Not collision-resistant against adversaries** — adequate
//! only inside a simulation, like the toy signatures of
//! [`schnorr`](crate::schnorr).
//!
//! Nothing on the packet path serialises to sign, verify, hash or size:
//! canonical bytes are *written* into a [`ByteSink`] — a `Vec<u8>`, a
//! [`Hasher64`], or a [`DigestStream`] whose `part(len)` writes the length
//! prefix [`Digest256::of_parts`] writes — and every writer states its
//! length beside it, because a signature's challenge and a Bloom key
//! length-prefix their message before hashing it.
//! [`KeyPair::sign_with`](crate::schnorr::KeyPair::sign_with) and
//! [`PublicKey::verify_with`](crate::schnorr::PublicKey::verify_with)
//! take such a writer; `sign(&[u8])` and `verify(&[u8], ..)` are one-line
//! calls into them, so every signature is bit-identical to one over the
//! collected bytes. CI's "Nothing is serialised to be signed" step greps
//! that the packet path calls no collecting form. The digest kernel
//! absorbs each byte into its four lanes in one loop; known-answer
//! vectors pin it.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// SplitMix64-style finalizer: full-avalanche mixing of a 64-bit word.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where canonical bytes are written: a buffer, or a hash that absorbs
/// them as they come. Serialisers write into a `ByteSink` so that what is
/// hashed, signed or verified never has to be collected into a buffer
/// first.
///
/// # Examples
///
/// ```
/// use tactic_crypto::hash::{ByteSink, Digest256, DigestStream};
///
/// let mut d = DigestStream::new();
/// d.put(b"hello ");
/// d.put(b"world");
/// assert_eq!(d.finish(), Digest256::of(b"hello world"));
/// ```
pub trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// An incremental 64-bit hasher (FNV-1a core + finalizer).
///
/// # Examples
///
/// ```
/// use tactic_crypto::hash::Hasher64;
///
/// let mut h = Hasher64::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let joint = h.finish();
///
/// let mut h2 = Hasher64::new();
/// h2.update(b"hello world");
/// assert_eq!(joint, h2.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher64 {
    state: u64,
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher64 {
    /// Creates a hasher with the standard FNV offset.
    pub fn new() -> Self {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Creates a seeded hasher (distinct hash families per seed).
    pub fn with_seed(seed: u64) -> Self {
        Hasher64 {
            state: seeded(seed),
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian u64.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finalizes into a well-mixed 64-bit digest.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

impl ByteSink for Hasher64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// The starting state of a hasher seeded with `seed`.
const fn seeded(seed: u64) -> u64 {
    FNV_OFFSET ^ mix64(seed)
}

/// The starting states of a [`Digest256`]'s four lanes: four
/// independently seeded [`Hasher64`]s.
const LANE_SEEDS: [u64; 4] = {
    let mut lanes = [0; 4];
    let mut i = 0;
    while i < 4 {
        lanes[i] = seeded(0xD1B5_4A32_D192_ED03 ^ (i as u64).wrapping_mul(0xABCD_EF12_3456_789B));
        i += 1;
    }
    lanes
};

/// A 256-bit digest, exposed as four 64-bit lanes.
///
/// Four independently-seeded [`Hasher64`] lanes over the same input; used
/// as the message digest inside simulated signatures so that any
/// single-byte change flips the digest with overwhelming probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest256(pub [u64; 4]);

impl Digest256 {
    /// Hashes a byte slice into a 256-bit digest.
    ///
    /// # Examples
    ///
    /// ```
    /// use tactic_crypto::hash::Digest256;
    ///
    /// let a = Digest256::of(b"content");
    /// let b = Digest256::of(b"content");
    /// let c = Digest256::of(b"Content");
    /// assert_eq!(a, b);
    /// assert_ne!(a, c);
    /// ```
    pub fn of(bytes: &[u8]) -> Self {
        let mut d = DigestStream::new();
        d.put(bytes);
        d.finish()
    }

    /// Hashes the concatenation of several byte slices (length-prefixed, so
    /// `["ab","c"]` and `["a","bc"]` differ).
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut d = DigestStream::new();
        for p in parts {
            d.part(p.len());
            d.put(p);
        }
        d.finish()
    }

    /// Folds the digest into a single 64-bit word.
    pub fn fold64(&self) -> u64 {
        mix64(
            self.0[0]
                ^ self.0[1].rotate_left(16)
                ^ self.0[2].rotate_left(32)
                ^ self.0[3].rotate_left(48),
        )
    }

    /// The digest as raw bytes (little-endian lanes).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, lane) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        out
    }
}

/// A [`Digest256`] over streamed input: what [`Digest256::of`] computes
/// for the concatenation of everything [`put`](ByteSink::put) into it,
/// with [`part`](Self::part) writing the length prefix
/// [`Digest256::of_parts`] puts before each part.
///
/// All four lanes absorb each byte in one pass — four independent
/// multiply chains the CPU overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestStream {
    lanes: [u64; 4],
    absorbed: u64,
}

impl Default for DigestStream {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestStream {
    /// A stream that has absorbed nothing.
    pub fn new() -> Self {
        DigestStream {
            lanes: LANE_SEEDS,
            absorbed: 0,
        }
    }

    /// Starts a part of `len` bytes: absorbs the length prefix
    /// [`Digest256::of_parts`] writes before each part.
    pub fn part(&mut self, len: usize) {
        self.put(&(len as u64).to_le_bytes());
    }

    /// How many bytes have been absorbed, length prefixes included.
    pub(crate) fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// The digest of everything absorbed.
    pub fn finish(&self) -> Digest256 {
        Digest256(self.lanes.map(mix64))
    }
}

impl ByteSink for DigestStream {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for &byte in bytes {
            let x = byte as u64;
            a = (a ^ x).wrapping_mul(FNV_PRIME);
            b = (b ^ x).wrapping_mul(FNV_PRIME);
            c = (c ^ x).wrapping_mul(FNV_PRIME);
            d = (d ^ x).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b, c, d];
        self.absorbed += bytes.len() as u64;
    }
}

impl std::fmt::Display for Digest256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_fnv1a_known_vectors() {
        // The absorbed state is FNV-1a's; the digest is its mixed form.
        let vectors: [(&[u8], u64); 3] = [
            (b"", 0xCBF2_9CE4_8422_2325),
            (b"a", 0xAF63_DC4C_8601_EC8C),
            (b"foobar", 0x8594_4171_F739_67E8),
        ];
        for (bytes, fnv) in vectors {
            let mut h = Hasher64::new();
            h.update(bytes);
            assert_eq!(h.finish(), mix64(fnv));
        }
    }

    #[test]
    fn seeded_hashers_form_distinct_families() {
        let mut a = Hasher64::with_seed(1);
        let mut b = Hasher64::with_seed(2);
        a.update(b"same input");
        b.update(b"same input");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Hasher64::new();
        h.update(b"foo");
        h.update(b"bar");
        let mut oneshot = Hasher64::new();
        oneshot.update(b"foobar");
        assert_eq!(h.finish(), oneshot.finish());
    }

    #[test]
    fn digest_parts_are_length_prefixed() {
        let a = Digest256::of_parts(&[b"ab", b"c"]);
        let b = Digest256::of_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    /// Digests are pinned: Bloom keys, client identities and every
    /// signature's challenge are made of them, and goldens carry those.
    #[test]
    fn digest_known_answers() {
        let hex = |d: Digest256| d.to_string();
        for (input, want) in [
            (
                &b""[..],
                "9274d802ffa8410120c6b4fa78f8edda2899e0bd39b081471baab41187bbd4c5",
            ),
            (
                b"a",
                "3fcdb1b3afbe8f14065ba20f6d34e621d691a2e2f66b7b7debcf7ad125b8798d",
            ),
            (
                b"abc",
                "d72ec011f4098879fa388fade8cea97edc483eac3eb41822e958460095aa3f04",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "018c6139297d60c2eb7200b1f3405b76962f5aad479fc99f91794dd9ac927da0",
            ),
        ] {
            assert_eq!(hex(Digest256::of(input)), want, "{input:?}");
        }
        assert_eq!(
            hex(Digest256::of_parts(&[b"ab", b"c"])),
            "a0f26cb7c1dfd1b5f59afa5199876a2e1e860d792f38d4d57da1ba2f6b3fe1b8"
        );
        assert_eq!(
            hex(Digest256::of_parts(&[
                b"",
                b"tactic",
                b"0123456789abcdef0123"
            ])),
            "3251c92b1bac00922e55bcf5260557dd2d2d66e15067d597b1530d7256615007"
        );
        assert_eq!(Digest256::of_parts(&[]), Digest256::of(b""));
    }

    #[test]
    fn lanes_are_seeded_hashers() {
        let d = Digest256::of(b"lanes");
        for (i, lane) in d.0.into_iter().enumerate() {
            let mut h = Hasher64::with_seed(
                0xD1B5_4A32_D192_ED03 ^ (i as u64).wrapping_mul(0xABCD_EF12_3456_789B),
            );
            h.update(b"lanes");
            assert_eq!(lane, h.finish(), "lane {i}");
        }
    }

    #[test]
    fn streamed_parts_equal_of_parts() {
        let mut d = DigestStream::new();
        d.part(2);
        d.put(b"a");
        d.put(b"b");
        d.part(1);
        d.put(b"c");
        assert_eq!(d.finish(), Digest256::of_parts(&[b"ab", b"c"]));
        assert_eq!(d.absorbed(), 8 + 2 + 8 + 1);
    }

    #[test]
    fn digest_avalanche() {
        let a = Digest256::of(b"tag-0001");
        let b = Digest256::of(b"tag-0002");
        let differing =
            a.0.iter()
                .zip(b.0.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        // ~128 of 256 bits should flip; accept a broad band.
        assert!(
            (64..192).contains(&differing),
            "only {differing} bits differ"
        );
    }

    #[test]
    fn digest_bytes_roundtrip_lanes() {
        let d = Digest256::of(b"x");
        let bytes = d.to_bytes();
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), d.0[0]);
        assert_eq!(
            u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            d.0[3]
        );
    }

    #[test]
    fn mix64_changes_zero() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn fold64_is_stable() {
        let d = Digest256::of(b"stable");
        assert_eq!(d.fold64(), Digest256::of(b"stable").fold64());
    }
}
