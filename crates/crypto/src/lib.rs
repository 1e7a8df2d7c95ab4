//! # tactic-crypto
//!
//! Simulation-grade cryptographic substrate for the TACTIC reproduction:
//!
//! * [`hash`] — FNV-1a/SplitMix hashing, a 256-bit digest, and the
//!   [`ByteSink`] that serialisers write into so hashing and signing
//!   never need a buffer;
//! * [`schnorr`] — toy Schnorr signatures over ℤ(2⁶¹−1)\*: public-key
//!   verifiable, deterministic, tamper-evident (see the module docs for the
//!   explicit "not real-world secure" caveat);
//! * [`cert`] — certificates and the routers' provider-key registry (the
//!   paper's assumed PKI, §3.B).
//!
//! Computation *time* for these operations is charged from the paper's
//! benchmarked distributions by `tactic_sim::cost`, never from our own
//! wall-clock speed.
//!
//! # Examples
//!
//! ```
//! use tactic_crypto::schnorr::KeyPair;
//!
//! let provider = KeyPair::derive(b"/video-provider", 0);
//! let tag_bytes = b"<serialized tag>";
//! let sig = provider.sign(tag_bytes);
//! assert!(provider.public().verify(tag_bytes, &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hash;
pub mod schnorr;

pub use cert::{CertError, CertStore, Certificate};
pub use hash::{ByteSink, Digest256, DigestStream, Hasher64};
pub use schnorr::{KeyId, KeyPair, PublicKey, Signature};
