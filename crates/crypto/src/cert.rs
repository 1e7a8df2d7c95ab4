//! Certificates and the routers' provider-key registry.
//!
//! The paper assumes "the existence of a public key infrastructure (PKI) by
//! which routers store the providers' public keys and certificates" (§3.B),
//! and argues storing them scales because "the universe of providers that
//! require access control ... would potentially number in a few thousands"
//! (§5). [`CertStore`] is that registry: a trust-anchor-rooted store keyed
//! by provider name.

use std::collections::HashMap;

use crate::schnorr::{KeyId, KeyPair, PublicKey, Signature};

/// A certificate binding a subject name to a public key, signed by an
/// issuer (the trust anchor in our single-level PKI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    subject: String,
    key: PublicKey,
    issuer: KeyId,
    signature: Signature,
}

impl Certificate {
    /// Issues a certificate for `subject`/`key` signed by `issuer`.
    pub fn issue(subject: impl Into<String>, key: PublicKey, issuer: &KeyPair) -> Self {
        let subject = subject.into();
        let signature = issuer.sign(&Self::tbs(&subject, &key));
        Certificate {
            subject,
            key,
            issuer: issuer.public().key_id(),
            signature,
        }
    }

    fn tbs(subject: &str, key: &PublicKey) -> Vec<u8> {
        let mut msg = Vec::with_capacity(subject.len() + 8);
        msg.extend_from_slice(subject.as_bytes());
        msg.extend_from_slice(&key.element().to_le_bytes());
        msg
    }

    /// The certified subject name.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The certified public key.
    pub fn key(&self) -> PublicKey {
        self.key
    }

    /// Fingerprint of the issuing key.
    pub fn issuer(&self) -> KeyId {
        self.issuer
    }

    /// Verifies the certificate against the purported issuer key.
    pub fn verify(&self, issuer: &PublicKey) -> bool {
        issuer.key_id() == self.issuer
            && issuer.verify(&Self::tbs(&self.subject, &self.key), &self.signature)
    }
}

/// Errors returned by [`CertStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The certificate's issuer is not a trust anchor of this store.
    UnknownIssuer(KeyId),
    /// The certificate's signature does not verify.
    BadSignature {
        /// The offending subject.
        subject: String,
    },
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::UnknownIssuer(id) => write!(f, "unknown issuer {id}"),
            CertError::BadSignature { subject } => {
                write!(f, "certificate signature for `{subject}` does not verify")
            }
        }
    }
}

impl std::error::Error for CertError {}

/// A router-side registry of provider keys, rooted in trust anchors.
///
/// # Examples
///
/// ```
/// use tactic_crypto::cert::{CertStore, Certificate};
/// use tactic_crypto::schnorr::KeyPair;
///
/// let anchor = KeyPair::derive(b"isp-root", 0);
/// let provider = KeyPair::derive(b"/netflix", 0);
/// let cert = Certificate::issue("/netflix", provider.public(), &anchor);
///
/// let mut store = CertStore::new();
/// store.add_anchor(anchor.public());
/// store.register(cert)?;
/// assert!(store.key_for("/netflix").is_some());
/// # Ok::<(), tactic_crypto::cert::CertError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CertStore {
    anchors: HashMap<KeyId, PublicKey>,
    by_subject: HashMap<String, Certificate>,
}

impl CertStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trust anchor.
    pub fn add_anchor(&mut self, anchor: PublicKey) {
        self.anchors.insert(anchor.key_id(), anchor);
    }

    /// Registers a certificate after verifying it chains to an anchor.
    ///
    /// # Errors
    ///
    /// [`CertError::UnknownIssuer`] if the issuer is not an anchor;
    /// [`CertError::BadSignature`] if verification fails.
    pub fn register(&mut self, cert: Certificate) -> Result<(), CertError> {
        let issuer = self
            .anchors
            .get(&cert.issuer())
            .ok_or(CertError::UnknownIssuer(cert.issuer()))?;
        if !cert.verify(issuer) {
            return Err(CertError::BadSignature {
                subject: cert.subject().to_owned(),
            });
        }
        self.by_subject.insert(cert.subject().to_owned(), cert);
        Ok(())
    }

    /// Looks up a provider key by subject name.
    pub fn key_for(&self, subject: &str) -> Option<PublicKey> {
        self.by_subject.get(subject).map(Certificate::key)
    }

    /// Every registered certificate, in no particular order (for callers
    /// that index the keys their own way).
    pub fn certificates(&self) -> impl Iterator<Item = &Certificate> {
        self.by_subject.values()
    }

    /// Number of registered certificates.
    pub fn len(&self) -> usize {
        self.by_subject.len()
    }

    /// True if no certificates are registered.
    pub fn is_empty(&self) -> bool {
        self.by_subject.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KeyPair, KeyPair, Certificate) {
        let anchor = KeyPair::derive(b"root", 0);
        let provider = KeyPair::derive(b"/cnn", 0);
        let cert = Certificate::issue("/cnn", provider.public(), &anchor);
        (anchor, provider, cert)
    }

    #[test]
    fn issue_and_verify() {
        let (anchor, _, cert) = setup();
        assert!(cert.verify(&anchor.public()));
    }

    #[test]
    fn verify_rejects_wrong_issuer() {
        let (_, _, cert) = setup();
        let other = KeyPair::derive(b"other-root", 0);
        assert!(!cert.verify(&other.public()));
    }

    #[test]
    fn store_accepts_chained_cert() {
        let (anchor, provider, cert) = setup();
        let mut store = CertStore::new();
        store.add_anchor(anchor.public());
        store.register(cert).unwrap();
        assert_eq!(store.key_for("/cnn"), Some(provider.public()));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_rejects_unknown_issuer() {
        let (_, _, cert) = setup();
        let mut store = CertStore::new();
        let err = store.register(cert.clone()).unwrap_err();
        assert_eq!(err, CertError::UnknownIssuer(cert.issuer()));
    }

    #[test]
    fn store_rejects_forged_cert() {
        let (anchor, provider, _) = setup();
        let mallory = KeyPair::derive(b"mallory", 0);
        // Mallory self-issues a cert claiming the anchor signed it.
        let mut forged = Certificate::issue("/cnn", provider.public(), &mallory);
        forged.issuer = anchor.public().key_id();
        let mut store = CertStore::new();
        store.add_anchor(anchor.public());
        let err = store.register(forged).unwrap_err();
        assert!(matches!(err, CertError::BadSignature { .. }));
    }

    #[test]
    fn lookup_miss_returns_none() {
        let store = CertStore::new();
        assert!(store.key_for("/nope").is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn errors_display() {
        let (_, _, cert) = setup();
        let e = CertError::UnknownIssuer(cert.issuer());
        assert!(e.to_string().contains("unknown issuer"));
        let e2 = CertError::BadSignature {
            subject: "/x".into(),
        };
        assert!(e2.to_string().contains("/x"));
    }
}
