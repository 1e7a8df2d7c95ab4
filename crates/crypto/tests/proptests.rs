//! Property-based tests for the crypto substrate.

use proptest::prelude::*;

use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::hash::{ByteSink, Digest256, DigestStream, Hasher64};
use tactic_crypto::schnorr::{KeyPair, Signature, Q};

proptest! {
    #[test]
    fn sign_verify_roundtrip_any_message(label in proptest::collection::vec(any::<u8>(), 0..64), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let kp = KeyPair::derive(&label, 0);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig));
    }

    #[test]
    fn verification_rejects_any_single_byte_flip(msg in proptest::collection::vec(any::<u8>(), 1..128), idx in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let kp = KeyPair::derive(b"prover", 0);
        let sig = kp.sign(&msg);
        let mut tampered = msg.clone();
        let i = idx.index(tampered.len());
        tampered[i] ^= flip;
        prop_assert!(!kp.public().verify(&tampered, &sig));
    }

    #[test]
    fn verification_rejects_random_signatures(msg in proptest::collection::vec(any::<u8>(), 0..64), s in any::<u64>(), e in any::<u64>()) {
        let kp = KeyPair::derive(b"prover", 1);
        let sig = Signature { s: s % Q, e: e % Q };
        // The genuine signature is astronomically unlikely to be drawn.
        let genuine = kp.sign(&msg);
        prop_assume!(sig != genuine);
        prop_assert!(!kp.public().verify(&msg, &sig));
    }

    #[test]
    fn signature_wire_roundtrip(s in any::<u64>(), e in any::<u64>()) {
        let sig = Signature { s, e };
        prop_assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
    }

    #[test]
    fn distinct_keys_have_distinct_ids(a in 1u64..Q, b in 1u64..Q) {
        prop_assume!(a != b);
        let ka = KeyPair::from_secret(a).public();
        let kb = KeyPair::from_secret(b).public();
        // Distinct secrets can collide in y only if g^a == g^b.
        prop_assume!(ka != kb);
        prop_assert_ne!(ka.key_id(), kb.key_id());
    }

    #[test]
    fn hasher_is_deterministic_and_prefix_sensitive(data in proptest::collection::vec(any::<u8>(), 1..128)) {
        let mut h1 = Hasher64::new();
        h1.update(&data);
        let mut h2 = Hasher64::new();
        h2.update(&data);
        prop_assert_eq!(h1.finish(), h2.finish());
        let mut h3 = Hasher64::new();
        h3.update(&data[..data.len() - 1]);
        // Dropping the last byte must change the digest.
        prop_assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn digest_parts_injective_on_boundaries(a in proptest::collection::vec(any::<u8>(), 0..32), b in proptest::collection::vec(any::<u8>(), 1..32)) {
        // Moving a byte across the part boundary must change the digest.
        let mut a2 = a.clone();
        a2.push(b[0]);
        let d1 = Digest256::of_parts(&[&a, &b]);
        let d2 = Digest256::of_parts(&[&a2, &b[1..]]);
        prop_assert_ne!(d1, d2);
    }

    #[test]
    fn streaming_in_any_split_equals_the_one_shot_digest(data in proptest::collection::vec(any::<u8>(), 0..256), cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        at.sort_unstable();
        let mut stream = DigestStream::new();
        let mut from = 0;
        for to in at.into_iter().chain([data.len()]) {
            stream.put(&data[from..to]);
            from = to;
        }
        let oneshot = Digest256::of(&data);
        prop_assert_eq!(stream.finish(), oneshot);
        // Each lane is the seeded FNV pass it always was.
        for (i, lane) in oneshot.0.into_iter().enumerate() {
            let mut h = Hasher64::with_seed(0xD1B5_4A32_D192_ED03 ^ (i as u64).wrapping_mul(0xABCD_EF12_3456_789B));
            h.update(&data);
            prop_assert_eq!(lane, h.finish());
        }
    }

    #[test]
    fn streamed_signatures_equal_signatures_over_the_bytes(msg in proptest::collection::vec(any::<u8>(), 0..128), cut in any::<prop::sample::Index>(), nonce in 0u64..1000) {
        let kp = KeyPair::derive(b"streamer", nonce);
        let (head, tail) = msg.split_at(cut.index(msg.len() + 1));
        let write = |out: &mut dyn ByteSink| {
            out.put(head);
            out.put(tail);
        };
        let sig = kp.sign_with(msg.len(), write);
        prop_assert_eq!(sig, kp.sign(&msg));
        prop_assert!(kp.public().verify_with(msg.len(), write, &sig));
        let forged = Signature::forged(nonce);
        prop_assert_eq!(kp.public().verify_with(msg.len(), write, &forged), kp.public().verify(&msg, &forged));
    }

    #[test]
    fn certificates_verify_only_under_their_issuer(subject in "[a-z/]{1,24}", issuer_nonce in 0u64..1000, other_nonce in 0u64..1000) {
        prop_assume!(issuer_nonce != other_nonce);
        let issuer = KeyPair::derive(b"issuer", issuer_nonce);
        let other = KeyPair::derive(b"issuer", other_nonce);
        let subject_key = KeyPair::derive(subject.as_bytes(), 0);
        let cert = Certificate::issue(subject.clone(), subject_key.public(), &issuer);
        prop_assert!(cert.verify(&issuer.public()));
        prop_assert!(!cert.verify(&other.public()));

        let mut store = CertStore::new();
        store.add_anchor(issuer.public());
        prop_assert!(store.register(cert).is_ok());
        prop_assert_eq!(store.key_for(&subject), Some(subject_key.public()));
    }
}
