//! The adversarial fleet driver: what an attacker node of an active
//! [`AttackPlan`](crate::scenario::AttackPlan) puts in its Interests.
//!
//! When a scenario names an [`AttackClass`], every attacker node stops
//! being a windowed threat-model consumer and becomes an open-loop
//! traffic source, paced by the harness (see [`tactic_net::attack`]) and
//! fire-and-forget: nothing tracks a reply, so its pressure is bounded
//! only by the configured intensity and whatever edge defenses are
//! armed. This module supplies the recipe — a uniformly random
//! in-catalog name under the class's credential.
//!
//! Every draw comes from the driver's own RNG, forked off
//! [`ATTACK_STREAM`](tactic_net::ATTACK_STREAM) `^ node index` at build
//! time; an inactive plan builds no driver and makes no draw, keeping
//! unattacked runs byte-identical to the golden snapshots.

use std::sync::Arc;

use tactic_crypto::schnorr::Signature;
use tactic_ndn::packet::Interest;
use tactic_net::{compose_nonce, AttackClass, AttackDriver, Catalog};
use tactic_sim::rng::Rng;

use crate::ext;
use crate::tag::{SignedTag, Tag};

/// Distinct credentials each BF-pollution attacker cycles through
/// (sized against the paper's 500-tag filter so a small fleet still
/// drives occupancy visibly).
pub const POLLUTION_POOL: usize = 256;

/// What one attacker attaches to each crafted Interest.
enum Credential {
    /// A genuinely-issued tag per provider (Flood: valid for the whole
    /// run; ReplayExpired: already expired at issue).
    PerProvider(Vec<Arc<SignedTag>>),
    /// Forge a fresh signature for every Interest, over the one
    /// fabricated tag body per provider (spelled on first use).
    Forge(Vec<Option<Tag>>),
    /// Cycle a pool of distinct genuinely-issued `(provider index, tag)`
    /// credentials; each pooled tag pins its Interest to the issuing
    /// provider so the edge pre-check admits it.
    Pool {
        tags: Vec<(usize, Arc<SignedTag>)>,
        next: usize,
    },
}

/// One attacker node's open-loop traffic source.
pub struct AdversaryDriver {
    principal: u64,
    lifetime_ms: u32,
    rng: Rng,
    catalog: Arc<Catalog>,
    credential: Credential,
    nonce_seq: u64,
}

impl AdversaryDriver {
    /// Builds the driver for one attacker node.
    ///
    /// `class` must not be [`AttackClass::Churn`] — churn is a transport
    /// concern (scheduled Move events), not a traffic recipe — and the
    /// per-provider credential lists are supplied by the caller because
    /// only the scenario assembly holds the providers' signing keys.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] or a credential list that does
    /// not cover the catalog.
    pub fn new(
        class: AttackClass,
        principal: u64,
        lifetime_ms: u32,
        rng: Rng,
        catalog: Arc<Catalog>,
        issued: Vec<(usize, Arc<SignedTag>)>,
    ) -> AdversaryDriver {
        let credential = match class {
            AttackClass::Flood | AttackClass::ReplayExpired => {
                assert_eq!(
                    issued.len(),
                    catalog.entries().len(),
                    "one tag per provider"
                );
                let mut per_prov = issued;
                per_prov.sort_by_key(|(p, _)| *p);
                Credential::PerProvider(per_prov.into_iter().map(|(_, t)| t).collect())
            }
            AttackClass::ForgeTags => Credential::Forge(vec![None; catalog.entries().len()]),
            AttackClass::BfPollution => {
                assert!(!issued.is_empty(), "pollution needs a credential pool");
                Credential::Pool {
                    tags: issued,
                    next: 0,
                }
            }
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
        };
        AdversaryDriver {
            principal,
            lifetime_ms,
            rng,
            catalog,
            credential,
            nonce_seq: 0,
        }
    }
}

impl AttackDriver for AdversaryDriver {
    /// A uniformly random in-catalog name plus the class's credential.
    /// Pool credentials pin the provider (the edge pre-check only admits
    /// a tag against its issuer's names); the other classes spray
    /// uniformly across the whole catalog.
    fn craft(&mut self) -> Interest {
        let (chunk, tag) = match &mut self.credential {
            Credential::Pool { tags, next } => {
                let (prov, tag) = tags[*next].clone();
                *next = (*next + 1) % tags.len();
                (self.catalog.spray_at(prov, &mut self.rng), tag)
            }
            Credential::PerProvider(tags) => {
                let chunk = self.catalog.spray(&mut self.rng);
                (chunk, tags[chunk.0 as usize].clone())
            }
            Credential::Forge(bodies) => {
                let chunk = self.catalog.spray(&mut self.rng);
                let prov = chunk.0 as usize;
                let body = bodies[prov].get_or_insert_with(|| {
                    Tag::fabricated(&self.catalog.entries()[prov].prefix, self.principal)
                });
                let signature = Signature::forged(self.rng.next_u64());
                (chunk, Arc::new(SignedTag::new(body.clone(), signature)))
            }
        };
        self.nonce_seq += 1;
        let nonce = compose_nonce(self.principal, true, self.nonce_seq);
        let mut i = Interest::new(self.catalog.chunk_name(chunk, None), nonce);
        i.set_lifetime_ms(self.lifetime_ms);
        ext::set_interest_tag(&mut i, tag);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_net::CatalogEntry;

    fn catalog() -> Arc<Catalog> {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 10,
            chunks: 10,
        };
        Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7)
    }

    fn forge_driver() -> AdversaryDriver {
        AdversaryDriver::new(
            AttackClass::ForgeTags,
            9,
            1_000,
            Rng::seed_from_u64(7),
            catalog(),
            Vec::new(),
        )
    }

    #[test]
    fn forged_interests_carry_fresh_bogus_signatures() {
        let mut d = forge_driver();
        let out = [d.craft(), d.craft()];
        let t0 = ext::interest_tag(&out[0]).expect("forged tag");
        let t1 = ext::interest_tag(&out[1]).expect("forged tag");
        assert_ne!(t0.signature, t1.signature, "fresh forgery per Interest");
        assert_ne!(out[0].nonce(), out[1].nonce());
        assert!(out.iter().all(|i| i.lifetime_ms() == 1_000));
        assert!(out.iter().all(|i| catalog().parse(i.name()).is_some()));
    }

    #[test]
    fn drivers_are_deterministic_per_stream() {
        let run = || {
            let mut d = forge_driver();
            let names: Vec<_> = (0..100).map(|_| d.craft().name().clone()).collect();
            names
        };
        assert_eq!(run(), run());
    }
}
