//! The adversarial fleet driver: what an attacker node of an active
//! [`AttackPlan`](crate::scenario::AttackPlan) targets and attaches.
//!
//! When a scenario names an [`AttackClass`], every attacker node is
//! fielded as the harness's open-loop fleet node instead of a windowed
//! threat-model consumer ([`tactic_net::harness::FleetNode`]): paced,
//! spelled and sent by the harness (see [`tactic_net::attack`]) and
//! fire-and-forget, so its pressure is bounded only by the configured
//! intensity and whatever edge defenses are armed. This module supplies
//! what is TACTIC's: the target — a uniformly random in-catalog chunk, or
//! one of a pooled tag's issuer — and the class's credential on it.
//!
//! Every draw comes from the attacker's own stream, which the harness
//! forks; an inactive plan builds no driver and makes no draw, keeping
//! unattacked runs byte-identical to the golden snapshots.

use std::sync::Arc;

use tactic_crypto::schnorr::Signature;
use tactic_ndn::packet::Interest;
use tactic_net::{AttackClass, AttackDriver, Attacker, Catalog, Chunk};

use crate::ext;
use crate::tag::{SignedTag, Tag};

/// Distinct credentials each BF-pollution attacker cycles through
/// (sized against the paper's 500-tag filter so a small fleet still
/// drives occupancy visibly).
pub const POLLUTION_POOL: usize = 256;

/// What one attacker attaches to each Interest.
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

/// One attacker node's target and credential.
pub struct AdversaryDriver(Credential);

impl AdversaryDriver {
    /// Builds the driver for one attacker node asking in `catalog`.
    ///
    /// `class` must not be [`AttackClass::Churn`] — churn is a transport
    /// concern (scheduled Move events), not a traffic recipe — and the
    /// issued credentials are supplied by the caller because only the
    /// scenario assembly holds the providers' signing keys.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] or a credential list that does
    /// not cover the catalog.
    pub fn new(
        class: AttackClass,
        catalog: &Catalog,
        issued: Vec<(usize, Arc<SignedTag>)>,
    ) -> AdversaryDriver {
        let providers = catalog.entries().len();
        AdversaryDriver(match class {
            AttackClass::Flood | AttackClass::ReplayExpired => {
                assert_eq!(issued.len(), providers, "one tag per provider");
                let mut per_prov = issued;
                per_prov.sort_by_key(|(p, _)| *p);
                Credential::PerProvider(per_prov.into_iter().map(|(_, t)| t).collect())
            }
            AttackClass::ForgeTags => Credential::Forge(vec![None; providers]),
            AttackClass::BfPollution => {
                assert!(!issued.is_empty(), "pollution needs a credential pool");
                Credential::Pool {
                    tags: issued,
                    next: 0,
                }
            }
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
        })
    }
}

impl AttackDriver for AdversaryDriver {
    /// A uniformly random in-catalog chunk. Pool credentials pin the
    /// provider (the edge pre-check only admits a tag against its
    /// issuer's names); the other classes spray the whole catalog.
    fn target(&mut self, at: &mut Attacker<'_>) -> Chunk {
        match &self.0 {
            Credential::Pool { tags, next } => at.catalog.spray_at(tags[*next].0, at.rng),
            _ => at.catalog.spray(at.rng),
        }
    }

    /// The class's tag: the next pooled one, the target provider's, or
    /// a forgery of the target provider's body under a fresh signature.
    fn attach(&mut self, interest: &mut Interest, chunk: Chunk, at: &mut Attacker<'_>) {
        let prov = chunk.0 as usize;
        let tag = match &mut self.0 {
            Credential::Pool { tags, next } => {
                let tag = Arc::clone(&tags[*next].1);
                *next = (*next + 1) % tags.len();
                tag
            }
            Credential::PerProvider(tags) => Arc::clone(&tags[prov]),
            Credential::Forge(bodies) => {
                let body = bodies[prov].get_or_insert_with(|| {
                    Tag::fabricated(&at.catalog.entries()[prov].prefix, at.principal)
                });
                let signature = Signature::forged(at.rng.next_u64());
                Arc::new(SignedTag::new(body.clone(), signature))
            }
        };
        ext::set_interest_tag(interest, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_net::harness::FleetNode;
    use tactic_net::{CatalogEntry, RequestPolicy};
    use tactic_sim::rng::Rng;
    use tactic_sim::time::SimDuration;

    fn catalog() -> Arc<Catalog> {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 10,
            chunks: 10,
        };
        Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7)
    }

    fn forging_fleet() -> FleetNode<AdversaryDriver> {
        let policy = Arc::new(RequestPolicy {
            catalog: catalog(),
            window: 5,
            timeout: SimDuration::from_secs(1),
            per_session_names: false,
            retransmit: None,
        });
        let driver = AdversaryDriver::new(AttackClass::ForgeTags, &policy.catalog, Vec::new());
        FleetNode::new(9, 200, &policy, &Rng::seed_from_u64(7), driver)
    }

    #[test]
    fn forged_interests_carry_fresh_bogus_signatures() {
        let mut fleet = forging_fleet();
        let out = [fleet.craft(), fleet.craft()];
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
            let mut fleet = forging_fleet();
            let names: Vec<_> = (0..100).map(|_| fleet.craft().name().clone()).collect();
            names
        };
        assert_eq!(run(), run());
    }
}
