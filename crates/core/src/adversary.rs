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

use std::collections::VecDeque;
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

/// How many of its oldest tag instances a forging attacker probes for
/// one that nothing else holds before it allocates another.
const FORGE_PROBES: usize = 16;

/// What one attacker attaches to each Interest.
enum Credential {
    /// A genuinely-issued tag per provider (Flood: valid for the whole
    /// run; ReplayExpired: already expired at issue).
    PerProvider(Vec<Arc<SignedTag>>),
    /// Forge a fresh signature for every Interest, over the one
    /// fabricated tag body per provider (spelled on first use), into an
    /// instance of the attacker's own pool, oldest first.
    ///
    /// A forgery takes the oldest instance nothing else holds (no packet,
    /// PIT record or Data), probing at most [`FORGE_PROBES`] and moving
    /// each busy one it passes to the back, and rewrites it whole as
    /// `SignedTag::new(body, signature)`: every memo (Bloom key, client
    /// identity, verdict, shared copy) starts cold, as a new instance's
    /// does. Only when every probed instance is in flight is another
    /// allocated, so the pool grows to about the most forgeries in
    /// flight at once and a forged Interest allocates nothing once an
    /// earlier one is gone. Which instance carries a forgery is host
    /// state alone: draw, signature, wire bytes and verdict are a new
    /// instance's. On a sharded run an instance may be held by a packet
    /// another shard is handling, so whether a slot is free, and with it
    /// the allocation count, can depend on that shard's progress; the
    /// output never does. (Boxed, so a fleet node keeps its pinned size.)
    Forge(Box<Forgeries>),
    /// Cycle a pool of distinct genuinely-issued `(provider index, tag)`
    /// credentials; each pooled tag pins its Interest to the issuing
    /// provider so the edge pre-check admits it.
    Pool {
        tags: Vec<(usize, Arc<SignedTag>)>,
        next: usize,
    },
}

/// A forging attacker's fabricated bodies, one per provider, and its
/// pool of tag instances, oldest first.
struct Forgeries {
    bodies: Vec<Option<Tag>>,
    pool: VecDeque<Arc<SignedTag>>,
}

impl Forgeries {
    /// `fresh`, written over the oldest of the pool's first
    /// [`FORGE_PROBES`] instances that nothing else holds, or into a new
    /// one; either way now the pool's newest.
    fn recycle(&mut self, fresh: SignedTag) -> Arc<SignedTag> {
        let pool = &mut self.pool;
        for _ in 0..FORGE_PROBES.min(pool.len()) {
            pool.rotate_left(1);
            let slot = pool.back_mut().expect("probes stay within the pool");
            if let Some(tag) = Arc::get_mut(slot) {
                *tag = fresh;
                return Arc::clone(slot);
            }
        }
        let tag = Arc::new(fresh);
        pool.push_back(Arc::clone(&tag));
        tag
    }
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
            AttackClass::ForgeTags => Credential::Forge(Box::new(Forgeries {
                bodies: vec![None; providers],
                pool: VecDeque::new(),
            })),
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
            Credential::Forge(forgeries) => {
                let body = forgeries.bodies[prov].get_or_insert_with(|| {
                    Tag::fabricated(&at.catalog.entries()[prov].prefix, at.principal)
                });
                let signature = Signature::forged(at.rng.next_u64());
                let fresh = SignedTag::new(body.clone(), signature);
                forgeries.recycle(fresh)
            }
        };
        ext::set_interest_tag(interest, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tactic_crypto::schnorr::KeyPair;
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

    /// A forging driver asked as [`FleetNode::craft`] asks it, with its
    /// pool in reach.
    struct Forger {
        driver: AdversaryDriver,
        catalog: Arc<Catalog>,
        rng: Rng,
    }

    impl Forger {
        fn new(seed: u64) -> Forger {
            let catalog = catalog();
            Forger {
                driver: AdversaryDriver::new(AttackClass::ForgeTags, &catalog, Vec::new()),
                catalog,
                rng: Rng::seed_from_u64(seed),
            }
        }

        fn craft(&mut self) -> Interest {
            let at = &mut Attacker {
                principal: 9,
                catalog: &self.catalog,
                rng: &mut self.rng,
            };
            let chunk = self.driver.target(at);
            let mut i = Interest::new(self.catalog.chunk_name(chunk, None), 0);
            self.driver.attach(&mut i, chunk, at);
            i
        }

        fn pool(&self) -> usize {
            match &self.driver.0 {
                Credential::Forge(forgeries) => forgeries.pool.len(),
                _ => unreachable!("a forging driver"),
            }
        }
    }

    fn tag_of(i: &Interest) -> Arc<SignedTag> {
        ext::interest_tag(i).expect("forged tag")
    }

    #[test]
    fn a_craft_drop_craft_loop_keeps_one_instance() {
        let mut forger = Forger::new(3);
        for _ in 0..100 {
            drop(forger.craft());
        }
        assert_eq!(forger.pool(), 1);
        let held: Vec<_> = (0..3).map(|_| forger.craft()).collect();
        assert_eq!(forger.pool(), 3, "an instance in flight is never rewritten");
        drop(held);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any seed and any pattern of holding and dropping
        /// forgeries, a recycled instance is what a new one would be —
        /// even when its last forgery was verified, Bloom-keyed and
        /// shared first — and a forgery still held keeps its bytes. The
        /// reference is a twin on the same seed that drops nothing, so
        /// every one of its forgeries is a new instance.
        #[test]
        fn recycling_leaks_no_memo_and_rewrites_no_live_tag(
            seed in any::<u64>(),
            steps in prop::collection::vec((any::<bool>(), any::<u16>()), 1..120),
        ) {
            let key = KeyPair::derive(b"/prov0", 0).public();
            let (mut forger, mut twin) = (Forger::new(seed), Forger::new(seed));
            let mut held: Vec<(Interest, Vec<u8>)> = Vec::new();
            let mut twins = Vec::new();
            let mut check = |forger: &mut Forger, warm: bool| {
                let (i, reference) = (forger.craft(), twin.craft());
                let (tag, cold) = (tag_of(&i), tag_of(&reference));
                assert_eq!(*tag, *cold);
                assert_eq!(tag.encode(), cold.encode());
                assert_eq!(tag.bloom_key(), cold.bloom_key());
                assert_eq!(tag.client_identity(), cold.client_identity());
                assert_eq!(tag.verify(&key), cold.verify(&key));
                if warm {
                    assert_eq!(*tag.shared(), *cold);
                }
                twins.push(reference);
                (i, tag.encode())
            };
            for (warm, drops) in steps {
                held.push(check(&mut forger, warm));
                for k in 0..drops % 4 {
                    if !held.is_empty() {
                        let at = (usize::from(drops) + usize::from(k)) % held.len();
                        held.swap_remove(at);
                    }
                }
                for (i, bytes) in &held {
                    prop_assert_eq!(&tag_of(i).encode(), bytes, "a held forgery was rewritten");
                }
            }
            held.clear();
            let instances = forger.pool();
            check(&mut forger, true);
            prop_assert_eq!(forger.pool(), instances, "a free instance was not reused");
        }
    }
}
