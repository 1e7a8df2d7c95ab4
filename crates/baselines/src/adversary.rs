//! The baselines' adversarial fleet driver: what an attacker node of an
//! active attack plan puts in its Interests when the mechanism has no
//! tags.
//!
//! Without tags the credential dimension of each [`AttackClass`] degrades
//! to its traffic shape:
//!
//! * [`Flood`](AttackClass::Flood), [`ForgeTags`](AttackClass::ForgeTags)
//!   and [`ReplayExpired`](AttackClass::ReplayExpired) — a uniform spray
//!   over the catalog. An attacker principal is already unauthorized to
//!   every baseline provider, so a forged or expired credential is
//!   indistinguishable from plain unauthorized traffic here; what the
//!   classes still measure is how each mechanism absorbs the load
//!   (client-side AC wastes deliveries, provider-auth burns auth ops).
//! * [`BfPollution`](AttackClass::BfPollution) — there is no Bloom
//!   filter to pollute, so the analog is state pollution: a
//!   deterministic breadth-first walk over the *entire* name space,
//!   maximizing distinct names to churn content stores and PITs.
//! * [`Churn`](AttackClass::Churn) is a transport concern (scheduled
//!   Move events) on every plane and never reaches this driver.
//!
//! The harness paces the driver (see [`tactic_net::attack`]); every
//! random draw is taken from a dedicated stream forked off
//! [`ATTACK_STREAM`] so an inactive plan leaves the run byte-identical
//! to its golden snapshot.

use std::sync::Arc;

use tactic_ndn::name::Component;
use tactic_ndn::packet::Interest;
use tactic_net::{compose_nonce, AttackClass, AttackDriver, Catalog, ChunkNames};
use tactic_sim::rng::Rng;

#[allow(unused_imports)] // doc links
use tactic_net::ATTACK_STREAM;

/// One attacker node's open-loop traffic source on a baseline plane.
pub struct BaselineAdversary {
    principal: u64,
    lifetime_ms: u32,
    rng: Rng,
    catalog: Arc<Catalog>,
    /// `Some` where names carry the per-principal session component
    /// (provider-auth mechanisms key their auth on it).
    session: Option<Component>,
    /// `BfPollution` analog: walk the name space breadth-first instead
    /// of spraying uniformly.
    breadth: Option<u64>,
    nonce_seq: u64,
}

impl BaselineAdversary {
    /// Builds the driver for one attacker node.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] (scheduled by the transport).
    pub fn new(
        class: AttackClass,
        principal: u64,
        lifetime_ms: u32,
        rng: Rng,
        catalog: Arc<Catalog>,
        per_session: bool,
    ) -> BaselineAdversary {
        let breadth = match class {
            AttackClass::BfPollution => Some(0),
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
            _ => None,
        };
        BaselineAdversary {
            principal,
            lifetime_ms,
            rng,
            catalog,
            session: per_session.then(|| ChunkNames::session(principal)),
            breadth,
            nonce_seq: 0,
        }
    }
}

impl AttackDriver for BaselineAdversary {
    fn craft(&mut self) -> Interest {
        let chunk = match &mut self.breadth {
            Some(cursor) => {
                // Deterministic breadth-first walk: consecutive cursors
                // land on different providers, then different objects,
                // so short bursts already maximize name diversity.
                let c = *cursor;
                *cursor += 1;
                let entries = self.catalog.entries();
                let provs = entries.len() as u64;
                let prov = (c % provs) as usize;
                let (objects, chunks) = (entries[prov].objects as u64, entries[prov].chunks as u64);
                let obj = (c / provs) % objects;
                let chunk = (c / (provs * objects)) % chunks;
                (prov as u32, obj as u32, chunk as u32)
            }
            None => self.catalog.spray(&mut self.rng),
        };
        self.nonce_seq += 1;
        let nonce = compose_nonce(self.principal, true, self.nonce_seq);
        let name = self.catalog.chunk_name(chunk, self.session.as_ref());
        let mut i = Interest::new(name, nonce);
        i.set_lifetime_ms(self.lifetime_ms);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_net::CatalogEntry;

    fn driver(class: AttackClass, per_session: bool) -> BaselineAdversary {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 10,
            chunks: 10,
        };
        let catalog = Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7);
        BaselineAdversary::new(class, 9, 1_000, Rng::seed_from_u64(7), catalog, per_session)
    }

    #[test]
    fn breadth_walk_maximizes_distinct_names() {
        let mut d = driver(AttackClass::BfPollution, false);
        let out: Vec<Interest> = (0..100).map(|_| d.craft()).collect();
        let distinct: std::collections::HashSet<_> = out.iter().map(|i| i.name().clone()).collect();
        assert_eq!(distinct.len(), 100, "every pollution Interest is fresh");
        // Consecutive names alternate providers: breadth before depth.
        assert_ne!(
            out[0].name().components()[0].to_string(),
            out[1].name().components()[0].to_string()
        );
    }

    #[test]
    fn session_names_carry_the_principal() {
        let mut d = driver(AttackClass::Flood, true);
        for _ in 0..10 {
            let i = d.craft();
            assert_eq!(i.name().components().last().unwrap().to_string(), "u9");
        }
    }

    #[test]
    fn drivers_are_deterministic_per_stream() {
        let run = || {
            let mut d = driver(AttackClass::ForgeTags, false);
            let names: Vec<_> = (0..100).map(|_| d.craft().name().clone()).collect();
            names
        };
        assert_eq!(run(), run());
    }
}
