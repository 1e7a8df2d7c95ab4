//! The baselines' adversarial fleet driver: what an attacker node of an
//! active attack plan targets when the mechanism has no tags.
//!
//! Without tags the credential dimension of each [`AttackClass`] degrades
//! to its traffic shape, and the driver attaches nothing:
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
//! The harness fields, paces and spells each attacker (see
//! [`tactic_net::attack`]): names carry the session component where the
//! shard's request policy says so, and every draw comes from the
//! attacker's own stream, forked only while a plan is active.

use tactic_net::{AttackClass, AttackDriver, Attacker, Chunk};

/// One attacker node's target on a baseline plane.
pub enum BaselineAdversary {
    /// A uniform spray over the catalog.
    Spray,
    /// The `BfPollution` analog: walk the name space breadth-first from
    /// this cursor instead of spraying.
    Breadth(u64),
}

impl BaselineAdversary {
    /// Builds the driver for one attacker node.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] (scheduled by the transport).
    pub fn new(class: AttackClass) -> BaselineAdversary {
        match class {
            AttackClass::BfPollution => BaselineAdversary::Breadth(0),
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
            _ => BaselineAdversary::Spray,
        }
    }
}

impl AttackDriver for BaselineAdversary {
    fn target(&mut self, at: &mut Attacker<'_>) -> Chunk {
        let BaselineAdversary::Breadth(cursor) = self else {
            return at.catalog.spray(at.rng);
        };
        // Deterministic breadth-first walk: consecutive cursors land on
        // different providers, then different objects, so short bursts
        // already maximize name diversity.
        let c = *cursor;
        *cursor += 1;
        let entries = at.catalog.entries();
        let provs = entries.len() as u64;
        let prov = (c % provs) as usize;
        let (objects, chunks) = (entries[prov].objects as u64, entries[prov].chunks as u64);
        let obj = (c / provs) % objects;
        let chunk = (c / (provs * objects)) % chunks;
        (prov as u32, obj as u32, chunk as u32)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tactic_ndn::packet::Interest;
    use tactic_net::harness::FleetNode;
    use tactic_net::{Catalog, CatalogEntry, RequestPolicy};
    use tactic_sim::rng::Rng;
    use tactic_sim::time::SimDuration;

    use super::*;

    // A fielded attacker is one box: the recipe every plane shares and
    // this plane's driver, no requester. `tactic::net`'s twin pin.
    const _: () = assert!(size_of::<FleetNode<BaselineAdversary>>() == 112);

    fn fleet(class: AttackClass, per_session: bool) -> FleetNode<BaselineAdversary> {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 10,
            chunks: 10,
        };
        let policy = Arc::new(RequestPolicy {
            catalog: Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7),
            window: 5,
            timeout: SimDuration::from_secs(1),
            per_session_names: per_session,
            retransmit: None,
        });
        let driver = BaselineAdversary::new(class);
        FleetNode::new(9, 200, &policy, &Rng::seed_from_u64(7), driver)
    }

    #[test]
    fn breadth_walk_maximizes_distinct_names() {
        let mut d = fleet(AttackClass::BfPollution, false);
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
        let mut d = fleet(AttackClass::Flood, true);
        for _ in 0..10 {
            let i = d.craft();
            assert_eq!(i.name().components().last().unwrap().to_string(), "u9");
        }
    }

    #[test]
    fn drivers_are_deterministic_per_stream() {
        let run = || {
            let mut d = fleet(AttackClass::ForgeTags, false);
            let names: Vec<_> = (0..100).map(|_| d.craft().name().clone()).collect();
            names
        };
        assert_eq!(run(), run());
    }
}
