//! The baseline origin server: serves `/prefix/objI/cJ[/uN]` chunks,
//! optionally authenticating every request (the always-online
//! provider-auth mechanism).

use std::collections::HashSet;
use std::sync::Arc;

use tactic_ndn::packet::{Data, Interest, Payload};
use tactic_net::Catalog;
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::SimDuration;

use crate::mechanism::Mechanism;

/// One provider's per-request accounting over its share of the catalog.
pub struct BaselineProvider {
    catalog: Arc<Catalog>,
    /// Which of the catalog's providers this is.
    index: usize,
    chunk_size: usize,
    authorized: HashSet<u64>,
    /// Content requests this provider answered (or vetted).
    pub handled: u64,
    /// Per-request authentications performed.
    pub auth_ops: u64,
}

impl BaselineProvider {
    /// Creates provider `index` of `catalog`, serving chunks of
    /// `chunk_size` bytes, with `authorized` principals.
    pub fn new(
        catalog: Arc<Catalog>,
        index: usize,
        chunk_size: usize,
        authorized: HashSet<u64>,
    ) -> Self {
        BaselineProvider {
            catalog,
            index,
            chunk_size,
            authorized,
            handled: 0,
            auth_ops: 0,
        }
    }

    /// Handles one Interest: returns the reply (if any) and the
    /// computation time to charge before it goes on the wire.
    pub fn handle(
        &mut self,
        interest: &Interest,
        mechanism: Mechanism,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> (Option<Data>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let principal = match self.catalog.parse(interest.name()) {
            Some(((prov, _, _), principal)) if prov == self.index => principal,
            _ => return (None, charge), // Not ours / outside the catalog.
        };
        self.handled += 1;
        if mechanism.per_request_provider_auth() {
            self.auth_ops += 1;
            charge += cost.sample(Op::SigVerify, rng);
            match principal {
                Some(p) if self.authorized.contains(&p) => {}
                _ => return (None, charge), // Unauthorized: drop.
            }
        }
        let d = Data::new(interest.name().clone(), Payload::Synthetic(self.chunk_size));
        (Some(d), charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_net::CatalogEntry;

    fn provider() -> BaselineProvider {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 4,
            chunks: 2,
        };
        let catalog = Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7);
        BaselineProvider::new(catalog, 0, 512, [10u64].into_iter().collect())
    }

    #[test]
    fn serves_valid_names_and_rejects_garbage() {
        let mut p = provider();
        let mut rng = Rng::seed_from_u64(1);
        let cost = CostModel::free();
        let ok = Interest::new("/prov0/obj1/c1".parse().unwrap(), 1);
        assert!(p
            .handle(&ok, Mechanism::NoAccessControl, &mut rng, &cost)
            .0
            .is_some());
        for bad in ["/prov1/obj1/c1", "/prov0/obj9/c1", "/prov0/obj1", "/prov0"] {
            let i = Interest::new(bad.parse().unwrap(), 2);
            assert!(
                p.handle(&i, Mechanism::NoAccessControl, &mut rng, &cost)
                    .0
                    .is_none(),
                "{bad} must not be served"
            );
        }
    }

    #[test]
    fn provider_auth_gates_on_the_session_principal() {
        let mut p = provider();
        let mut rng = Rng::seed_from_u64(2);
        let cost = CostModel::free();
        let authorized = Interest::new("/prov0/obj0/c0/u10".parse().unwrap(), 1);
        let stranger = Interest::new("/prov0/obj0/c0/u66".parse().unwrap(), 2);
        let anonymous = Interest::new("/prov0/obj0/c0".parse().unwrap(), 3);
        assert!(p
            .handle(&authorized, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_some());
        assert!(p
            .handle(&stranger, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_none());
        assert!(p
            .handle(&anonymous, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_none());
        assert_eq!(p.auth_ops, 3);
        assert_eq!(p.handled, 3);
    }
}
