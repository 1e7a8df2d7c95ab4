//! The baseline origin server: serves `/prefix/objI/cJ[/uN]` chunks,
//! optionally authenticating every request (the always-online
//! provider-auth mechanism).
//!
//! A session-less chunk is published once, on its first request and
//! under that request's name, and every later reply is a copy sharing
//! that one content allocation, as TACTIC's provider does. A name with a
//! session component is one user's, so its reply is built per request.

use std::collections::HashSet;
use std::sync::Arc;

use tactic_ndn::name::Name;
use tactic_ndn::packet::{Content, Data, Interest, Payload};
use tactic_net::{Catalog, Chunk};
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
    /// The session-less chunks' content by `obj * chunks + chunk`, each
    /// published on its first request; empty until the first.
    published: Vec<Option<Arc<Content>>>,
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
            published: Vec::new(),
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
        let (chunk, principal) = match self.catalog.parse(interest.name()) {
            Some((chunk, principal)) if chunk.0 as usize == self.index => (chunk, principal),
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
        let d = match principal {
            Some(_) => Data::new(interest.name().clone(), Payload::Synthetic(self.chunk_size)),
            None => self.publish(chunk, interest.name()),
        };
        (Some(d), charge)
    }

    /// A copy of `chunk`'s published content, publishing it under `name`
    /// (the session-less name the catalog spells for it) if it is not yet.
    fn publish(&mut self, (_, obj, chunk): Chunk, name: &Name) -> Data {
        let entry = &self.catalog.entries()[self.index];
        if self.published.is_empty() {
            self.published.resize(entry.objects * entry.chunks, None);
        }
        let slot = &mut self.published[obj as usize * entry.chunks + chunk as usize];
        let content = slot.get_or_insert_with(|| {
            Data::new(name.clone(), Payload::Synthetic(self.chunk_size)).into_content()
        });
        Data::from_content(Arc::clone(content))
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

    #[test]
    fn a_session_less_chunk_is_published_once_and_a_session_name_per_reply() {
        let mut p = provider();
        let mut rng = Rng::seed_from_u64(3);
        let cost = CostModel::free();
        let mut reply = |name: &str, mechanism| {
            let i = Interest::new(name.parse().unwrap(), 1);
            p.handle(&i, mechanism, &mut rng, &cost).0.expect("served")
        };
        let first = reply("/prov0/obj1/c1", Mechanism::NoAccessControl);
        let again = reply("/prov0/obj1/c1", Mechanism::NoAccessControl);
        assert!(again.shares_content_with(&first), "one published packet");
        assert_eq!(again.payload().len(), 512);
        let other = reply("/prov0/obj1/c0", Mechanism::NoAccessControl);
        assert!(!other.shares_content_with(&first));

        let session = reply("/prov0/obj1/c1/u10", Mechanism::ProviderAuthAc);
        let session_again = reply("/prov0/obj1/c1/u10", Mechanism::ProviderAuthAc);
        assert_eq!(session, session_again);
        assert!(!session.shares_content_with(&session_again));
    }
}
