//! The access-point relay: transparent pending-Interest bookkeeping the
//! plane harness keeps at every AP node, whatever the mechanism.
//!
//! An AP forwards user Interests to its one upstream edge router and
//! demultiplexes returning Data/NACKs back to the pending user faces.
//! Demultiplexing is per *requester identity* when the mechanism supplies
//! one (TACTIC's tag echo) — a layer-2 unicast, like a real wireless AP
//! delivering to one station — and falls back to everyone pending on the
//! name when it doesn't (`None`: public content, registration responses,
//! identity-less baselines).

use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::records::Records;
use tactic_ndn::table::NameTable;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::roles::Topology;

use crate::links::Links;

/// Pending-Interest state for one access point.
#[derive(Debug)]
pub struct ApRelay {
    /// The AP's own node id (TACTIC stamps it into access paths).
    pub id: NodeId,
    /// The face toward the AP's edge router.
    pub(crate) upstream: FaceId,
    /// name → who waits for it; a handful of names, which the table finds
    /// without an index.
    pending: NameTable<(Name, Waiting)>,
}

/// The `(user face, sent time, requester identity)` of each user waiting
/// for a name: almost always one, which [`Records`] holds without a heap
/// list.
type Waiting = Records<(FaceId, SimTime, Option<u64>)>;

/// An access point with no face toward an edge router — scale-free
/// generation (or a mid-run rewiring bug) left it unusable. Carried as a
/// checked error so assembly can report *which* AP is broken instead of
/// panicking deep inside plane construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnwiredAp(pub NodeId);

impl std::fmt::Display for UnwiredAp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access point {} has no edge-router neighbour", self.0)
    }
}

impl std::error::Error for UnwiredAp {}

impl ApRelay {
    /// Creates the relay for access point `node`, wired via `links`.
    ///
    /// # Errors
    ///
    /// Returns [`UnwiredAp`] if `node` has no edge-router neighbour
    /// (topologies from the role builders never do — see
    /// `Topology::validate_wiring` — but hand-built or mutated graphs
    /// can).
    pub(crate) fn new(topo: &Topology, links: &Links, node: NodeId) -> Result<Self, UnwiredAp> {
        let upstream = links.neighbors[node.index()]
            .iter()
            .position(|&(peer, _)| topo.graph.role(peer) == Role::EdgeRouter)
            .map(|i| FaceId::new(i as u32))
            .ok_or(UnwiredAp(node))?;
        Ok(ApRelay {
            id: node,
            upstream,
            pending: NameTable::new(),
        })
    }

    /// Records a user Interest awaiting a reply: `face` asked for `name`
    /// at `now`, as `identity` (if the mechanism carries one).
    pub(crate) fn note(&mut self, name: Name, face: FaceId, now: SimTime, identity: Option<u64>) {
        self.pending
            .get_or_insert_with(name, Records::default)
            .push((face, now, identity));
    }

    /// Drops pending entries older than `horizon`.
    pub(crate) fn purge(&mut self, now: SimTime, horizon: SimDuration) {
        self.pending.retain(|(_, faces)| {
            faces.retain(|&(_, t, _)| now.saturating_since(t) < horizon);
            !faces.is_empty()
        });
    }

    /// Removes and returns the pending faces a reply identified by
    /// `identity` should go to. `None` delivers to everyone pending on
    /// the name.
    pub(crate) fn claim(&mut self, name: &Name, identity: Option<u64>) -> Records<FaceId> {
        let mut claimed = Records::default();
        match identity {
            None => {
                for (f, _, _) in self.pending.remove(name).unwrap_or_default() {
                    claimed.push(f);
                }
            }
            Some(id) => {
                let Some(at) = self.pending.find(name) else {
                    return claimed;
                };
                let entries = &mut self.pending[at].1;
                entries.retain(|&(f, _, eid)| {
                    if eid == Some(id) {
                        claimed.push(f);
                        false
                    } else {
                        true
                    }
                });
                if entries.is_empty() {
                    self.pending.swap_remove(at);
                }
            }
        }
        claimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn relay() -> ApRelay {
        ApRelay {
            id: NodeId(3),
            upstream: FaceId::new(0),
            pending: NameTable::new(),
        }
    }

    #[test]
    fn unwired_ap_is_a_checked_error_not_a_panic() {
        use tactic_sim::rng::Rng;
        use tactic_topology::roles::{build_topology, TopologySpec};

        let mut topo = build_topology(
            &TopologySpec {
                core_routers: 8,
                edge_routers: 2,
                providers: 1,
                clients: 2,
                attackers: 0,
            },
            &mut Rng::seed_from_u64(5),
        );
        let ap = topo.access_points[0];
        // Demote the AP's edge router: the AP now has no edge-router
        // neighbour, the defect a scale-free generator can produce.
        let er = topo
            .graph
            .neighbors(ap)
            .find(|&n| topo.graph.role(n) == Role::EdgeRouter)
            .unwrap();
        topo.graph.set_role(er, Role::CoreRouter);
        let links = Links::build(&topo);
        assert_eq!(ApRelay::new(&topo, &links, ap).unwrap_err(), UnwiredAp(ap));

        // A healthy AP still wires up.
        let other = topo.access_points[1];
        let relay = ApRelay::new(&topo, &links, other).unwrap();
        assert_eq!(relay.id, other);
    }

    #[test]
    fn identity_claims_are_unicast() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, Some(10));
        ap.note(name("/a/b"), FaceId::new(2), SimTime::ZERO, Some(20));
        assert_eq!(*ap.claim(&name("/a/b"), Some(20)), [FaceId::new(2)]);
        // The other association is untouched until its own copy arrives.
        assert_eq!(*ap.claim(&name("/a/b"), Some(10)), [FaceId::new(1)]);
        assert!(ap.claim(&name("/a/b"), Some(10)).is_empty());
    }

    #[test]
    fn anonymous_claims_are_broadcast() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, None);
        ap.note(name("/a/b"), FaceId::new(2), SimTime::ZERO, Some(20));
        assert_eq!(
            *ap.claim(&name("/a/b"), None),
            [FaceId::new(1), FaceId::new(2)]
        );
    }

    #[test]
    fn purge_drops_stale_entries() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, None);
        ap.note(name("/a/c"), FaceId::new(2), SimTime::from_secs(5), None);
        ap.purge(SimTime::from_secs(6), SimDuration::from_secs(4));
        assert!(ap.claim(&name("/a/b"), None).is_empty(), "stale: purged");
        assert_eq!(*ap.claim(&name("/a/c"), None), [FaceId::new(2)]);
    }
}
