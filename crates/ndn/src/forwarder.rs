//! The vanilla NDN forwarding pipeline.
//!
//! [`Tables`] bundles a node's CS/PIT/FIB; [`process_interest`] and
//! [`process_data`] implement the textbook CCN/NDN pipeline the paper
//! recaps in §2: CS lookup → PIT lookup/aggregation → FIB forward, and
//! reverse-path Data delivery with caching.
//!
//! TACTIC routers (in the `tactic` crate) reuse these tables but interpose
//! their own authorisation steps; baseline mechanisms use this pipeline
//! as-is.

use tactic_sim::time::SimTime;

use crate::cs::ContentStore;
use crate::face::FaceId;
use crate::fib::Fib;
use crate::packet::{Data, Interest};
use crate::pit::{InRecord, Pit, PitInsert};
use crate::records::Records;

/// A node's three NDN tables.
///
/// `N` is the PIT in-record note type (default: opaque bytes); see
/// [`crate::pit`].
#[derive(Debug, Clone)]
pub struct Tables<N = Vec<u8>> {
    /// The content store (cache).
    pub cs: ContentStore,
    /// The pending-Interest table.
    pub pit: Pit<N>,
    /// The forwarding information base.
    pub fib: Fib,
}

impl<N> Tables<N> {
    /// Creates tables with the given cache capacity.
    pub fn new(cs_capacity: usize) -> Self {
        Tables {
            cs: ContentStore::new(cs_capacity),
            pit: Pit::new(),
            fib: Fib::new(),
        }
    }
}

/// What the node should do with an incoming Interest.
#[derive(Debug, Clone, PartialEq)]
pub enum InterestAction {
    /// Reply with this cached Data on the arrival face.
    ReplyFromCache(Data),
    /// The Interest was aggregated into an existing PIT entry; do nothing.
    Aggregate,
    /// Forward the Interest on this face.
    Forward(FaceId),
    /// No route; the caller may Nack.
    NoRoute,
    /// Looped nonce; drop.
    DuplicateNonce,
}

/// Runs the vanilla Interest pipeline against `tables`.
///
/// `note` is the opaque annotation stored in the PIT in-record (TACTIC puts
/// its `<tag, F>` there; vanilla callers pass an empty vec).
pub fn process_interest<N>(
    tables: &mut Tables<N>,
    interest: &Interest,
    in_face: FaceId,
    now: SimTime,
    note: N,
) -> InterestAction {
    // 1. Content store — freshness-aware: a Data whose freshness window
    // has lapsed by `now` is a miss, not a hit, so stale content is
    // re-fetched instead of served forever.
    if let Some(data) = tables.cs.get_fresh(interest.name(), now) {
        return InterestAction::ReplyFromCache(data);
    }
    // 2. PIT.
    let expiry = now + tactic_sim::time::SimDuration::from_millis(interest.lifetime_ms() as u64);
    match tables
        .pit
        .on_interest(interest.name(), in_face, interest.nonce(), expiry, note)
    {
        PitInsert::DuplicateNonce => InterestAction::DuplicateNonce,
        PitInsert::Aggregated => InterestAction::Aggregate,
        PitInsert::New => {
            // 3. FIB.
            match tables.fib.next_hop(interest.name()) {
                Some(face) => InterestAction::Forward(face),
                None => {
                    // Clean up the dangling entry so a retry can re-resolve.
                    tables.pit.take(interest.name());
                    InterestAction::NoRoute
                }
            }
        }
    }
}

/// Outcome of the vanilla Data pipeline: the consumed downstream records
/// (empty if the Data was unsolicited) and whether it was cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataAction<N = Vec<u8>> {
    /// Downstream in-records the Data should be sent to.
    pub downstream: Records<InRecord<N>>,
    /// Whether the Data entered the content store.
    pub cached: bool,
}

/// Runs the vanilla Data pipeline: consume the PIT entry and cache.
///
/// Unsolicited Data (no PIT entry) is dropped without caching, matching
/// NFD's default policy. Caching is stamped at `now` so the Data's
/// freshness window starts at its arrival — the historical pipeline
/// inserted at time zero and looked up freshness-agnostically, so
/// freshness-stamped content was served from cache forever.
pub fn process_data<N>(tables: &mut Tables<N>, data: &Data, now: SimTime) -> DataAction<N> {
    match tables.pit.take(data.name()) {
        None => DataAction {
            downstream: Records::default(),
            cached: false,
        },
        Some(entry) => {
            tables.cs.insert_at(data.clone(), now);
            DataAction {
                downstream: entry.into_records(),
                cached: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::packet::Payload;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn setup() -> Tables {
        let mut t = Tables::new(10);
        t.fib.add_route(name("/prov"), FaceId::new(9), 1);
        t
    }

    #[test]
    fn miss_forwards_via_fib() {
        let mut t = setup();
        let i = Interest::new(name("/prov/obj/0"), 1);
        let action = process_interest(&mut t, &i, FaceId::new(1), SimTime::ZERO, vec![]);
        assert_eq!(action, InterestAction::Forward(FaceId::new(9)));
        assert_eq!(t.pit.len(), 1);
    }

    #[test]
    fn second_request_aggregates() {
        let mut t = setup();
        let i1 = Interest::new(name("/prov/obj/0"), 1);
        let i2 = Interest::new(name("/prov/obj/0"), 2);
        process_interest(&mut t, &i1, FaceId::new(1), SimTime::ZERO, vec![]);
        let action = process_interest(&mut t, &i2, FaceId::new(2), SimTime::ZERO, vec![]);
        assert_eq!(action, InterestAction::Aggregate);
        assert_eq!(t.pit.get(&name("/prov/obj/0")).unwrap().records().len(), 2);
    }

    #[test]
    fn cache_hit_replies_immediately() {
        let mut t = setup();
        t.cs.insert(Data::new(name("/prov/obj/0"), Payload::Synthetic(10)));
        let i = Interest::new(name("/prov/obj/0"), 1);
        match process_interest(&mut t, &i, FaceId::new(1), SimTime::ZERO, vec![]) {
            InterestAction::ReplyFromCache(d) => assert_eq!(d.name(), &name("/prov/obj/0")),
            other => panic!("expected cache hit, got {other:?}"),
        }
        assert!(t.pit.is_empty(), "cache hits must not create PIT state");
    }

    #[test]
    fn no_route_reported_and_pit_cleaned() {
        let mut t = setup();
        let i = Interest::new(name("/other/x"), 1);
        let action = process_interest(&mut t, &i, FaceId::new(1), SimTime::ZERO, vec![]);
        assert_eq!(action, InterestAction::NoRoute);
        assert!(t.pit.is_empty());
    }

    #[test]
    fn duplicate_nonce_dropped() {
        let mut t = setup();
        let i = Interest::new(name("/prov/obj/0"), 7);
        process_interest(&mut t, &i, FaceId::new(1), SimTime::ZERO, vec![]);
        let action = process_interest(&mut t, &i, FaceId::new(2), SimTime::ZERO, vec![]);
        assert_eq!(action, InterestAction::DuplicateNonce);
    }

    #[test]
    fn data_satisfies_all_downstreams_and_caches() {
        let mut t = setup();
        let n = name("/prov/obj/0");
        process_interest(
            &mut t,
            &Interest::new(n.clone(), 1),
            FaceId::new(1),
            SimTime::ZERO,
            vec![11],
        );
        process_interest(
            &mut t,
            &Interest::new(n.clone(), 2),
            FaceId::new(2),
            SimTime::ZERO,
            vec![22],
        );
        let d = Data::new(n.clone(), Payload::Synthetic(10));
        let action = process_data(&mut t, &d, SimTime::ZERO);
        assert!(action.cached);
        assert_eq!(action.downstream.len(), 2);
        assert_eq!(action.downstream[0].note, vec![11]);
        assert!(t.pit.is_empty());
        assert!(t.cs.peek(&n).is_some());
    }

    #[test]
    fn purge_sweep_expires_aggregated_records_then_late_data_is_unsolicited() {
        // Lossy-link scenario: the upstream Data is lost, so the periodic
        // purge must reclaim both aggregated records instead of leaking
        // them, and the straggler Data that arrives after the sweep is
        // treated as unsolicited.
        let mut t = setup();
        let n = name("/prov/obj/0");
        let a1 = process_interest(
            &mut t,
            &Interest::new(n.clone(), 1),
            FaceId::new(1),
            SimTime::ZERO,
            vec![],
        );
        assert_eq!(a1, InterestAction::Forward(FaceId::new(9)));
        let a2 = process_interest(
            &mut t,
            &Interest::new(n.clone(), 2),
            FaceId::new(2),
            SimTime::ZERO,
            vec![],
        );
        assert_eq!(a2, InterestAction::Aggregate);
        assert_eq!(t.pit.total_records(), 2);

        // Both records expire at t0 + Interest lifetime; sweep well past it.
        assert_eq!(t.pit.purge_expired(SimTime::from_secs(60)), 2);
        assert!(t.pit.is_empty());

        let d = Data::new(n.clone(), Payload::Synthetic(10));
        let action = process_data(&mut t, &d, SimTime::ZERO);
        assert!(action.downstream.is_empty(), "no requesters remain");
        assert!(!action.cached, "unsolicited Data is not cached");
        // A fresh request after the sweep re-resolves cleanly.
        let a3 = process_interest(
            &mut t,
            &Interest::new(n.clone(), 3),
            FaceId::new(1),
            SimTime::from_secs(61),
            vec![],
        );
        assert_eq!(a3, InterestAction::Forward(FaceId::new(9)));
    }

    #[test]
    fn stale_cached_data_is_a_miss_not_a_hit() {
        use tactic_sim::time::SimDuration;

        let mut t = setup();
        let n = name("/prov/obj/0");
        // A requester pulls the chunk through: PIT entry, then Data with a
        // 500 ms freshness window cached at its arrival time (t = 1 s).
        let arrive = SimTime::from_secs(1);
        process_interest(
            &mut t,
            &Interest::new(n.clone(), 1),
            FaceId::new(1),
            arrive,
            vec![],
        );
        let mut d = Data::new(n.clone(), Payload::Synthetic(10));
        d.set_freshness_ms(500);
        assert!(process_data(&mut t, &d, arrive).cached);

        // Within the window: served from cache.
        let within = arrive + SimDuration::from_millis(400);
        match process_interest(
            &mut t,
            &Interest::new(n.clone(), 2),
            FaceId::new(1),
            within,
            vec![],
        ) {
            InterestAction::ReplyFromCache(hit) => assert_eq!(hit.name(), &n),
            other => panic!("fresh entry must hit, got {other:?}"),
        }

        // Past the window: the entry is stale — the Interest must go back
        // upstream, not be answered with expired content. (The historical
        // pipeline inserted at time zero and ignored freshness, so this
        // lookup served the stale Data forever.)
        let past = arrive + SimDuration::from_millis(600);
        let action = process_interest(
            &mut t,
            &Interest::new(n.clone(), 3),
            FaceId::new(1),
            past,
            vec![],
        );
        assert_eq!(action, InterestAction::Forward(FaceId::new(9)));
        assert!(t.cs.peek(&n).is_none(), "stale entry is evicted");
    }

    #[test]
    fn unsolicited_data_dropped() {
        let mut t = setup();
        let d = Data::new(name("/prov/obj/9"), Payload::Synthetic(10));
        let action = process_data(&mut t, &d, SimTime::ZERO);
        assert!(!action.cached);
        assert!(action.downstream.is_empty());
        assert!(t.cs.is_empty());
    }
}
