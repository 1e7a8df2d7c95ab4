//! Traitor tracing — the paper's §9 future work, implemented.
//!
//! "In future, we plan to augment our mechanism with a traitor tracing
//! feature for preventing the clients from sharing their tags with
//! unauthorized users and thwarting replay attack."
//!
//! The mechanism: edge routers already see, for every tagged Interest, the
//! tag's client identity (the client key locator) and the access path the
//! request actually accumulated. A client who shares her tag necessarily
//! causes the *same identity* to appear with *conflicting access paths*
//! (or at different edge routers) within one tag-validity window — even
//! when access-path *enforcement* is off, the observations alone convict.
//! [`TraitorTracer`] aggregates such sightings and emits
//! [`TraitorAlert`]s; a provider can refuse an alerted identity fresh
//! tags, after which expiry finishes the job.

use std::collections::HashMap;

use tactic_sim::time::{SimDuration, SimTime};

use crate::access_path::AccessPath;

/// One observation of a tag identity at an edge router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sighting {
    /// The tag's client identity (digest of the client key locator —
    /// stable across tag refreshes).
    pub identity: u64,
    /// The access path accumulated in the observed request.
    pub observed_path: AccessPath,
    /// The observing edge router (node id).
    pub edge_router: u64,
    /// When the request was observed.
    pub at: SimTime,
}

/// Evidence that a tag identity was used from multiple locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraitorAlert {
    /// The convicted identity.
    pub identity: u64,
    /// The first sighting (the "home" location).
    pub first: Sighting,
    /// The conflicting sighting that triggered the alert.
    pub conflict: Sighting,
}

impl TraitorAlert {
    /// Time between the two conflicting sightings.
    pub fn spread(&self) -> SimDuration {
        self.conflict.at.saturating_since(self.first.at)
    }
}

/// Aggregates sightings and flags identities seen from conflicting
/// locations within a window.
///
/// # Examples
///
/// ```
/// use tactic::access_path::AccessPath;
/// use tactic::traitor::{Sighting, TraitorTracer};
/// use tactic_sim::time::{SimDuration, SimTime};
///
/// let mut tracer = TraitorTracer::new(SimDuration::from_secs(10));
/// let home = Sighting {
///     identity: 7,
///     observed_path: AccessPath::of([100]),
///     edge_router: 1,
///     at: SimTime::from_secs(1),
/// };
/// assert!(tracer.observe(home).is_none());
///
/// // The same tag identity appears behind a different access point:
/// let away = Sighting { observed_path: AccessPath::of([200]), edge_router: 2, at: SimTime::from_secs(2), ..home };
/// let alert = tracer.observe(away).expect("conflict detected");
/// assert_eq!(alert.identity, 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraitorTracer {
    window: SimDuration,
    last_seen: HashMap<u64, Sighting>,
    alerts: Vec<TraitorAlert>,
    flagged: HashMap<u64, usize>,
}

impl TraitorTracer {
    /// Creates a tracer; sightings of one identity more than `window`
    /// apart never conflict (clients legitimately move — the paper has
    /// them re-register at the new location, changing the tag's frozen
    /// path but not its identity).
    pub fn new(window: SimDuration) -> Self {
        TraitorTracer {
            window,
            ..Default::default()
        }
    }

    /// Ingests one sighting; returns an alert if it conflicts with a
    /// recent sighting of the same identity from another location.
    pub fn observe(&mut self, s: Sighting) -> Option<TraitorAlert> {
        let previous = self.last_seen.insert(s.identity, s);
        let prev = previous?;
        let recent = s.at.saturating_since(prev.at) <= self.window;
        let conflicting =
            prev.observed_path != s.observed_path || prev.edge_router != s.edge_router;
        if recent && conflicting {
            let alert = TraitorAlert {
                identity: s.identity,
                first: prev,
                conflict: s,
            };
            *self.flagged.entry(s.identity).or_insert(0) += 1;
            self.alerts.push(alert.clone());
            return Some(alert);
        }
        None
    }

    /// Ingests a batch, returning all alerts raised. Sightings should be
    /// fed in (roughly) chronological order.
    pub fn observe_all<I: IntoIterator<Item = Sighting>>(
        &mut self,
        sightings: I,
    ) -> Vec<TraitorAlert> {
        sightings
            .into_iter()
            .filter_map(|s| self.observe(s))
            .collect()
    }

    /// Every alert raised so far.
    pub fn alerts(&self) -> &[TraitorAlert] {
        &self.alerts
    }

    /// Identities flagged at least once, with their conflict counts.
    pub fn flagged(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.flagged.iter().map(|(&id, &n)| (id, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sight(identity: u64, ap: u64, edge: u64, secs: u64) -> Sighting {
        Sighting {
            identity,
            observed_path: AccessPath::of([ap]),
            edge_router: edge,
            at: SimTime::from_secs(secs),
        }
    }

    #[test]
    fn consistent_location_never_alerts() {
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        for s in 0..100 {
            assert!(t.observe(sight(7, 100, 1, s)).is_none());
        }
        assert!(t.alerts().is_empty());
        assert_eq!(t.flagged().count(), 0);
    }

    #[test]
    fn conflicting_paths_alert() {
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        t.observe(sight(7, 100, 1, 1));
        let alert = t.observe(sight(7, 200, 2, 2)).expect("conflict");
        assert_eq!(alert.identity, 7);
        assert_eq!(alert.spread(), SimDuration::from_secs(1));
        assert_eq!(t.flagged().next(), Some((7, 1)));
    }

    #[test]
    fn same_path_different_edge_also_alerts() {
        // An identical rolling hash at a different edge router is still a
        // location conflict (distinct APs can collide in XOR space).
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        t.observe(sight(7, 100, 1, 1));
        assert!(t
            .observe(Sighting {
                edge_router: 2,
                ..sight(7, 100, 1, 2)
            })
            .is_some());
    }

    #[test]
    fn slow_movement_is_not_a_conflict() {
        // A client who moved and re-registered appears at the new location
        // only after the window: legitimate mobility.
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        t.observe(sight(7, 100, 1, 1));
        assert!(t.observe(sight(7, 200, 2, 20)).is_none());
        assert_eq!(t.flagged().count(), 0);
    }

    #[test]
    fn interleaved_sharing_produces_repeated_alerts() {
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        let mut alerts = 0;
        for s in 0..10 {
            let ap = if s % 2 == 0 { 100 } else { 200 };
            let edge = if s % 2 == 0 { 1 } else { 2 };
            if t.observe(sight(7, ap, edge, s)).is_some() {
                alerts += 1;
            }
        }
        assert!(
            alerts >= 8,
            "ping-ponging identity must keep alerting ({alerts})"
        );
        let (id, n) = t.flagged().next().unwrap();
        assert_eq!(id, 7);
        assert_eq!(n, alerts);
    }

    #[test]
    fn distinct_identities_do_not_cross_talk() {
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        t.observe(sight(7, 100, 1, 1));
        assert!(t.observe(sight(8, 200, 2, 2)).is_none());
    }

    #[test]
    fn observe_all_batches() {
        let mut t = TraitorTracer::new(SimDuration::from_secs(10));
        let alerts = t.observe_all(vec![
            sight(7, 100, 1, 1),
            sight(8, 100, 1, 1),
            sight(7, 200, 2, 2),
            sight(8, 100, 1, 3),
        ]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].identity, 7);
    }
}
