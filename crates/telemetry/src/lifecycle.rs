//! The `InterestLifecycle` tracer: follows each request from consumer
//! emission through per-hop forwarding decisions to Data/NACK receipt
//! (or timeout), and folds the journeys into hop-count and per-hop
//! latency histograms.
//!
//! Emission registers a flight keyed by `(consumer node, name)` — Data
//! packets carry no nonce, so completion is matched by name at the
//! consumer that asked. Hops are attributed to the flight by nonce
//! (every forwarded copy of the Interest keeps the consumer's nonce).
//! In-flight entries left at the end of a run are counted as
//! `incomplete` and excluded from the histograms.

use std::collections::BTreeMap;

use tactic_ndn::name::Name;

use crate::observer::{Hop, NodeRole, RetrievalOutcome};
use crate::registry::{Histogram, HOP_BOUNDS, LATENCY_BOUNDS};
use tactic_sim::time::SimTime;

#[derive(Debug, Clone)]
struct Flight {
    nonce: u64,
    emitted: SimTime,
    hops: u32,
    last_hop_at: SimTime,
}

/// Per-nonce Interest journey tracking (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct InterestLifecycle {
    /// Active flights keyed by (consumer node, name).
    in_flight: BTreeMap<(u64, Name), Flight>,
    /// Router hops per completed journey.
    pub hop_counts: Histogram,
    /// Wire+processing latency between consecutive hops (seconds).
    pub hop_latency: Histogram,
    /// Emission-to-terminal latency per completed journey (seconds).
    pub total_latency: Histogram,
    /// Journeys completed, by terminal outcome.
    pub completed: [u64; 3],
    /// Emissions never matched to a terminal event.
    pub incomplete: u64,
}

impl Default for InterestLifecycle {
    fn default() -> Self {
        InterestLifecycle {
            in_flight: BTreeMap::new(),
            hop_counts: Histogram::new(&HOP_BOUNDS),
            hop_latency: Histogram::new(&LATENCY_BOUNDS),
            total_latency: Histogram::new(&LATENCY_BOUNDS),
            completed: [0; 3],
            incomplete: 0,
        }
    }
}

impl InterestLifecycle {
    /// An empty tracer.
    pub fn new() -> Self {
        InterestLifecycle::default()
    }

    /// Journeys that ended with the given outcome.
    fn completed_with(&self, outcome: RetrievalOutcome) -> u64 {
        self.completed[outcome as usize]
    }

    /// A consumer emitted a fresh Interest. A retry for the same name
    /// replaces the previous flight (the old one is counted incomplete).
    pub fn on_interest_emitted(&mut self, hop: Hop, nonce: u64, name: &Name) {
        let prev = self.in_flight.insert(
            (hop.node, name.clone()),
            Flight {
                nonce,
                emitted: hop.now,
                hops: 0,
                last_hop_at: hop.now,
            },
        );
        if prev.is_some() {
            self.incomplete += 1;
        }
    }

    /// The Interest reached a forwarding node; attributes the hop to the
    /// flight carrying this nonce.
    pub fn on_interest_hop(&mut self, hop: Hop, nonce: u64, name: &Name) {
        // The flight key holds the consumer's node id, which routers
        // don't know; find by (name, nonce). Names are unique per
        // consumer in flight, so this scan touches at most a handful of
        // same-name entries.
        for ((_, n), f) in self.in_flight.iter_mut() {
            if n == name && f.nonce == nonce {
                f.hops += 1;
                self.hop_latency
                    .record(hop.now.saturating_since(f.last_hop_at).as_secs_f64());
                f.last_hop_at = hop.now;
                return;
            }
        }
    }

    /// The consumer saw a terminal event for `name`: a Data or NACK
    /// receipt, or the expiry of its latest emission.
    pub fn on_retrieval(&mut self, hop: Hop, name: &Name, outcome: RetrievalOutcome) {
        if let Some(f) = self.in_flight.remove(&(hop.node, name.clone())) {
            self.completed[outcome as usize] += 1;
            self.hop_counts.record(f.hops as f64);
            self.total_latency
                .record(hop.now.saturating_since(f.emitted).as_secs_f64());
        }
    }

    /// Flights still pending (call after a run to account for tail loss).
    fn still_in_flight(&self) -> u64 {
        self.in_flight.len() as u64
    }

    /// Folds journeys into `registry` under `tactic.lifecycle.*` keys and
    /// drains nothing — callers may export repeatedly.
    pub(crate) fn export_into(&self, registry: &mut crate::registry::Registry) {
        registry.add(
            "tactic.lifecycle.completed.data",
            self.completed_with(RetrievalOutcome::Data),
        );
        registry.add(
            "tactic.lifecycle.completed.nack",
            self.completed_with(RetrievalOutcome::Nack),
        );
        registry.add(
            "tactic.lifecycle.completed.timeout",
            self.completed_with(RetrievalOutcome::Timeout),
        );
        registry.add(
            "tactic.lifecycle.incomplete",
            self.incomplete + self.still_in_flight(),
        );
        for (key, h) in [
            ("tactic.lifecycle.hops", &self.hop_counts),
            ("tactic.lifecycle.hop_latency", &self.hop_latency),
            ("tactic.lifecycle.total_latency", &self.total_latency),
        ] {
            registry.merge_histogram(key, h);
        }
    }
}

/// What one raw lifecycle observation was. Variant order is the
/// canonical same-instant rank (derived `Ord`): a consumer completes a
/// request before re-emitting for the same name, and emissions precede
/// hops.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum LifeKind {
    /// A terminal event at the consumer: Data, NACK or expiry.
    Retrieval(RetrievalOutcome),
    /// Fresh emission; payload is the nonce.
    Emitted(u64),
    /// Forwarding-node hop; payload is the nonce.
    Hop(u64),
}

/// One raw observation. The derived `Ord` over `(at, node, kind, name,
/// role)` is the canonical replay order — total over the event's entire
/// content, so sorting is deterministic no matter how the log was
/// assembled.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LifeEvent {
    at: SimTime,
    node: u64,
    kind: LifeKind,
    name: Name,
    role: NodeRole,
}

/// An order-invariant log of raw lifecycle observations.
///
/// Shards record only what their owned nodes saw, but one Interest's
/// journey crosses shards — the consumer emits in one shard while
/// routers hop in others — so running the [`InterestLifecycle`] state
/// machine per shard would trace torn journeys. The log defers the
/// state machine instead: hooks append raw events during the run,
/// per-shard logs concatenate via [`merge`](LifecycleLog::merge), and
/// [`fold`](LifecycleLog::fold) sorts everything into the canonical
/// order and replays it into a fresh tracer. The sequential path uses
/// the *same* fold, so sharded lifecycle output is byte-identical by
/// construction.
///
/// Why the canonical order is safe: link and compute latencies are
/// strictly positive, so every cross-node causal pair (emit before
/// first hop, hop before next hop, last hop before retrieval) is
/// already separated by `at`; ties can only occur at one node, where
/// the internal event-kind rank resolves them the way the consumer state
/// machine does (complete, then re-emit).
#[derive(Debug, Clone, Default)]
pub(crate) struct LifecycleLog {
    events: Vec<LifeEvent>,
}

impl LifecycleLog {
    fn push(&mut self, hop: Hop, kind: LifeKind, name: &Name) {
        self.events.push(LifeEvent {
            at: hop.now,
            node: hop.node,
            kind,
            name: name.clone(),
            role: hop.role,
        });
    }

    /// Records a fresh consumer emission.
    pub fn on_interest_emitted(&mut self, hop: Hop, nonce: u64, name: &Name) {
        self.push(hop, LifeKind::Emitted(nonce), name);
    }

    /// Records a forwarding-node hop.
    pub fn on_interest_hop(&mut self, hop: Hop, nonce: u64, name: &Name) {
        self.push(hop, LifeKind::Hop(nonce), name);
    }

    /// Records a terminal Data/NACK receipt at the consumer.
    pub fn on_retrieval(&mut self, hop: Hop, name: &Name, outcome: RetrievalOutcome) {
        self.push(hop, LifeKind::Retrieval(outcome), name);
    }

    /// Records a consumer request expiry.
    pub fn on_timeout_expired(&mut self, hop: Hop, name: &Name) {
        self.push(hop, LifeKind::Retrieval(RetrievalOutcome::Timeout), name);
    }

    /// Appends another log's observations (shard merge). Order does not
    /// matter — [`fold`](LifecycleLog::fold) canonicalizes it.
    pub fn merge(&mut self, other: &LifecycleLog) {
        self.events.extend_from_slice(&other.events);
    }

    /// Sorts the observations into the canonical order and replays them
    /// through a fresh [`InterestLifecycle`].
    pub fn fold(&self) -> InterestLifecycle {
        let mut events = self.events.clone();
        events.sort();
        let mut lc = InterestLifecycle::new();
        for e in &events {
            let hop = Hop::new(e.node, e.role, e.at);
            match &e.kind {
                LifeKind::Emitted(nonce) => lc.on_interest_emitted(hop, *nonce, &e.name),
                LifeKind::Hop(nonce) => lc.on_interest_hop(hop, *nonce, &e.name),
                LifeKind::Retrieval(outcome) => lc.on_retrieval(hop, &e.name, *outcome),
            }
        }
        lc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NodeRole;

    fn hop(node: u64, role: NodeRole, at: f64) -> Hop {
        Hop::new(node, role, SimTime::from_secs_f64(at))
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn traces_emission_hops_and_completion() {
        let mut t = InterestLifecycle::new();
        let n = name("/p/obj0/c0");
        t.on_interest_emitted(hop(9, NodeRole::Consumer, 1.0), 77, &n);
        t.on_interest_hop(hop(2, NodeRole::EdgeRouter, 1.01), 77, &n);
        t.on_interest_hop(hop(3, NodeRole::CoreRouter, 1.02), 77, &n);
        t.on_retrieval(hop(9, NodeRole::Consumer, 1.05), &n, RetrievalOutcome::Data);
        assert_eq!(t.completed_with(RetrievalOutcome::Data), 1);
        assert_eq!(t.hop_counts.count, 1);
        assert_eq!(t.hop_latency.count, 2);
        assert_eq!(t.still_in_flight(), 0);
        assert!((t.total_latency.sum() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn retry_replaces_flight_and_counts_incomplete() {
        let mut t = InterestLifecycle::new();
        let n = name("/p/obj0/c1");
        t.on_interest_emitted(hop(9, NodeRole::Consumer, 1.0), 1, &n);
        t.on_interest_emitted(hop(9, NodeRole::Consumer, 2.0), 2, &n);
        assert_eq!(t.incomplete, 1);
        t.on_retrieval(hop(9, NodeRole::Consumer, 2.5), &n, RetrievalOutcome::Nack);
        assert_eq!(t.completed_with(RetrievalOutcome::Nack), 1);
    }

    #[test]
    fn unknown_retrievals_and_hops_are_ignored() {
        let mut t = InterestLifecycle::new();
        let n = name("/p/obj0/c2");
        t.on_interest_hop(hop(2, NodeRole::EdgeRouter, 1.0), 5, &n);
        t.on_retrieval(hop(9, NodeRole::Consumer, 1.1), &n, RetrievalOutcome::Data);
        assert_eq!(t.completed_with(RetrievalOutcome::Data), 0);
        assert_eq!(t.hop_latency.count, 0);
    }

    #[test]
    fn log_fold_matches_direct_tracing() {
        let n = name("/p/obj0/c0");
        let events = [
            (hop(9, NodeRole::Consumer, 1.0), LifeKind::Emitted(77)),
            (hop(2, NodeRole::EdgeRouter, 1.01), LifeKind::Hop(77)),
            (hop(3, NodeRole::CoreRouter, 1.02), LifeKind::Hop(77)),
            (
                hop(9, NodeRole::Consumer, 1.05),
                LifeKind::Retrieval(RetrievalOutcome::Data),
            ),
        ];

        let mut direct = InterestLifecycle::new();
        let mut log = LifecycleLog::default();
        for (h, kind) in &events {
            match kind {
                LifeKind::Emitted(nonce) => {
                    direct.on_interest_emitted(*h, *nonce, &n);
                    log.on_interest_emitted(*h, *nonce, &n);
                }
                LifeKind::Hop(nonce) => {
                    direct.on_interest_hop(*h, *nonce, &n);
                    log.on_interest_hop(*h, *nonce, &n);
                }
                LifeKind::Retrieval(o) => {
                    direct.on_retrieval(*h, &n, *o);
                    log.on_retrieval(*h, &n, *o);
                }
            }
        }

        let mut want = crate::registry::Registry::new();
        direct.export_into(&mut want);
        let mut got = crate::registry::Registry::new();
        log.fold().export_into(&mut got);
        assert_eq!(want.to_jsonl(), got.to_jsonl());
    }

    #[test]
    fn fold_is_invariant_to_log_assembly_order() {
        let n0 = name("/p/obj0/c0");
        let n1 = name("/p/obj1/c0");
        // Consumer 9's journey is observed in "shard A", the router hops
        // in "shard B"; consumer 11 re-emits after a timeout.
        let mut a = LifecycleLog::default();
        a.on_interest_emitted(hop(9, NodeRole::Consumer, 1.0), 77, &n0);
        a.on_retrieval(
            hop(9, NodeRole::Consumer, 1.05),
            &n0,
            RetrievalOutcome::Data,
        );
        a.on_interest_emitted(hop(11, NodeRole::Consumer, 1.0), 78, &n1);
        a.on_timeout_expired(hop(11, NodeRole::Consumer, 3.0), &n1);
        a.on_interest_emitted(hop(11, NodeRole::Consumer, 3.0), 79, &n1);
        let mut b = LifecycleLog::default();
        b.on_interest_hop(hop(2, NodeRole::EdgeRouter, 1.01), 77, &n0);
        b.on_interest_hop(hop(3, NodeRole::CoreRouter, 1.02), 77, &n0);
        b.on_interest_hop(hop(2, NodeRole::EdgeRouter, 1.02), 78, &n1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.events.len(), 8);

        let (mut ab_reg, mut ba_reg) = (
            crate::registry::Registry::new(),
            crate::registry::Registry::new(),
        );
        ab.fold().export_into(&mut ab_reg);
        ba.fold().export_into(&mut ba_reg);
        assert_eq!(ab_reg.to_jsonl(), ba_reg.to_jsonl());

        // The interleaved journeys resolved correctly: one Data
        // completion with 2 hops, one timeout with 1 hop, one re-emission
        // still in flight.
        let folded = ab.fold();
        assert_eq!(folded.completed_with(RetrievalOutcome::Data), 1);
        assert_eq!(folded.completed_with(RetrievalOutcome::Timeout), 1);
        assert_eq!(folded.still_in_flight(), 1);
        assert_eq!(folded.hop_latency.count, 3);
    }
}
