//! The observer layer: per-event tracing, link-utilisation counters, and
//! drop-reason accounting, implemented once over the shared transport and
//! available to every experiment on every plane.
//!
//! Observers are compile-time plugins (a generic parameter on
//! [`Net`](crate::transport::Net)), so the default [`NoopObserver`]
//! monomorphises to nothing — an observed run with the no-op observer is
//! byte-identical to an observer-free build, and a run with a recording
//! observer never perturbs the simulation itself (observers get `&`/`&mut
//! self` and packet *references*; they cannot reschedule or mutate state).

use std::collections::HashMap;

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::Packet;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::NodeId;

use crate::fault::FaultKind;

pub use tactic_telemetry::{DropReason, DropTotals};

/// Hooks the shared transport calls at every transport-level event.
///
/// All hooks default to no-ops; implement only what you need. Hooks fire
/// *after* the transport has committed the corresponding state change
/// (link reserved, handover re-wired), and exactly once per event.
#[allow(unused_variables)]
pub trait NetObserver {
    /// A packet was accepted onto the `from → to` link: it departs (starts
    /// serialising) at `depart`, occupies the link for `serialize`, and
    /// arrives at `arrival`.
    fn on_schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        depart: SimTime,
        serialize: SimDuration,
        arrival: SimTime,
    ) {
    }

    /// A scheduled delivery is being handled at `node` on `face`.
    fn on_deliver(&mut self, node: NodeId, face: FaceId, packet: &Packet, now: SimTime) {}

    /// The transport dropped a packet at `node` — the emitting node for
    /// send-side reasons, the receiver for delivery-side ones
    /// ([`DropReason::NodeDown`], [`DropReason::ReverseFaceGone`]) — or,
    /// once per evicted record, the router at `node` evicted pending
    /// state from its bounded PIT ([`DropReason::PitFull`]). Fires for
    /// every drop the run's [`DropTotals`] counts.
    fn on_drop(&mut self, node: NodeId, reason: DropReason, now: SimTime) {}

    /// A mobile node re-attached from `from_ap` to `to_ap`.
    fn on_handover(&mut self, node: NodeId, from_ap: NodeId, to_ap: NodeId, now: SimTime) {}

    /// A scheduled fault event took effect.
    fn on_fault(&mut self, kind: FaultKind, now: SimTime) {}
}

/// The zero-cost default observer: every hook is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl NetObserver for NoopObserver {}

/// Aggregate per-link load measured by [`NetCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Packets scheduled onto the directed link.
    pub packets: u64,
    /// Wire bytes scheduled onto the directed link.
    pub bytes: u64,
    /// Total serialisation time the link spent busy.
    pub busy: SimDuration,
}

/// Cheap aggregate accounting: event totals, drop reasons, handovers, and
/// per-directed-link utilisation.
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// Deliveries scheduled onto links.
    pub scheduled: u64,
    /// Deliveries handled (≤ `scheduled`: the horizon cuts the tail).
    pub delivered: u64,
    /// Drops by reason.
    pub drops: DropTotals,
    /// Handovers performed.
    pub handovers: u64,
    /// Total wire bytes scheduled.
    pub bytes_on_wire: u64,
    /// Per directed link `(from, to)`: packets, bytes, busy time.
    pub link_load: HashMap<(u32, u32), LinkLoad>,
}

impl NetCounters {
    /// Total drops across all reasons.
    pub fn dropped(&self) -> u64 {
        self.drops.total()
    }

    /// The `n` busiest directed links by serialisation time, descending
    /// (ties broken by link id for determinism).
    pub fn busiest_links(&self, n: usize) -> Vec<((u32, u32), LinkLoad)> {
        let mut all: Vec<_> = self.link_load.iter().map(|(&k, &v)| (k, v)).collect();
        all.sort_by_key(|&((from, to), load)| (std::cmp::Reverse(load.busy), from, to));
        all.truncate(n);
        all
    }

    /// Folds another shard's counters into this one: scalars add and
    /// per-link loads add entry-wise. Every schedule/deliver/drop/
    /// handover happens in exactly one shard and `u64` addition is
    /// commutative, so any fold order yields the totals a sequential run
    /// counts.
    pub fn merge(&mut self, other: &NetCounters) {
        self.scheduled += other.scheduled;
        self.delivered += other.delivered;
        self.drops.merge(&other.drops);
        self.handovers += other.handovers;
        self.bytes_on_wire += other.bytes_on_wire;
        for (&link, load) in &other.link_load {
            let mine = self.link_load.entry(link).or_default();
            mine.packets += load.packets;
            mine.bytes += load.bytes;
            mine.busy += load.busy;
        }
    }
}

impl NetObserver for NetCounters {
    fn on_schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        _depart: SimTime,
        serialize: SimDuration,
        _arrival: SimTime,
    ) {
        self.scheduled += 1;
        self.bytes_on_wire += bytes as u64;
        let load = self.link_load.entry((from.0, to.0)).or_default();
        load.packets += 1;
        load.bytes += bytes as u64;
        load.busy += serialize;
    }

    fn on_deliver(&mut self, _node: NodeId, _face: FaceId, _packet: &Packet, _now: SimTime) {
        self.delivered += 1;
    }

    fn on_drop(&mut self, _node: NodeId, reason: DropReason, _now: SimTime) {
        self.drops.count(reason);
    }

    fn on_handover(&mut self, _node: NodeId, _from_ap: NodeId, _to_ap: NodeId, _now: SimTime) {
        self.handovers += 1;
    }
}

/// One record in an [`EventTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was accepted onto a link.
    Scheduled {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Wire bytes.
        bytes: usize,
        /// Arrival time of the delivery this schedules.
        arrival: SimTime,
    },
    /// A delivery was handled.
    Delivered {
        /// Handling node.
        node: NodeId,
        /// Arrival face.
        face: FaceId,
        /// Handling time.
        at: SimTime,
    },
    /// A packet was dropped.
    Dropped {
        /// Emitting node.
        node: NodeId,
        /// Why.
        reason: DropReason,
        /// Drop time.
        at: SimTime,
    },
    /// A handover re-wired a mobile node.
    Handover {
        /// The mobile node.
        node: NodeId,
        /// Old access point.
        from_ap: NodeId,
        /// New access point.
        to_ap: NodeId,
        /// Handover time.
        at: SimTime,
    },
    /// A scheduled fault event took effect.
    Fault {
        /// What happened.
        kind: FaultKind,
        /// When it fired.
        at: SimTime,
    },
}

/// A full per-event trace. Unbounded — meant for tests and small audit
/// runs, not paper-scale sweeps.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    /// Records in transport order.
    pub events: Vec<TraceEvent>,
}

/// Per-kind record totals for an [`EventTrace`], computed in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// [`TraceEvent::Scheduled`] records.
    pub scheduled: usize,
    /// [`TraceEvent::Delivered`] records.
    pub delivered: usize,
    /// [`TraceEvent::Dropped`] records.
    pub dropped: usize,
    /// [`TraceEvent::Handover`] records.
    pub handovers: usize,
    /// [`TraceEvent::Fault`] records.
    pub faults: usize,
}

impl EventTrace {
    /// Tallies every record kind in a single pass over the trace.
    pub fn counts(&self) -> TraceCounts {
        let mut c = TraceCounts::default();
        for e in &self.events {
            match e {
                TraceEvent::Scheduled { .. } => c.scheduled += 1,
                TraceEvent::Delivered { .. } => c.delivered += 1,
                TraceEvent::Dropped { .. } => c.dropped += 1,
                TraceEvent::Handover { .. } => c.handovers += 1,
                TraceEvent::Fault { .. } => c.faults += 1,
            }
        }
        c
    }

    /// Number of [`TraceEvent::Delivered`] records.
    pub fn delivered(&self) -> usize {
        self.counts().delivered
    }

    /// Number of [`TraceEvent::Scheduled`] records.
    pub fn scheduled(&self) -> usize {
        self.counts().scheduled
    }

    /// Number of [`TraceEvent::Dropped`] records.
    pub fn dropped(&self) -> usize {
        self.counts().dropped
    }

    /// Number of [`TraceEvent::Handover`] records.
    pub fn handovers(&self) -> usize {
        self.counts().handovers
    }
}

impl NetObserver for EventTrace {
    fn on_schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        _depart: SimTime,
        _serialize: SimDuration,
        arrival: SimTime,
    ) {
        self.events.push(TraceEvent::Scheduled {
            from,
            to,
            bytes,
            arrival,
        });
    }

    fn on_deliver(&mut self, node: NodeId, face: FaceId, _packet: &Packet, now: SimTime) {
        self.events.push(TraceEvent::Delivered {
            node,
            face,
            at: now,
        });
    }

    fn on_drop(&mut self, node: NodeId, reason: DropReason, now: SimTime) {
        self.events.push(TraceEvent::Dropped {
            node,
            reason,
            at: now,
        });
    }

    fn on_handover(&mut self, node: NodeId, from_ap: NodeId, to_ap: NodeId, now: SimTime) {
        self.events.push(TraceEvent::Handover {
            node,
            from_ap,
            to_ap,
            at: now,
        });
    }

    fn on_fault(&mut self, kind: FaultKind, now: SimTime) {
        self.events.push(TraceEvent::Fault { kind, at: now });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_trace_counts_every_kind_in_one_pass() {
        let mut trace = EventTrace::default();
        let n = |i| NodeId(i);
        trace.on_schedule(
            n(0),
            n(1),
            64,
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::from_secs(1),
        );
        trace.on_schedule(
            n(1),
            n(2),
            64,
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::from_secs(2),
        );
        trace.on_deliver(
            n(1),
            FaceId::new(0),
            &Packet::Nack(tactic_ndn::packet::Nack::new(
                tactic_ndn::packet::Interest::new("/x".parse().unwrap(), 1),
                tactic_ndn::packet::NackReason::NoRoute,
            )),
            SimTime::from_secs(1),
        );
        trace.on_drop(n(2), DropReason::DanglingFace, SimTime::from_secs(2));
        trace.on_handover(n(3), n(4), n(5), SimTime::from_secs(3));
        trace.on_fault(FaultKind::NodeDown { node: n(6) }, SimTime::from_secs(4));

        let counts = trace.counts();
        assert_eq!(counts.scheduled, 2);
        assert_eq!(counts.delivered, 1);
        assert_eq!(counts.dropped, 1);
        assert_eq!(counts.handovers, 1);
        assert_eq!(counts.faults, 1);
        assert_eq!(trace.scheduled(), counts.scheduled);
        assert_eq!(trace.delivered(), counts.delivered);
        assert_eq!(trace.dropped(), counts.dropped);
        assert_eq!(trace.handovers(), counts.handovers);
    }
}
