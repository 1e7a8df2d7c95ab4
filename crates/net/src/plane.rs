//! The pluggable node-logic layer: a mechanism implements [`NodePlane`]
//! and the shared transport drives it through the event loop.
//!
//! A plane owns its node states (routers, providers, consumers, relays —
//! whatever the mechanism needs) and reacts to transport callbacks by
//! pushing [`Emit`]s; the transport performs them in order, which is what
//! keeps engine sequence numbers — and therefore whole runs —
//! deterministic across refactors and thread counts.

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::Packet;
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{SampleRow, SpanProfiler};
use tactic_topology::graph::NodeId;

use crate::observer::DropTotals;

/// Per-event context handed to plane callbacks.
pub struct PlaneCtx<'a> {
    /// The current simulation time (time of the event being handled).
    pub now: SimTime,
    /// The handling node's own RNG stream, forked from the run's. Draws
    /// consume the stream, so a plane must draw exactly when its logic
    /// needs randomness — never speculatively — to stay reproducible.
    pub rng: &'a mut Rng,
    /// The computation-cost injection model.
    pub cost: &'a CostModel,
    /// The wall-clock span profiler, when enabled. Planes time their
    /// hot phases (`precheck`, `bf_lookup`, `sig_verify`, PIT ops, ...)
    /// through it; `None` (the default) must cost nothing.
    pub profiler: Option<&'a mut SpanProfiler>,
    /// The transport's drop ledger: planes count drops that happen
    /// inside their own state here (today: bounded-PIT evictions as
    /// [`DropTotals::pit_full`]), so they surface through the same
    /// report/telemetry path as transport-level drops; the transport
    /// tells its observer of each once the callback returns.
    pub drops: &'a mut DropTotals,
}

/// A side effect a plane callback asks the transport to perform.
///
/// Emits are applied strictly in push order; interleaving matters, since
/// each takes the next event key of the handling node (a user's wake-up
/// is armed *before* the Interests it covers go out).
#[derive(Debug)]
pub enum Emit {
    /// Transmit `packet` out `face` of the handling node after `compute`
    /// processing time, subject to FIFO link serialisation.
    Send {
        /// The outgoing face of the node handling the event.
        face: FaceId,
        /// The packet to put on the wire.
        packet: Packet,
        /// Sender-side computation time charged before the link is taken.
        compute: SimDuration,
    },
    /// Arm a wake-up for the handling node: the plane's
    /// [`NodePlane::on_timeout`] fires after `delay`.
    Timeout {
        /// How long until the wake-up fires.
        delay: SimDuration,
    },
}

impl Emit {
    /// A [`Send`](Emit::Send) that charges no computation time.
    pub fn send(face: FaceId, packet: Packet) -> Emit {
        Emit::Send {
            face,
            packet,
            compute: SimDuration::ZERO,
        }
    }
}

/// Mechanism-specific node logic plugged into the shared transport.
///
/// Implementations hold the state of the nodes their instance is given
/// events for — all of them, or one shard's — and must be deterministic: the
/// same callback sequence with the same [`PlaneCtx`] draws must produce
/// the same emits. All methods other than [`on_packet`](Self::on_packet)
/// have no-op defaults so minimal planes (tests, examples) stay short.
#[allow(unused_variables)]
pub trait NodePlane {
    /// A packet finished arriving at `node` on `face`.
    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    );

    /// A consumer/requester node begins its request loop.
    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {}

    /// A wake-up armed via [`Emit::Timeout`] fired.
    fn on_timeout(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {}

    /// A wake-up armed via [`Emit::Timeout`] fell while `node` was down.
    /// A crashed node services nothing, so whatever fell due is stranded;
    /// the plane may only arm the node's next wake-up.
    fn on_timeout_skipped(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Emit>) {}

    /// The periodic (1 s) expiry sweep: purge PITs, relay state, and any
    /// other soft state.
    fn on_purge(&mut self, now: SimTime) {}

    /// `node` was just re-attached to a new access point by the mobility
    /// model; the plane may refresh credentials and refill its window.
    fn on_handover(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {}

    /// A scheduled fault changed the usable topology; `routes` is the
    /// complete recomputed FIB of the routers this instance holds
    /// (full-replacement semantics: the plane should clear every such
    /// router's FIB and install exactly these entries).
    fn on_reroute(&mut self, routes: &[crate::links::FibRoute]) {}

    /// The periodic sampler tick: add the gauges of the nodes this
    /// instance holds into `row` — PIT records, content-store entries,
    /// Bloom-filter state. Every contribution must be a
    /// cumulative/instantaneous integer so the per-shard rows merge to
    /// the sequential row exactly.
    fn on_sample(&mut self, now: SimTime, row: &mut SampleRow) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_stay_small() {
        // The transport's scratch buffer and every plane callback move
        // `Emit`s by value; see `tactic_ndn::packet`'s twin pin.
        assert!(
            size_of::<Emit>() <= 208,
            "Emit is {} B (152 when this was written)",
            size_of::<Emit>()
        );
        // What the calendar stores and moves per event: a delivery holds
        // its packet's slot, not the packet.
        assert!(
            size_of::<crate::transport::NetEvent>() <= 32,
            "NetEvent is {} B",
            size_of::<crate::transport::NetEvent>()
        );
    }
}
