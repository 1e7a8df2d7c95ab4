//! Run-level measurement aggregation — the quantities behind every figure
//! and table in the paper's §8.

use tactic_sim::stats::{rate_per_second, ratio, TimeSeries};
use tactic_sim::time::SimDuration;
use tactic_telemetry::{SampleRow, SpanProfiler};

use crate::consumer::{ConsumerKind, ConsumerStats};
use crate::provider::ProviderCounters;
use crate::router::OpCounters;

/// Requested/received chunk totals split by principal class (Table IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Chunks requested by legitimate clients.
    pub client_requested: u64,
    /// Chunks received by legitimate clients.
    pub client_received: u64,
    /// Chunks requested by attackers.
    pub attacker_requested: u64,
    /// Chunks received by attackers.
    pub attacker_received: u64,
}

impl DeliveryStats {
    /// Clients' successful delivery ratio.
    pub fn client_ratio(&self) -> f64 {
        ratio(self.client_received, self.client_requested)
    }

    /// Attackers' successful delivery ratio.
    pub fn attacker_ratio(&self) -> f64 {
        ratio(self.attacker_received, self.attacker_requested)
    }
}

/// Everything measured in one simulation run.
#[derive(Clone, Default)]
pub struct RunReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Events the engine processed.
    pub events: u64,
    /// Table IV's delivery totals.
    pub delivery: DeliveryStats,
    /// Clients' per-chunk retrieval latency, per second (Fig. 5): every
    /// client's series merged in node order.
    pub latency: TimeSeries,
    /// Clients' tag requests (Fig. 6's `Q`).
    pub tag_requests: u64,
    /// Clients' tag receipts (Fig. 6's `R`).
    pub tags_received: u64,
    /// Summed operation counters over edge routers (Fig. 7a, Fig. 8a).
    pub edge_ops: OpCounters,
    /// Summed operation counters over core routers (Fig. 7b, Fig. 8b).
    pub core_ops: OpCounters,
    /// Summed provider counters.
    pub providers: ProviderCounters,
    /// Per-consumer records for drill-down.
    pub consumers: Vec<(ConsumerKind, ConsumerStats)>,
    /// Edge-router tag sightings, in collection order (only populated when
    /// the scenario enables `record_sightings`). Sort by time before
    /// feeding a `crate::traitor::TraitorTracer`.
    pub sightings: Vec<crate::traitor::Sighting>,
    /// Handovers performed by mobile clients (mobility extension).
    pub moves: u64,
    /// High-water mark of the engine's pending-event queue (run manifest
    /// provenance; not a paper metric).
    pub peak_queue_depth: u64,
    /// Transport drops split by reason (resilience extension; all zero on
    /// the paper's ideal links).
    pub drops: tactic_net::DropTotals,
    /// High-water mark of PIT records summed over every router, sampled at
    /// the periodic purge sweeps (resilience extension).
    pub peak_pit_records: u64,
    /// Client Interests retransmitted after an expiry (resilience
    /// extension; zero under the paper's no-retry clients).
    pub client_retransmissions: u64,
    /// Client chunks abandoned after exhausting the retransmission budget.
    pub client_gave_up: u64,
    /// Client requests whose latest attempt expired.
    pub client_timeouts: u64,
    /// High-water mark of content-store entries summed over every router,
    /// sampled at the periodic purge sweeps (observability extension).
    pub peak_cs_entries: u64,
    /// Deterministic sim-time samples (observability extension; empty
    /// unless the scenario sets `sample_every`). Exported as
    /// `*.timeseries.jsonl`, byte-identical across thread/shard counts.
    pub samples: Vec<SampleRow>,
    /// Wall-clock span profile (observability extension; `None` unless
    /// the scenario enables profiling). Nondeterministic — never golden.
    pub profile: Option<Box<SpanProfiler>>,
}

/// Manual `Debug`: every field except `peak_queue_depth` (a per-engine
/// quantity — a K-sharded run has K queues whose individual high-water
/// marks depend on the partition) and the observability extensions
/// (`peak_cs_entries`, `samples`, `profile` — `profile` is wall-clock
/// and inherently nondeterministic; the other two are deterministic but
/// adding them would invalidate the pinned golden snapshots, and the
/// timeseries has its own byte-identity regression). The formatted
/// report (golden snapshots, equivalence diffs) must stay byte-identical
/// across shard counts and sampler settings. All fields remain readable
/// for manifests and exporters.
///
/// Its size does not grow with the run's deliveries: `latency` prints
/// one bucket per second and the merged digest, each consumer its
/// `latency_digest`, so a changed, added or missing delivery still moves
/// the dump. The counter sets print every counter, `reset_requests`
/// (Fig. 8's requests absorbed before each reset) among them. The
/// opt-in `sightings` print one line each.
impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("duration", &self.duration)
            .field("events", &self.events)
            .field("delivery", &self.delivery)
            .field("latency", &self.latency)
            .field("tag_requests", &self.tag_requests)
            .field("tags_received", &self.tags_received)
            .field("edge_ops", &self.edge_ops)
            .field("core_ops", &self.core_ops)
            .field("providers", &self.providers)
            .field("consumers", &self.consumers)
            .field(
                "sightings",
                &self.sightings.iter().map(OneLine).collect::<Vec<_>>(),
            )
            .field("moves", &self.moves)
            .field("drops", &self.drops)
            .field("peak_pit_records", &self.peak_pit_records)
            .field("client_retransmissions", &self.client_retransmissions)
            .field("client_gave_up", &self.client_gave_up)
            .field("client_timeouts", &self.client_timeouts)
            .finish()
    }
}

/// A value that prints on one line, also under `{:#?}`.
struct OneLine<'a, T>(&'a T);

impl<T: std::fmt::Debug> std::fmt::Debug for OneLine<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl RunReport {
    /// Folds one consumer's stats and latencies into the run totals.
    pub fn absorb_consumer(
        &mut self,
        kind: ConsumerKind,
        stats: ConsumerStats,
        latency: &TimeSeries,
    ) {
        if kind.is_client() {
            self.delivery.client_requested += stats.requested_chunks;
            self.delivery.client_received += stats.received_chunks;
            self.client_retransmissions += stats.retransmissions;
            self.client_gave_up += stats.gave_up;
            self.client_timeouts += stats.timeouts;
            self.latency.merge(latency);
            self.tag_requests += stats.tag_requests;
            self.tags_received += stats.tags_received;
        } else {
            self.delivery.attacker_requested += stats.requested_chunks;
            self.delivery.attacker_received += stats.received_chunks;
        }
        self.consumers.push((kind, stats));
    }

    /// Mean client retrieval latency over the whole run (seconds).
    pub fn mean_latency(&self) -> f64 {
        self.latency.overall_mean()
    }

    /// Per-second tag-request rate averaged over the run (Fig. 6's `Q`).
    pub fn tag_request_rate(&self) -> f64 {
        rate_per_second(self.tag_requests, self.duration)
    }

    /// Per-second tag-receive rate averaged over the run (Fig. 6's `R`).
    pub fn tag_receive_rate(&self) -> f64 {
        rate_per_second(self.tags_received, self.duration)
    }

    /// Mean requests absorbed per BF reset at edge routers (Fig. 8a).
    pub fn edge_requests_per_reset(&self) -> f64 {
        ratio(self.edge_ops.reset_requests, self.edge_ops.bf_resets)
    }

    /// Mean requests absorbed per BF reset at core routers (Fig. 8b).
    pub fn core_requests_per_reset(&self) -> f64 {
        ratio(self.core_ops.reset_requests, self.core_ops.bf_resets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_sim::time::SimTime;

    #[test]
    fn ratios() {
        let d = DeliveryStats {
            client_requested: 1000,
            client_received: 999,
            attacker_requested: 200,
            attacker_received: 1,
        };
        assert!((d.client_ratio() - 0.999).abs() < 1e-12);
        assert!((d.attacker_ratio() - 0.005).abs() < 1e-12);
        assert_eq!(DeliveryStats::default().client_ratio(), 0.0);
    }

    #[test]
    fn absorb_consumer_splits_by_kind() {
        let mut r = RunReport {
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        let cs = ConsumerStats {
            requested_chunks: 10,
            received_chunks: 9,
            tag_requests: 1,
            ..Default::default()
        };
        let mut latency = TimeSeries::new();
        latency.record(SimTime::from_secs(1), SimDuration::from_millis(50));
        r.absorb_consumer(ConsumerKind::Client, cs, &latency);
        let att = ConsumerStats {
            requested_chunks: 5,
            ..Default::default()
        };
        r.absorb_consumer(
            ConsumerKind::Attacker(crate::consumer::AttackerStrategy::NoTag),
            att,
            &latency,
        );
        assert_eq!(r.delivery.client_requested, 10);
        assert_eq!(r.delivery.attacker_requested, 5);
        assert_eq!(r.latency.len(), 1, "only clients' latencies count");
        assert_eq!(r.tag_requests, 1);
        assert!((r.tag_request_rate() - 0.1).abs() < 1e-12);
        assert_eq!(r.consumers.len(), 2);
    }

    #[test]
    fn reset_means() {
        let mut r = RunReport::default();
        (r.edge_ops.reset_requests, r.edge_ops.bf_resets) = (60, 3);
        assert_eq!(r.edge_requests_per_reset(), 20.0);
        assert_eq!(r.core_requests_per_reset(), 0.0);
    }
}
