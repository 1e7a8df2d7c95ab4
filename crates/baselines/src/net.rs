//! The baseline node plane: vanilla NDN routers plus one of the
//! [`Mechanism`] baselines, hosted by the *same* [`tactic_net::harness`]
//! and transport as the TACTIC simulation.
//!
//! Because both planes run on one harness and one event loop, "same
//! topologies, link models, and Zipf-window workload" is structural: the
//! comparison in the paper's motivation (§1) — how much bandwidth
//! client-side AC wastes on unauthorized users, how much load/latency
//! always-online provider auth costs — differs only in node logic, which
//! is all this module holds.

use std::sync::Arc;

use tactic::scenario::Scenario;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::{process_data, process_interest, InterestAction, Tables};
use tactic_ndn::packet::Packet;
use tactic_net::harness::{self, fan_out, FleetNode, Node, Plane, RunSpec, Shard, Station, World};
use tactic_net::{
    Emit, NoopObserver, PlaneCtx, RequestPolicy, ShardedStats, TransportReport, ZipfRequester,
};
use tactic_sim::stats::{ratio, TimeSeries};
use tactic_telemetry::{
    Hop, NodeRole, NoopProtocolObserver, ProtocolObserver, SampleRow, SpanProfiler,
};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::shard::ShardError;

use crate::adversary::BaselineAdversary;
use crate::mechanism::Mechanism;
use crate::provider::BaselineProvider;

/// What one baseline run measured.
#[derive(Clone, Default)]
pub struct BaselineReport {
    /// The mechanism simulated.
    pub mechanism_name: String,
    /// Chunks requested by clients.
    pub client_requested: u64,
    /// Chunks received by clients.
    pub client_received: u64,
    /// Chunks requested by attackers.
    pub attacker_requested: u64,
    /// Chunks delivered to attackers (for `ClientSideAc` these are the
    /// wasted encrypted deliveries; for `ProviderAuthAc` they should be 0).
    pub attacker_received: u64,
    /// Bytes of payload delivered to attackers.
    pub attacker_bytes: u64,
    /// Content requests the provider itself had to answer.
    pub provider_handled: u64,
    /// Per-request authentications performed by providers.
    pub provider_auth_ops: u64,
    /// Client retrieval latency, per second: every client's series
    /// merged in node order.
    pub latency: TimeSeries,
    /// Aggregate router cache hits.
    pub cache_hits: u64,
    /// Aggregate router cache misses.
    pub cache_misses: u64,
    /// Engine events processed.
    pub events: u64,
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
    /// extension; zero without a retransmission policy).
    pub client_retransmitted: u64,
    /// Client chunks abandoned after exhausting the retransmission budget.
    pub client_gave_up: u64,
    /// Client requests whose latest attempt expired.
    pub client_timeouts: u64,
    /// High-water mark of content-store entries summed over every router,
    /// sampled at the periodic purge sweeps (observability extension).
    pub peak_cs_entries: u64,
    /// Deterministic sim-time samples (observability extension; empty
    /// unless the scenario sets `sample_every`).
    pub samples: Vec<SampleRow>,
    /// Wall-clock span profile (observability extension; `None` unless
    /// the scenario enables profiling). Nondeterministic — never golden.
    pub profile: Option<Box<SpanProfiler>>,
}

/// Manual `Debug`: every field except `peak_queue_depth` (a per-engine
/// quantity that depends on the shard partition) and the observability
/// extensions (`peak_cs_entries`, `samples`, `profile`) — excluding
/// them keeps formatted reports (golden snapshots, equivalence diffs)
/// byte-identical across shard counts and sampler settings.
impl std::fmt::Debug for BaselineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineReport")
            .field("mechanism_name", &self.mechanism_name)
            .field("client_requested", &self.client_requested)
            .field("client_received", &self.client_received)
            .field("attacker_requested", &self.attacker_requested)
            .field("attacker_received", &self.attacker_received)
            .field("attacker_bytes", &self.attacker_bytes)
            .field("provider_handled", &self.provider_handled)
            .field("provider_auth_ops", &self.provider_auth_ops)
            .field("latency", &self.latency)
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("events", &self.events)
            .field("drops", &self.drops)
            .field("peak_pit_records", &self.peak_pit_records)
            .field("client_retransmitted", &self.client_retransmitted)
            .field("client_gave_up", &self.client_gave_up)
            .field("client_timeouts", &self.client_timeouts)
            .finish()
    }
}

impl BaselineReport {
    /// Clients' delivery ratio.
    pub fn client_ratio(&self) -> f64 {
        ratio(self.client_received, self.client_requested)
    }

    /// Attackers' delivery ratio.
    pub fn attacker_ratio(&self) -> f64 {
        ratio(self.attacker_received, self.attacker_requested)
    }

    /// Mean client retrieval latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        self.latency.overall_mean()
    }

    /// Router cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }
}

/// One baseline run: the same [`Scenario`] shape the TACTIC simulation
/// uses (tag-related fields are ignored; mobility, faults, attacks and
/// defenses are honoured through the shared harness) under one
/// [`Mechanism`].
///
/// Reports to a [`ProtocolObserver`] so telemetry can watch the same
/// decision points the TACTIC plane exposes. Baseline routers carry no
/// edge/core distinction in their logic, so all router hops are stamped
/// [`NodeRole::CoreRouter`].
#[derive(Debug, Clone, Copy)]
pub struct BaselineSpec<'a> {
    /// The scenario.
    pub scenario: &'a Scenario,
    /// The mechanism.
    pub mechanism: Mechanism,
}

impl<'a> BaselineSpec<'a> {
    /// `mechanism` over `scenario`.
    pub fn new(scenario: &'a Scenario, mechanism: Mechanism) -> Self {
        BaselineSpec {
            scenario,
            mechanism,
        }
    }
}

/// This plane's RNG stream (see [`RunSpec::stream`]).
const PLANE_STREAM: u64 = 0xBA5E_11E5;

impl Plane for BaselineSpec<'_> {
    type Router = Tables;
    type Note = Vec<u8>;
    type Provider = BaselineProvider;
    type User = ZipfRequester;
    type Driver = BaselineAdversary;
    type Report = BaselineReport;

    fn run_spec(&self) -> RunSpec {
        self.scenario.run_spec(PLANE_STREAM)
    }

    fn tables(router: &mut Tables) -> &mut Tables {
        router
    }

    fn on_packet<PO: ProtocolObserver>(
        &self,
        station: Station<'_, Self>,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        proto: &mut PO,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let now = ctx.now;
        let node_id = node.index() as u64;
        match station {
            Station::Router(tables) => {
                let hop = Hop::new(node_id, NodeRole::CoreRouter, now);
                match packet {
                    Packet::Interest(i) => {
                        proto.on_interest_hop(hop, i.nonce(), i.name());
                        match process_interest(tables, &i, face, now, Vec::new()) {
                            InterestAction::ReplyFromCache(d) => {
                                proto.on_cache_hit(hop, d.name());
                                out.push(Emit::send(face, Packet::Data(d)));
                            }
                            // Relay the Interest by move: no copy made.
                            InterestAction::Forward(f) => {
                                out.push(Emit::send(f, Packet::Interest(i)))
                            }
                            _ => {}
                        }
                    }
                    Packet::Data(d) => {
                        let pending = process_data(tables, &d, now).downstream;
                        fan_out(pending.iter().map(|rec| rec.face), d, Packet::Data, out);
                    }
                    Packet::Nack(_) => {}
                }
                // Bounded-PIT enforcement (no-op when unbounded): evicted
                // records surface through the shared drop ledger.
                for evicted in tables.pit.evict_over_capacity() {
                    ctx.drops.pit_full += evicted.records().len() as u64;
                }
            }
            Station::Provider(p) => {
                if let Packet::Interest(i) = &packet {
                    let hop = Hop::new(node_id, NodeRole::Provider, now);
                    proto.on_interest_hop(hop, i.nonce(), i.name());
                    let auth_before = p.auth_ops;
                    let (reply, charge) = p.handle(i, self.mechanism, ctx.rng, ctx.cost);
                    if p.auth_ops > auth_before {
                        proto.on_sig_verify(hop, reply.is_some(), false);
                    }
                    if let Some(d) = reply {
                        out.push(Emit::Send {
                            face,
                            packet: Packet::Data(d),
                            compute: charge,
                        });
                    }
                }
            }
        }
    }

    fn report(
        &self,
        nodes: Vec<Node<Self>>,
        peak_pit: u64,
        peak_cs: u64,
        transport: TransportReport,
    ) -> BaselineReport {
        let mut report = BaselineReport {
            mechanism_name: self.mechanism.to_string(),
            events: transport.events,
            peak_queue_depth: transport.peak_queue_depth,
            drops: transport.drops,
            peak_pit_records: peak_pit,
            peak_cs_entries: peak_cs,
            samples: transport.samples,
            profile: transport.profile,
            ..Default::default()
        };
        for node in &nodes {
            if let Some(r) = node.user() {
                if r.is_client {
                    report.client_requested += r.requested;
                    report.client_received += r.received;
                    report.client_retransmitted += r.retransmitted;
                    report.client_gave_up += r.gave_up;
                    report.client_timeouts += r.timeouts;
                    report.latency.merge(&r.latency);
                } else {
                    report.attacker_requested += r.requested;
                    report.attacker_received += r.received;
                    report.attacker_bytes += r.received_bytes;
                }
                continue;
            }
            match node {
                Node::Router(t) => {
                    report.cache_hits += t.cs.hits();
                    report.cache_misses += t.cs.misses();
                }
                Node::Provider(p) => {
                    report.provider_handled += p.handled;
                    report.provider_auth_ops += p.auth_ops;
                }
                _ => {}
            }
        }
        report
    }

    fn build(&self, shard: &Shard<'_>) -> Vec<Node<Self>> {
        let BaselineSpec {
            scenario,
            mechanism,
        } = *self;
        let World { rng, topo, .. } = shard.world;
        let catalog = &shard.catalog;

        let clients: std::collections::HashSet<u64> =
            topo.clients.iter().map(|c| c.index() as u64).collect();

        // Routers: disable caching entirely for provider-auth (protected
        // content must reach the provider).
        let cs_capacity = if mechanism.caches_protected_content() {
            scenario.cs_capacity
        } else {
            0
        };

        // Every user asks under one policy.
        let policy = Arc::new(RequestPolicy {
            catalog: catalog.clone(),
            window: scenario.window,
            timeout: scenario.request_timeout,
            per_session_names: mechanism.per_request_provider_auth(),
            retransmit: scenario.retransmit,
        });

        // No node's construction touches another's, so each owned node
        // is built in place, by role.
        (shard.nodes())
            .map(|node| {
                let role = topo.graph.role(node);
                match role {
                    Role::CoreRouter | Role::EdgeRouter => {
                        let mut tables = Box::new(Tables::new(cs_capacity));
                        tables.pit.set_capacity(scenario.defense.pit_capacity);
                        Node::Router(tables)
                    }
                    Role::Provider => {
                        let listed = topo.providers.iter().position(|&p| p == node);
                        Node::Provider(Box::new(BaselineProvider::new(
                            catalog.clone(),
                            listed.expect("a provider is listed"),
                            scenario.chunk_size,
                            clients.clone(),
                        )))
                    }
                    Role::Client | Role::Attacker => {
                        let principal = node.index() as u64;
                        // Adversarial fleet: an active plan fields every
                        // attacker as an open-loop traffic source
                        // ([`crate::adversary`]), exactly as on the
                        // TACTIC plane.
                        match scenario.attack.fleet_class() {
                            Some(class) if role == Role::Attacker => {
                                let driver = BaselineAdversary::new(class);
                                let intensity = scenario.attack.intensity;
                                let fleet =
                                    FleetNode::new(principal, intensity, &policy, rng, driver);
                                Node::Fleet(Box::new(fleet))
                            }
                            _ => Node::User(Box::new(ZipfRequester::new(
                                principal,
                                role == Role::Client,
                                Arc::clone(&policy),
                                rng.fork(0x200 + principal),
                            ))),
                        }
                    }
                    // The harness builds access points.
                    Role::AccessPoint => Node::Vacant,
                }
            })
            .collect()
    }
}

/// Builds and runs one baseline.
pub fn run_baseline(scenario: &Scenario, mechanism: Mechanism, seed: u64) -> BaselineReport {
    let spec = BaselineSpec::new(scenario, mechanism);
    let assembled = harness::assemble(&spec, seed, NoopObserver, NoopProtocolObserver);
    assembled.run().0
}

/// Convenience: [`tactic_net::harness::run`] on a [`BaselineSpec`] with
/// no observers. The [`BaselineReport`] is byte-identical to
/// [`run_baseline`]'s for every shard count.
///
/// # Errors
///
/// A [`ShardError`] when `shards` does not fit the topology.
pub fn run_baseline_sharded(
    scenario: &Scenario,
    mechanism: Mechanism,
    seed: u64,
    shards: usize,
) -> Result<(BaselineReport, ShardedStats), ShardError> {
    let spec = BaselineSpec::new(scenario, mechanism);
    let (report, _, _, stats) = harness::run(
        &spec,
        seed,
        shards,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
    )?;
    Ok((report, stats))
}
