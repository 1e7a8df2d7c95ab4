//! The TACTIC node plane: routers running Protocols 1–4, providers issuing
//! tags, access points accumulating the access path, and Zipf-window
//! consumers — hosted by the shared [`tactic_net::harness`].
//!
//! This is the reproduction's equivalent of the paper's ndnSIM scenario:
//! the transport supplies store-and-forward links with per-link FIFO
//! serialisation (500 Mbps/1 ms core, 10 Mbps/2 ms edge) and the
//! mobility/handover model, the harness supplies world construction, the
//! edge, sharding and the bookkeeping every mechanism shares; this module
//! supplies only what is TACTIC-specific — the node states, their packet
//! reactions, the access path and tag identity at an access point, the
//! node factory and the report fold.

use std::sync::Arc;

use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::Tables;
use tactic_ndn::packet::Packet;
use tactic_net::harness::{
    self, Assembled, FleetNode, Node, Plane, RunSpec, Shard, Station, World,
};
use tactic_net::{
    AttackClass, Emit, NoopObserver, Pacer, PlaneCtx, RequestPolicy, ShardedStats, TransportReport,
    ATTACK_STREAM,
};
use tactic_sim::time::SimTime;
use tactic_telemetry::{ratio_to_fp, NoopProtocolObserver, ProtocolObserver, SampleRow};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::shard::ShardError;

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::adversary::{self, AdversaryDriver};
use crate::consumer::{AttackerStrategy, Consumer, ConsumerKind};
use crate::ext;
use crate::metrics::RunReport;
use crate::provider::{Provider, ProviderConfig, Registry};
use crate::router::{self, RouterConfig, RouterRole, TacticRouter, TagNote};
use crate::scenario::{Scenario, TagLifetimePolicy};
use crate::tag::SignedTag;

/// The dedicated RNG stream for tag-lifecycle jitter (xor'd with the
/// consumer's principal). Forked only while a churn
/// [`TagLifetimePolicy`] is active, so [`TagLifetimePolicy::Fixed`] runs
/// draw nothing from it and stay byte-identical to builds that predate
/// the lifecycle layer.
pub const LIFECYCLE_STREAM: u64 = 0x11FE_C7C1_E000_0001;

/// This plane's RNG stream (see [`RunSpec::stream`]).
const PLANE_STREAM: u64 = 0x7AC7_1C00;

/// A [`Scenario`] *is* the TACTIC plane: the harness builds it, hosts
/// its [`TacticRouter`]s, [`Provider`]s and [`Consumer`]s, reports their
/// protocol decisions to whatever [`ProtocolObserver`] the run carries,
/// and folds them into a [`RunReport`].
impl Plane for Scenario {
    type Router = TacticRouter;
    type Note = TagNote;
    type Provider = Provider;
    type User = Consumer;
    type Driver = AdversaryDriver;
    type Report = RunReport;

    fn run_spec(&self) -> RunSpec {
        Scenario::run_spec(self, PLANE_STREAM)
    }

    fn tables(router: &mut TacticRouter) -> &mut Tables<TagNote> {
        router.tables_mut()
    }

    fn sample(router: &TacticRouter, row: &mut SampleRow) {
        let cache = router.validation_cache();
        row.bf_set_bits += cache.set_bits() as u64;
        row.bf_bits += cache.bit_count() as u64;
        row.bf_fpp_fp += ratio_to_fp(cache.estimated_fpp());
        row.bf_occ_max_fp = row.bf_occ_max_fp.max(ratio_to_fp(cache.occupancy()));
        row.bf_resets += router.counters().bf_resets;
        row.bf_rotations += router.counters().bf_rotations;
        row.bf_routers += 1;
    }

    /// An access point extends an Interest's access path with its own
    /// id (§4.A) and tells replies apart by the client identity of the
    /// tag they echo.
    fn at_access_point(ap: NodeId, packet: &mut Packet) -> Option<u64> {
        let tag = match packet {
            Packet::Interest(i) => {
                let path = ext::interest_access_path(i).extended(ap.0 as u64);
                ext::set_interest_access_path(i, path);
                ext::interest_tag(i)
            }
            Packet::Data(d) => ext::data_tag(d),
            Packet::Nack(n) => ext::interest_tag(n.interest()),
        };
        tag.as_deref().map(SignedTag::client_identity)
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
        let node_id = node.index() as u64;
        match station {
            Station::Router(r) => {
                // The router hands its packets straight to the transport's
                // buffer; what they all share — the computation time the
                // whole handler charged — is known only once it returns.
                let first = out.len();
                let send = &mut |face, packet| out.push(Emit::send(face, packet));
                let charged = r.handle(packet, face, node_id, proto, ctx, send);
                for emit in &mut out[first..] {
                    if let Emit::Send { compute, .. } = emit {
                        *compute = charged;
                    }
                }
            }
            Station::Provider(p) => {
                if let Packet::Interest(i) = &packet {
                    let (reply, compute) = p.handle(i, node_id, proto, ctx);
                    out.extend(reply.map(|packet| Emit::Send {
                        face,
                        packet,
                        compute,
                    }));
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
    ) -> RunReport {
        let mut report = RunReport {
            duration: self.duration,
            events: transport.events,
            moves: transport.moves,
            peak_queue_depth: transport.peak_queue_depth,
            drops: transport.drops,
            peak_pit_records: peak_pit,
            peak_cs_entries: peak_cs,
            samples: transport.samples,
            profile: transport.profile,
            ..Default::default()
        };
        for (idx, state) in nodes.into_iter().enumerate() {
            if let Some(c) = state.user() {
                report.absorb_consumer(c.kind(), c.stats(), c.latency());
                continue;
            }
            match state {
                Node::Router(r) => {
                    for &(identity, observed_path, at) in r.sightings() {
                        report.sightings.push(crate::traitor::Sighting {
                            identity,
                            observed_path,
                            edge_router: idx as u64,
                            at,
                        });
                    }
                    if r.role() == RouterRole::Edge {
                        report.edge_ops.merge(r.counters());
                    } else {
                        report.core_ops.merge(r.counters());
                    }
                }
                Node::Provider(p) => report.providers.merge(p.counters()),
                _ => {}
            }
        }
        report
    }

    fn build(&self, shard: &Shard<'_>) -> Vec<Node<Self>> {
        let scenario = self;
        let World {
            seed, rng, topo, ..
        } = shard.world;
        let catalog = &shard.catalog;
        let mut nodes: Vec<Node<Self>> = shard.nodes().map(|_| Node::Vacant).collect();

        // PKI: one ISP trust anchor; every provider certified.
        let anchor = KeyPair::derive(b"isp-trust-anchor", *seed);
        let mut certs = CertStore::new();
        certs.add_anchor(anchor.public());

        // Providers: all of them, here, because building a user below
        // may have each sign it a tag. What that leaves in a provider
        // (its issued count) matters where the provider is owned, the
        // tag where its holder is; the rest is skipped.
        let mut providers: Vec<Provider> = Vec::with_capacity(topo.providers.len());
        for entry in catalog.entries() {
            let config = ProviderConfig {
                prefix: entry.prefix.clone(),
                objects: entry.objects,
                chunks_per_object: entry.chunks,
                chunk_size: scenario.chunk_size,
                tag_validity: scenario.effective_tag_validity(),
                access_levels: scenario.content_levels.clone(),
            };
            let provider = Provider::new(config);
            certs
                .register(Certificate::issue(
                    entry.prefix.to_string(),
                    provider.keypair().public(),
                    &anchor,
                ))
                .expect("anchor-signed cert");
            providers.push(provider);
        }
        let provider_here: Vec<bool> = topo.providers.iter().map(|&p| shard.owns(p)).collect();
        // Entitlements: each grant recorded once, in the one table every
        // provider kept here shares; a shard that keeps none records none.
        let registry_here = provider_here.contains(&true);
        let mut registry = Registry::new();
        let mut grant = |principal, level| {
            if registry_here {
                registry.insert(principal, level);
            }
        };
        // The access path a tag issued to the user at `node` is bound to.
        let path_of = |node| match scenario.access_path_enabled {
            true => AccessPath::of([topo.access_point_of(node).0 as u64]),
            false => AccessPath::EMPTY,
        };
        // Provider `idx` issues `who` a tag for the user at `holder` to
        // present: `Some` where the holder is.
        let issue = |providers: &mut [Provider], idx: usize, holder, who, path, expiry| {
            let holder_here = shard.owns(holder);
            if !holder_here && !provider_here[idx] {
                return None;
            }
            let tag = providers[idx].issue_tag(who, scenario.client_level, path, expiry);
            holder_here.then_some(tag)
        };

        // Routers.
        let provider_keys = router::provider_keys(&certs);
        for (rnode, role) in (topo.core_routers.iter().map(|&r| (r, RouterRole::Core)))
            .chain(topo.edge_routers.iter().map(|&r| (r, RouterRole::Edge)))
        {
            let Some(slot) = shard.slot(rnode) else {
                continue;
            };
            let config = RouterConfig {
                role,
                bf_params: scenario.bf_params(),
                cache_policy: scenario.cache_policy,
                track_revalidations: scenario.track_revalidations,
                cs_capacity: scenario.cs_capacity,
                access_path_enabled: scenario.access_path_enabled,
                flag_f_enabled: scenario.flag_f_enabled,
                content_nack_enabled: scenario.content_nack_enabled,
                record_sightings: scenario.record_sightings,
                pit_capacity: scenario.defense.pit_capacity,
            };
            let mut router = Box::new(TacticRouter::with_keys(config, provider_keys.clone()));
            for (face_idx, &(peer, _)) in shard.faces(rnode).iter().enumerate() {
                if topo.graph.role(peer) == Role::AccessPoint {
                    router.mark_downstream(FaceId::new(face_idx as u32));
                }
            }
            nodes[slot] = Node::Router(router);
        }

        // Consumers, all under one request policy.
        let policy = Arc::new(RequestPolicy {
            catalog: catalog.clone(),
            window: scenario.window,
            timeout: scenario.request_timeout,
            per_session_names: false,
            retransmit: scenario.retransmit,
        });
        let user_list = (topo.clients.iter().map(|&c| (c, ConsumerKind::Client))).chain(
            topo.attackers.iter().enumerate().map(|(i, &a)| {
                let strat = scenario.attacker_mix[i % scenario.attacker_mix.len()];
                (a, ConsumerKind::Attacker(strat))
            }),
        );
        for (unode, kind) in user_list {
            let principal = unode.index() as u64;
            let slot = shard.slot(unode);
            let mut consumer = slot.map(|_| {
                let stream = rng.fork(0x100 + principal);
                let policy = Arc::clone(&policy);
                let mut consumer = Box::new(Consumer::new(principal, kind, policy, stream));
                if let TagLifetimePolicy::Churn { lead, jitter, .. } = scenario.lifetime {
                    if kind == ConsumerKind::Client {
                        let stream = rng.fork(LIFECYCLE_STREAM ^ principal);
                        consumer.enable_renewal(lead, jitter, stream);
                    }
                }
                consumer
            });
            let mut preset = |providers: &mut [Provider], who, path, expiry| {
                for idx in 0..providers.len() {
                    if let Some(tag) = issue(providers, idx, unode, who, path, expiry) {
                        let holder = consumer.as_mut().expect("a tag comes back to its holder");
                        holder.preset_tag(idx, tag);
                    }
                }
            };
            let own_ap = topo.access_point_of(unode);
            match kind {
                ConsumerKind::Client => grant(principal, scenario.client_level),
                // A "freemium" principal: registered, bottom level.
                ConsumerKind::Attacker(AttackerStrategy::InsufficientLevel) => {
                    grant(principal, AccessLevel::Public)
                }
                ConsumerKind::Attacker(AttackerStrategy::ExpiredTag) => {
                    // A revoked client clinging to a once-genuine tag.
                    let expiry = SimTime::from_nanos(1);
                    preset(&mut providers, principal, path_of(unode), expiry);
                }
                ConsumerKind::Attacker(AttackerStrategy::SharedTag) => {
                    // A tag genuinely issued to a VICTIM client behind a
                    // different access point, shared with this attacker
                    // (§3.C threat (e)). Valid for the whole run so the
                    // access path / traitor tracing are the only defences.
                    // The victim keeps using her own identity too, which is
                    // what traitor tracing latches onto.
                    let victim = topo
                        .clients
                        .iter()
                        .copied()
                        .find(|&c| topo.access_point_of(c) != own_ap)
                        .or_else(|| topo.clients.first().copied());
                    let (victim_principal, victim_path) = match victim {
                        Some(v) => {
                            let vap = topo.access_point_of(v);
                            (v.0 as u64, AccessPath::of([vap.0 as u64]))
                        }
                        // Degenerate topology without clients: fall back to
                        // a fabricated absent principal.
                        None => (principal ^ 0xDEAD, AccessPath::EMPTY),
                    };
                    let expiry = SimTime::ZERO + scenario.duration;
                    preset(&mut providers, victim_principal, victim_path, expiry);
                }
                ConsumerKind::Attacker(_) => {}
            }
            if let (Some(slot), Some(consumer)) = (slot, consumer) {
                nodes[slot] = Node::User(consumer);
            }
        }

        // Adversarial fleet: an active plan repurposes every attacker
        // into an open-loop traffic source ([`crate::adversary`]).
        // Credentials are issued here because only the assembly holds
        // the providers' signing state.
        if let Some(class) = scenario.attack.fleet_class() {
            let lifetime_ms = (scenario.request_timeout.as_nanos() / 1_000_000) as u32;
            let horizon = SimTime::ZERO + scenario.duration;
            for &anode in &topo.attackers {
                let (principal, path) = (anode.index() as u64, path_of(anode));
                let mut issue = |idx: usize, who: u64, expiry: SimTime| {
                    let tag = issue(&mut providers, idx, anode, who, path, expiry)?;
                    Some((idx, Arc::new(tag)))
                };
                let issued: Vec<(usize, Arc<SignedTag>)> = match class {
                    AttackClass::Flood => (0..topo.providers.len())
                        .filter_map(|idx| issue(idx, principal, horizon))
                        .collect(),
                    AttackClass::ReplayExpired => (0..topo.providers.len())
                        .filter_map(|idx| issue(idx, principal, SimTime::from_nanos(1)))
                        .collect(),
                    AttackClass::BfPollution => (0..adversary::POLLUTION_POOL)
                        .filter_map(|k| {
                            // Distinct synthetic principals yield
                            // distinct (still genuinely signed) tags.
                            let who = principal ^ ((k as u64 + 1) << 32);
                            issue(k % topo.providers.len(), who, horizon)
                        })
                        .collect(),
                    AttackClass::ForgeTags => Vec::new(),
                    AttackClass::Churn => unreachable!("churn fields no traffic fleet"),
                };
                let Some(slot) = shard.slot(anode) else {
                    continue;
                };
                let slot = &mut nodes[slot];
                if let Node::User(user) = std::mem::replace(slot, Node::Vacant) {
                    let driver = AdversaryDriver::new(
                        class,
                        principal,
                        lifetime_ms,
                        rng.fork(ATTACK_STREAM ^ principal),
                        catalog.clone(),
                        issued,
                    );
                    *slot = Node::Fleet(Box::new(FleetNode {
                        user: *user,
                        driver,
                        pacer: Pacer::new(scenario.attack.intensity),
                    }));
                }
            }
        }

        let registry = Arc::new(registry);
        for (mut provider, &pnode) in providers.into_iter().zip(&topo.providers) {
            if let Some(slot) = shard.slot(pnode) {
                provider.share_registry(Arc::clone(&registry));
                nodes[slot] = Node::Provider(Box::new(provider));
            }
        }
        nodes
    }
}

/// The assembled simulation, every node built and not yet run: the
/// eager half of [`run_scenario`], so set-up and run can be timed apart.
/// For observers or shards use [`tactic_net::harness::run`] on the
/// [`Scenario`] directly.
pub struct Network<'a>(Assembled<'a, Scenario>);

impl Network<'_> {
    /// Builds the network for `scenario` with the given seed.
    pub fn build(scenario: &Scenario, seed: u64) -> Network<'_> {
        Network(harness::assemble(
            scenario,
            seed,
            NoopObserver,
            NoopProtocolObserver,
        ))
    }

    /// Runs to the horizon and aggregates the [`RunReport`].
    pub fn run(self) -> RunReport {
        self.0.run().0
    }
}

/// Convenience: build and run a scenario with one seed.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> RunReport {
    Network::build(scenario, seed).run()
}

/// Convenience: [`tactic_net::harness::run`] with no observers. The
/// [`RunReport`] is byte-identical to [`run_scenario`]'s for every shard
/// count.
///
/// # Errors
///
/// A [`ShardError`] when `shards` does not fit the topology.
pub fn run_scenario_sharded(
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) -> Result<(RunReport, ShardedStats), ShardError> {
    let (report, _, _, stats) = harness::run(
        scenario,
        seed,
        shards,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
    )?;
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use tactic_ndn::records::Records;
    use tactic_topology::graph::LinkSpec;

    use super::*;

    // Every shard holds one slot per node it owns: a tag and a box or an
    // arena index (56 B while an access point's relay and a fleet node's
    // pacer sat in the slot). See `tactic::consumer`'s and
    // `tactic_net::requester`'s twin pins.
    const _: () = assert!(size_of::<Node<Scenario>>() == 16);

    #[test]
    fn node_slots_stay_small() {
        // Beside its slot (pinned above), each node has a row in each link
        // table: a user's one link fits in the row itself.
        let row = size_of::<Records<(NodeId, LinkSpec)>>();
        assert!(row <= 32, "a Links row is {row} B");
    }
}
