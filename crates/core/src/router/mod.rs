//! The TACTIC router: Protocols 2 (edge), 3 (content), and 4
//! (intermediate) over the NDN tables.
//!
//! One [`TacticRouter`] type covers all three roles because the roles are
//! situational: a router is a *content* router for names it has cached, an
//! *intermediate* router otherwise, and an *edge* router additionally runs
//! Protocol 2 on Interests arriving from its client-side (downstream)
//! faces. Routers are pure state machines — [`TacticRouter::handle`] hands
//! the packets to emit to the caller's sink and returns the sampled
//! computation delay — so the protocols are testable without the event
//! engine, and a warmed router handles a packet without touching the
//! allocator.
//!
//! The code is laid out by protocol, each opening with the Protocol 1
//! pre-check of [`crate::precheck`]:
//!
//! - this module: configuration, counters, the entry point, the shared
//!   validation steps, Protocol 4's Interest side (PIT aggregation, FIB
//!   forwarding, `NoRoute`) and the NACK relay;
//! - `edge`: Protocol 2 — access-path authentication, the edge
//!   pre-check, setting `F`, and the filter inserts on echoed and
//!   registration responses;
//! - `content`: the one authorisation order and reply rule that Protocol
//!   3 (a content-store hit) and Protocol 4's Data side (each aggregated
//!   requester) share.

mod content;
mod edge;

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use tactic_bloom::{BloomParams, CacheChurn, CachePolicy, ValidationCache};
use tactic_crypto::cert::CertStore;
use tactic_crypto::schnorr::PublicKey;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::Tables;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Nack, NackReason, Packet};
use tactic_ndn::pit::PitInsert;
use tactic_ndn::table::NameTable;
use tactic_net::{DropTotals, PlaneCtx};
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    BfOutcome, Hop, NodeRole, NoopProtocolObserver, PrecheckStage, ProtocolObserver,
};

use crate::ext;
use crate::precheck::{self, PreCheckError};
use crate::tag::SignedTag;

/// Whether a router is a designated edge router (`R_E`) or a core router
/// (`R_C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterRole {
    /// Designated edge router: runs Protocol 2 on downstream Interests.
    Edge,
    /// Core router: Protocol 3 when it has the content, Protocol 4
    /// otherwise.
    Core,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Edge or core.
    pub role: RouterRole,
    /// Bloom-filter sizing (the paper's default: 500-tag capacity, k = 5,
    /// max FPP 1e-4).
    pub bf_params: BloomParams,
    /// Content-store capacity in packets.
    pub cs_capacity: usize,
    /// Enforce access-path authentication at edge routers (§4.A; the
    /// paper's own simulation ran with this off).
    pub access_path_enabled: bool,
    /// Honour the cooperation flag `F` (ablation: when off, content
    /// routers treat every request as unvalidated, i.e. `F = 0`).
    pub flag_f_enabled: bool,
    /// Return content *with* a NACK marker on invalid tags so downstream
    /// aggregated valid requests are still satisfied (§5.B). Ablation:
    /// when off, invalid requests are simply dropped and co-aggregated
    /// valid requesters must re-request after a timeout.
    pub content_nack_enabled: bool,
    /// Record `(identity, observed path, time)` sightings of tagged
    /// requests at edge routers, feeding the traitor-tracing extension
    /// (`crate::traitor`). Off by default.
    pub record_sightings: bool,
    /// Bound on live PIT entries: when an Interest pushes the table over
    /// this capacity the oldest entry is evicted deterministically (see
    /// [`tactic_ndn::pit::Pit::evict_over_capacity`]). `None` (the
    /// default) keeps the historical unbounded PIT at zero cost.
    pub pit_capacity: Option<usize>,
    /// Validation-cache shape: the paper's one filter, reset when
    /// saturated (the default), or `G` rotating generations in each of
    /// `P` prefix partitions (see [`ValidationCache`]).
    pub cache_policy: CachePolicy,
    /// Remember which tags this router has already signature-verified,
    /// so verifying an *already-seen* tag again — work forced by a
    /// cache reset or rotation that evicted still-valid state — counts
    /// into [`OpCounters::evicted_revalidations`]. Off by default: the
    /// tracking set costs memory per validated tag and only the
    /// `tagscale` experiment reads the counter.
    pub track_revalidations: bool,
}

impl RouterConfig {
    /// The paper's configuration for the given role.
    pub fn paper(role: RouterRole) -> Self {
        RouterConfig {
            role,
            bf_params: BloomParams::paper(500),
            cs_capacity: 1_000,
            access_path_enabled: false,
            flag_f_enabled: true,
            content_nack_enabled: true,
            record_sightings: false,
            pit_capacity: None,
            cache_policy: CachePolicy::MonolithicReset,
            track_revalidations: false,
        }
    }
}

tactic_telemetry::counter_set! {
    /// Operation counters — the quantities plotted in Fig. 7 / Fig. 8 /
    /// Table V.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpCounters {
        /// Bloom-filter lookups on the first-validation path (`L`).
        bf_lookups: Add, Always;
        /// Bloom-filter lookups attributable to the probabilistic `F > 0`
        /// re-validation path at content routers — split out of `L` so
        /// re-validation work is separately countable; Fig. 7 merges the two
        /// back into its `L` column.
        bf_lookups_reval: Add, Always;
        /// Bloom-filter insertions (`I`).
        bf_insertions: Add, Always;
        /// Signature verifications on the first-validation path (`V`).
        sig_verifications: Add, Always;
        /// Signature verifications performed as probabilistic `F > 0`
        /// re-validations at content routers (Protocol 3 lines 11-12 and the
        /// aggregated-requester equivalent) — split out of `V`; Fig. 7
        /// merges them back into its `V` column.
        revalidations: Add, Always;
        /// Bloom-filter resets.
        bf_resets: Add, Always;
        /// Requests absorbed before each Bloom-filter reset, summed over
        /// the resets: Fig. 8's requests per reset is this over
        /// `bf_resets`. Requests since the last reset are not in it.
        reset_requests: Add, Always;
        /// Validation-cache generation rotations — the generational
        /// policy's partial evictions (always 0 under the default
        /// monolithic policy).
        bf_rotations: Add, Always;
        /// Signature verifications of tags this router had *already*
        /// verified once — re-validation work forced by a reset or rotation
        /// that evicted still-valid state. Counted only when
        /// [`RouterConfig::track_revalidations`] is on (0 otherwise).
        evicted_revalidations: Add, Always;
        /// Interests processed.
        interests: Add, Always;
        /// Data packets processed.
        data: Add, Always;
        /// Requests rejected by the Protocol 1 pre-check.
        precheck_rejections: Add, Always;
        /// Pre-check failures caused specifically by an expired tag
        /// (`T_e < T_current`, [`PreCheckError::Expired`]) — the replay
        /// defence the adversarial suite exercises, kept distinct from
        /// invalid-signature rejections. Counted at both the edge Interest
        /// pre-check and the aggregated-requester Data-path pre-check.
        expired_rejections: Add, Always;
        /// Requests rejected by access-path authentication.
        ap_rejections: Add, Always;
        /// NACKs emitted (standalone or content-attached).
        nacks: Add, Always;
        /// Content-store hits.
        cache_hits: Add, Always;
    }
}

impl OpCounters {
    /// First-validation plus re-validation BF lookups — Fig. 7's merged
    /// `L` column.
    pub fn total_bf_lookups(&self) -> u64 {
        self.bf_lookups + self.bf_lookups_reval
    }

    /// First-validation plus re-validation signature verifications —
    /// Fig. 7's merged `V` column.
    pub fn total_sig_verifications(&self) -> u64 {
        self.sig_verifications + self.revalidations
    }
}

/// What a handler wants transmitted, plus the computation time it charged
/// — what the sink-less convenience handlers return.
#[derive(Debug, Clone, Default)]
pub struct RouterOutput {
    /// `(out_face, packet)` pairs to transmit.
    pub sends: Vec<(FaceId, Packet)>,
    /// Total sampled computation delay for this packet's processing.
    pub compute: SimDuration,
    /// Pending records evicted because this packet pushed a bounded PIT
    /// over capacity (zero on the default unbounded configuration). The
    /// plane folds these into its drop accounting as `PitFull`.
    pub pit_evictions: u64,
}

impl RouterOutput {
    /// Runs [`TacticRouter::handle`] outside a transport, collecting what
    /// it sends.
    fn collect(
        router: &mut TacticRouter,
        packet: Packet,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> Self {
        let mut sends = Vec::new();
        let (compute, drops) = standalone(now, rng, cost, |ctx| {
            let send = &mut |face, packet| sends.push((face, packet));
            router.handle(packet, in_face, 0, &mut NoopProtocolObserver, ctx, send)
        });
        RouterOutput {
            sends,
            compute,
            pit_evictions: drops.pit_full,
        }
    }
}

/// Runs `f` on a transport context of its own — no profiler, drops
/// counted into a ledger returned beside `f`'s result — for handlers
/// driven outside a simulation.
pub(crate) fn standalone<T>(
    now: SimTime,
    rng: &mut Rng,
    cost: &CostModel,
    f: impl FnOnce(&mut PlaneCtx<'_>) -> T,
) -> (T, DropTotals) {
    let mut drops = DropTotals::default();
    let mut ctx = PlaneCtx {
        now,
        rng,
        cost,
        profiler: None,
        drops: &mut drops,
    };
    (f(&mut ctx), drops)
}

/// The certified provider keys by provider prefix: what a tag's
/// `N(Pub_p)` resolves against, as a name, without spelling it out.
pub type ProviderKeys = Arc<NameTable<(Name, PublicKey)>>;

/// Indexes a provider-key registry (its subjects the providers' prefixes
/// in URI form) by prefix.
pub fn provider_keys(certs: &CertStore) -> ProviderKeys {
    let by_prefix =
        (certs.certificates()).filter_map(|cert| Some((cert.subject().parse().ok()?, cert.key())));
    Arc::new(by_prefix.collect())
}

/// A TACTIC router.
pub struct TacticRouter {
    config: RouterConfig,
    tables: Tables<TagNote>,
    cache: ValidationCache,
    provider_keys: ProviderKeys,
    counters: OpCounters,
    /// Whether each face, by index, is downstream (client-side).
    downstream: Vec<bool>,
    requests_since_reset: u64,
    sightings: Vec<(u64, crate::access_path::AccessPath, SimTime)>,
    /// Tag ids this router has signature-verified at least once, for
    /// eviction-forced re-validation accounting. `None` (the default)
    /// skips all tracking.
    seen_tags: Option<HashSet<u64>>,
    /// The Data handler's reply plan, kept between packets for its
    /// capacity (always empty between packets).
    plan: Vec<content::Reply>,
}

impl std::fmt::Debug for TacticRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TacticRouter")
            .field("role", &self.config.role)
            .field("counters", &self.counters)
            .finish()
    }
}

/// The PIT in-record note: Protocol 4's `<tag, F>` pair.
///
/// Stored typed — the tag as a shared [`Arc`] handle — so aggregating a
/// request costs one refcount bump and replaying it on the Data path reads
/// the fields directly, with no serialization round-trip. `f` is always
/// written from an already-sanitized flag (see [`ext::sanitize_flag_f`]),
/// and the note never leaves the process, so no re-sanitization is needed
/// on the way out.
#[derive(Debug, Clone, Default)]
pub struct TagNote {
    /// The cooperation flag `F` recorded with the request.
    pub f: f64,
    /// The request's signed tag, if it carried one.
    pub tag: Option<Arc<SignedTag>>,
}

/// One packet's pass through a router: the stamp its hooks carry, the
/// observer and transport context it reports to and draws from, and the
/// computation time charged so far.
struct Step<'s, 'c, O> {
    hop: Hop,
    obs: &'s mut O,
    ctx: &'s mut PlaneCtx<'c>,
    compute: SimDuration,
}

impl<O> Step<'_, '_, O> {
    /// Charges the sampled cost of `op` to this packet.
    fn charge(&mut self, op: Op) {
        self.compute += self.ctx.cost.sample(op, self.ctx.rng);
    }

    /// Runs `f` under the span `span` when a profiler is attached; the
    /// disabled path (the default everywhere) costs one branch and no
    /// clock reads.
    fn timed<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        match self.ctx.profiler.as_deref_mut() {
            Some(p) => p.time(span, f),
            None => f(),
        }
    }
}

/// Hands out the packet in `slot` once per pending requester: a copy
/// before the `last` one, which takes the original by move — so only
/// genuine fan-out clones.
fn clone_unless_last<T: Clone>(slot: &mut Option<T>, last: bool) -> T {
    let packet = if last { slot.take() } else { slot.clone() };
    packet.expect("moved only at the last requester")
}

impl TacticRouter {
    /// Creates a router with the given configuration and provider-key
    /// registry (its subjects the providers' prefixes in URI form).
    pub fn new(config: RouterConfig, certs: CertStore) -> Self {
        Self::with_keys(config, provider_keys(&certs))
    }

    /// [`new`](Self::new) over a key table made once with
    /// [`provider_keys`] and shared by all the routers of a network.
    pub fn with_keys(config: RouterConfig, provider_keys: ProviderKeys) -> Self {
        let mut tables = Tables::new(config.cs_capacity);
        tables.pit.set_capacity(config.pit_capacity);
        TacticRouter {
            cache: ValidationCache::new(config.bf_params, config.cache_policy),
            tables,
            seen_tags: config.track_revalidations.then(HashSet::new),
            config,
            provider_keys,
            counters: OpCounters::default(),
            downstream: Vec::new(),
            requests_since_reset: 0,
            sightings: Vec::new(),
            plan: Vec::new(),
        }
    }

    /// The router's role.
    pub fn role(&self) -> RouterRole {
        self.config.role
    }

    /// Marks a face as downstream (client-side); edge routers run
    /// Protocol 2 on Interests arriving there.
    pub fn mark_downstream(&mut self, face: FaceId) {
        let at = face.index() as usize;
        if self.downstream.len() <= at {
            self.downstream.resize(at + 1, false);
        }
        self.downstream[at] = true;
    }

    /// Installs a FIB route.
    pub fn add_route(&mut self, prefix: Name, face: FaceId, cost: u32) {
        self.tables.fib.add_route(prefix, face, cost);
    }

    /// The operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Recorded `(identity, observed path, time)` sightings (empty unless
    /// [`RouterConfig::record_sightings`] is set).
    pub fn sightings(&self) -> &[(u64, crate::access_path::AccessPath, SimTime)] {
        &self.sightings
    }

    /// The validation cache (inspection / tests).
    pub fn validation_cache(&self) -> &ValidationCache {
        &self.cache
    }

    /// The first 8 bytes of a tag's Bloom key (itself a digest): the
    /// stable id the re-validation tracking set stores.
    fn tag_id(key: &[u8]) -> u64 {
        u64::from_le_bytes(key[..8].try_into().expect("bloom keys are 32 bytes"))
    }

    /// The NDN tables (inspection / tests).
    pub fn tables(&self) -> &Tables<TagNote> {
        &self.tables
    }

    /// The NDN tables, for the harness's periodic bookkeeping: PIT
    /// sweeps, and wholesale FIB replacement at failure instants.
    pub fn tables_mut(&mut self) -> &mut Tables<TagNote> {
        &mut self.tables
    }

    /// Handles one packet arriving on `in_face`: Interests run Protocols
    /// 1–4, Data runs the content sides of 2 and 4, and a standalone NACK
    /// is relayed to the pending requesters. Every packet to transmit goes
    /// to `send`; the protocol decisions go to `obs`, stamped with `node`,
    /// this router's id in the topology. Draws, cost samples, profiler
    /// spans and bounded-PIT evictions ([`DropTotals::pit_full`]) go
    /// through `ctx`. Returns the computation time the packet charged.
    pub fn handle<O: ProtocolObserver>(
        &mut self,
        packet: Packet,
        in_face: FaceId,
        node: u64,
        obs: &mut O,
        ctx: &mut PlaneCtx<'_>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) -> SimDuration {
        let hop = Hop::new(node, self.telemetry_role(), ctx.now);
        let step = &mut Step {
            hop,
            obs,
            ctx,
            compute: SimDuration::ZERO,
        };
        match packet {
            Packet::Interest(i) => self.on_interest(i, in_face, step, send),
            Packet::Data(d) => self.on_data(d, step, send),
            // Standalone NACKs travel downstream: relay toward the
            // pending requesters, consuming the PIT state.
            Packet::Nack(n) => self.relay_nack(n, step, send),
        }
        step.compute
    }

    /// Handles an incoming Interest (Protocols 1, 2, and the Interest
    /// halves of 3 and 4) outside a transport.
    pub fn handle_interest(
        &mut self,
        interest: Interest,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> RouterOutput {
        RouterOutput::collect(self, Packet::Interest(interest), in_face, now, rng, cost)
    }

    /// Handles an incoming Data packet (Protocol 2's content side and
    /// Protocol 4's content side) outside a transport.
    pub fn handle_data(
        &mut self,
        data: Data,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> RouterOutput {
        RouterOutput::collect(self, Packet::Data(data), in_face, now, rng, cost)
    }

    /// Relays a standalone NACK downstream to every pending requester,
    /// consuming the PIT entry.
    fn relay_nack<O: ProtocolObserver>(
        &mut self,
        nack: Nack,
        step: &mut Step<'_, '_, O>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) {
        let Some(entry) = self.tables.pit.take(nack.interest().name()) else {
            return;
        };
        let recs = entry.into_records();
        let last = recs.len().saturating_sub(1);
        let reason = nack.reason();
        let mut nack = Some(nack);
        for (idx, rec) in recs.iter().enumerate() {
            self.counters.nacks += 1;
            step.obs.on_nack(step.hop, reason);
            let nack = clone_unless_last(&mut nack, idx == last);
            send(rec.face, Packet::Nack(nack));
        }
    }

    fn is_downstream(&self, face: FaceId) -> bool {
        self.downstream.get(face.index() as usize) == Some(&true)
    }

    /// This router's role in telemetry vocabulary.
    fn telemetry_role(&self) -> NodeRole {
        match self.config.role {
            RouterRole::Edge => NodeRole::EdgeRouter,
            RouterRole::Core => NodeRole::CoreRouter,
        }
    }

    /// Protocol 1 at `stage`, timed, reported to the observer, and an
    /// expired tag counted; `true` when the tag passes.
    fn precheck<O: ProtocolObserver>(
        &mut self,
        step: &mut Step<'_, '_, O>,
        stage: PrecheckStage,
        check: impl FnOnce() -> Result<(), PreCheckError>,
    ) -> bool {
        let verdict = step.timed("precheck", check);
        if let Err(PreCheckError::Expired { .. }) = verdict {
            self.counters.expired_rejections += 1;
        }
        precheck::report(step.obs, step.hop, stage, verdict).is_ok()
    }

    /// Validation-cache lookup with cost charging and counting. `prefix`
    /// selects the cache partition (a one-partition cache ignores it).
    /// `reval` marks lookups on the probabilistic `F > 0`
    /// re-validation path, which count into `bf_lookups_reval` instead
    /// of `bf_lookups`.
    fn bf_contains<O: ProtocolObserver>(
        &mut self,
        step: &mut Step<'_, '_, O>,
        prefix: &[u8],
        key: &[u8],
        reval: bool,
    ) -> bool {
        if reval {
            self.counters.bf_lookups_reval += 1;
        } else {
            self.counters.bf_lookups += 1;
        }
        step.charge(Op::BfLookup);
        let hit = step.timed("bf_lookup", || self.cache.contains(prefix, key));
        let outcome = if hit { BfOutcome::Hit } else { BfOutcome::Miss };
        step.obs.on_bf_lookup(step.hop, outcome, reval);
        hit
    }

    /// Validation-cache insert with eviction accounting, cost charging,
    /// counting. [`ValidationCache::insert`] decides the eviction and
    /// reports it; `counters.bf_resets` / `counters.bf_rotations` are the
    /// only count of them (the sampler reads these too).
    fn bf_insert<O: ProtocolObserver>(
        &mut self,
        step: &mut Step<'_, '_, O>,
        prefix: &[u8],
        key: &[u8],
    ) {
        self.counters.bf_insertions += 1;
        step.charge(Op::BfInsert);
        let churn = step.timed("bf_insert", || self.cache.insert(prefix, key));
        match churn {
            CacheChurn::Reset => {
                self.counters.bf_resets += 1;
                self.counters.reset_requests += self.requests_since_reset;
                self.requests_since_reset = 0;
            }
            CacheChurn::Rotation => self.counters.bf_rotations += 1,
            CacheChurn::None => {}
        }
        if let Some(seen) = &mut self.seen_tags {
            seen.insert(Self::tag_id(key));
        }
        step.obs.on_bf_insert(step.hop, churn == CacheChurn::Reset);
    }

    /// Verifies `tag` against the certified key of the provider it names
    /// (no such provider: invalid).
    fn verify_signature(&self, tag: &SignedTag) -> bool {
        let provider = self.provider_keys.get(&tag.tag.provider_prefix());
        provider.is_some_and(|pk| tag.verify(pk))
    }

    /// Full tag validation: BF short-circuit, then signature verification
    /// against the registered provider key, inserting on success. `reval`
    /// routes the work into the re-validation counters.
    fn validate_tag<O: ProtocolObserver>(
        &mut self,
        step: &mut Step<'_, '_, O>,
        tag: &SignedTag,
        reval: bool,
    ) -> bool {
        let key = tag.bloom_key();
        let prefix = tag.partition_key();
        if self.bf_contains(step, prefix, &key, reval) {
            return true;
        }
        if reval {
            self.counters.revalidations += 1;
        } else {
            self.counters.sig_verifications += 1;
        }
        step.charge(Op::SigVerify);
        let valid = step.timed("sig_verify", || self.verify_signature(tag));
        step.obs.on_sig_verify(step.hop, valid, reval);
        if valid {
            // A verified tag the cache had already seen means an eviction
            // (reset or rotation) forced this verification all over again.
            if let Some(seen) = &self.seen_tags {
                if seen.contains(&Self::tag_id(&key)) {
                    self.counters.evicted_revalidations += 1;
                }
            }
            self.bf_insert(step, prefix, &key);
        }
        valid
    }

    /// An incoming Interest: Protocol 2 on a client face of an edge
    /// router, Protocol 3 on a content-store hit, otherwise Protocol 4's
    /// Interest side — PIT aggregation, or FIB forwarding.
    fn on_interest<O: ProtocolObserver>(
        &mut self,
        mut interest: Interest,
        in_face: FaceId,
        step: &mut Step<'_, '_, O>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) {
        let hop = step.hop;
        self.counters.interests += 1;
        self.requests_since_reset += 1;
        step.obs
            .on_interest_hop(hop, interest.nonce(), interest.name());
        let observed_f = ext::interest_flag_f(&interest);

        let from_client = self.config.role == RouterRole::Edge && self.is_downstream(in_face);
        let registration = ext::is_registration(&interest);
        // Decode the tag once per hop and share it from there: the PIT
        // note, sightings, and the serve path all borrow the same `Arc`.
        let tag = if registration {
            None
        } else {
            ext::interest_tag(&interest)
        };

        // Only Protocol 2 (the edge) may write F. Whatever a client put on
        // the wire — including a forged F that would skip content-router
        // validation — is discarded on every downstream face, regardless
        // of this router's role.
        if self.is_downstream(in_face) {
            ext::set_interest_flag_f(&mut interest, 0.0);
        }

        if from_client && !registration {
            interest = match self.edge_interest(interest, tag.as_deref(), in_face, step, send) {
                Some(admitted) => admitted,
                None => return,
            };
        }

        let flag_f = if self.config.flag_f_enabled {
            ext::interest_flag_f(&interest)
        } else {
            0.0
        };
        step.obs.on_flag_f(hop, observed_f, flag_f);

        if !registration {
            if let Some(cached) = self.tables.cs.get_fresh(interest.name(), hop.now) {
                self.counters.cache_hits += 1;
                step.obs.on_cache_hit(hop, interest.name());
                // Protocol 3. A client's request passed the edge half of
                // Protocol 1 above, at this instant.
                let (cached, tag) = (Cow::Owned(cached), tag.as_ref());
                if let Some(reply) = self.answer(cached, tag, flag_f, in_face, from_client, step) {
                    send(in_face, Packet::Data(reply.into_owned()));
                }
                return;
            }
        }

        // ── Protocol 4, Interest side: PIT aggregation, FIB forward ──
        let note = TagNote { f: flag_f, tag };
        let expiry = hop.now + SimDuration::from_millis(interest.lifetime_ms() as u64);
        match step.timed("pit_ops", || {
            self.tables
                .pit
                .on_interest(interest.name(), in_face, interest.nonce(), expiry, note)
        }) {
            PitInsert::DuplicateNonce => {}
            PitInsert::Aggregated => {
                let pit = &self.tables.pit;
                let depth = pit.get(interest.name()).map_or(0, |e| e.records().len());
                step.obs.on_pit_aggregated(hop, depth);
            }
            PitInsert::New => match self.tables.fib.next_hop(interest.name()) {
                Some(next) => send(next, Packet::Interest(interest)),
                None => {
                    self.tables.pit.take(interest.name());
                    self.counters.nacks += 1;
                    step.obs.on_nack(hop, NackReason::NoRoute);
                    send(
                        in_face,
                        Packet::Nack(Nack::new(interest, NackReason::NoRoute)),
                    );
                }
            },
        }
        for evicted in self.tables.pit.evict_over_capacity() {
            step.ctx.drops.pit_full += evicted.records().len() as u64;
        }
    }
}

#[cfg(test)]
mod tests;
