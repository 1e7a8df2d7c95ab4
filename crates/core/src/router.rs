//! The TACTIC router: Protocols 2 (edge), 3 (content), and 4
//! (intermediate) over the NDN tables.
//!
//! One [`TacticRouter`] type covers all three roles because the roles are
//! situational: a router is a *content* router for names it has cached, an
//! *intermediate* router otherwise, and an *edge* router additionally runs
//! Protocol 2 on Interests arriving from its client-side (downstream)
//! faces. Routers are pure state machines — handlers hand the packets to
//! emit to the caller's sink and return the sampled computation delay — so
//! the protocols are testable without the event engine, and a warmed
//! router handles a packet without touching the allocator.

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
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    BfOutcome, Hop, NodeRole, NoopProtocolObserver, PrecheckStage, PrecheckVerdict,
    ProtocolObserver, RevalidationOutcome, SpanProfiler,
};

use crate::ext;
use crate::precheck::{content_precheck, edge_precheck, PreCheckError};
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
    /// Validation-cache eviction policy: the paper's monolithic
    /// full-reset filter (the default, byte-identical to the historical
    /// bare-filter path) or `G` rotating generations with per-prefix
    /// partitioning (see [`ValidationCache`]).
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
    /// Table V. The three `Never` counters postdate the golden snapshots
    /// (even unattacked runs see expired tags — the paper's attacker mix
    /// replays them); they are read through the fields: the `attacks` and
    /// `tagscale` CSVs, telemetry and the run manifests.
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
        /// Validation-cache generation rotations — the generational
        /// policy's partial evictions (always 0 under the default
        /// monolithic policy).
        bf_rotations: Add, Never;
        /// Signature verifications of tags this router had *already*
        /// verified once — re-validation work forced by a reset or rotation
        /// that evicted still-valid state. Counted only when
        /// [`RouterConfig::track_revalidations`] is on (0 otherwise).
        evicted_revalidations: Add, Never;
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
        expired_rejections: Add, Never;
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
    /// Runs a sink-based handler, collecting what it sends.
    fn collect(handler: impl FnOnce(&mut dyn FnMut(FaceId, Packet)) -> Handled) -> Self {
        let mut sends = Vec::new();
        let Handled {
            compute,
            pit_evictions,
        } = handler(&mut |face, packet| sends.push((face, packet)));
        RouterOutput {
            sends,
            compute,
            pit_evictions,
        }
    }
}

/// What handling one packet cost, beyond the packets handed to the sink
/// (see [`RouterOutput`] for the fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Handled {
    /// Total sampled computation delay for this packet's processing.
    pub compute: SimDuration,
    /// Pending records evicted from a bounded PIT.
    pub pit_evictions: u64,
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
    downstream: HashSet<FaceId>,
    requests_since_reset: u64,
    reset_request_counts: Vec<u64>,
    sightings: Vec<(u64, crate::access_path::AccessPath, SimTime)>,
    /// Tag ids this router has signature-verified at least once, for
    /// eviction-forced re-validation accounting. `None` (the default)
    /// skips all tracking.
    seen_tags: Option<HashSet<u64>>,
    /// The Data handler's reply plan, kept between packets for its
    /// capacity (always empty outside [`Self::handle_data_observed`]).
    plan: Vec<Reply>,
}

/// One planned reply to a pending requester (see
/// [`TacticRouter::handle_data_observed`]).
enum Reply {
    /// Forward the incoming Data as-is.
    Plain(FaceId),
    /// Forward a re-annotated copy.
    Annotated(FaceId, Data),
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

/// Runs `f` under the span `name` when a profiler is attached; the
/// disabled path (`None`, the default everywhere) costs one branch and
/// no clock reads. Handlers thread `prof` by mutable reference so one
/// packet's phases all land in the same profiler.
#[inline]
fn timed<T>(prof: &mut Option<&mut SpanProfiler>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match prof {
        Some(p) => p.time(name, f),
        None => f(),
    }
}

/// Outcome of the Protocol 3 content-serving decision.
#[derive(Debug)]
enum ServeDecision {
    /// Deliver the content (annotated in place).
    Serve(Data),
    /// The tag is invalid: routers downstream get content + NACK so their
    /// aggregated valid requests are still satisfied; *clients* get
    /// nothing (or a bare NACK).
    Invalid(Data, NackReason),
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
            downstream: HashSet::new(),
            requests_since_reset: 0,
            reset_request_counts: Vec::new(),
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
        self.downstream.insert(face);
    }

    /// Installs a FIB route.
    pub fn add_route(&mut self, prefix: Name, face: FaceId, cost: u32) {
        self.tables.fib.add_route(prefix, face, cost);
    }

    /// The operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Requests absorbed between consecutive BF resets (Fig. 8's metric);
    /// one entry per completed reset.
    pub fn reset_request_counts(&self) -> &[u64] {
        &self.reset_request_counts
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

    /// Relays a standalone NACK downstream to every pending requester,
    /// consuming the PIT entry and handing each relayed NACK to `send`.
    pub fn handle_nack_observed<O: ProtocolObserver>(
        &mut self,
        nack: Nack,
        now: SimTime,
        node: u64,
        obs: &mut O,
        send: &mut dyn FnMut(FaceId, Packet),
    ) {
        let hop = Hop::new(node, self.telemetry_role(), now);
        if let Some(entry) = self.tables.pit.take(nack.interest().name()) {
            let recs = entry.into_records();
            let last = recs.len().saturating_sub(1);
            let reason = nack.reason();
            let mut nack = Some(nack);
            for (idx, rec) in recs.iter().enumerate() {
                self.counters.nacks += 1;
                obs.on_nack(hop, reason);
                // Clone only on genuine fan-out: the last pending
                // requester takes the original by move.
                let pkt = if idx == last {
                    nack.take().expect("consumed only at the last record")
                } else {
                    nack.as_ref()
                        .expect("present before the last record")
                        .clone()
                };
                send(rec.face, Packet::Nack(pkt));
            }
        }
    }

    fn is_downstream(&self, face: FaceId) -> bool {
        self.downstream.contains(&face)
    }

    /// This router's role in telemetry vocabulary.
    fn telemetry_role(&self) -> NodeRole {
        match self.config.role {
            RouterRole::Edge => NodeRole::EdgeRouter,
            RouterRole::Core => NodeRole::CoreRouter,
        }
    }

    /// Validation-cache lookup with cost charging and counting. `prefix`
    /// selects the generational partition (ignored by the monolithic
    /// policy). `reval` marks lookups on the probabilistic `F > 0`
    /// re-validation path, which count into `bf_lookups_reval` instead
    /// of `bf_lookups`.
    #[allow(clippy::too_many_arguments)]
    fn bf_contains<O: ProtocolObserver>(
        &mut self,
        prefix: &[u8],
        key: &[u8],
        reval: bool,
        hop: Hop,
        obs: &mut O,
        rng: &mut Rng,
        cost: &CostModel,
        charge: &mut SimDuration,
        prof: &mut Option<&mut SpanProfiler>,
    ) -> bool {
        if reval {
            self.counters.bf_lookups_reval += 1;
        } else {
            self.counters.bf_lookups += 1;
        }
        *charge += cost.sample(Op::BfLookup, rng);
        let hit = timed(prof, "bf_lookup", || self.cache.contains(prefix, key));
        obs.on_bf_lookup(
            hop,
            if hit { BfOutcome::Hit } else { BfOutcome::Miss },
            reval,
        );
        hit
    }

    /// Validation-cache insert with eviction accounting, cost charging,
    /// counting. The eviction decision itself lives in
    /// [`ValidationCache::insert`] so `counters.bf_resets` /
    /// `counters.bf_rotations` stay in lockstep with the cache's own
    /// `resets()` / `rotations()`.
    #[allow(clippy::too_many_arguments)]
    fn bf_insert<O: ProtocolObserver>(
        &mut self,
        prefix: &[u8],
        key: &[u8],
        hop: Hop,
        obs: &mut O,
        rng: &mut Rng,
        cost: &CostModel,
        charge: &mut SimDuration,
        prof: &mut Option<&mut SpanProfiler>,
    ) {
        self.counters.bf_insertions += 1;
        *charge += cost.sample(Op::BfInsert, rng);
        let churn = timed(prof, "bf_insert", || self.cache.insert(prefix, key));
        match churn {
            CacheChurn::Reset => {
                self.counters.bf_resets += 1;
                self.reset_request_counts.push(self.requests_since_reset);
                self.requests_since_reset = 0;
            }
            CacheChurn::Rotation => self.counters.bf_rotations += 1,
            CacheChurn::None => {}
        }
        if let Some(seen) = &mut self.seen_tags {
            seen.insert(Self::tag_id(key));
        }
        obs.on_bf_insert(hop, churn == CacheChurn::Reset);
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
    #[allow(clippy::too_many_arguments)]
    fn validate_tag<O: ProtocolObserver>(
        &mut self,
        tag: &SignedTag,
        reval: bool,
        hop: Hop,
        obs: &mut O,
        rng: &mut Rng,
        cost: &CostModel,
        charge: &mut SimDuration,
        prof: &mut Option<&mut SpanProfiler>,
    ) -> bool {
        let key = tag.bloom_key();
        let prefix = tag.partition_key();
        if self.bf_contains(prefix, &key, reval, hop, obs, rng, cost, charge, prof) {
            return true;
        }
        if reval {
            self.counters.revalidations += 1;
        } else {
            self.counters.sig_verifications += 1;
        }
        *charge += cost.sample(Op::SigVerify, rng);
        let valid = timed(prof, "sig_verify", || self.verify_signature(tag));
        obs.on_sig_verify(hop, valid, reval);
        if valid {
            // A verified tag the cache had already seen means an eviction
            // (reset or rotation) forced this verification all over again.
            if let Some(seen) = &self.seen_tags {
                if seen.contains(&Self::tag_id(&key)) {
                    self.counters.evicted_revalidations += 1;
                }
            }
            self.bf_insert(prefix, &key, hop, obs, rng, cost, charge, prof);
        }
        valid
    }

    /// Handles an incoming Interest (Protocols 1, 2, and the Interest
    /// halves of 3 and 4).
    pub fn handle_interest(
        &mut self,
        interest: Interest,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> RouterOutput {
        RouterOutput::collect(|send| {
            let obs = &mut NoopProtocolObserver;
            self.handle_interest_observed(
                interest, in_face, now, rng, cost, 0, obs, &mut None, send,
            )
        })
    }

    /// [`Self::handle_interest`] with protocol-decision hooks, handing
    /// each packet to transmit to `send`: `node` is this router's id in
    /// the topology, stamped onto every hook. `prof` receives wall-clock
    /// spans for the hot phases when profiling.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_interest_observed<O: ProtocolObserver>(
        &mut self,
        mut interest: Interest,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
        node: u64,
        obs: &mut O,
        prof: &mut Option<&mut SpanProfiler>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) -> Handled {
        let mut out = Handled::default();
        let hop = Hop::new(node, self.telemetry_role(), now);
        self.counters.interests += 1;
        self.requests_since_reset += 1;
        obs.on_interest_hop(hop, interest.nonce(), interest.name());
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

        // Only Protocol 2 (the edge, below) may write F. Whatever a client
        // put on the wire — including a forged F that would skip content-
        // router validation — is discarded on every downstream face,
        // regardless of this router's role.
        if self.is_downstream(in_face) {
            ext::set_interest_flag_f(&mut interest, 0.0);
        }

        // ── Protocol 2, Interest side (edge routers, client-side faces) ──
        if from_client && !registration {
            if let Some(st) = &tag {
                if self.config.record_sightings {
                    self.sightings.push((
                        st.client_identity(),
                        ext::interest_access_path(&interest),
                        now,
                    ));
                }
                if self.config.access_path_enabled {
                    out.compute += cost.sample(Op::AccessPathCheck, rng);
                    let observed = ext::interest_access_path(&interest);
                    if observed != st.tag.access_path {
                        // Lines 1-2: drop and NACK the client.
                        self.counters.ap_rejections += 1;
                        self.counters.nacks += 1;
                        obs.on_precheck(
                            hop,
                            PrecheckStage::Edge,
                            PrecheckVerdict::Rejected(
                                tactic_telemetry::RejectReason::AccessPathMismatch,
                            ),
                        );
                        obs.on_nack(hop, NackReason::AccessPathMismatch);
                        send(
                            in_face,
                            Packet::Nack(Nack::new(interest, NackReason::AccessPathMismatch)),
                        );
                        return out;
                    }
                }
                // Protocol 1, edge half. Failures are dropped *silently*
                // (no NACK): the requester's window slot frees only via
                // its 1 s request expiry, which is the paper's
                // "request-based DoS prevention" (§8.B).
                out.compute += cost.sample(Op::PreCheck, rng);
                if let Err(e) = timed(prof, "precheck", || {
                    edge_precheck(&st.tag, interest.name(), now)
                }) {
                    self.counters.precheck_rejections += 1;
                    if matches!(e, PreCheckError::Expired { .. }) {
                        self.counters.expired_rejections += 1;
                    }
                    obs.on_precheck(
                        hop,
                        PrecheckStage::Edge,
                        PrecheckVerdict::Rejected(e.telemetry_reason()),
                    );
                    return out;
                }
                obs.on_precheck(hop, PrecheckStage::Edge, PrecheckVerdict::Accepted);
                // Lines 4-8: set F from the BF.
                let key = st.bloom_key();
                let f = if self.bf_contains(
                    st.partition_key(),
                    &key,
                    false,
                    hop,
                    obs,
                    rng,
                    cost,
                    &mut out.compute,
                    prof,
                ) {
                    // A hit with a pristine filter still means "validated":
                    // floor the flag so it stays distinguishable from 0.
                    self.cache.estimated_fpp().max(1e-9)
                } else {
                    0.0
                };
                ext::set_interest_flag_f(&mut interest, f);
            } else {
                ext::set_interest_flag_f(&mut interest, 0.0);
            }
        }

        let flag_f = if self.config.flag_f_enabled {
            ext::interest_flag_f(&interest)
        } else {
            0.0
        };
        obs.on_flag_f(hop, observed_f, flag_f);

        // ── Content store: Protocol 3 if we hold the content ──
        if !registration {
            if let Some(cached) = self.tables.cs.get(interest.name()) {
                self.counters.cache_hits += 1;
                obs.on_cache_hit(hop, interest.name());
                let decision = self.serve_content(
                    cached,
                    tag.as_ref(),
                    flag_f,
                    hop,
                    obs,
                    rng,
                    cost,
                    &mut out.compute,
                    prof,
                );
                match decision {
                    ServeDecision::Serve(d) => send(in_face, Packet::Data(d)),
                    ServeDecision::Invalid(d, reason) => {
                        if from_client {
                            // Never hand unauthorized content to a client;
                            // drop silently so the attacker is throttled by
                            // its own request expiry.
                        } else if self.config.content_nack_enabled {
                            self.counters.nacks += 1;
                            obs.on_nack(hop, reason);
                            send(in_face, Packet::Data(d));
                        }
                    }
                }
                return out;
            }
        }

        // ── Protocol 4, Interest side: PIT aggregation, FIB forward ──
        let note = TagNote { f: flag_f, tag };
        let expiry = now + SimDuration::from_millis(interest.lifetime_ms() as u64);
        match timed(prof, "pit_ops", || {
            self.tables
                .pit
                .on_interest(interest.name(), in_face, interest.nonce(), expiry, note)
        }) {
            PitInsert::DuplicateNonce => {}
            PitInsert::Aggregated => {
                let depth = self
                    .tables
                    .pit
                    .get(interest.name())
                    .map_or(0, |e| e.records().len());
                obs.on_pit_aggregated(hop, depth);
            }
            PitInsert::New => match self.tables.fib.next_hop(interest.name()) {
                Some(next) => send(next, Packet::Interest(interest)),
                None => {
                    self.tables.pit.take(interest.name());
                    self.counters.nacks += 1;
                    obs.on_nack(hop, NackReason::NoRoute);
                    send(
                        in_face,
                        Packet::Nack(Nack::new(interest, NackReason::NoRoute)),
                    );
                }
            },
        }
        for evicted in self.tables.pit.evict_over_capacity() {
            out.pit_evictions += evicted.records().len() as u64;
        }
        out
    }

    /// Protocol 3: decide how to answer a request for cached content.
    ///
    /// Takes the content by value — the copy the CS hands out is the only
    /// one the serve path makes; annotations are written onto it in place.
    #[allow(clippy::too_many_arguments)]
    fn serve_content<O: ProtocolObserver>(
        &mut self,
        mut cached: Data,
        tag: Option<&Arc<SignedTag>>,
        flag_f: f64,
        hop: Hop,
        obs: &mut O,
        rng: &mut Rng,
        cost: &CostModel,
        charge: &mut SimDuration,
        prof: &mut Option<&mut SpanProfiler>,
    ) -> ServeDecision {
        let al = ext::data_access_level(&cached);
        // Public (NULL) content needs no tag verification at all.
        if al.is_public() {
            return ServeDecision::Serve(cached);
        }
        let Some(st) = tag else {
            // Protected content, no tag: content-NACK so downstream
            // aggregated (valid) requests are still satisfiable.
            obs.on_precheck(
                hop,
                PrecheckStage::Content,
                PrecheckVerdict::Rejected(tactic_telemetry::RejectReason::MissingTag),
            );
            ext::set_data_nack(&mut cached, NackReason::InvalidTag);
            return ServeDecision::Invalid(cached, NackReason::InvalidTag);
        };
        // Protocol 1, content half.
        *charge += cost.sample(Op::PreCheck, rng);
        let key_loc = ext::data_key_locator(&cached).unwrap_or_default();
        if let Err(e) = timed(prof, "precheck", || content_precheck(&st.tag, al, &key_loc)) {
            self.counters.precheck_rejections += 1;
            obs.on_precheck(
                hop,
                PrecheckStage::Content,
                PrecheckVerdict::Rejected(e.telemetry_reason()),
            );
            ext::set_data_tag(&mut cached, st.clone());
            ext::set_data_nack(&mut cached, NackReason::InvalidTag);
            return ServeDecision::Invalid(cached, NackReason::InvalidTag);
        }
        obs.on_precheck(hop, PrecheckStage::Content, PrecheckVerdict::Accepted);
        let valid = if flag_f == 0.0 {
            // Lines 1-10: BF lookup; verify + insert on miss.
            self.validate_tag(st, false, hop, obs, rng, cost, charge, prof)
        } else if rng.chance(flag_f) {
            // Lines 11-12: probabilistic re-validation guards against the
            // edge filter's false positives.
            self.counters.revalidations += 1;
            *charge += cost.sample(Op::SigVerify, rng);
            let valid = timed(prof, "sig_verify", || self.verify_signature(st));
            obs.on_sig_verify(hop, valid, true);
            obs.on_revalidation(
                hop,
                if valid {
                    RevalidationOutcome::Verified
                } else {
                    RevalidationOutcome::Rejected
                },
            );
            valid
        } else {
            obs.on_revalidation(hop, RevalidationOutcome::Trusted);
            true // Trust the edge router's validation.
        };
        ext::set_data_tag(&mut cached, st.clone());
        // Mirror the request's F into D (lines 2, 8, 13) so the edge
        // router knows whether to insert the tag into its own filter.
        ext::set_data_flag_f(&mut cached, flag_f);
        if valid {
            ServeDecision::Serve(cached)
        } else {
            ext::set_data_nack(&mut cached, NackReason::InvalidTag);
            ServeDecision::Invalid(cached, NackReason::InvalidTag)
        }
    }

    /// Handles an incoming Data packet (Protocol 2's content side and
    /// Protocol 4's content side).
    pub fn handle_data(
        &mut self,
        data: Data,
        in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> RouterOutput {
        RouterOutput::collect(|send| {
            let obs = &mut NoopProtocolObserver;
            self.handle_data_observed(data, in_face, now, rng, cost, 0, obs, &mut None, send)
        })
    }

    /// [`Self::handle_data`] with protocol-decision hooks, handing each
    /// packet to transmit to `send`.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_data_observed<O: ProtocolObserver>(
        &mut self,
        data: Data,
        _in_face: FaceId,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
        node: u64,
        obs: &mut O,
        prof: &mut Option<&mut SpanProfiler>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) -> Handled {
        let mut out = Handled::default();
        let hop = Hop::new(node, self.telemetry_role(), now);
        self.counters.data += 1;

        // Registration responses: edge inserts the fresh tag (Protocol 2
        // lines 11-12) and everyone forwards without caching.
        if let Some(new_tag) = ext::data_new_tag(&data) {
            let Some(entry) = timed(prof, "pit_ops", || self.tables.pit.take(data.name())) else {
                return out;
            };
            let recs = entry.into_records();
            let last = recs.len().saturating_sub(1);
            let mut data = Some(data);
            for (idx, rec) in recs.iter().enumerate() {
                if self.config.role == RouterRole::Edge && self.is_downstream(rec.face) {
                    self.bf_insert(
                        new_tag.partition_key(),
                        &new_tag.bloom_key(),
                        hop,
                        obs,
                        rng,
                        cost,
                        &mut out.compute,
                        prof,
                    );
                }
                // Clone only on genuine fan-out: the last pending
                // requester takes the response by move.
                let d = if idx == last {
                    data.take().expect("consumed only at the last record")
                } else {
                    data.as_ref()
                        .expect("present before the last record")
                        .clone()
                };
                send(rec.face, Packet::Data(d));
            }
            return out;
        }

        let echoed = ext::data_tag(&data);
        let nack = ext::data_nack(&data);
        let f_in_d = ext::data_flag_f(&data);
        let al = ext::data_access_level(&data);

        let Some(entry) = timed(prof, "pit_ops", || self.tables.pit.take(data.name())) else {
            return out; // Unsolicited: drop, don't cache (NFD policy).
        };

        // Cache the content (the store keeps no annotations); it is
        // genuine even when a NACK rides along.
        self.tables.cs.insert_at(data.clone(), now);

        // Replies are *decided* in PIT-record order (RNG draws, counters,
        // and observer calls all happen in the decision loop) and
        // *materialised* afterwards, so the last unannotated reply can take
        // `data` by move — clones happen only on genuine fan-out.
        let mut plan = std::mem::take(&mut self.plan);

        let echoed_key = echoed.as_deref().map(SignedTag::bloom_key);
        for rec in entry.into_records() {
            let TagNote {
                f: rec_f,
                tag: rec_tag,
            } = rec.note;
            let to_client = self.is_downstream(rec.face);
            let is_echo = match (&rec_tag, &echoed_key) {
                (Some(rt), Some(ek)) => &rt.bloom_key() == ek,
                (None, None) => true,
                _ => false,
            };

            if is_echo {
                // Protocol 2 lines 11-21 / Protocol 4 lines 6-10.
                match nack {
                    Some(reason) => {
                        if to_client {
                            // Edge: drop the nacked request (lines 19-20);
                            // the client's window frees via timeout.
                            let _ = reason;
                        } else {
                            plan.push(Reply::Plain(rec.face));
                        }
                    }
                    None => {
                        if to_client && f_in_d == 0.0 {
                            // Lines 14-15: upstream vouched; insert.
                            if let Some(rt) = &rec_tag {
                                self.bf_insert(
                                    rt.partition_key(),
                                    &rt.bloom_key(),
                                    hop,
                                    obs,
                                    rng,
                                    cost,
                                    &mut out.compute,
                                    prof,
                                );
                            }
                        }
                        plan.push(Reply::Plain(rec.face));
                    }
                }
                continue;
            }

            // Aggregated requesters: Protocol 4 lines 11-25 / Protocol 2
            // lines 22-23.
            let Some(rt) = rec_tag else {
                // Untagged aggregated request: only public content flows.
                if al.is_public() {
                    plan.push(Reply::Plain(rec.face));
                } else if !to_client && self.config.content_nack_enabled {
                    let mut d = data.clone();
                    ext::set_data_nack(&mut d, NackReason::InvalidTag);
                    self.counters.nacks += 1;
                    obs.on_nack(hop, NackReason::InvalidTag);
                    plan.push(Reply::Annotated(rec.face, d));
                }
                continue;
            };
            let flag_f = if self.config.flag_f_enabled {
                rec_f
            } else {
                0.0
            };
            if flag_f != 0.0 && !rng.chance(flag_f) {
                // Trust the edge router's prior validation.
                obs.on_revalidation(hop, RevalidationOutcome::Trusted);
                let mut d = data.clone();
                ext::set_data_tag(&mut d, rt);
                ext::set_data_flag_f(&mut d, flag_f);
                plan.push(Reply::Annotated(rec.face, d));
                continue;
            }
            let reval = flag_f != 0.0;
            // Validate: pre-check (both halves apply here — the tag may
            // have expired while pending), then BF/signature.
            out.compute += cost.sample(Op::PreCheck, rng);
            let key_loc = ext::data_key_locator(&data).unwrap_or_default();
            let pre_ok = match timed(prof, "precheck", || {
                edge_precheck(&rt.tag, data.name(), now)
            }) {
                Err(e) => {
                    if matches!(e, PreCheckError::Expired { .. }) {
                        self.counters.expired_rejections += 1;
                    }
                    obs.on_precheck(
                        hop,
                        PrecheckStage::Edge,
                        PrecheckVerdict::Rejected(e.telemetry_reason()),
                    );
                    false
                }
                Ok(()) => {
                    obs.on_precheck(hop, PrecheckStage::Edge, PrecheckVerdict::Accepted);
                    match timed(prof, "precheck", || content_precheck(&rt.tag, al, &key_loc)) {
                        Err(e) => {
                            obs.on_precheck(
                                hop,
                                PrecheckStage::Content,
                                PrecheckVerdict::Rejected(e.telemetry_reason()),
                            );
                            false
                        }
                        Ok(()) => {
                            obs.on_precheck(hop, PrecheckStage::Content, PrecheckVerdict::Accepted);
                            true
                        }
                    }
                }
            };
            let valid = pre_ok
                && self.validate_tag(&rt, reval, hop, obs, rng, cost, &mut out.compute, prof);
            if reval {
                obs.on_revalidation(
                    hop,
                    if valid {
                        RevalidationOutcome::Verified
                    } else {
                        RevalidationOutcome::Rejected
                    },
                );
            }
            if valid {
                let mut d = data.clone();
                ext::set_data_tag(&mut d, rt);
                ext::set_data_flag_f(&mut d, 0.0);
                plan.push(Reply::Annotated(rec.face, d));
            } else if to_client {
                // Edge: "forward D to w if valid and drop otherwise".
                if !pre_ok {
                    self.counters.precheck_rejections += 1;
                }
            } else if self.config.content_nack_enabled {
                let mut d = data.clone();
                ext::set_data_tag(&mut d, rt);
                ext::set_data_nack(&mut d, NackReason::InvalidTag);
                self.counters.nacks += 1;
                obs.on_nack(hop, NackReason::InvalidTag);
                plan.push(Reply::Annotated(rec.face, d));
            }
        }

        // Materialise the plan: the last plain reply takes `data` by move;
        // earlier plain replies (true fan-out) clone.
        let last_plain = plan.iter().rposition(|r| matches!(r, Reply::Plain(_)));
        let mut data = Some(data);
        for (idx, reply) in plan.drain(..).enumerate() {
            let (face, d) = match reply {
                Reply::Annotated(face, d) => (face, d),
                Reply::Plain(face) => {
                    let d = if Some(idx) == last_plain {
                        data.take().expect("moved only at the last plain reply")
                    } else {
                        data.as_ref()
                            .expect("present until the last plain reply")
                            .clone()
                    };
                    (face, d)
                }
            };
            send(face, Packet::Data(d));
        }
        self.plan = plan;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessLevel;
    use crate::access_path::AccessPath;
    use crate::tag::Tag;
    use tactic_crypto::cert::Certificate;
    use tactic_crypto::schnorr::{KeyPair, Signature};
    use tactic_ndn::name::Name;
    use tactic_ndn::packet::Payload;

    const UP: FaceId = FaceId::new(0);
    const CLIENT: FaceId = FaceId::new(1);
    const CLIENT2: FaceId = FaceId::new(2);

    struct Fixture {
        router: TacticRouter,
        provider: KeyPair,
        rng: Rng,
        cost: CostModel,
    }

    /// What relaying `nack` downstream sends.
    fn relay_nack(router: &mut TacticRouter, nack: Nack) -> RouterOutput {
        RouterOutput::collect(|send| {
            let obs = &mut NoopProtocolObserver;
            router.handle_nack_observed(nack, SimTime::ZERO, 0, obs, send);
            Handled::default()
        })
    }

    fn fixture(role: RouterRole) -> Fixture {
        let anchor = KeyPair::derive(b"anchor", 0);
        let provider = KeyPair::derive(b"/prov", 0);
        let mut certs = CertStore::new();
        certs.add_anchor(anchor.public());
        certs
            .register(Certificate::issue("/prov", provider.public(), &anchor))
            .unwrap();
        let mut config = RouterConfig::paper(role);
        config.cs_capacity = 100;
        let mut router = TacticRouter::new(config, certs);
        router.add_route("/prov".parse().unwrap(), UP, 1);
        router.mark_downstream(CLIENT);
        router.mark_downstream(CLIENT2);
        Fixture {
            router,
            provider,
            rng: Rng::seed_from_u64(1),
            cost: CostModel::free(),
        }
    }

    fn make_tag(f: &Fixture, expiry_secs: u64) -> SignedTag {
        Tag {
            provider_key_locator: "/prov/KEY/1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov/users/u/KEY".parse().unwrap(),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::from_secs(expiry_secs),
        }
        .sign(&f.provider)
    }

    fn content(name: &str, al: AccessLevel) -> Data {
        let mut d = Data::new(name.parse().unwrap(), Payload::Synthetic(1024));
        ext::set_data_access_level(&mut d, al);
        ext::set_data_key_locator(&mut d, &"/prov/KEY/1".parse().unwrap());
        d
    }

    fn tagged_interest(name: &str, nonce: u64, tag: &SignedTag) -> Interest {
        let mut i = Interest::new(name.parse().unwrap(), nonce);
        ext::set_interest_tag(&mut i, tag);
        i
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A throwaway hook stamp for driving the private helpers directly.
    fn test_hop() -> Hop {
        Hop::new(0, NodeRole::EdgeRouter, SimTime::default())
    }

    #[test]
    fn edge_forwards_valid_tag_with_f_zero_on_bf_miss() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        let i = tagged_interest("/prov/obj/0", 1, &tag);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(out.sends.len(), 1);
        let (face, pkt) = &out.sends[0];
        assert_eq!(*face, UP);
        let Packet::Interest(fw) = pkt else {
            panic!("expected Interest")
        };
        assert_eq!(ext::interest_flag_f(fw), 0.0);
        assert_eq!(f.router.counters().bf_lookups, 1);
    }

    #[test]
    fn edge_sets_nonzero_f_after_tag_known() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        // Seed the BF as if the tag had been validated before.
        let mut charge = SimDuration::ZERO;
        f.router.bf_insert(
            tag.partition_key(),
            &tag.bloom_key(),
            test_hop(),
            &mut NoopProtocolObserver,
            &mut f.rng.clone(),
            &f.cost,
            &mut charge,
            &mut None,
        );
        let i = tagged_interest("/prov/obj/0", 1, &tag);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Interest(fw) = &out.sends[0].1 else {
            panic!("expected Interest")
        };
        assert!(
            ext::interest_flag_f(fw) > 0.0,
            "F must be the BF's FPP, nonzero"
        );
    }

    #[test]
    fn edge_drops_expired_tag_silently() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 5);
        let i = tagged_interest("/prov/obj/0", 1, &tag);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::from_secs(6), &mut f.rng, &f.cost);
        // Protocol 1 at the edge DROPS: no NACK, so the requester's window
        // slot frees only via request expiry (the DoS throttle of §8.B).
        assert!(out.sends.is_empty());
        assert_eq!(f.router.counters().precheck_rejections, 1);
        assert_eq!(
            f.router.counters().bf_lookups,
            0,
            "pre-check precedes BF lookup"
        );
    }

    #[test]
    fn edge_drops_cross_provider_tag() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        let i = tagged_interest("/other/obj/0", 1, &tag);
        let mut router = f.router;
        router.add_route(name("/other"), UP, 1);
        let out = router.handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(out.sends.is_empty());
        assert_eq!(router.counters().precheck_rejections, 1);
    }

    #[test]
    fn access_path_mismatch_nacked_when_enabled() {
        let mut f = fixture(RouterRole::Edge);
        let mut cfg = RouterConfig::paper(RouterRole::Edge);
        cfg.access_path_enabled = true;
        let certs = {
            let anchor = KeyPair::derive(b"anchor", 0);
            let mut c = CertStore::new();
            c.add_anchor(anchor.public());
            c.register(Certificate::issue("/prov", f.provider.public(), &anchor))
                .unwrap();
            c
        };
        let mut router = TacticRouter::new(cfg, certs);
        router.mark_downstream(CLIENT);
        router.add_route(name("/prov"), UP, 1);
        // Tag frozen with AP {7}; request arrives with AP {8}.
        let tag = Tag {
            provider_key_locator: "/prov/KEY/1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov/users/u/KEY".parse().unwrap(),
            access_path: AccessPath::of([7]),
            expiry: SimTime::from_secs(100),
        }
        .sign(&f.provider);
        let mut i = tagged_interest("/prov/obj/0", 1, &tag);
        ext::set_interest_access_path(&mut i, AccessPath::of([8]));
        let out = router.handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(
            matches!(&out.sends[0].1, Packet::Nack(n) if n.reason() == NackReason::AccessPathMismatch)
        );
        assert_eq!(router.counters().ap_rejections, 1);
    }

    #[test]
    fn content_router_serves_valid_tag_after_signature_verification() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        let i = tagged_interest("/prov/obj/0", 1, &tag);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(ext::data_tag(d).as_deref(), Some(&tag));
        assert_eq!(ext::data_flag_f(d), 0.0);
        assert_eq!(f.router.counters().sig_verifications, 1);
        assert_eq!(f.router.counters().bf_insertions, 1);
        assert_eq!(f.router.counters().cache_hits, 1);
    }

    #[test]
    fn content_router_skips_verification_on_bf_hit() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        // First request verifies + inserts; second only looks up.
        let _ = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag),
            UP,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let out = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &tag),
            UP,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert!(matches!(&out.sends[0].1, Packet::Data(_)));
        assert_eq!(
            f.router.counters().sig_verifications,
            1,
            "no re-verification"
        );
        assert_eq!(f.router.counters().bf_lookups, 2);
    }

    #[test]
    fn content_router_nacks_forged_tag_with_content_attached() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let mut forged = make_tag(&f, 100);
        forged.signature = Signature::forged(9);
        let i = tagged_interest("/prov/obj/0", 1, &forged);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data+NACK")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
    }

    #[test]
    fn edge_cache_hit_with_invalid_tag_drops_silently() {
        let mut f = fixture(RouterRole::Edge);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let mut forged = make_tag(&f, 100);
        forged.signature = Signature::forged(5);
        let i = tagged_interest("/prov/obj/0", 1, &forged);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        // Content must NOT reach the client; the attacker waits out its
        // request expiry.
        assert!(out.sends.is_empty(), "client must not get content");
        assert_eq!(
            f.router.counters().sig_verifications,
            1,
            "the forged tag was checked"
        );
    }

    #[test]
    fn public_content_served_without_tag() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Public));
        let i = Interest::new(name("/prov/obj/0"), 1);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(f.router.counters().sig_verifications, 0);
        assert_eq!(f.router.counters().bf_lookups, 0);
    }

    #[test]
    fn protected_content_without_tag_gets_content_nack_for_routers() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let i = Interest::new(name("/prov/obj/0"), 1);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
    }

    #[test]
    fn insufficient_access_level_rejected_at_content_router() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(5)));
        let tag = make_tag(&f, 100); // grants Level(2)
        let i = tagged_interest("/prov/obj/0", 1, &tag);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
        assert_eq!(f.router.counters().precheck_rejections, 1);
    }

    #[test]
    fn interest_aggregation_and_data_fanout() {
        let mut f = fixture(RouterRole::Core);
        let tag1 = make_tag(&f, 100);
        let tag2 = Tag {
            provider_key_locator: "/prov/KEY/1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov/users/w/KEY".parse().unwrap(),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::from_secs(100),
        }
        .sign(&f.provider);
        let out1 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag1),
            FaceId::new(5),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert_eq!(out1.sends.len(), 1, "first forwards");
        let out2 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &tag2),
            FaceId::new(6),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert!(out2.sends.is_empty(), "second aggregates");
        // Content returns echoing tag1.
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &tag1);
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(out.sends.len(), 2, "both downstreams served");
        let faces: Vec<FaceId> = out.sends.iter().map(|(fc, _)| *fc).collect();
        assert!(faces.contains(&FaceId::new(5)) && faces.contains(&FaceId::new(6)));
        // The aggregated tag (tag2) was validated: one verification.
        assert_eq!(f.router.counters().sig_verifications, 1);
        // Content is now cached.
        assert!(f.router.tables().cs.peek(&name("/prov/obj/0")).is_some());
    }

    #[test]
    fn aggregated_invalid_tag_gets_content_nack_downstream() {
        let mut f = fixture(RouterRole::Core);
        let good = make_tag(&f, 100);
        let mut bad = make_tag(&f, 100);
        bad.tag.client_key_locator = "/prov/users/evil/KEY".parse().unwrap();
        bad.signature = Signature::forged(3);
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &good),
            FaceId::new(5),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &bad),
            FaceId::new(6),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &good);
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        let to6: Vec<_> = out
            .sends
            .iter()
            .filter(|(fc, _)| *fc == FaceId::new(6))
            .collect();
        assert_eq!(to6.len(), 1);
        let Packet::Data(dd) = &to6[0].1 else {
            panic!("expected data")
        };
        assert_eq!(ext::data_nack(dd), Some(NackReason::InvalidTag));
    }

    #[test]
    fn edge_drops_invalid_aggregated_requests_to_clients() {
        let mut f = fixture(RouterRole::Edge);
        let good = make_tag(&f, 100);
        let mut bad = make_tag(&f, 100);
        bad.signature = Signature::forged(4);
        // Two clients request the same chunk; the bad one is nonzero-F-free.
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &good),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &bad),
            CLIENT2,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &good);
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        // Only the good client receives data; the bad aggregated one is
        // dropped (no content, no NACK at the edge).
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, CLIENT);
    }

    #[test]
    fn edge_inserts_echo_tag_when_data_f_is_zero() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &tag);
        ext::set_data_flag_f(&mut d, 0.0);
        let inserts_before = f.router.counters().bf_insertions;
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(f.router.counters().bf_insertions, inserts_before + 1);
        assert!(f
            .router
            .validation_cache()
            .contains(tag.partition_key(), &tag.bloom_key()));
    }

    #[test]
    fn edge_skips_insert_when_data_f_nonzero() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        // Pre-insert so the edge sets F != 0 on the interest.
        let mut charge = SimDuration::ZERO;
        let mut rng2 = f.rng.clone();
        f.router.bf_insert(
            tag.partition_key(),
            &tag.bloom_key(),
            test_hop(),
            &mut NoopProtocolObserver,
            &mut rng2,
            &f.cost,
            &mut charge,
            &mut None,
        );
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &tag);
        ext::set_data_flag_f(&mut d, 1e-4);
        let inserts_before = f.router.counters().bf_insertions;
        f.router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(
            f.router.counters().bf_insertions,
            inserts_before,
            "no redundant insert"
        );
    }

    #[test]
    fn edge_drops_nacked_request_without_forwarding_content() {
        let mut f = fixture(RouterRole::Edge);
        let mut forged = make_tag(&f, 100);
        forged.signature = Signature::forged(7);
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &forged),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &forged);
        ext::set_data_nack(&mut d, NackReason::InvalidTag);
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(
            out.sends.is_empty(),
            "nacked content must not reach the client"
        );
        // But it IS cached for future valid requests.
        assert!(f.router.tables().cs.peek(&name("/prov/obj/0")).is_some());
    }

    #[test]
    fn core_forwards_nacked_content_downstream() {
        let mut f = fixture(RouterRole::Core);
        let mut forged = make_tag(&f, 100);
        forged.signature = Signature::forged(8);
        f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &forged),
            FaceId::new(5),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let mut d = content("/prov/obj/0", AccessLevel::Level(1));
        ext::set_data_tag(&mut d, &forged);
        ext::set_data_nack(&mut d, NackReason::InvalidTag);
        let out = f
            .router
            .handle_data(d, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(out.sends.len(), 1);
        let Packet::Data(dd) = &out.sends[0].1 else {
            panic!("data expected")
        };
        assert_eq!(ext::data_nack(dd), Some(NackReason::InvalidTag));
    }

    #[test]
    fn registration_response_inserted_at_edge_and_forwarded() {
        let mut f = fixture(RouterRole::Edge);
        let mut reg = Interest::new(name("/prov/register/u/1"), 1);
        reg.set_extension(ext::EXT_REGISTRATION, vec![1]);
        let out = f
            .router
            .handle_interest(reg, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(matches!(&out.sends[0].1, Packet::Interest(_)));
        let tag = make_tag(&f, 100);
        let mut resp = Data::new(name("/prov/register/u/1"), Payload::Synthetic(200));
        ext::set_data_new_tag(&mut resp, &tag);
        let out = f
            .router
            .handle_data(resp, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, CLIENT);
        assert!(f
            .router
            .validation_cache()
            .contains(tag.partition_key(), &tag.bloom_key()));
        // Registration responses are never cached.
        assert!(f.router.tables().cs.is_empty());
    }

    #[test]
    fn no_route_nacks() {
        let mut f = fixture(RouterRole::Core);
        let i = Interest::new(name("/unknown/x"), 1);
        let out = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(matches!(&out.sends[0].1, Packet::Nack(n) if n.reason() == NackReason::NoRoute));
    }

    #[test]
    fn bf_reset_accounting_tracks_request_counts() {
        let mut f = fixture(RouterRole::Core);
        let mut cfg = RouterConfig::paper(RouterRole::Core);
        cfg.bf_params = BloomParams::paper(20); // tiny: saturates fast
        let mut router = TacticRouter::new(cfg, CertStore::new());
        let mut charge = SimDuration::ZERO;
        for i in 0..500u64 {
            router.requests_since_reset += 1; // simulate request arrivals
            router.bf_insert(
                b"/prov",
                &i.to_le_bytes(),
                test_hop(),
                &mut NoopProtocolObserver,
                &mut f.rng,
                &f.cost,
                &mut charge,
                &mut None,
            );
        }
        assert!(router.counters().bf_resets >= 5);
        assert_eq!(
            router.reset_request_counts().len(),
            router.counters().bf_resets as usize
        );
        assert!(router.reset_request_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn flag_f_disabled_forces_validation() {
        let mut f = fixture(RouterRole::Core);
        let mut cfg = RouterConfig::paper(RouterRole::Core);
        cfg.flag_f_enabled = false;
        cfg.cs_capacity = 10;
        let certs = {
            let anchor = KeyPair::derive(b"anchor", 0);
            let mut c = CertStore::new();
            c.add_anchor(anchor.public());
            c.register(Certificate::issue("/prov", f.provider.public(), &anchor))
                .unwrap();
            c
        };
        let mut router = TacticRouter::new(cfg, certs);
        router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        let mut i = tagged_interest("/prov/obj/0", 1, &tag);
        ext::set_interest_flag_f(&mut i, 0.5); // would normally mostly skip
        let _ = router.handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        // With flag F ignored, the router takes the F == 0 path: BF lookup
        // then signature verification.
        assert_eq!(router.counters().bf_lookups, 1);
        assert_eq!(router.counters().sig_verifications, 1);
    }

    #[test]
    fn duplicate_nonce_is_dropped_silently() {
        let mut f = fixture(RouterRole::Core);
        let tag = make_tag(&f, 100);
        let i = tagged_interest("/prov/obj/0", 7, &tag);
        f.router.handle_interest(
            i.clone(),
            FaceId::new(5),
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        let out = f
            .router
            .handle_interest(i, FaceId::new(6), SimTime::ZERO, &mut f.rng, &f.cost);
        assert!(out.sends.is_empty());
    }

    /// Regression: a client forging F = 1.0 on its own Interest must not
    /// be able to steer the content router off the full-validation path —
    /// F is discarded on every downstream face.
    #[test]
    fn forged_flag_f_one_from_downstream_still_verifies() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        let mut i = tagged_interest("/prov/obj/0", 1, &tag);
        ext::set_interest_flag_f(&mut i, 1.0);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(
            ext::data_flag_f(d),
            0.0,
            "forged F must not be mirrored into D"
        );
        assert_eq!(
            f.router.counters().sig_verifications,
            1,
            "full validation must run"
        );
        assert_eq!(
            f.router.counters().bf_lookups,
            1,
            "F = 0 path: BF lookup first"
        );
    }

    /// Regression: F = NaN made `rng.chance(F)` false, so the pre-fix
    /// router fell into the "trust the edge" branch and served protected
    /// content with zero verifications. NaN (or any out-of-range F) must
    /// now be discarded like every other downstream F.
    #[test]
    fn forged_flag_f_nan_from_downstream_still_verifies() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        let mut i = tagged_interest("/prov/obj/0", 1, &tag);
        ext::set_interest_flag_f(&mut i, f64::NAN);
        let out = f
            .router
            .handle_interest(i, CLIENT, SimTime::ZERO, &mut f.rng, &f.cost);
        let Packet::Data(d) = &out.sends[0].1 else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(
            f.router.counters().sig_verifications,
            1,
            "NaN F must not skip validation"
        );
    }

    /// Even on a non-downstream face, a NaN F on the wire decodes as 0
    /// (sanitized at the codec), forcing the full-validation path rather
    /// than the trust branch.
    #[test]
    fn nan_flag_f_from_upstream_decodes_as_zero() {
        let mut f = fixture(RouterRole::Core);
        f.router
            .tables
            .cs
            .insert(content("/prov/obj/0", AccessLevel::Level(1)));
        let tag = make_tag(&f, 100);
        let mut i = tagged_interest("/prov/obj/0", 1, &tag);
        ext::set_interest_flag_f(&mut i, f64::NAN);
        assert_eq!(
            ext::interest_flag_f(&i),
            0.0,
            "decode sanitizes non-finite F"
        );
        let _ = f
            .router
            .handle_interest(i, UP, SimTime::ZERO, &mut f.rng, &f.cost);
        assert_eq!(f.router.counters().sig_verifications, 1);
    }

    #[test]
    fn nack_relay_counts_every_notified_requester() {
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        // Two clients aggregate on the same name in the PIT.
        let out1 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert_eq!(out1.sends.len(), 1, "first request forwards upstream");
        let out2 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &tag),
            CLIENT2,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert!(out2.sends.is_empty(), "second request aggregates");
        let before = f.router.counters().nacks;
        let nack = Nack::new(Interest::new(name("/prov/obj/0"), 3), NackReason::NoRoute);
        let out = relay_nack(&mut f.router, nack.clone());
        assert_eq!(out.sends.len(), 2, "both requesters get the NACK");
        assert_eq!(
            f.router.counters().nacks - before,
            2,
            "one count per relayed NACK"
        );
        // The PIT entry is consumed: a repeat NACK relays (and counts) nothing.
        let again = relay_nack(&mut f.router, nack);
        assert!(again.sends.is_empty());
        assert_eq!(f.router.counters().nacks - before, 2);
    }

    #[test]
    fn pit_sweep_expires_aggregated_records_instead_of_leaking() {
        // Lossy-link scenario: the forwarded Interest's Data never comes
        // back. The periodic purge must reclaim the aggregated
        // `<tag, F, in-face>` records, and a Data that straggles in after
        // the sweep is unsolicited — dropped without panic or caching.
        let mut f = fixture(RouterRole::Edge);
        let tag = make_tag(&f, 100);
        let out1 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 1, &tag),
            CLIENT,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert_eq!(out1.sends.len(), 1, "first request forwards upstream");
        let out2 = f.router.handle_interest(
            tagged_interest("/prov/obj/0", 2, &tag),
            CLIENT2,
            SimTime::ZERO,
            &mut f.rng,
            &f.cost,
        );
        assert!(out2.sends.is_empty(), "second request aggregates");
        assert_eq!(f.router.tables().pit.total_records(), 2);

        // Both records expire at t0 + Interest lifetime; sweep well past it.
        let later = SimTime::from_secs(60);
        assert_eq!(f.router.tables_mut().pit.purge_expired(later), 2);
        assert_eq!(f.router.tables().pit.total_records(), 0);

        // The straggler Data finds no PIT entry: no sends, no cache entry.
        let d = content("/prov/obj/0", AccessLevel::Level(1));
        let out = f.router.handle_data(d, UP, later, &mut f.rng, &f.cost);
        assert!(out.sends.is_empty(), "unsolicited Data goes nowhere");
        assert!(
            f.router.tables().cs.peek(&name("/prov/obj/0")).is_none(),
            "unsolicited Data is not cached (NFD policy)"
        );
    }
}
