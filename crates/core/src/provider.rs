//! The content provider application.
//!
//! Providers publish chunked, signed, access-levelled content and run the
//! Client Registration Procedure: "a client registers her credential with
//! a content provider to obtain an authentication tag ... When p receives
//! a tag request, it verifies client u's credentials and provides her a
//! fresh tag if she is authorized or drops the request otherwise" (§4.A).
//!
//! Tag expiry is the revocation knob: "a shorter expiry time mandates
//! clients to request fresh tags more frequently, which allows a more
//! fine-grained and flexible client revocation" (§5).

use std::collections::HashMap;
use std::sync::Arc;

use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Content, Data, ExtValue, Interest, NackReason, Packet, Payload};
use tactic_net::{ChunkNames, PlaneCtx};
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    Hop, NodeRole, NoopProtocolObserver, PrecheckStage, PrecheckVerdict, ProtocolObserver,
    RejectReason,
};

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::ext;
use crate::precheck::{self, content_precheck, edge_precheck};
use crate::router::standalone;
use crate::tag::{self, SignedTag, Tag};

/// The access level each registered principal is entitled to.
pub type Registry = HashMap<u64, AccessLevel>;

/// Provider/catalog parameters (the paper: 50 objects × 50 chunks each,
/// 10 s tag validity).
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// The provider's routable name prefix (e.g. `/prov3`).
    pub prefix: Name,
    /// Number of content objects.
    pub objects: usize,
    /// Chunks per object.
    pub chunks_per_object: usize,
    /// Chunk payload size in bytes.
    pub chunk_size: usize,
    /// Tag validity period (`T_e - T_issue`).
    pub tag_validity: SimDuration,
    /// Access levels assigned to objects, cycled (`levels[obj % len]`).
    /// Use `[AccessLevel::Public]` for an open catalog.
    pub access_levels: Vec<AccessLevel>,
}

impl ProviderConfig {
    /// The paper's configuration under the given prefix: 50 objects of 50
    /// chunks, 10 s tags, all content at `Level(1)`.
    pub fn paper(prefix: Name) -> Self {
        ProviderConfig {
            prefix,
            objects: 50,
            chunks_per_object: 50,
            chunk_size: 1024,
            tag_validity: SimDuration::from_secs(10),
            access_levels: vec![AccessLevel::Level(1)],
        }
    }
}

tactic_telemetry::counter_set! {
    /// Provider-side counters.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProviderCounters {
        /// Tags issued (registration responses).
        tags_issued: Add, Always;
        /// Registrations refused (unknown principals).
        registrations_denied: Add, Always;
        /// Content chunks served.
        chunks_served: Add, Always;
        /// Requests answered with content + NACK (invalid tag at the origin).
        nacks: Add, Always;
        /// Tags issued to a principal whose previously issued tag was still
        /// unexpired — i.e. renewals rather than first issuances. Nonzero in
        /// the paper's model too (the refresh margin renews just before
        /// expiry); renewal churn is where it dominates.
        tags_renewed: Add, Always;
    }
}

/// A content provider.
pub struct Provider {
    config: ProviderConfig,
    keypair: KeyPair,
    key_locator: Name,
    /// The key locator as content carries it, built once.
    key_locator_ext: ExtValue,
    /// Parses request names, and spells a chunk's name for the callers
    /// of [`content_name`](Provider::content_name) and
    /// [`build_chunk`](Provider::build_chunk); a request is answered under
    /// its own name, which parsing has proved is that spelling.
    names: ChunkNames,
    /// The signed chunks' content by `obj * chunks_per_object + chunk`,
    /// each published on its first request, under the name that request
    /// carried; empty until the first. Every reply is a copy sharing the
    /// chunk's one content allocation, and with it that one name.
    chunks: Vec<Option<Arc<Content>>>,
    /// The access level each registered principal is entitled to: the
    /// world's one table where a world shares it
    /// ([`share_registry`](Provider::share_registry)), copied on this
    /// provider's first own [`grant`](Provider::grant).
    registry: Arc<Registry>,
    /// Expiry of the most recent tag issued per principal via the
    /// registration procedure — the issuance authority's view of who
    /// currently holds a valid tag, used to classify re-issuances as
    /// renewals. Pre-seeded scenario tags bypass this on purpose.
    issued_until: HashMap<u64, SimTime>,
    counters: ProviderCounters,
}

impl std::fmt::Debug for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Provider")
            .field("prefix", &self.config.prefix.to_string())
            .field("counters", &self.counters)
            .finish()
    }
}

impl Provider {
    /// Creates a provider; the key pair is derived from the prefix so runs
    /// are reproducible.
    pub fn new(config: ProviderConfig) -> Self {
        let keypair = KeyPair::derive(config.prefix.to_string().as_bytes(), 0);
        let key_locator = tag::provider_key_locator(&config.prefix);
        Provider {
            key_locator_ext: ext::key_locator_value(&key_locator),
            names: ChunkNames::new(config.objects, config.chunks_per_object),
            chunks: Vec::new(),
            config,
            keypair,
            key_locator,
            registry: Arc::default(),
            issued_until: HashMap::new(),
            counters: ProviderCounters::default(),
        }
    }

    /// The provider's configuration.
    pub fn config(&self) -> &ProviderConfig {
        &self.config
    }

    /// The signing key pair (the public half goes into the PKI).
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The provider's key locator (`Pub_p`).
    pub fn key_locator(&self) -> &Name {
        &self.key_locator
    }

    /// The counters.
    pub fn counters(&self) -> &ProviderCounters {
        &self.counters
    }

    /// Registers (or updates) a principal's entitlement.
    pub fn grant(&mut self, principal: u64, level: AccessLevel) {
        Arc::make_mut(&mut self.registry).insert(principal, level);
    }

    /// Entitles exactly the principals of `registry`, a table other
    /// providers may share: a world records each grant once, not once
    /// per provider.
    pub fn share_registry(&mut self, registry: Arc<Registry>) {
        self.registry = registry;
    }

    /// The name of chunk `chunk` of object `obj`: `/<prefix>/obj<i>/c<j>`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are outside the catalog.
    pub fn content_name(&self, obj: usize, chunk: usize) -> Name {
        assert!(
            obj < self.config.objects && chunk < self.config.chunks_per_object,
            "outside catalog"
        );
        self.names.name(&self.config.prefix, obj, chunk, None)
    }

    /// The access level assigned to an object.
    pub fn object_level(&self, obj: usize) -> AccessLevel {
        self.config.access_levels[obj % self.config.access_levels.len()]
    }

    /// The signed Data packet for a chunk. Content is published — named,
    /// levelled, signed — offline in deployment, so no per-request cost is
    /// charged, and here it happens once, on the chunk's first request or
    /// call; later ones get a copy of that packet. Published here, the
    /// chunk's name is [`content_name`](Self::content_name)'s; published
    /// by a request, it is the request's own.
    pub fn build_chunk(&mut self, obj: usize, chunk: usize) -> Data {
        self.publish(obj, chunk, None)
    }

    /// [`build_chunk`](Self::build_chunk), publishing under `name` — which
    /// must be `content_name(obj, chunk)`, byte for byte — if given.
    fn publish(&mut self, obj: usize, chunk: usize, name: Option<&Name>) -> Data {
        if self.chunks.is_empty() {
            let catalog = self.config.objects * self.config.chunks_per_object;
            self.chunks.resize(catalog, None);
        }
        let slot = obj * self.config.chunks_per_object + chunk;
        if let Some(published) = &self.chunks[slot] {
            return Data::from_content(published.clone());
        }
        let name = match name {
            Some(name) => name.clone(),
            None => self.content_name(obj, chunk),
        };
        let mut d = Data::new(name, Payload::Synthetic(self.config.chunk_size));
        ext::set_data_access_level(&mut d, self.object_level(obj));
        d.set_extension(ext::EXT_KEY_LOCATOR, self.key_locator_ext.clone());
        let signature = self
            .keypair
            .sign_with(d.signable_len(), |out| d.write_signable(out));
        d.set_signature(signature);
        Data::from_content(self.chunks[slot].insert(d.into_content()).clone())
    }

    /// Issues a signed tag directly (scenario setup: pre-seeding expired
    /// or cross-location tags for attacker models).
    pub fn issue_tag(
        &mut self,
        principal: u64,
        level: AccessLevel,
        access_path: AccessPath,
        expiry: SimTime,
    ) -> SignedTag {
        self.issue_tag_to(&ChunkNames::session(principal), level, access_path, expiry)
    }

    /// [`issue_tag`](Self::issue_tag) for the principal whose
    /// `u<principal>` component the caller already holds.
    fn issue_tag_to(
        &mut self,
        user: &Component,
        level: AccessLevel,
        access_path: AccessPath,
        expiry: SimTime,
    ) -> SignedTag {
        self.counters.tags_issued += 1;
        Tag {
            provider_key_locator: self.key_locator.clone(),
            access_level: level,
            client_key_locator: tag::client_key_locator(&self.config.prefix, user),
            access_path,
            expiry,
        }
        .sign(&self.keypair)
    }

    /// Handles an Interest arriving at the provider outside a transport.
    /// Returns the reply packets (for the arrival face) and the
    /// computation delay charged.
    pub fn handle_interest(
        &mut self,
        interest: &Interest,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> (Vec<Packet>, SimDuration) {
        let ((reply, charge), _) = standalone(now, rng, cost, |ctx| {
            self.handle(interest, 0, &mut NoopProtocolObserver, ctx)
        });
        (reply.into_iter().collect(), charge)
    }

    /// Handles an Interest arriving at the provider, drawing and charging
    /// through `ctx` and reporting its decisions to `obs`: `node` is the
    /// provider's id in the topology, stamped onto every hook. A provider
    /// answers an Interest with at most one packet, returned with the
    /// computation delay it charged.
    pub fn handle<O: ProtocolObserver>(
        &mut self,
        interest: &Interest,
        node: u64,
        obs: &mut O,
        ctx: &mut PlaneCtx<'_>,
    ) -> (Option<Packet>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let now = ctx.now;
        let hop = Hop::new(node, NodeRole::Provider, now);
        if ext::is_registration(interest) {
            return self.handle_registration(interest, ctx);
        }
        obs.on_interest_hop(hop, interest.nonce(), interest.name());
        // Content request reaching the origin: the provider is the origin
        // content router and validates like one.
        let Some((obj, chunk)) = self.parse_content_name(interest.name()) else {
            return (None, charge); // Not ours / outside catalog: drop.
        };
        // Parsed, the request's name is the chunk's: the reply shares it.
        let data = self.publish(obj, chunk, Some(interest.name()));
        let level = self.object_level(obj);
        if level.is_public() {
            self.counters.chunks_served += 1;
            return (Some(Packet::Data(data)), charge);
        }
        let tag = ext::interest_tag(interest);
        let valid = match &tag {
            None => {
                let missing = PrecheckVerdict::Rejected(RejectReason::MissingTag);
                obs.on_precheck(hop, PrecheckStage::Content, missing);
                false
            }
            Some(st) => {
                charge += ctx.cost.sample(Op::PreCheck, ctx.rng);
                let edge = edge_precheck(&st.tag, interest.name(), now);
                let pre = precheck::report(obs, hop, PrecheckStage::Edge, edge).and_then(|()| {
                    let content = content_precheck(&st.tag, level, &self.key_locator);
                    precheck::report(obs, hop, PrecheckStage::Content, content)
                });
                pre.is_ok() && {
                    charge += ctx.cost.sample(Op::SigVerify, ctx.rng);
                    let ok = st.verify(&self.keypair.public());
                    obs.on_sig_verify(hop, ok, false);
                    ok
                }
            }
        };
        self.counters.chunks_served += u64::from(valid);
        let mut d = data;
        if let Some(st) = tag {
            ext::set_data_tag(&mut d, st);
        }
        ext::set_data_flag_f(&mut d, ext::interest_flag_f(interest));
        if !valid {
            // Content + NACK so downstream aggregated valid requests are
            // satisfied while this requester is refused (§5.B).
            ext::set_data_nack(&mut d, NackReason::InvalidTag);
            self.counters.nacks += 1;
            obs.on_nack(hop, NackReason::InvalidTag);
        }
        (Some(Packet::Data(d)), charge)
    }

    fn handle_registration(
        &mut self,
        interest: &Interest,
        ctx: &mut PlaneCtx<'_>,
    ) -> (Option<Packet>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let Some(principal) = registration_principal(interest) else {
            return (None, charge);
        };
        let Some(&level) = self.registry.get(&principal) else {
            // "drops the request otherwise" — an unknown principal.
            self.counters.registrations_denied += 1;
            return (None, charge);
        };
        let now = ctx.now;
        let observed_ap = ext::interest_access_path(interest);
        charge += ctx.cost.sample(Op::SigSign, ctx.rng);
        if self.issued_until.get(&principal).is_some_and(|&u| now < u) {
            self.counters.tags_renewed += 1;
        }
        let expiry = now + self.config.tag_validity;
        self.issued_until.insert(principal, expiry);
        // A registration name carries the principal's component: the tag's
        // client key locator shares it.
        let session = ChunkNames::session_label(principal);
        let user = match interest.name().get(self.config.prefix.len() + 1) {
            Some(user) if user.as_bytes() == session.as_bytes() => user.clone(),
            _ => session.into(),
        };
        let tag = Arc::new(self.issue_tag_to(&user, level, observed_ap, expiry));
        let mut resp = Data::new(interest.name().clone(), Payload::Synthetic(tag.wire_len()));
        ext::set_data_new_tag(&mut resp, tag);
        (Some(Packet::Data(resp)), charge)
    }

    /// Parses `/<prefix>/obj<i>/c<j>` back into catalog indices: `None`
    /// for a name spelled otherwise than [`content_name`](Self::content_name)
    /// spells it (`obj01`, `c+1`). (A name with a session component is
    /// none of this provider's.)
    pub fn parse_content_name(&self, name: &Name) -> Option<(usize, usize)> {
        match self.names.parse(&self.config.prefix, name)? {
            (obj, chunk, None) => Some((obj, chunk)),
            _ => None,
        }
    }
}

/// Extracts the principal id from a registration Interest's extension.
pub fn registration_principal(interest: &Interest) -> Option<u64> {
    interest
        .extension(ext::EXT_REGISTRATION)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Builds a registration Interest for `principal` with sequence `seq`:
/// `/<prefix>/register/u<principal>/<seq>`.
pub fn registration_interest(
    provider_prefix: &Name,
    principal: u64,
    seq: u64,
    nonce: u64,
) -> Interest {
    let user = ChunkNames::session(principal);
    registration_interest_of(provider_prefix, &user, principal, seq, nonce)
}

/// [`registration_interest`] for a `principal` that keeps its own
/// `u<principal>` component (`user`) between registrations.
pub fn registration_interest_of(
    provider_prefix: &Name,
    user: &Component,
    principal: u64,
    seq: u64,
    nonce: u64,
) -> Interest {
    let mut i = Interest::new(tag::registration_name(provider_prefix, user, seq), nonce);
    i.set_extension(ext::EXT_REGISTRATION, principal.to_le_bytes());
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> Provider {
        let mut p = Provider::new(ProviderConfig::paper("/prov0".parse().unwrap()));
        p.grant(7, AccessLevel::Level(2));
        p
    }

    fn free() -> (Rng, CostModel) {
        (Rng::seed_from_u64(1), CostModel::free())
    }

    #[test]
    fn registration_issues_valid_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = registration_interest(&"/prov0".parse().unwrap(), 7, 0, 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        assert_eq!(reply.len(), 1);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        let tag = ext::data_new_tag(d).expect("tag attached");
        assert!(tag.verify(&p.keypair().public()));
        assert_eq!(tag.tag.access_level, AccessLevel::Level(2));
        assert_eq!(tag.tag.expiry, SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(p.counters().tags_issued, 1);
    }

    #[test]
    fn reissuance_before_expiry_counts_as_renewal() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let prefix: Name = "/prov0".parse().unwrap();
        // First issuance: not a renewal.
        p.handle_interest(
            &registration_interest(&prefix, 7, 0, 1),
            SimTime::ZERO,
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 0);
        // Re-registration at t=4s, old tag valid until 10s: a renewal.
        p.handle_interest(
            &registration_interest(&prefix, 7, 1, 2),
            SimTime::from_secs(4),
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 1);
        // Re-registration after the previous tag (valid to 14s) expired:
        // a fresh issuance again.
        p.handle_interest(
            &registration_interest(&prefix, 7, 2, 3),
            SimTime::from_secs(20),
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 1);
        assert_eq!(p.counters().tags_issued, 3);
    }

    #[test]
    fn counters_debug_shows_the_lifecycle_extension() {
        // The struct is embedded in pinned report snapshots: its Debug
        // output is the derived form of all five fields.
        let c = ProviderCounters {
            tags_issued: 1,
            registrations_denied: 2,
            chunks_served: 3,
            nacks: 4,
            tags_renewed: 99,
        };
        assert_eq!(
            format!("{c:?}"),
            "ProviderCounters { tags_issued: 1, registrations_denied: 2, \
             chunks_served: 3, nacks: 4, tags_renewed: 99 }"
        );
    }

    #[test]
    fn unknown_principal_dropped() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = registration_interest(&"/prov0".parse().unwrap(), 99, 0, 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        assert!(reply.is_empty());
        assert_eq!(p.counters().registrations_denied, 1);
    }

    #[test]
    fn a_shared_registry_is_copied_on_a_providers_own_grant() {
        let registry = Arc::new(Registry::from([(7, AccessLevel::Level(2))]));
        let mut p = provider();
        let mut q = Provider::new(ProviderConfig::paper("/prov1".parse().unwrap()));
        p.share_registry(Arc::clone(&registry));
        q.share_registry(Arc::clone(&registry));
        // q's own grant leaves the shared table, and so p, untouched.
        q.grant(99, AccessLevel::Public);
        assert_eq!(registry.len(), 1);
        let (mut rng, cost) = free();
        for (provider, prefix, tags) in [(&mut p, "/prov0", 1), (&mut q, "/prov1", 2)] {
            for principal in [7, 99] {
                let i = registration_interest(&prefix.parse().unwrap(), principal, 0, 1);
                provider.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
            }
            assert_eq!(provider.counters().tags_issued, tags, "{prefix}");
        }
    }

    #[test]
    fn content_served_with_valid_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let tag = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(10),
        );
        let mut i = Interest::new(p.content_name(3, 4), 5);
        ext::set_interest_tag(&mut i, &tag);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(d.payload().len(), 1024);
        assert_eq!(ext::data_access_level(d), AccessLevel::Level(1));
        assert_eq!(p.counters().chunks_served, 1);
    }

    #[test]
    fn content_nacked_without_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = Interest::new(p.content_name(0, 0), 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
        assert_eq!(p.counters().nacks, 1);
        assert_eq!(p.counters().chunks_served, 0);
    }

    #[test]
    fn expired_tag_nacked_at_origin() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let tag = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(1),
        );
        let mut i = Interest::new(p.content_name(0, 0), 1);
        ext::set_interest_tag(&mut i, &tag);
        let (reply, _) = p.handle_interest(&i, SimTime::from_secs(5), &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
    }

    #[test]
    fn public_catalog_needs_no_tag() {
        let mut cfg = ProviderConfig::paper("/open".parse().unwrap());
        cfg.access_levels = vec![AccessLevel::Public];
        let mut p = Provider::new(cfg);
        let (mut rng, cost) = free();
        let i = Interest::new(p.content_name(0, 0), 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
    }

    #[test]
    fn chunk_signature_verifies() {
        let mut p = provider();
        let d = p.build_chunk(1, 2);
        assert!(p
            .keypair()
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
    }

    #[test]
    fn content_name_roundtrip() {
        let p = provider();
        let n = p.content_name(12, 34);
        assert_eq!(n.to_string(), "/prov0/obj12/c34");
        assert_eq!(p.parse_content_name(&n), Some((12, 34)));
        assert_eq!(
            p.parse_content_name(&"/prov0/obj99/c0".parse().unwrap()),
            None
        );
        assert_eq!(
            p.parse_content_name(&"/other/obj1/c1".parse().unwrap()),
            None
        );
        assert_eq!(
            p.parse_content_name(&"/prov0/register/u7/0".parse().unwrap()),
            None
        );
    }

    #[test]
    fn a_chunk_request_is_answered_under_its_own_name_or_not_at_all() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let tag = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(10),
        );
        // The canonical spelling first, then others of the same chunk: a
        // reply under another name than the request's satisfies no PIT
        // entry, so the provider must not send one.
        for (uri, answered) in [
            ("/prov0/obj1/c1", true),
            ("/prov0/obj01/c1", false),
            ("/prov0/obj1/c+1", false),
            ("/prov0/obj1/c001", false),
            ("/prov0/obj2/c3", true),
        ] {
            let mut i = Interest::new(uri.parse().unwrap(), 1);
            ext::set_interest_tag(&mut i, &tag);
            let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
            let names: Vec<&Name> = reply.iter().map(Packet::name).collect();
            let want: Vec<&Name> = answered.then_some(i.name()).into_iter().collect();
            assert_eq!(names, want, "{uri}");
        }
        assert_eq!(p.counters().chunks_served, 2);
        assert_eq!(p.counters().nacks, 0);
    }

    #[test]
    fn access_levels_cycle() {
        let mut cfg = ProviderConfig::paper("/p".parse().unwrap());
        cfg.access_levels = vec![AccessLevel::Level(1), AccessLevel::Level(2)];
        let p = Provider::new(cfg);
        assert_eq!(p.object_level(0), AccessLevel::Level(1));
        assert_eq!(p.object_level(1), AccessLevel::Level(2));
        assert_eq!(p.object_level(2), AccessLevel::Level(1));
    }
}
