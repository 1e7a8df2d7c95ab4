//! Consumers: the Zipf-window client and the threat-model attackers.
//!
//! The paper's client model (§8.A): "a Zipf-window client in which each
//! client is equipped with a fixed size window for outstanding requests
//! (set to 5 ...). Clients take the content popularity (Zipf distribution
//! with α = 0.7) into account to select and request new contents. Clients
//! first register themselves at the content providers, if they do not
//! possess any valid tag from that provider, and then request the selected
//! contents." Attackers use the same windowed engine with a tag strategy
//! from the threat model (§3.C); their outstanding requests die by the 1 s
//! request expiry, which throttles them ("a secondary advantage of
//! request-based DoS prevention", §8.B).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use tactic_crypto::schnorr::Signature;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Nack};
use tactic_net::fault::RetransmitPolicy;
use tactic_sim::dist::Zipf;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::ext;
use crate::provider::{registration_interest, ChunkNames};
use crate::tag::{SignedTag, Tag};

/// One provider's catalog as seen by consumers.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The provider's prefix.
    pub prefix: Name,
    /// Objects in the catalog.
    pub objects: usize,
    /// Chunks per object.
    pub chunks: usize,
}

/// Every provider's catalog, plus the chunk-name components all of them
/// share: built once per network and handed (behind an `Arc`) to every
/// consumer and attack driver, so naming a chunk formats nothing.
#[derive(Debug)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
    names: ChunkNames,
}

impl Catalog {
    /// The shared catalog over `entries` (provider index = position).
    pub fn new(entries: Vec<CatalogEntry>) -> Arc<Catalog> {
        let most = |f: fn(&CatalogEntry) -> usize| entries.iter().map(f).max().unwrap_or(0);
        Arc::new(Catalog {
            names: ChunkNames::new(most(|e| e.objects), most(|e| e.chunks)),
            entries,
        })
    }

    /// The per-provider entries.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// `/<prefix of prov>/obj<obj>/c<chunk>`.
    pub fn chunk_name(&self, prov: usize, obj: usize, chunk: usize) -> Name {
        self.names.name(&self.entries[prov].prefix, obj, chunk)
    }
}

/// The attacker strategies of the threat model (§3.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackerStrategy {
    /// (a) request private content without possessing a tag.
    NoTag,
    /// (b) request with a fabricated tag (legit provider key locator,
    /// forged signature).
    FakeTag,
    /// (c) replay a genuinely-issued but expired tag (a revoked client).
    ExpiredTag,
    /// (d) use a genuine tag whose access level is below the content's.
    InsufficientLevel,
    /// (e) replay a tag issued to a client at another location (defeated
    /// only by access-path authentication).
    SharedTag,
}

impl AttackerStrategy {
    /// The paper-replica attacker mix — the threats its simulation covers
    /// (access paths were left to future work, so no `SharedTag`).
    pub const PAPER_MIX: [AttackerStrategy; 4] = [
        AttackerStrategy::NoTag,
        AttackerStrategy::FakeTag,
        AttackerStrategy::ExpiredTag,
        AttackerStrategy::InsufficientLevel,
    ];
}

/// Client or attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerKind {
    /// A legitimate, registered client.
    Client,
    /// An unauthorized user following a strategy.
    Attacker(AttackerStrategy),
}

impl ConsumerKind {
    /// True for legitimate clients.
    pub fn is_client(self) -> bool {
        matches!(self, ConsumerKind::Client)
    }
}

/// Per-consumer measurement record.
#[derive(Debug, Clone, Default)]
pub struct ConsumerStats {
    /// Content chunks requested (excludes registrations and retries are
    /// counted again, as in the paper's "requested chunk" totals).
    pub requested_chunks: u64,
    /// Content chunks received.
    pub received_chunks: u64,
    /// Standalone NACKs received.
    pub nacks: u64,
    /// Outstanding requests that expired.
    pub timeouts: u64,
    /// Interests retransmitted after an expiry (resilience extension;
    /// zero under the paper's no-retry clients).
    pub retransmissions: u64,
    /// Chunks abandoned after exhausting their retransmission budget.
    pub gave_up: u64,
    /// Handovers performed (mobility extension).
    pub moves: u64,
    /// Times at which tag requests were sent (Fig. 6's `Q`).
    pub tag_requests: Vec<SimTime>,
    /// Times at which fresh tags arrived (Fig. 6's `R`).
    pub tags_received: Vec<SimTime>,
    /// `(arrival time, latency seconds)` per received chunk (Fig. 5).
    pub latencies: Vec<(SimTime, f64)>,
}

#[derive(Debug, Clone)]
enum PendingWork {
    Chunk {
        prov: usize,
        obj: usize,
        chunk: usize,
    },
    Registration {
        prov: usize,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    sent: SimTime,
    /// 0 = original Interest only; bumped per retransmission.
    attempts: u32,
    work: PendingWork,
}

/// Consumer configuration.
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// Stable principal identifier (used in registrations and key names).
    pub principal: u64,
    /// Client or attacker.
    pub kind: ConsumerKind,
    /// Outstanding-request window (paper: 5).
    pub window: usize,
    /// Request expiry (paper: 1 s).
    pub request_timeout: SimDuration,
    /// Zipf exponent over the global object population (paper: 0.7).
    pub zipf_alpha: f64,
    /// Proactive tag-refresh margin: a tag within this much of expiry is
    /// treated as stale so in-flight requests don't cross the expiry and
    /// get dropped at the edge. Zero reproduces the paper's bare model.
    pub refresh_margin: SimDuration,
    /// Optional Interest retransmission (`None` = the paper's no-retry
    /// clients). A retransmission re-presents the consumer's current tag,
    /// so it re-exercises the edge's Protocol 2/3 validation path.
    pub retransmit: Option<RetransmitPolicy>,
}

/// Proactive-renewal state (the churn tag-lifetime policy): per-tag
/// deadlines and the dedicated lifecycle RNG the jitter is drawn from.
struct RenewalState {
    lead: SimDuration,
    jitter: SimDuration,
    rng: Rng,
    renew_at: HashMap<usize, SimTime>,
}

/// A windowed consumer (client or attacker).
pub struct Consumer {
    config: ConsumerConfig,
    catalog: Arc<Catalog>,
    zipf: Zipf,
    rng: Rng,
    renewal: Option<RenewalState>,
    tags: HashMap<usize, Arc<SignedTag>>,
    preset_tags: HashMap<usize, Arc<SignedTag>>,
    reg_pending: Option<usize>,
    reg_seq: u64,
    nonce_seq: u64,
    current: Option<(usize, usize, usize)>,
    in_flight: HashMap<Name, Pending>,
    retry: VecDeque<(usize, usize, usize)>,
    stats: ConsumerStats,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("principal", &self.config.principal)
            .field("kind", &self.config.kind)
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

impl Consumer {
    /// Creates a consumer over the given catalogs.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or the window is zero.
    pub fn new(config: ConsumerConfig, catalog: Arc<Catalog>, rng: Rng) -> Self {
        assert!(!catalog.entries.is_empty(), "consumer needs a catalog");
        assert!(config.window > 0, "window must be positive");
        let total_objects: usize = catalog.entries.iter().map(|c| c.objects).sum();
        let zipf = Zipf::new(total_objects, config.zipf_alpha);
        Consumer {
            config,
            catalog,
            zipf,
            rng,
            renewal: None,
            tags: HashMap::new(),
            preset_tags: HashMap::new(),
            reg_pending: None,
            reg_seq: 0,
            nonce_seq: 0,
            current: None,
            in_flight: HashMap::new(),
            retry: VecDeque::new(),
            stats: ConsumerStats::default(),
        }
    }

    /// The consumer's kind.
    pub fn kind(&self) -> ConsumerKind {
        self.config.kind
    }

    /// The principal id.
    pub fn principal(&self) -> u64 {
        self.config.principal
    }

    /// Measurement record.
    pub fn stats(&self) -> &ConsumerStats {
        &self.stats
    }

    /// Enables proactive tag renewal (the churn tag-lifetime policy):
    /// every fresh tag gets a renewal deadline `lead` plus a uniform
    /// jitter in `[0, jitter)` before its expiry, drawn once per tag from
    /// `rng`; past the deadline the consumer re-registers even though the
    /// tag is still valid. Callers must fork `rng` from the dedicated
    /// lifecycle stream so consumers without renewal draw nothing from it
    /// and stay byte-identical to pre-lifecycle builds.
    pub fn enable_renewal(&mut self, lead: SimDuration, jitter: SimDuration, rng: Rng) {
        self.renewal = Some(RenewalState {
            lead,
            jitter,
            rng,
            renew_at: HashMap::new(),
        });
    }

    /// Seeds a fixed tag for `provider_index` (expired-tag / shared-tag
    /// attacker setups).
    pub fn preset_tag(&mut self, provider_index: usize, tag: SignedTag) {
        self.preset_tags.insert(provider_index, Arc::new(tag));
    }

    /// Outstanding request count.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The configured request timeout.
    pub fn request_timeout(&self) -> SimDuration {
        self.config.request_timeout
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce_seq += 1;
        (self.config.principal << 24) ^ self.nonce_seq
    }

    /// Maps a global Zipf rank to `(provider, object)`.
    fn locate(&self, mut rank: usize) -> (usize, usize) {
        for (i, c) in self.catalog.entries.iter().enumerate() {
            if rank < c.objects {
                return (i, rank);
            }
            rank -= c.objects;
        }
        unreachable!("rank within total objects");
    }

    fn next_work(&mut self) -> (usize, usize, usize) {
        if let Some(w) = self.retry.pop_front() {
            return w;
        }
        match self.current {
            Some((p, o, c)) if c < self.catalog.entries[p].chunks => {
                self.current = Some((p, o, c + 1));
                (p, o, c)
            }
            _ => {
                let rank = self.zipf.sample(&mut self.rng);
                let (p, o) = self.locate(rank);
                self.current = Some((p, o, 1));
                (p, o, 0)
            }
        }
    }

    /// True when the renewal deadline for `prov`'s tag has passed (always
    /// false without the churn policy).
    fn renewal_due(&self, prov: usize, now: SimTime) -> bool {
        self.renewal
            .as_ref()
            .is_some_and(|r| r.renew_at.get(&prov).is_some_and(|&at| now >= at))
    }

    fn tag_for(&mut self, prov: usize, now: SimTime) -> TagChoice {
        match self.config.kind {
            ConsumerKind::Client | ConsumerKind::Attacker(AttackerStrategy::InsufficientLevel) => {
                match self.tags.get(&prov) {
                    Some(t)
                        if !t.tag.is_expired(now + self.config.refresh_margin)
                            && !self.renewal_due(prov, now) =>
                    {
                        TagChoice::Use(t.clone())
                    }
                    _ => TagChoice::NeedRegistration,
                }
            }
            ConsumerKind::Attacker(AttackerStrategy::NoTag) => TagChoice::None,
            ConsumerKind::Attacker(AttackerStrategy::FakeTag) => {
                if let Some(t) = self.tags.get(&prov) {
                    return TagChoice::Use(t.clone());
                }
                // Fabricate: correct public naming, forged signature.
                let prefix = self.catalog.entries[prov].prefix.clone();
                let fake = Arc::new(SignedTag::new(
                    Tag {
                        provider_key_locator: prefix.child("KEY").child("1"),
                        access_level: AccessLevel::Level(200),
                        client_key_locator: prefix
                            .child("users")
                            .child(format!("u{}", self.config.principal))
                            .child("KEY"),
                        access_path: AccessPath::EMPTY,
                        expiry: SimTime::MAX,
                    },
                    Signature::forged(self.rng.next_u64()),
                ));
                self.tags.insert(prov, fake.clone());
                TagChoice::Use(fake)
            }
            ConsumerKind::Attacker(AttackerStrategy::ExpiredTag)
            | ConsumerKind::Attacker(AttackerStrategy::SharedTag) => {
                match self.preset_tags.get(&prov) {
                    Some(t) => TagChoice::Use(t.clone()),
                    None => TagChoice::None,
                }
            }
        }
    }

    /// Fills the window, pushing the Interests to transmit onto `out`.
    pub fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        while self.in_flight.len() < self.config.window {
            let (prov, obj, chunk) = self.next_work();
            match self.tag_for(prov, now) {
                TagChoice::NeedRegistration => {
                    // Put the work back for after registration.
                    self.retry.push_front((prov, obj, chunk));
                    if self.reg_pending.is_some() {
                        break; // Already waiting for a tag.
                    }
                    self.reg_pending = Some(prov);
                    self.reg_seq += 1;
                    let nonce = self.next_nonce();
                    let i = registration_interest(
                        &self.catalog.entries[prov].prefix,
                        self.config.principal,
                        self.reg_seq,
                        nonce,
                    );
                    self.stats.tag_requests.push(now);
                    self.in_flight.insert(
                        i.name().clone(),
                        Pending {
                            sent: now,
                            attempts: 0,
                            work: PendingWork::Registration { prov },
                        },
                    );
                    out.push(i);
                    break; // Window blocked until the tag arrives.
                }
                choice => {
                    let name = self.catalog.chunk_name(prov, obj, chunk);
                    if self.in_flight.contains_key(&name) {
                        continue; // Already outstanding (retry overlap).
                    }
                    let nonce = self.next_nonce();
                    let mut i = Interest::new(name.clone(), nonce);
                    i.set_lifetime_ms((self.config.request_timeout.as_nanos() / 1_000_000) as u32);
                    if let TagChoice::Use(t) = choice {
                        ext::set_interest_tag(&mut i, t);
                    }
                    self.stats.requested_chunks += 1;
                    self.in_flight.insert(
                        name,
                        Pending {
                            sent: now,
                            attempts: 0,
                            work: PendingWork::Chunk { prov, obj, chunk },
                        },
                    );
                    out.push(i);
                }
            }
        }
    }

    /// Handles an arriving Data packet, pushing follow-up Interests onto
    /// `out`.
    pub fn on_data(&mut self, data: &Data, now: SimTime, out: &mut Vec<Interest>) {
        let Some(pending) = self.in_flight.remove(data.name()) else {
            return self.fill(now, out); // Stale/duplicate: ignore, keep pumping.
        };
        match pending.work {
            PendingWork::Registration { prov } => {
                self.reg_pending = None;
                if let Some(tag) = ext::data_new_tag(data) {
                    self.stats.tags_received.push(now);
                    if let Some(r) = &mut self.renewal {
                        let jitter_ns = match r.jitter.as_nanos() {
                            0 => 0,
                            j => r.rng.next_u64() % j,
                        };
                        let deadline_ns = tag
                            .tag
                            .expiry
                            .as_nanos()
                            .saturating_sub(r.lead.as_nanos() + jitter_ns);
                        r.renew_at.insert(prov, SimTime::from_nanos(deadline_ns));
                    }
                    self.tags.insert(prov, tag);
                }
            }
            PendingWork::Chunk { .. } => {
                if ext::data_nack(data).is_some() {
                    // Content-attached NACK should have been filtered by
                    // the edge; treat defensively as a rejection.
                    self.stats.nacks += 1;
                } else {
                    self.stats.received_chunks += 1;
                    let latency = now.saturating_since(pending.sent).as_secs_f64();
                    self.stats.latencies.push((now, latency));
                }
            }
        }
        self.fill(now, out)
    }

    /// Handles a standalone NACK, pushing follow-up Interests onto `out`.
    pub fn on_nack(&mut self, nack: &Nack, now: SimTime, out: &mut Vec<Interest>) {
        let Some(pending) = self.in_flight.remove(nack.interest().name()) else {
            return self.fill(now, out);
        };
        self.stats.nacks += 1;
        match pending.work {
            PendingWork::Registration { .. } => {
                self.reg_pending = None;
            }
            PendingWork::Chunk { prov, obj, chunk } => {
                // An InvalidTag NACK usually means our tag expired in
                // flight: forget it so the next fill re-registers
                // (clients) or keeps hammering (attackers).
                if self.config.kind.is_client() {
                    self.tags.remove(&prov);
                }
                self.retry.push_back((prov, obj, chunk));
            }
        }
        self.fill(now, out)
    }

    /// Handover: the consumer moved to a new access point. Per §4.A ("a
    /// mobile client needs to request a new tag every time she moves to a
    /// new location") all cached tags are dropped, so the next fill
    /// re-registers from the new location; attacker preset tags are
    /// deliberately kept (a replayed tag does not renew itself).
    pub fn on_move(&mut self, _now: SimTime) {
        self.tags.clear();
        if let Some(r) = &mut self.renewal {
            r.renew_at.clear();
        }
        self.reg_pending = None;
        self.stats.moves += 1;
    }

    /// Timeout check for `name` sent at `sent`; fires only if that exact
    /// attempt is still outstanding (a stale expiry — the chunk was since
    /// retransmitted or completed — is a no-op). Under a retransmission
    /// policy an expired chunk is re-requested in place with a fresh
    /// nonce, a backed-off lifetime, and the consumer's *current* tag
    /// re-attached; exhausted chunks are given up. Pushes follow-up
    /// Interests onto `out`.
    pub fn on_timeout(
        &mut self,
        name: &Name,
        sent: SimTime,
        now: SimTime,
        out: &mut Vec<Interest>,
    ) {
        let still_pending = matches!(self.in_flight.get(name), Some(p) if p.sent == sent);
        if !still_pending {
            return;
        }
        self.stats.timeouts += 1;
        let pending = self.in_flight.get(name).cloned().expect("checked above");
        match pending.work {
            PendingWork::Registration { .. } => {
                self.in_flight.remove(name);
                self.reg_pending = None;
                self.fill(now, out)
            }
            PendingWork::Chunk { prov, obj, chunk } => {
                if let Some(policy) = self.config.retransmit {
                    if pending.attempts < policy.max_retries {
                        match self.tag_for(prov, now) {
                            TagChoice::NeedRegistration => {
                                // The tag expired while the chunk was in
                                // flight: route the chunk through the
                                // ordinary retry path so the next fill
                                // re-registers first.
                                self.in_flight.remove(name);
                                self.retry.push_back((prov, obj, chunk));
                                return self.fill(now, out);
                            }
                            choice => {
                                let p = self.in_flight.get_mut(name).expect("checked above");
                                p.attempts += 1;
                                p.sent = now;
                                let attempts = p.attempts;
                                self.stats.retransmissions += 1;
                                let nonce = self.next_nonce();
                                let mut i = Interest::new(name.clone(), nonce);
                                let lifetime =
                                    policy.timeout_for(self.config.request_timeout, attempts);
                                i.set_lifetime_ms((lifetime.as_nanos() / 1_000_000) as u32);
                                if let TagChoice::Use(t) = choice {
                                    ext::set_interest_tag(&mut i, t);
                                }
                                return out.push(i);
                            }
                        }
                    }
                    self.stats.gave_up += 1;
                    self.in_flight.remove(name);
                    return self.fill(now, out);
                }
                self.in_flight.remove(name);
                self.retry.push_back((prov, obj, chunk));
                self.fill(now, out)
            }
        }
    }

    /// The expiry to schedule for the Interest currently in flight for
    /// `name`: the base timeout scaled by the retransmission backoff of
    /// its attempt count. Unknown names, registrations (never
    /// retransmitted, so never backed off), and policy-free consumers all
    /// get the base timeout.
    pub fn timeout_for(&self, name: &Name) -> SimDuration {
        match (self.config.retransmit, self.in_flight.get(name)) {
            (Some(policy), Some(p)) => policy.timeout_for(self.config.request_timeout, p.attempts),
            _ => self.config.request_timeout,
        }
    }
}

impl tactic_net::Requester for Consumer {
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        Consumer::fill(self, now, out)
    }

    fn on_timeout(&mut self, name: &Name, sent: SimTime, now: SimTime, out: &mut Vec<Interest>) {
        Consumer::on_timeout(self, name, sent, now, out)
    }

    /// Drops the tags so the next request re-registers from the new
    /// location, then refills the window immediately.
    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        self.on_move(now);
        Consumer::fill(self, now, out)
    }

    fn timeout_for(&self, name: &Name) -> SimDuration {
        Consumer::timeout_for(self, name)
    }
}

#[derive(Debug, Clone)]
enum TagChoice {
    Use(Arc<SignedTag>),
    None,
    NeedRegistration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a sink-based requester call pushed.
    fn sent(call: impl FnOnce(&mut Vec<Interest>)) -> Vec<Interest> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }
    use tactic_crypto::schnorr::KeyPair;
    use tactic_ndn::packet::Payload;

    fn catalog() -> Arc<Catalog> {
        Catalog::new(vec![
            CatalogEntry {
                prefix: "/prov0".parse().unwrap(),
                objects: 5,
                chunks: 3,
            },
            CatalogEntry {
                prefix: "/prov1".parse().unwrap(),
                objects: 5,
                chunks: 3,
            },
        ])
    }

    fn client_with(kind: ConsumerKind, retransmit: Option<RetransmitPolicy>) -> Consumer {
        Consumer::new(
            ConsumerConfig {
                principal: 7,
                kind,
                window: 5,
                request_timeout: SimDuration::from_secs(1),
                zipf_alpha: 0.7,
                refresh_margin: SimDuration::ZERO,
                retransmit,
            },
            catalog(),
            Rng::seed_from_u64(42),
        )
    }

    fn client(kind: ConsumerKind) -> Consumer {
        client_with(kind, None)
    }

    fn issue_tag(prefix: &str, expiry: SimTime) -> SignedTag {
        let kp = KeyPair::derive(prefix.as_bytes(), 0);
        let prefix: Name = prefix.parse().unwrap();
        Tag {
            provider_key_locator: prefix.child("KEY").child("1"),
            access_level: AccessLevel::Level(2),
            client_key_locator: prefix.child("users").child("u7").child("KEY"),
            access_path: AccessPath::EMPTY,
            expiry,
        }
        .sign(&kp)
    }

    fn reg_response(name: &Name, tag: &SignedTag) -> Data {
        let mut d = Data::new(name.clone(), Payload::Synthetic(100));
        ext::set_data_new_tag(&mut d, tag);
        d
    }

    #[test]
    fn client_registers_before_requesting() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 1, "only the registration goes out first");
        assert!(ext::is_registration(&sends[0]));
        assert_eq!(c.stats().tag_requests.len(), 1);
        assert_eq!(c.stats().requested_chunks, 0);
    }

    #[test]
    fn tag_arrival_opens_the_window() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let prov_prefix = reg_name.prefix(1).to_string();
        let tag = issue_tag(&prov_prefix, SimTime::from_secs(10));
        let follow = sent(|o| {
            c.on_data(
                &reg_response(&reg_name, &tag),
                SimTime::from_secs_f64(0.01),
                o,
            )
        });
        assert_eq!(follow.len(), 5, "window fills after the tag arrives");
        assert!(follow.iter().all(|i| ext::interest_tag(i).is_some()));
        assert_eq!(c.stats().tags_received.len(), 1);
        assert_eq!(c.stats().requested_chunks, 5);
    }

    #[test]
    fn chunks_pipeline_within_an_object() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(100));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        // 3-chunk objects: the first 3 interests are chunks 0..3 of one
        // object; the window continues into the next sampled object.
        let names: Vec<String> = follow.iter().map(|i| i.name().to_string()).collect();
        assert!(names[0].ends_with("/c0"));
        assert!(names[1].ends_with("/c1"));
        assert!(names[2].ends_with("/c2"));
    }

    #[test]
    fn data_receipt_records_latency_and_refills() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(100));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        let first = follow[0].name().clone();
        let d = Data::new(first, Payload::Synthetic(1024));
        let more = sent(|o| c.on_data(&d, SimTime::from_secs_f64(0.050), o));
        assert_eq!(c.stats().received_chunks, 1);
        assert_eq!(c.stats().latencies.len(), 1);
        assert!((c.stats().latencies[0].1 - 0.050).abs() < 1e-9);
        assert_eq!(more.len(), 1, "freed slot is refilled");
        assert_eq!(c.in_flight(), 5);
    }

    #[test]
    fn timeout_retries_the_chunk() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(100));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        let victim = follow[1].name().clone();
        let refills = sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(1), o));
        assert_eq!(c.stats().timeouts, 1);
        // The retried chunk goes out again (same name, new nonce).
        assert!(refills.iter().any(|i| i.name() == &victim));
        // A stale timeout (wrong send time) is a no-op.
        let noop = sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(2), o));
        assert!(noop.is_empty());
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn retransmission_represents_the_tag_and_backs_off() {
        let policy = RetransmitPolicy {
            max_retries: 2,
            max_backoff_shift: 4,
        };
        let mut c = client_with(ConsumerKind::Client, Some(policy));
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(100));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        let victim = follow[0].name().clone();
        assert_eq!(c.timeout_for(&victim), SimDuration::from_secs(1));

        // First expiry: the chunk is retransmitted in place with a fresh
        // nonce and the tag re-attached (Protocol 2/3 re-validation).
        let resend = sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(1), o));
        assert_eq!(resend.len(), 1);
        assert_eq!(resend[0].name(), &victim);
        assert_ne!(resend[0].nonce(), follow[0].nonce());
        assert_eq!(
            *ext::interest_tag(&resend[0]).expect("tag re-presented"),
            tag
        );
        assert_eq!(c.timeout_for(&victim), SimDuration::from_secs(2));
        // The original attempt's expiry is stale now: a no-op.
        assert!(
            sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(2), o)).is_empty()
        );
        assert_eq!(c.stats().retransmissions, 1);

        // Second expiry retransmits again; the third gives the chunk up
        // and refills the freed slot with other work.
        let t1 = SimTime::from_secs(1);
        let resend2 = sent(|o| c.on_timeout(&victim, t1, SimTime::from_secs(3), o));
        assert_eq!(resend2.len(), 1);
        let t2 = SimTime::from_secs(3);
        let refill = sent(|o| c.on_timeout(&victim, t2, SimTime::from_secs(7), o));
        assert!(refill.iter().all(|i| i.name() != &victim));
        assert_eq!(c.stats().gave_up, 1);
        assert_eq!(c.stats().retransmissions, 2);
        // Retransmissions never inflate the requested-chunk total.
        assert_eq!(c.stats().requested_chunks, 6);
    }

    #[test]
    fn retransmission_after_tag_expiry_reregisters_instead() {
        let mut c = client_with(ConsumerKind::Client, Some(RetransmitPolicy::default()));
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(2));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        let victim = follow[0].name().clone();
        // The expiry fires after the tag itself lapsed: instead of
        // replaying a dead tag the consumer falls back to registration.
        let out = sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(3), o));
        assert!(out.iter().any(ext::is_registration));
        assert_eq!(c.stats().retransmissions, 0);
        assert_eq!(c.stats().tag_requests.len(), 2);
    }

    #[test]
    fn expired_tag_triggers_reregistration() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(10));
        sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        // Drain the window via timeouts past the tag's expiry: the next
        // fill must re-register instead of using the stale tag.
        let names: Vec<Name> = c.in_flight.keys().cloned().collect();
        let mut regs = 0;
        for n in names {
            for i in sent(|o| c.on_timeout(&n, SimTime::ZERO, SimTime::from_secs(11), o)) {
                if ext::is_registration(&i) {
                    regs += 1;
                }
            }
        }
        assert_eq!(regs, 1, "exactly one re-registration");
        assert_eq!(c.stats().tag_requests.len(), 2);
    }

    #[test]
    fn renewal_churn_reregisters_before_expiry() {
        let mut c = client(ConsumerKind::Client);
        c.enable_renewal(
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            Rng::seed_from_u64(9),
        );
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(10));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        // The deadline lands in [7, 8) s: lead 2 s plus jitter < 1 s
        // before the 10 s expiry. At 5 s the tag is still used.
        let victim = follow[0].name().clone();
        let early = sent(|o| c.on_timeout(&victim, SimTime::ZERO, SimTime::from_secs(5), o));
        assert!(early.iter().all(|i| !ext::is_registration(i)));
        // Past the deadline — but well before expiry — the next fill
        // re-registers even though the tag is valid until 10 s.
        let names: Vec<Name> = c.in_flight.keys().cloned().collect();
        let mut regs = 0;
        for n in names {
            for i in sent(|o| c.on_timeout(&n, SimTime::from_secs(5), SimTime::from_secs(8), o)) {
                if ext::is_registration(&i) {
                    regs += 1;
                }
            }
        }
        assert_eq!(regs, 1, "exactly one proactive renewal request");
        assert_eq!(c.stats().tag_requests.len(), 2);
    }

    #[test]
    fn no_tag_attacker_sends_untagged_interests() {
        let mut a = client(ConsumerKind::Attacker(AttackerStrategy::NoTag));
        let sends = sent(|o| a.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 5);
        assert!(sends.iter().all(|i| ext::interest_tag(i).is_none()));
        assert!(sends.iter().all(|i| !ext::is_registration(i)));
    }

    #[test]
    fn fake_tag_attacker_forges_plausible_tags() {
        let mut a = client(ConsumerKind::Attacker(AttackerStrategy::FakeTag));
        let sends = sent(|o| a.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 5);
        let tag = ext::interest_tag(&sends[0]).expect("fake tag attached");
        // Plausible fields, bogus signature.
        assert!(tag.tag.provider_key_locator.to_string().contains("/KEY/"));
        let kp = KeyPair::derive(b"/prov0", 0);
        assert!(!tag.verify(&kp.public()));
    }

    #[test]
    fn expired_tag_attacker_uses_preset() {
        let mut a = client(ConsumerKind::Attacker(AttackerStrategy::ExpiredTag));
        let stale0 = issue_tag("/prov0", SimTime::from_nanos(1));
        let stale1 = issue_tag("/prov1", SimTime::from_nanos(1));
        a.preset_tag(0, stale0.clone());
        a.preset_tag(1, stale1.clone());
        let sends = sent(|o| a.fill(SimTime::from_secs(5), o));
        assert_eq!(sends.len(), 5);
        let t = ext::interest_tag(&sends[0]).unwrap();
        assert!(t.tag.is_expired(SimTime::from_secs(5)));
        assert!(*t == stale0 || *t == stale1);
    }

    #[test]
    fn nack_on_chunk_requeues_and_drops_client_tag() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), SimTime::from_secs(100));
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        let victim = follow[0].clone();
        let refills = sent(|o| {
            c.on_nack(
                &Nack::new(victim.clone(), tactic_ndn::packet::NackReason::InvalidTag),
                SimTime::from_secs_f64(0.1),
                o,
            )
        });
        assert_eq!(c.stats().nacks, 1);
        // Tag was dropped, so the refill starts with a re-registration.
        assert!(refills.iter().any(ext::is_registration));
    }

    #[test]
    fn window_never_exceeds_configured_size() {
        let mut a = client(ConsumerKind::Attacker(AttackerStrategy::NoTag));
        let mut out = sent(|o| a.fill(SimTime::ZERO, o));
        assert_eq!(a.in_flight(), 5);
        out.extend(sent(|o| a.fill(SimTime::from_secs(1), o)));
        assert_eq!(a.in_flight(), 5, "fill is idempotent at capacity");
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn zipf_prefers_popular_objects() {
        let mut a = client(ConsumerKind::Attacker(AttackerStrategy::NoTag));
        let mut first_obj = 0u32;
        for _ in 0..400 {
            let (p, o) = a.locate(a.zipf.sample(&mut a.rng.clone()));
            a.rng.next_u64(); // decorrelate
            if p == 0 && o == 0 {
                first_obj += 1;
            }
        }
        // Rank-0 of 10 objects under Zipf(0.7) has pmf ~0.23; uniform
        // would be 0.1.
        assert!(
            first_obj > 55,
            "only {first_obj}/400 hits on the most popular object"
        );
    }
}
