//! Consumers: TACTIC's clients and the threat-model attackers.
//!
//! The paper's client model (§8.A): "a Zipf-window client in which each
//! client is equipped with a fixed size window for outstanding requests
//! (set to 5 ...). Clients take the content popularity (Zipf distribution
//! with α = 0.7) into account to select and request new contents. Clients
//! first register themselves at the content providers, if they do not
//! possess any valid tag from that provider, and then request the selected
//! contents." Attackers keep the same window under a tag strategy from
//! the threat model (§3.C); their outstanding requests die by the 1 s
//! request expiry, which throttles them ("a secondary advantage of
//! request-based DoS prevention", §8.B).
//!
//! The window is a [`ZipfRequester`]; a [`Consumer`] adds what access
//! control needs of a user: the tag wallet, the decision per request
//! between presenting a tag, sending bare and registering first,
//! registration and proactive renewal, and the reactions to a NACK, an
//! expiry and a handover that follow from holding tags.
//!
//! A fleet is mostly users, so a user's state is a few short lists: the
//! wallet, the preset tags of an attacker and the renewal deadlines are
//! `(provider, value)` lists that hold their first entry in place (a user
//! deals with a handful of providers), and the renewal state, which only
//! churn clients have, is boxed. A user's first window allocates the
//! window block and its registration name's components and nothing else
//! (`tests/alloc_budget.rs` (h), exact); CI greps that no std hash table
//! returns to this file or to the requester.

use std::sync::Arc;

use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Data, Interest, Nack};
use tactic_net::fault::RetransmitPolicy;
use tactic_net::{Catalog, ChunkNames, Expiry, Requester, RequesterConfig, Work, ZipfRequester};
use tactic_sim::records::Records;
use tactic_sim::rng::Rng;
use tactic_sim::stats::TimeSeries;
use tactic_sim::time::{SimDuration, SimTime};

use crate::ext;
use crate::provider::registration_interest_of;
use crate::tag::SignedTag;

/// How long before its expiry a client stops presenting a tag and
/// registers anew: about one round trip, so a request in flight does not
/// cross the expiry and die at the edge.
pub const REFRESH_MARGIN: SimDuration = SimDuration::from_millis(250);

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

/// Per-consumer measurement record: counts only, so it is the same size
/// however long the consumer ran. Its latencies are
/// [`Consumer::latency`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsumerStats {
    /// Content chunks requested, as in the paper's "requested chunk"
    /// totals: registrations and retransmissions are not counted, a chunk
    /// requeued after a NACK or an expiry is counted again.
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
    /// Tag requests sent (Fig. 6's `Q`).
    pub tag_requests: u64,
    /// Fresh tags received (Fig. 6's `R`).
    pub tags_received: u64,
    /// The digest of the consumer's latency series
    /// ([`TimeSeries::digest`]): every received chunk's arrival time and
    /// latency, in order.
    pub latency_digest: u64,
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
    /// Optional Interest retransmission (`None` = the paper's no-retry
    /// clients). A retransmission re-presents the consumer's current tag,
    /// so it re-exercises the edge's Protocol 2/3 validation path.
    pub retransmit: Option<RetransmitPolicy>,
}

/// Per-provider values: a user deals with a handful of providers, so a
/// short list searched front to back is smaller than any hash table and
/// carries no per-table hasher state. Most deal with one, whose value is
/// held inline.
struct ByProvider<V>(Records<(usize, V)>);

impl<V> Default for ByProvider<V> {
    fn default() -> Self {
        ByProvider(Records::default())
    }
}

impl<V> ByProvider<V> {
    fn get(&self, prov: usize) -> Option<&V> {
        self.0.iter().find(|(p, _)| *p == prov).map(|(_, v)| v)
    }

    /// Sets `prov`'s value, replacing any previous one.
    fn insert(&mut self, prov: usize, value: V) {
        match self.0.iter_mut().find(|(p, _)| *p == prov) {
            Some((_, v)) => *v = value,
            None => self.0.push((prov, value)),
        }
    }

    fn remove(&mut self, prov: usize) {
        self.0.retain(|(p, _)| *p != prov);
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Proactive-renewal state (the churn tag-lifetime policy): per-tag
/// deadlines and the dedicated lifecycle RNG the jitter is drawn from.
struct RenewalState {
    lead: SimDuration,
    jitter: SimDuration,
    rng: Rng,
    renew_at: ByProvider<SimTime>,
}

/// A windowed consumer (client or attacker).
pub struct Consumer {
    kind: ConsumerKind,
    window: ZipfRequester,
    /// This principal's `u<principal>` name component, in every
    /// registration name it sends.
    user: Component,
    /// Only clients under the churn policy have one, so it is boxed.
    renewal: Option<Box<RenewalState>>,
    tags: ByProvider<Arc<SignedTag>>,
    preset_tags: ByProvider<Arc<SignedTag>>,
    /// A registration is in flight: the window waits behind it.
    registering: bool,
    reg_seq: u64,
    nacks: u64,
    moves: u64,
    tag_requests: u64,
    tags_received: u64,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("principal", &self.window.principal)
            .field("kind", &self.kind)
            .field("in_flight", &self.window.in_flight())
            .finish()
    }
}

/// What a request to one provider goes out with.
#[derive(Debug, Clone)]
enum TagChoice {
    Use(Arc<SignedTag>),
    None,
    NeedRegistration,
}

impl Consumer {
    /// Creates a consumer over the given catalog.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or wider than the catalog (see
    /// [`ZipfRequester::new`]).
    pub fn new(config: ConsumerConfig, catalog: Arc<Catalog>, rng: Rng) -> Self {
        let window = RequesterConfig {
            principal: config.principal,
            is_client: config.kind.is_client(),
            window: config.window,
            timeout: config.request_timeout,
            per_session_names: false,
            retransmit: config.retransmit,
        };
        Consumer {
            kind: config.kind,
            window: ZipfRequester::new(window, catalog, rng),
            user: ChunkNames::session(config.principal),
            renewal: None,
            tags: ByProvider::default(),
            preset_tags: ByProvider::default(),
            registering: false,
            reg_seq: 0,
            nacks: 0,
            moves: 0,
            tag_requests: 0,
            tags_received: 0,
        }
    }

    /// The consumer's kind.
    pub fn kind(&self) -> ConsumerKind {
        self.kind
    }

    /// The measurement record so far.
    pub fn stats(&self) -> ConsumerStats {
        let w = &self.window;
        ConsumerStats {
            requested_chunks: w.requested,
            received_chunks: w.received,
            nacks: self.nacks,
            timeouts: w.timeouts,
            retransmissions: w.retransmitted,
            gave_up: w.gave_up,
            moves: self.moves,
            tag_requests: self.tag_requests,
            tags_received: self.tags_received,
            latency_digest: w.latency.digest(),
        }
    }

    /// Received chunks' latencies, per second of receipt (Fig. 5).
    pub fn latency(&self) -> &TimeSeries {
        &self.window.latency
    }

    /// Enables proactive tag renewal (the churn tag-lifetime policy):
    /// every fresh tag gets a renewal deadline `lead` plus a uniform
    /// jitter in `[0, jitter)` before its expiry, drawn once per tag from
    /// `rng`; past the deadline the consumer re-registers even though the
    /// tag is still valid. Callers must fork `rng` from the dedicated
    /// lifecycle stream so consumers without renewal draw nothing from it
    /// and stay byte-identical to pre-lifecycle builds.
    pub fn enable_renewal(&mut self, lead: SimDuration, jitter: SimDuration, rng: Rng) {
        self.renewal = Some(Box::new(RenewalState {
            lead,
            jitter,
            rng,
            renew_at: ByProvider::default(),
        }));
    }

    /// Seeds a fixed tag for `provider_index` (expired-tag / shared-tag
    /// attacker setups).
    pub fn preset_tag(&mut self, provider_index: usize, tag: SignedTag) {
        self.preset_tags.insert(provider_index, Arc::new(tag));
    }

    /// Outstanding request count.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// True when the renewal deadline for `prov`'s tag has passed (always
    /// false without the churn policy).
    fn renewal_due(&self, prov: usize, now: SimTime) -> bool {
        self.renewal
            .as_ref()
            .is_some_and(|r| r.renew_at.get(prov).is_some_and(|&at| now >= at))
    }

    fn tag_for(&mut self, prov: usize, now: SimTime) -> TagChoice {
        match self.kind {
            ConsumerKind::Client | ConsumerKind::Attacker(AttackerStrategy::InsufficientLevel) => {
                match self.tags.get(prov) {
                    Some(t)
                        if !t.tag.is_expired(now + REFRESH_MARGIN)
                            && !self.renewal_due(prov, now) =>
                    {
                        TagChoice::Use(t.clone())
                    }
                    _ => TagChoice::NeedRegistration,
                }
            }
            ConsumerKind::Attacker(AttackerStrategy::NoTag) => TagChoice::None,
            ConsumerKind::Attacker(AttackerStrategy::FakeTag) => {
                if let Some(t) = self.tags.get(prov) {
                    return TagChoice::Use(t.clone());
                }
                let seed = self.window.rng().next_u64();
                let prefix = &self.window.catalog().entries()[prov].prefix;
                let fake = Arc::new(SignedTag::forged(prefix, self.window.principal, seed));
                self.tags.insert(prov, fake.clone());
                TagChoice::Use(fake)
            }
            ConsumerKind::Attacker(AttackerStrategy::ExpiredTag)
            | ConsumerKind::Attacker(AttackerStrategy::SharedTag) => {
                match self.preset_tags.get(prov) {
                    Some(t) => TagChoice::Use(t.clone()),
                    None => TagChoice::None,
                }
            }
        }
    }
}

impl Requester for Consumer {
    /// Fills the window. A chunk whose provider's tag is missing, stale
    /// or due for renewal goes back to the head of the queue and the
    /// window stays blocked behind one registration until the tag arrives.
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        while self.window.has_room() {
            let chunk = self.window.next_work();
            let prov = chunk.0;
            match self.tag_for(prov, now) {
                TagChoice::NeedRegistration => {
                    self.window.put_back(chunk);
                    if !self.registering {
                        self.registering = true;
                        self.reg_seq += 1;
                        let nonce = self.window.next_nonce();
                        let i = registration_interest_of(
                            &self.window.catalog().entries()[prov].prefix,
                            &self.user,
                            self.window.principal,
                            self.reg_seq,
                            nonce,
                        );
                        self.tag_requests += 1;
                        self.window.hold(i.name().clone(), prov, now);
                        out.push(i);
                    }
                    break;
                }
                choice => {
                    if let Some(mut i) = self.window.request(chunk, now) {
                        if let TagChoice::Use(t) = choice {
                            ext::set_interest_tag(&mut i, t);
                        }
                        out.push(i);
                    }
                }
            }
        }
    }

    /// A registration's reply stores the tag it carries; a chunk's counts
    /// as delivered, unless it carries a content NACK.
    fn on_data(&mut self, data: &Data, now: SimTime, out: &mut Vec<Interest>) {
        let Some(flight) = self.window.take(data.name()) else {
            return self.fill(now, out); // Stale/duplicate: ignore, keep pumping.
        };
        match flight.work {
            Work::Other(prov) => {
                self.registering = false;
                if let Some(tag) = ext::data_new_tag(data) {
                    self.tags_received += 1;
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
            Work::Chunk(_) => {
                if ext::data_nack(data).is_some() {
                    // Content-attached NACK should have been filtered by
                    // the edge; treat defensively as a rejection.
                    self.nacks += 1;
                } else {
                    self.window.delivered(flight, data.payload().len(), now);
                }
            }
        }
        self.fill(now, out)
    }

    /// A refused chunk goes back in the queue; a client forgets the tag
    /// it was refused under.
    fn on_nack(&mut self, nack: &Nack, now: SimTime, out: &mut Vec<Interest>) {
        let Some(flight) = self.window.take(nack.interest().name()) else {
            return self.fill(now, out);
        };
        self.nacks += 1;
        match flight.work {
            Work::Other(_) => self.registering = false,
            Work::Chunk(chunk) => {
                // An InvalidTag NACK usually means our tag expired in
                // flight: forget it so the next fill re-registers
                // (clients) or keeps hammering (attackers).
                if self.kind.is_client() {
                    self.tags.remove(chunk.0);
                }
                self.window.requeue(chunk);
            }
        }
        self.fill(now, out)
    }

    /// A chunk that expires without a retransmission policy goes back in
    /// the queue to be asked for again. Under a policy it is retransmitted
    /// in place with the consumer's *current* tag re-attached — unless
    /// that tag has lapsed meanwhile, in which case it is requeued behind
    /// a registration.
    fn on_expiry(&mut self, name: &Name, now: SimTime, out: &mut Vec<Interest>) {
        match self.window.expire(name) {
            Expiry::Lost {
                work: Work::Other(_),
                ..
            } => self.registering = false,
            Expiry::Lost {
                work: Work::Chunk(chunk),
                gave_up,
            } => {
                if !gave_up {
                    self.window.requeue(chunk);
                }
            }
            Expiry::Retry(chunk) => match self.tag_for(chunk.0, now) {
                TagChoice::NeedRegistration => {
                    self.window.take(name);
                    self.window.requeue(chunk);
                }
                choice => {
                    let mut i = self.window.retransmit(name, now);
                    if let TagChoice::Use(t) = choice {
                        ext::set_interest_tag(&mut i, t);
                    }
                    return out.push(i);
                }
            },
        }
        self.fill(now, out)
    }

    /// Per §4.A ("a mobile client needs to request a new tag every time
    /// she moves to a new location") all cached tags are dropped, so the
    /// refill re-registers from the new location; attacker preset tags
    /// are deliberately kept (a replayed tag does not renew itself), and
    /// so is the window: what is in flight stays in flight.
    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        self.tags.clear();
        if let Some(r) = &mut self.renewal {
            r.renew_at.clear();
        }
        self.registering = false;
        self.moves += 1;
        self.fill(now, out)
    }

    fn window(&mut self) -> &mut ZipfRequester {
        &mut self.window
    }
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
    use tactic_net::CatalogEntry;

    use crate::access::AccessLevel;
    use crate::access_path::AccessPath;
    use crate::tag::Tag;

    fn catalog() -> Arc<Catalog> {
        let entry = |prefix: &str| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 5,
            chunks: 3,
        };
        Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7)
    }

    fn client_with(kind: ConsumerKind, retransmit: Option<RetransmitPolicy>) -> Consumer {
        Consumer::new(
            ConsumerConfig {
                principal: 7,
                kind,
                window: 5,
                request_timeout: SimDuration::from_secs(1),
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

    /// Registers `c` with the provider its first fill picks, under a tag
    /// valid until `expiry`: the tag, and the window that opens.
    fn registered(c: &mut Consumer, expiry: SimTime) -> (SignedTag, Vec<Interest>) {
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        let reg_name = sends[0].name().clone();
        let tag = issue_tag(&reg_name.prefix(1).to_string(), expiry);
        let follow = sent(|o| c.on_data(&reg_response(&reg_name, &tag), SimTime::ZERO, o));
        (tag, follow)
    }

    #[test]
    fn client_registers_before_requesting() {
        let mut c = client(ConsumerKind::Client);
        let sends = sent(|o| c.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 1, "only the registration goes out first");
        assert!(ext::is_registration(&sends[0]));
        assert_eq!(c.stats().tag_requests, 1);
        assert_eq!(c.stats().requested_chunks, 0);
    }

    #[test]
    fn tag_arrival_opens_the_window() {
        let mut c = client(ConsumerKind::Client);
        let (_, follow) = registered(&mut c, SimTime::from_secs(10));
        assert_eq!(follow.len(), 5, "window fills after the tag arrives");
        assert!(follow.iter().all(|i| ext::interest_tag(i).is_some()));
        assert_eq!(c.stats().tags_received, 1);
        assert_eq!(c.stats().requested_chunks, 5);
    }

    /// Deliberately unlike the plain `ZipfRequester` user, which abandons
    /// it: an expired chunk is asked for again.
    #[test]
    fn timeout_requeues_the_chunk() {
        let mut c = client(ConsumerKind::Client);
        let (_, follow) = registered(&mut c, SimTime::from_secs(100));
        let victim = follow[1].name().clone();
        let refills = sent(|o| c.on_expiry(&victim, SimTime::from_secs(1), o));
        assert_eq!(c.stats().timeouts, 1);
        // The retried chunk goes out again (same name, new nonce).
        assert!(refills.iter().any(|i| i.name() == &victim));
    }

    /// Deliberately unlike the plain `ZipfRequester` user, which clears
    /// it: a handover drops the tags and keeps the window.
    #[test]
    fn handover_drops_the_tags_and_keeps_the_window() {
        let mut c = client(ConsumerKind::Client);
        let (_, follow) = registered(&mut c, SimTime::from_secs(100));
        let first = follow[0].name().clone();
        assert!(sent(|o| c.on_handover(SimTime::from_secs_f64(0.2), o)).is_empty());
        assert_eq!((c.in_flight(), c.stats().moves), (5, 1));
        // What was in flight still is: its Data is a receipt, and only
        // now, with a slot free and no tag, does the consumer re-register.
        let d = Data::new(first, Payload::Synthetic(1024));
        let refill = sent(|o| c.on_data(&d, SimTime::from_secs_f64(0.25), o));
        assert_eq!(c.stats().received_chunks, 1);
        assert_eq!(c.latency().per_second_means(), vec![(0, 0.25)]);
        assert_eq!(refill.len(), 1);
        assert!(ext::is_registration(&refill[0]));
    }

    #[test]
    fn retransmission_represents_the_tag() {
        let policy = RetransmitPolicy {
            max_retries: 1,
            max_backoff_shift: 4,
        };
        let mut c = client_with(ConsumerKind::Client, Some(policy));
        let (tag, follow) = registered(&mut c, SimTime::from_secs(100));
        let victim = follow[0].name().clone();

        // First expiry: the chunk is retransmitted in place with a fresh
        // nonce and the tag re-attached (Protocol 2/3 re-validation).
        let resend = sent(|o| c.on_expiry(&victim, SimTime::from_secs(1), o));
        assert_eq!(resend.len(), 1);
        assert_eq!(resend[0].name(), &victim);
        assert_ne!(resend[0].nonce(), follow[0].nonce());
        assert_eq!(
            *ext::interest_tag(&resend[0]).expect("tag re-presented"),
            tag
        );
        assert_eq!(resend[0].lifetime_ms(), 2_000, "backed off");

        // The budget spent, the chunk is given up — not requeued — and
        // the freed slot refills with other work.
        let refill = sent(|o| c.on_expiry(&victim, SimTime::from_secs(3), o));
        assert!(refill.iter().all(|i| i.name() != &victim));
        let stats = c.stats();
        assert_eq!((stats.retransmissions, stats.gave_up), (1, 1));
        // Retransmissions never inflate the requested-chunk total.
        assert_eq!(stats.requested_chunks, 6);
    }

    #[test]
    fn retransmission_after_tag_expiry_reregisters_instead() {
        let mut c = client_with(ConsumerKind::Client, Some(RetransmitPolicy::default()));
        let (_, follow) = registered(&mut c, SimTime::from_secs(2));
        let victim = follow[0].name().clone();
        // The expiry fires after the tag itself lapsed: instead of
        // replaying a dead tag the consumer falls back to registration.
        let out = sent(|o| c.on_expiry(&victim, SimTime::from_secs(3), o));
        assert!(out.iter().any(ext::is_registration));
        assert_eq!(c.stats().retransmissions, 0);
        assert_eq!(c.stats().tag_requests, 2);
    }

    #[test]
    fn expired_tag_triggers_reregistration() {
        let mut c = client(ConsumerKind::Client);
        let (_, follow) = registered(&mut c, SimTime::from_secs(10));
        // Drain the window via timeouts past the tag's expiry: the next
        // fill must re-register instead of using the stale tag.
        let mut regs = 0;
        for i in &follow {
            let expired = sent(|o| c.on_expiry(i.name(), SimTime::from_secs(11), o));
            regs += expired.iter().filter(|i| ext::is_registration(i)).count();
        }
        assert_eq!(regs, 1, "exactly one re-registration");
        assert_eq!(c.stats().tag_requests, 2);
    }

    #[test]
    fn renewal_churn_reregisters_before_expiry() {
        let mut c = client(ConsumerKind::Client);
        c.enable_renewal(
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            Rng::seed_from_u64(9),
        );
        let (_, follow) = registered(&mut c, SimTime::from_secs(10));
        // The deadline lands in [7, 8) s: lead 2 s plus jitter < 1 s
        // before the 10 s expiry. At 5 s the tag is still used.
        let victim = follow[0].name().clone();
        let early = sent(|o| c.on_expiry(&victim, SimTime::from_secs(5), o));
        assert_eq!(early.len(), 1);
        assert!(!ext::is_registration(&early[0]));
        // Past the deadline — but well before expiry — the next fill
        // re-registers even though the tag is valid until 10 s.
        let late = sent(|o| c.on_expiry(&victim, SimTime::from_secs(8), o));
        let regs = late.iter().filter(|i| ext::is_registration(i)).count();
        assert_eq!(regs, 1, "exactly one proactive renewal request");
        assert_eq!(c.stats().tag_requests, 2);
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
        let (_, follow) = registered(&mut c, SimTime::from_secs(100));
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
}
