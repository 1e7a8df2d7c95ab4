//! The Zipf-window requester: the client model every mechanism is
//! evaluated under (paper §8.A: Zipf(0.7) popularity, a window of 5
//! outstanding requests, 1 s expiry).
//!
//! A user walks the [`Catalog`] object by object — each object drawn by
//! Zipf popularity, its chunks in order — and keeps a fixed window of
//! requests in flight, each with a deadline. [`ZipfRequester`] is those
//! mechanics, once: the RNG and the walk ([`ZipfRequester::next_work`]:
//! queued retries, then the rest of the current object, then a fresh
//! one), the retry queue, the in-flight table (slots in the order of
//! their latest sends), retransmission with capped binary backoff under a
//! [`RetransmitPolicy`], nonces ([`compose_nonce`]) and the
//! request/receive/timeout/latency counts. Its methods say *what
//! happened* — this request is due, this chunk may be retransmitted
//! ([`Expiry::Retry`]), that one is out of its slot ([`Expiry::Lost`]) —
//! and leave what to do about it to the owner, which reacts in
//! [`Requester::on_expiry`].
//!
//! Expiry is the requester's own state: the calendar holds one wake-up
//! per user, at the earliest deadline ([`ZipfRequester::arm`] says when a
//! callback must arm an earlier one, [`ZipfRequester::fired`] that the
//! armed one went off), and [`Requester::on_timeout`] is the wake-up loop,
//! written once. A satisfied request schedules nothing. Wake-ups fire at
//! every deadline, so a deadline already past fell while the user was
//! down: that request is stranded and keeps its slot, as a crashed node
//! services nothing.
//!
//! Used as a user node in its own right (the [`Requester`] impl below) it
//! *abandons* a chunk that expires without a retransmission policy and
//! *clears its window* on a handover. TACTIC's consumer wraps one and
//! decides the two differently, as holding tags requires: it requeues an
//! expired chunk and keeps its window across a handover, dropping its
//! tags instead (paper §4.A). One test on each side names each difference
//! as deliberate.
//!
//! # What one user holds
//!
//! A fleet is mostly users, so a user holds only what is its own. What
//! all users of a shard share — the catalog, the window, the request
//! expiry, whether names carry a session component and the
//! retransmission policy — is one [`RequestPolicy`] per shard behind an
//! `Arc`. The user's one `u<principal>` component is both its session
//! component and the name a TACTIC consumer registers under, and a
//! [`Chunk`] is three `u32`s. A [`ZipfRequester`] is 240 bytes, padding
//! included:
//!
//! | field | bytes |
//! |---|---|
//! | `principal`, `is_client` | 16 |
//! | `policy` (`Arc<RequestPolicy>`) | 8 |
//! | `rng` | 32 |
//! | `user` (`u<principal>`, inline up to 7 bytes) | 16 |
//! | `current` (`Option<Chunk>`) | 16 |
//! | `retry` (`Records<Chunk>`, one chunk inline) | 24 |
//! | `in_flight` (`Vec`) | 24 |
//! | `armed`, `nonce` | 16 |
//! | six `u64` counts | 48 |
//! | `latency` (`TimeSeries`, one second inline) | 40 |
//!
//! Its first request allocates the window block: `window` slots of 64
//! bytes, a name and a [`Flight`]. TACTIC's consumer wraps the requester
//! in 80 more bytes (`tactic::consumer`).

use std::sync::Arc;

use tactic_ndn::name::{Component, Name};
use tactic_ndn::packet::{Data, Interest, Nack};
use tactic_sim::records::Records;
use tactic_sim::rng::Rng;
use tactic_sim::stats::TimeSeries;
use tactic_sim::time::{SimDuration, SimTime};

use crate::catalog::{Catalog, Chunk, ChunkNames};
use crate::fault::RetransmitPolicy;

/// How every user of a shard asks: the catalog it walks, its window, the
/// expiry of a request, whether names carry a session component and the
/// retransmission policy. A run's users differ only in who they are, so
/// a plane builds one policy per shard and every [`ZipfRequester`] holds
/// a pointer to it.
#[derive(Debug)]
pub struct RequestPolicy {
    /// The catalog walked.
    pub catalog: Arc<Catalog>,
    /// Requests kept in flight (paper: 5).
    pub window: usize,
    /// Request expiry, also stamped as the Interest lifetime (paper: 1 s).
    pub timeout: SimDuration,
    /// Append the user's `/u<principal>` session component to every chunk
    /// name (defeats caching; provider-auth baselines).
    pub per_session_names: bool,
    /// Optional Interest retransmission (`None` = the paper's no-retry
    /// clients).
    pub retransmit: Option<RetransmitPolicy>,
}

/// Builds a globally-unique Interest nonce from three disjoint fields:
/// the sender's principal in the top 24 bits, then one bit marking an
/// attack fleet's open-loop driver (so it never collides with the same
/// principal's windowed requester), then the sender's send counter in
/// the low 39.
///
/// A sender would need 2³⁹ (≈5·10¹¹) sends to overflow its counter. A
/// principal is a node index, which `Net` assembly bounds below
/// 0xFF_FFFD.
///
/// # Panics
///
/// Panics if the principal or the counter does not fit its field: the
/// nonce would be another sender's.
pub fn compose_nonce(principal: u64, fleet: bool, counter: u64) -> u64 {
    assert!(
        principal < 1 << 24,
        "principal {principal} exceeds the nonce's 24-bit principal field"
    );
    assert!(
        counter < 1 << 39,
        "principal {principal}'s send counter exceeds the nonce's 39-bit counter field"
    );
    (principal << 40) | (u64::from(fleet) << 39) | counter
}

/// What a window slot is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A chunk of the catalog.
    Chunk(Chunk),
    /// A request of the owner's own making, labelled with whatever index
    /// the owner wants back (see [`ZipfRequester::hold`]).
    Other(usize),
}

/// One in-flight request.
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    /// When its latest Interest went out.
    sent: SimTime,
    /// Retransmissions so far (0 = original only).
    attempts: u32,
    /// What was asked for.
    pub work: Work,
}

/// What expired (see [`ZipfRequester::expire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// A chunk's latest attempt expired with retransmissions left. It
    /// still holds its slot: [`retransmit`](ZipfRequester::retransmit)
    /// it, or [`take`](ZipfRequester::take) it out.
    Retry(Chunk),
    /// The latest attempt expired and the request is out of its slot;
    /// `gave_up` if it was a chunk that had a retransmission budget and
    /// spent it (counted).
    Lost {
        /// What was asked for.
        work: Work,
        /// Whether a retransmission budget was exhausted.
        gave_up: bool,
    },
}

/// The window mechanics of one user node.
#[derive(Debug)]
pub struct ZipfRequester {
    /// The node's principal identity.
    pub principal: u64,
    /// Whether this requester counts as a legitimate client in reports.
    pub is_client: bool,
    /// What every user of the shard shares.
    policy: Arc<RequestPolicy>,
    rng: Rng,
    /// This principal's `u<principal>` name component: the session
    /// component of its chunk names under per-session names, and what an
    /// owner names itself by (TACTIC: in its registrations).
    user: Component,
    /// The object being walked and its next chunk.
    current: Option<Chunk>,
    /// Chunks to ask for again, in order: rarely more than the one put
    /// back behind a registration, which is held inline.
    retry: Records<Chunk>,
    /// The window's slots in the order of their latest sends: never more
    /// than `window` of them, found by comparing names, which compare
    /// their precomputed hashes first. No block until the first request.
    in_flight: Vec<(Name, Flight)>,
    /// When the wake-up the calendar holds for this user fires
    /// (`SimTime::MAX`: none is armed).
    armed: SimTime,
    nonce: u64,
    /// Chunks requested so far (original requests only, not retries).
    pub requested: u64,
    /// Chunks received so far.
    pub received: u64,
    /// Payload bytes received so far.
    pub received_bytes: u64,
    /// Requests whose latest attempt expired.
    pub timeouts: u64,
    /// Interests retransmitted after an expiry.
    pub retransmitted: u64,
    /// Chunks abandoned after exhausting their retransmission budget.
    pub gave_up: u64,
    /// Received chunks' latencies, per second of receipt.
    pub latency: TimeSeries,
}

impl ZipfRequester {
    /// Creates the requester of `principal` under a shard's shared
    /// `policy`, with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or holds more requests than the
    /// catalog has chunks: a fill would then draw forever for a chunk
    /// not in flight.
    pub fn new(principal: u64, is_client: bool, policy: Arc<RequestPolicy>, rng: Rng) -> Self {
        let chunks = policy.catalog.chunk_count();
        assert!(
            (1..=chunks).contains(&policy.window),
            "a window of {} must be between 1 and the catalog's {chunks} chunks",
            policy.window
        );
        ZipfRequester {
            principal,
            is_client,
            policy,
            rng,
            user: ChunkNames::session(principal),
            current: None,
            retry: Records::default(),
            in_flight: Vec::new(),
            armed: SimTime::MAX,
            nonce: 0,
            requested: 0,
            received: 0,
            received_bytes: 0,
            timeouts: 0,
            retransmitted: 0,
            gave_up: 0,
            latency: TimeSeries::new(),
        }
    }

    /// The catalog being walked.
    pub fn catalog(&self) -> &Catalog {
        &self.policy.catalog
    }

    /// This principal's `u<principal>` name component.
    pub fn user(&self) -> &Component {
        &self.user
    }

    /// The requester's RNG stream, for owners whose own decisions draw
    /// from it between the walk's.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Requests in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The slot waiting on `name`, if there is one.
    fn slot(&self, name: &Name) -> Option<usize> {
        self.in_flight.iter().position(|(n, _)| n == name)
    }

    /// Whether the window has a free slot.
    pub fn has_room(&self) -> bool {
        self.in_flight.len() < self.policy.window
    }

    /// The next chunk to ask for: queued retries first, then the rest of
    /// the current object, then the first chunk of a freshly drawn one.
    pub fn next_work(&mut self) -> Chunk {
        if !self.retry.is_empty() {
            return self.retry.remove(0);
        }
        let catalog = &self.policy.catalog;
        match self.current {
            Some((p, o, c)) if (c as usize) < catalog.entries()[p as usize].chunks => {
                self.current = Some((p, o, c + 1));
                (p, o, c)
            }
            _ => {
                let (p, o) = catalog.popular_object(&mut self.rng);
                let (p, o) = (p as u32, o as u32);
                self.current = Some((p, o, 1));
                (p, o, 0)
            }
        }
    }

    /// Queues `chunk` to be asked for again, after what is queued already.
    pub fn requeue(&mut self, chunk: Chunk) {
        self.retry.push(chunk)
    }

    /// Puts `chunk` back at the head of the queue: the next
    /// [`next_work`](Self::next_work) returns it again.
    pub fn put_back(&mut self, chunk: Chunk) {
        self.retry.insert(0, chunk)
    }

    /// The sender's next nonce.
    pub fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        compose_nonce(self.principal, false, self.nonce)
    }

    /// An Interest for `name` with a fresh nonce and `lifetime`.
    fn interest(&mut self, name: Name, lifetime: SimDuration) -> Interest {
        let mut i = Interest::new(name, self.next_nonce());
        i.set_lifetime_ms((lifetime.as_nanos() / 1_000_000) as u32);
        i
    }

    /// Puts `chunk` in a window slot and returns the undecorated Interest
    /// to send for it — or `None`, with nothing changed, if that chunk is
    /// in flight already (a queued retry can overlap the walk).
    pub fn request(&mut self, chunk: Chunk, now: SimTime) -> Option<Interest> {
        let policy = &self.policy;
        let session = policy.per_session_names.then_some(&self.user);
        let name = policy.catalog.chunk_name(chunk, session);
        if self.slot(&name).is_some() {
            return None;
        }
        self.requested += 1;
        self.hold_as(name.clone(), Work::Chunk(chunk), now);
        Some(self.interest(name, self.policy.timeout))
    }

    /// Occupies a window slot with a request the owner built and sends
    /// itself (TACTIC: a tag registration), to be handed back as
    /// [`Work::Other`]`(label)`. It expires like a chunk but is never
    /// retransmitted and never counted as requested or given up.
    pub fn hold(&mut self, name: Name, label: usize, now: SimTime) {
        self.hold_as(name, Work::Other(label), now)
    }

    fn hold_as(&mut self, name: Name, work: Work, now: SimTime) {
        let flight = Flight {
            sent: now,
            attempts: 0,
            work,
        };
        self.take(&name);
        // Sized to the window on first use: most users of a short fleet
        // run never start, and those that do never regrow it.
        if self.in_flight.capacity() == 0 {
            self.in_flight.reserve_exact(self.policy.window);
        }
        self.in_flight.push((name, flight));
    }

    /// Frees the slot waiting on `name`, if there is one.
    pub fn take(&mut self, name: &Name) -> Option<Flight> {
        let i = self.slot(name)?;
        Some(self.in_flight.remove(i).1)
    }

    /// Counts `flight`'s chunk as received at `now` with `bytes` of
    /// payload, and records its latency.
    pub fn delivered(&mut self, flight: Flight, bytes: usize, now: SimTime) {
        self.received += 1;
        self.received_bytes += bytes as u64;
        self.latency.record(now, now.saturating_since(flight.sent));
    }

    /// How long an attempt waits for its answer: the base timeout, backed
    /// off by the retransmission policy for retries.
    fn lifetime(&self, attempts: u32) -> SimDuration {
        let policy = &self.policy;
        match policy.retransmit {
            Some(retransmit) => retransmit.timeout_for(policy.timeout, attempts),
            None => policy.timeout,
        }
    }

    fn deadline(&self, flight: &Flight) -> SimTime {
        flight.sent + self.lifetime(flight.attempts)
    }

    /// The request due at `now`, earliest sent first: the next one a
    /// wake-up at `now` must [`expire`](Self::expire).
    ///
    /// Wake-ups fire at every deadline, so a request whose deadline is
    /// already past was due at a wake-up that fell while the user was
    /// down: it is stranded, keeps its slot and never expires.
    pub fn due(&self, now: SimTime) -> Option<Name> {
        let mut slots = self.in_flight.iter();
        let (name, _) = slots.find(|(_, f)| self.deadline(f) == now)?;
        Some(name.clone())
    }

    /// The wake-up to arm after a callback at `now`: the earliest deadline
    /// still ahead, if it comes before the wake-up already armed (which
    /// it then replaces as the armed one).
    pub fn arm(&mut self, now: SimTime) -> Option<SimTime> {
        let ahead = self.in_flight.iter().map(|(_, f)| self.deadline(f));
        let next = ahead.filter(|&at| at > now).min()?;
        (next < self.armed).then(|| {
            self.armed = next;
            next
        })
    }

    /// A wake-up armed for `now` fired, whether or not the user was up to
    /// act on it: the calendar no longer holds it.
    pub fn fired(&mut self, now: SimTime) {
        if self.armed == now {
            self.armed = SimTime::MAX;
        }
    }

    /// Expires the request for `name`, one [`due`](Self::due) reported.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in flight.
    pub fn expire(&mut self, name: &Name) -> Expiry {
        let i = self.slot(name).expect("only a request in flight expires");
        let flight = self.in_flight[i].1;
        self.timeouts += 1;
        let work = flight.work;
        let gave_up = match (self.policy.retransmit, work) {
            (Some(policy), Work::Chunk(chunk)) => {
                if flight.attempts < policy.max_retries {
                    return Expiry::Retry(chunk);
                }
                true
            }
            _ => false,
        };
        self.gave_up += u64::from(gave_up);
        self.in_flight.remove(i);
        Expiry::Lost { work, gave_up }
    }

    /// Retransmits the chunk an [`Expiry::Retry`] was reported for: the
    /// undecorated Interest, with a fresh nonce and the backed-off
    /// lifetime of its new attempt.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in flight.
    pub fn retransmit(&mut self, name: &Name, now: SimTime) -> Interest {
        let mut flight = self.take(name).expect("Retry keeps the slot");
        flight.attempts += 1;
        flight.sent = now;
        let lifetime = self.lifetime(flight.attempts);
        self.in_flight.push((name.clone(), flight));
        self.retransmitted += 1;
        self.interest(name.clone(), lifetime)
    }
}

/// What the plane harness asks of a windowed user node, whatever the
/// mechanism: the harness owns when these fire, the buffer the Interests
/// are pushed onto (one per run, reused for every call) and how they go
/// on the wire (behind the user's next wake-up, armed from its
/// [`window`](Self::window)); the requester owns which Interests those
/// are.
pub trait Requester {
    /// Tops the in-flight window up, pushing the Interests to transmit
    /// onto `out`.
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>);

    /// A Data packet arrived; pushes the follow-up Interests onto `out`.
    fn on_data(&mut self, data: &Data, now: SimTime, out: &mut Vec<Interest>);

    /// A NACK arrived; pushes the follow-up Interests onto `out`. A user
    /// of a mechanism that never sends one ignores it.
    fn on_nack(&mut self, _nack: &Nack, _now: SimTime, _out: &mut Vec<Interest>) {}

    /// The request in flight for `name` expired; pushes the follow-up
    /// Interests (retransmission and/or refill) onto `out`.
    fn on_expiry(&mut self, name: &Name, now: SimTime, out: &mut Vec<Interest>);

    /// The node was re-attached to a new access point: drop whatever was
    /// bound to the old location and refill from the new one.
    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>);

    /// The window underneath, whose deadlines the user is woken for.
    fn window(&mut self) -> &mut ZipfRequester;

    /// The user's wake-up fired: expires the requests due at `now` one at
    /// a time, earliest sent first, telling `expired` of each before its
    /// follow-up Interests are pushed onto `out`.
    fn on_timeout(
        &mut self,
        now: SimTime,
        out: &mut Vec<Interest>,
        mut expired: impl FnMut(&Name),
    ) {
        self.window().fired(now);
        while let Some(name) = self.window().due(now) {
            expired(&name);
            self.on_expiry(&name, now, out);
        }
    }
}

/// The plain user: no state beyond the window.
impl Requester for ZipfRequester {
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        while self.has_room() {
            let chunk = self.next_work();
            out.extend(self.request(chunk, now));
        }
    }

    /// Records a delivered chunk and refills the window.
    fn on_data(&mut self, d: &Data, now: SimTime, out: &mut Vec<Interest>) {
        if let Some(flight) = self.take(d.name()) {
            self.delivered(flight, d.payload().len(), now);
        }
        self.fill(now, out)
    }

    /// A retransmittable chunk is retransmitted in place; any other
    /// expiry leaves the chunk abandoned — not requeued — and the slot
    /// refilled with new work.
    fn on_expiry(&mut self, name: &Name, now: SimTime, out: &mut Vec<Interest>) {
        if let Expiry::Retry(_) = self.expire(name) {
            return out.push(self.retransmit(name, now));
        }
        self.fill(now, out)
    }

    /// Requests in flight across the old radio link are written off and
    /// the window refills from the new location.
    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        self.in_flight.clear();
        self.fill(now, out)
    }

    fn window(&mut self) -> &mut ZipfRequester {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogEntry;
    use proptest::prelude::*;

    // A window slot is a name and one of these: 48 B (an 80 B slot) while
    // a chunk's indices were `usize`s.
    const _: () = assert!(size_of::<Flight>() <= 32);

    /// What a sink-based requester call pushed.
    fn sent(call: impl FnOnce(&mut Vec<Interest>)) -> Vec<Interest> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn requester_with(per_session: bool, retransmit: Option<RetransmitPolicy>) -> ZipfRequester {
        let entry = CatalogEntry {
            prefix: "/prov0".parse().unwrap(),
            objects: 5,
            chunks: 3,
        };
        let policy = RequestPolicy {
            catalog: Catalog::new(vec![entry], 0.8),
            window: 4,
            timeout: SimDuration::from_secs(2),
            per_session_names: per_session,
            retransmit,
        };
        ZipfRequester::new(7, true, Arc::new(policy), Rng::seed_from_u64(1))
    }

    fn requester(per_session: bool) -> ZipfRequester {
        requester_with(per_session, None)
    }

    /// A plain requester with `window` slots over a catalog of 2 chunks.
    fn over_two_chunks(window: usize) -> ZipfRequester {
        let entry = CatalogEntry {
            prefix: "/prov0".parse().unwrap(),
            objects: 1,
            chunks: 2,
        };
        let policy = RequestPolicy {
            catalog: Catalog::new(vec![entry], 0.7),
            window,
            timeout: SimDuration::from_secs(1),
            per_session_names: false,
            retransmit: None,
        };
        ZipfRequester::new(7, true, Arc::new(policy), Rng::seed_from_u64(1))
    }

    #[test]
    #[should_panic(expected = "a window of 0 must be between 1 and the catalog's 2 chunks")]
    fn an_empty_window_is_refused() {
        over_two_chunks(0);
    }

    #[test]
    #[should_panic(expected = "a window of 3 must be between 1 and the catalog's 2 chunks")]
    fn a_window_wider_than_the_catalog_is_refused() {
        over_two_chunks(3);
    }

    #[test]
    fn a_window_as_wide_as_the_catalog_fills() {
        let mut r = over_two_chunks(2);
        assert_eq!(sent(|o| r.fill(SimTime::ZERO, o)).len(), 2);
    }

    proptest! {
        /// The three fields are disjoint: the nonce gives each back.
        #[test]
        fn nonce_fields_are_disjoint(principal in 0u64..1 << 24, fleet in any::<bool>(), counter in 0u64..1 << 39) {
            let nonce = compose_nonce(principal, fleet, counter);
            prop_assert_eq!(nonce >> 40, principal);
            prop_assert_eq!(nonce >> 39 & 1, u64::from(fleet));
            prop_assert_eq!(nonce & ((1 << 39) - 1), counter);
        }
    }

    #[test]
    #[should_panic(expected = "principal 16777216 exceeds the nonce's 24-bit principal field")]
    fn a_principal_past_24_bits_is_refused() {
        // The last principal that fits is composed; the next is not.
        for principal in (1 << 24) - 1.. {
            assert_eq!(compose_nonce(principal, false, 0) >> 40, principal);
        }
    }

    #[test]
    #[should_panic(
        expected = "principal 5's send counter exceeds the nonce's 39-bit counter field"
    )]
    fn a_send_counter_past_39_bits_is_refused() {
        for counter in (1 << 39) - 1.. {
            assert_eq!(compose_nonce(5, true, counter) >> 40, 5);
        }
    }

    #[test]
    fn nonces_never_collide_across_senders_past_2_24_sends() {
        // A layout that XORs the counter over the principal aliases
        // senders once a counter crosses 2²⁴: principal 0's send 2²⁴+c is
        // principal 1's send c. Walk the counters through dense windows
        // around every 2²⁴ boundary up to 2²⁶ — that collision pattern —
        // for requesters and fleet drivers alike, and at the top of the
        // counter field, and require global uniqueness.
        let mut seen = std::collections::HashSet::new();
        let boundaries = (0u64..=4).map(|k| k << 24).chain([1 << 39]);
        for base in boundaries {
            for c in base.saturating_sub(512)..(base + 512).min(1 << 39) {
                for principal in [0u64, 1, 2, 255, 256, (1 << 24) - 1] {
                    for fleet in [false, true] {
                        assert!(
                            seen.insert(compose_nonce(principal, fleet, c)),
                            "nonce collision at principal {principal}, fleet {fleet}, counter {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fill_keeps_the_window_full_and_never_exceeds_it() {
        let mut r = requester(false);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 4);
        assert_eq!((r.requested, r.in_flight()), (4, 4));
        assert!(
            sent(|o| r.fill(SimTime::from_secs(1), o)).is_empty(),
            "fill is idempotent at capacity"
        );
        assert_eq!(r.in_flight(), 4);
    }

    #[test]
    fn chunks_pipeline_within_an_object() {
        let mut r = requester(false);
        let names: Vec<String> = sent(|o| r.fill(SimTime::ZERO, o))
            .iter()
            .map(|i| i.name().to_string())
            .collect();
        // 3-chunk objects: the first three Interests are chunks 0..3 of
        // one object; the window continues into the next drawn object.
        assert!(names[0].ends_with("/c0"));
        assert!(names[1].ends_with("/c1"));
        assert!(names[2].ends_with("/c2"));
        assert!(names[3].ends_with("/c0"));
    }

    #[test]
    fn per_session_names_append_the_principal() {
        let mut r = requester(true);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        for i in &sends {
            assert!(i.name().to_string().ends_with("/u7"), "{}", i.name());
        }
    }

    /// What a wake-up at `now` pushed, and the names it expired in turn.
    fn wake(r: &mut ZipfRequester, now: SimTime) -> (Vec<Name>, Vec<Interest>) {
        let mut expired = Vec::new();
        let sends = sent(|o| r.on_timeout(now, o, |name| expired.push(name.clone())));
        (expired, sends)
    }

    #[test]
    fn one_wake_up_is_armed_at_the_earliest_deadline() {
        let mut r = requester(false);
        let first = sent(|o| r.fill(SimTime::ZERO, o));
        assert_eq!(r.arm(SimTime::ZERO), Some(SimTime::from_secs(2)));
        assert_eq!(r.arm(SimTime::ZERO), None, "armed already");
        // An answer frees a slot; its refill's deadline is later, so the
        // armed wake-up stands.
        let d = Data::new(
            first[1].name().clone(),
            tactic_ndn::packet::Payload::Synthetic(1),
        );
        let half = SimTime::from_secs_f64(0.5);
        let refill = sent(|o| r.on_data(&d, half, o));
        assert_eq!(r.arm(half), None);
        // The wake-up expires what is due, in send order, and re-arms for
        // the refill.
        let (expired, _) = wake(&mut r, SimTime::from_secs(2));
        let due: Vec<Name> = [0, 2, 3].map(|i| first[i].name().clone()).into();
        assert_eq!(expired, due);
        assert_eq!(
            r.arm(SimTime::from_secs(2)),
            Some(SimTime::from_secs_f64(2.5))
        );
        let (expired, _) = wake(&mut r, SimTime::from_secs_f64(2.5));
        assert_eq!(expired, vec![refill[0].name().clone()]);
        assert_eq!(r.timeouts, 4);
    }

    #[test]
    fn a_missed_wake_up_strands_what_was_due_and_not_what_comes_after() {
        let mut r = requester(false);
        let first = sent(|o| r.fill(SimTime::ZERO, o));
        let d = Data::new(
            first[0].name().clone(),
            tactic_ndn::packet::Payload::Synthetic(1),
        );
        let refill = sent(|o| r.on_data(&d, SimTime::from_secs_f64(0.5), o));
        assert_eq!(
            r.arm(SimTime::from_secs_f64(0.5)),
            Some(SimTime::from_secs(2))
        );
        // The wake-up at 2 s falls while the user is down: it only re-arms.
        r.fired(SimTime::from_secs(2));
        assert_eq!(
            r.arm(SimTime::from_secs(2)),
            Some(SimTime::from_secs_f64(2.5))
        );
        let (expired, _) = wake(&mut r, SimTime::from_secs_f64(2.5));
        assert_eq!(expired, vec![refill[0].name().clone()]);
        // What fell due at 2 s keeps its slots and is never due again.
        assert_eq!(r.in_flight(), 4);
        assert_eq!(r.timeouts, 1);
        assert_eq!(
            r.arm(SimTime::from_secs_f64(2.5)),
            Some(SimTime::from_secs_f64(4.5))
        );
    }

    #[test]
    fn retransmission_backs_off_and_gives_up() {
        let policy = RetransmitPolicy {
            max_retries: 2,
            max_backoff_shift: 4,
        };
        let mut r = requester_with(false, Some(policy));
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let names: Vec<Name> = sends.iter().map(|i| i.name().clone()).collect();
        assert_eq!(r.arm(SimTime::ZERO), Some(SimTime::from_secs(2)));

        // Each expiry retransmits in place, with a fresh nonce and the
        // backed-off lifetime, and moves the wake-up out with it.
        let (expired, resend) = wake(&mut r, SimTime::from_secs(2));
        assert_eq!(expired, names);
        assert_eq!(
            resend.iter().map(|i| i.name().clone()).collect::<Vec<_>>(),
            names
        );
        assert_ne!(
            resend[0].nonce(),
            sends[0].nonce(),
            "retries carry fresh nonces"
        );
        assert!(
            resend.iter().all(|i| i.lifetime_ms() == 4_000),
            "and the backed-off lifetime"
        );
        assert_eq!(r.arm(SimTime::from_secs(2)), Some(SimTime::from_secs(6)));
        let (_, resend2) = wake(&mut r, SimTime::from_secs(6));
        assert!(resend2.iter().all(|i| i.lifetime_ms() == 8_000));
        assert_eq!(r.arm(SimTime::from_secs(6)), Some(SimTime::from_secs(14)));

        // Retries exhausted: each chunk is given up and its slot refills.
        let (expired, refill) = wake(&mut r, SimTime::from_secs(14));
        assert_eq!(expired, names);
        assert_eq!(refill.len(), 4);
        assert!(refill.iter().all(|i| i.lifetime_ms() == 2_000));
        assert_eq!((r.timeouts, r.retransmitted, r.gave_up), (12, 8, 4));
        // `requested` counts original chunks only, never retries.
        assert_eq!(r.requested, 8);
    }

    #[test]
    fn held_requests_expire_once_and_are_never_retransmitted_or_given_up() {
        let mut r = requester_with(false, Some(RetransmitPolicy::default()));
        let name: Name = "/prov0/register/u7/1".parse().unwrap();
        r.hold(name.clone(), 3, SimTime::ZERO);
        assert_eq!((r.in_flight(), r.requested), (1, 0));
        assert_eq!(r.due(SimTime::from_secs(2)), Some(name.clone()));
        let lost = Expiry::Lost {
            work: Work::Other(3),
            gave_up: false,
        };
        assert_eq!(r.expire(&name), lost);
        assert_eq!(r.due(SimTime::from_secs(2)), None);
        assert_eq!((r.in_flight(), r.timeouts, r.gave_up), (0, 1, 0));
    }

    #[test]
    fn data_records_latency() {
        let mut r = requester(false);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let d = Data::new(
            sends[0].name().clone(),
            tactic_ndn::packet::Payload::Synthetic(100),
        );
        let refill = sent(|o| r.on_data(&d, SimTime::from_secs_f64(0.25), o));
        assert_eq!(r.received, 1);
        assert_eq!(r.received_bytes, 100);
        assert_eq!(refill.len(), 1);
        assert_eq!(r.latency.per_second_means(), vec![(0, 0.25)]);
    }

    /// The two policies this requester, as a plain user, deliberately
    /// does not share with TACTIC's `Consumer` (whose tests pin the
    /// opposite): an expired chunk is abandoned, not requeued, and a
    /// handover clears the window instead of keeping it.
    #[test]
    fn the_plain_user_abandons_expired_chunks_and_clears_its_window_on_handover() {
        let mut r = requester(false);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let victim = sends[1].name().clone();
        let refill = sent(|o| r.on_expiry(&victim, SimTime::from_secs(2), o));
        assert_eq!(refill.len(), 1);
        assert_ne!(refill[0].name(), &victim, "abandoned, not asked for again");

        let after = sent(|o| r.on_handover(SimTime::from_secs(3), o));
        assert_eq!(
            after.len(),
            4,
            "the whole window is written off and refilled"
        );
        assert_eq!(r.in_flight(), 4);
        // What was in flight before the move no longer is: the next
        // wake-up is the new window's.
        assert_eq!(r.arm(SimTime::from_secs(3)), Some(SimTime::from_secs(5)));
        assert_eq!(wake(&mut r, SimTime::from_secs(5)).0.len(), 4);
    }
}
