//! Property tests for the users' window engine: under *arbitrary*
//! interleavings of data arrivals, NACKs, expiries and handovers, the
//! window invariant and the accounting identities must hold, and expiry
//! by one armed wake-up per user must do exactly what one timer per
//! Interest did.

use std::sync::Arc;

use proptest::prelude::*;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::consumer::{AttackerStrategy, Consumer, ConsumerKind};
use tactic::ext;
use tactic::tag::Tag;
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Nack, NackReason, Payload};
use tactic_net::Requester;
use tactic_net::{Catalog, CatalogEntry, RequestPolicy, RetransmitPolicy, ZipfRequester};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Step {
    /// Answer the i-th oldest outstanding request with Data.
    Answer(usize),
    /// NACK the i-th oldest outstanding request.
    Reject(usize),
    /// Advance to the i-th earliest outstanding deadline.
    Expire(usize),
    /// Advance time by millis and refill.
    Tick(u64),
    /// Re-attach the user to a new access point.
    Handover,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..64).prop_map(Step::Answer),
        (0usize..64).prop_map(Step::Reject),
        (0usize..64).prop_map(Step::Expire),
        (1u64..2_000).prop_map(Step::Tick),
        Just(Step::Handover),
    ]
}

/// Every user's base request timeout.
const TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// What every user of these properties shares: a one-provider catalog.
fn shared(window: usize, retransmit: Option<RetransmitPolicy>) -> Arc<RequestPolicy> {
    let catalog = Catalog::new(
        vec![CatalogEntry {
            prefix: "/prov0".parse().unwrap(),
            objects: 6,
            chunks: 4,
        }],
        0.7,
    );
    let policy = RequestPolicy {
        catalog,
        window,
        timeout: TIMEOUT,
        per_session_names: false,
        retransmit,
    };
    Arc::new(policy)
}

fn consumer(kind: ConsumerKind, window: usize, retransmit: Option<RetransmitPolicy>) -> Consumer {
    Consumer::new(7, kind, shared(window, retransmit), Rng::seed_from_u64(1))
}

fn plain(window: usize, retransmit: Option<RetransmitPolicy>) -> ZipfRequester {
    ZipfRequester::new(7, true, shared(window, retransmit), Rng::seed_from_u64(1))
}

/// A registration response carrying a tag valid until `expiry`.
fn reg_response(name: &Name, expiry: SimTime) -> Data {
    let kp = KeyPair::derive(b"/prov0", 0);
    let prefix: Name = "/prov0".parse().unwrap();
    let tag = Tag {
        provider_key_locator: prefix.child("KEY").child("1"),
        access_level: AccessLevel::Level(2),
        client_key_locator: prefix.child("users").child("u7").child("KEY"),
        access_path: AccessPath::EMPTY,
        expiry,
    }
    .sign(&kp);
    let mut d = Data::new(name.clone(), Payload::Synthetic(64));
    ext::set_data_new_tag(&mut d, &tag);
    d
}

/// A windowed user as the tests drive it: a TACTIC consumer or the plain
/// requester.
trait User: Requester + Sized {
    /// The plain requester: takes no NACKs and writes its window off on a
    /// handover.
    const PLAIN: bool;
    fn in_flight(&self) -> usize;
    /// Every counter and series it keeps.
    fn counts(&self) -> String;
}

impl User for Consumer {
    const PLAIN: bool = false;
    fn in_flight(&self) -> usize {
        Consumer::in_flight(self)
    }
    fn counts(&self) -> String {
        format!("{:?}", self.stats())
    }
}

impl User for ZipfRequester {
    const PLAIN: bool = true;
    fn in_flight(&self) -> usize {
        ZipfRequester::in_flight(self)
    }
    fn counts(&self) -> String {
        let r = self;
        let counts = (r.requested, r.received, r.received_bytes, r.timeouts);
        let retries = (r.retransmitted, r.gave_up);
        format!("{counts:?} {retries:?} {:?}", r.latency)
    }
}

/// One Interest as it went out.
type Sent = (Name, u64, Option<String>, u32);

/// At what instant something happened — the requests that expired then,
/// in order, or none for an outside step — and the Interests that
/// followed.
type Event = (SimTime, Vec<Name>, Vec<Sent>);

fn sent(out: &[Interest]) -> Vec<Sent> {
    let tag = |i: &Interest| ext::interest_tag(i).map(|t| format!("{t:?}"));
    out.iter()
        .map(|i| (i.name().clone(), i.nonce(), tag(i), i.lifetime_ms()))
        .collect()
}

/// One user run twice from the same seed: `old` expires requests as every
/// expiry once worked — one timer per Interest sent, ignored unless its
/// Interest is still the request's latest and the request is still in
/// flight — and `new` through its one armed wake-up.
struct Twins<U> {
    old: U,
    new: U,
    now: SimTime,
    /// One per Interest `old` sent: deadline, send order, name, nonce.
    timers: Vec<(SimTime, u64, Name, u64)>,
    /// What `old` has in flight: name, latest nonce, whether a registration.
    flying: Vec<(Name, u64, bool)>,
    sends: u64,
    /// The wake-ups `new` armed that the calendar still holds.
    wakes: Vec<SimTime>,
    old_log: Vec<Event>,
    new_log: Vec<Event>,
}

impl<U: User> Twins<U> {
    fn new(make: impl Fn() -> U) -> Self {
        let mut t = Twins {
            old: make(),
            new: make(),
            now: SimTime::ZERO,
            timers: Vec::new(),
            flying: Vec::new(),
            sends: 0,
            wakes: Vec::new(),
            old_log: Vec::new(),
            new_log: Vec::new(),
        };
        t.outside(|u, now, out| u.fill(now, out));
        t
    }

    /// `old` put `out` on the wire at `now`, after the expiry of `expired`
    /// if it was one: a timer for each Interest.
    fn old_sent(&mut self, now: SimTime, expired: Option<Name>, out: Vec<Interest>) {
        for i in &out {
            self.flying.retain(|(n, _, _)| n != i.name());
            let registration = ext::is_registration(i);
            self.flying
                .push((i.name().clone(), i.nonce(), registration));
            // A request expires after its (backed-off) timeout, which a
            // chunk's Interest carries as its lifetime; a registration
            // carries the provider's and expires after the base timeout.
            let lifetime = SimDuration::from_millis(u64::from(i.lifetime_ms()));
            let expiry = if registration { TIMEOUT } else { lifetime };
            let timer = (now + expiry, self.sends, i.name().clone(), i.nonce());
            self.timers.push(timer);
            self.sends += 1;
        }
        // The expiries of one instant are one event, as they are one
        // wake-up.
        match (expired, self.old_log.last_mut()) {
            (Some(name), Some((at, names, follow))) if *at == now && !names.is_empty() => {
                names.push(name);
                follow.extend(sent(&out));
            }
            (expired, _) => self
                .old_log
                .push((now, expired.into_iter().collect(), sent(&out))),
        }
    }

    /// The same outside step at the current instant, for both: `new`
    /// then arms its next wake-up, as the harness does after every call.
    fn outside(&mut self, step: impl Fn(&mut U, SimTime, &mut Vec<Interest>)) {
        let now = self.now;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        step(&mut self.old, now, &mut a);
        step(&mut self.new, now, &mut b);
        self.old_sent(now, None, a);
        self.wakes.extend(self.new.window().arm(now));
        self.new_log.push((now, Vec::new(), sent(&b)));
    }

    /// Runs both calendars up to and including `to`.
    fn advance(&mut self, to: SimTime) {
        let timer = |t: &[(SimTime, u64, Name, u64)]| {
            let due = (0..t.len()).filter(|&i| t[i].0 <= to);
            due.min_by_key(|&i| (t[i].0, t[i].1))
        };
        while let Some(i) = timer(&self.timers) {
            let (at, _, name, nonce) = self.timers.swap_remove(i);
            let live = self
                .flying
                .iter()
                .position(|(n, k, _)| *n == name && *k == nonce);
            if let Some(live) = live {
                self.flying.remove(live);
                let mut out = Vec::new();
                self.old.on_expiry(&name, at, &mut out);
                self.old_sent(at, Some(name), out);
            }
        }
        let wake = |w: &[SimTime]| (0..w.len()).filter(|&i| w[i] <= to).min_by_key(|&i| w[i]);
        while let Some(i) = wake(&self.wakes) {
            let at = self.wakes.swap_remove(i);
            let (mut out, mut expired) = (Vec::new(), Vec::new());
            self.new
                .on_timeout(at, &mut out, |name| expired.push(name.clone()));
            self.wakes.extend(self.new.window().arm(at));
            // A wake-up for a request answered since expires nothing.
            if !expired.is_empty() {
                self.new_log.push((at, expired, sent(&out)));
            }
        }
        self.now = to;
    }

    fn apply(&mut self, step: &Step) {
        let soon = self.now + SimDuration::from_millis(1);
        match *step {
            Step::Tick(ms) => {
                self.advance(self.now + SimDuration::from_millis(ms));
                self.outside(|u, now, out| u.fill(now, out));
            }
            Step::Answer(idx) if !self.flying.is_empty() => {
                self.advance(soon);
                let (name, _, registration) = self.flying.remove(idx % self.flying.len());
                let d = match registration {
                    true => reg_response(&name, self.now + SimDuration::from_secs(3)),
                    false => Data::new(name, Payload::Synthetic(64)),
                };
                self.outside(|u, now, out| u.on_data(&d, now, out));
            }
            Step::Reject(idx) if !self.flying.is_empty() && !U::PLAIN => {
                self.advance(soon);
                let (name, _, _) = self.flying.remove(idx % self.flying.len());
                let nack = Nack::new(Interest::new(name, 0), NackReason::InvalidTag);
                self.outside(|u, now, out| u.on_nack(&nack, now, out));
            }
            Step::Expire(idx) => {
                let live = |(_, _, name, nonce): &&(SimTime, u64, Name, u64)| {
                    self.flying.iter().any(|(n, k, _)| n == name && k == nonce)
                };
                let mut due: Vec<SimTime> = self.timers.iter().filter(live).map(|t| t.0).collect();
                due.sort();
                if !due.is_empty() {
                    self.advance(due[idx % due.len()]);
                }
            }
            Step::Handover => {
                self.advance(soon);
                if U::PLAIN {
                    self.flying.clear();
                }
                self.outside(|u, now, out| u.on_handover(now, out));
            }
            _ => {}
        }
    }

    /// The two agree on every expiry instant, every Interest sent and
    /// every counter.
    fn agree(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(&self.old_log, &self.new_log);
        prop_assert_eq!(self.old.counts(), self.new.counts());
        prop_assert_eq!(self.old.in_flight(), self.new.in_flight());
        Ok(())
    }
}

/// Runs `steps` on a pair of `make`'s users, checking after each step and
/// once every deadline left has passed that both ways of expiring agree.
fn differential<U: User>(make: impl Fn() -> U, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut t = Twins::new(make);
    for step in steps {
        t.apply(step);
        t.agree()?;
    }
    t.advance(t.now + SimDuration::from_secs(60));
    t.agree()
}

/// A retransmission policy, or `None` when `retries` is past the end.
fn policy(retries: u32, shift: u32) -> Option<RetransmitPolicy> {
    (retries < 4).then_some(RetransmitPolicy {
        max_retries: retries,
        max_backoff_shift: shift,
    })
}

fn kind(sel: usize) -> ConsumerKind {
    match sel {
        0 => ConsumerKind::Client,
        1 => ConsumerKind::Attacker(AttackerStrategy::NoTag),
        _ => ConsumerKind::Attacker(AttackerStrategy::FakeTag),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One armed wake-up per user expires exactly what one timer per
    /// Interest did, when it did, with the same follow-up Interests and
    /// counts — for consumers and the plain requester, with and without
    /// retransmission (whose backoff makes deadlines non-monotone in send
    /// order).
    #[test]
    fn one_wake_up_expires_what_a_timer_per_interest_did(
        sel in 0usize..4,
        window in 1usize..7,
        (retries, shift) in (0u32..6, 0u32..3),
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        let retransmit = policy(retries, shift);
        match sel {
            3 => differential(|| plain(window, retransmit), &steps)?,
            _ => differential(|| consumer(kind(sel), window, retransmit), &steps)?,
        }
    }

    /// The window invariant holds under any interleaving, for clients and
    /// attackers alike.
    #[test]
    fn window_never_exceeded(sel in 0usize..3, window in 1usize..8, steps in proptest::collection::vec(arb_step(), 1..80)) {
        let mut t = Twins::new(|| consumer(kind(sel), window, None));
        prop_assert!(t.new.in_flight() <= window);
        for step in &steps {
            t.apply(step);
            prop_assert!(
                t.new.in_flight() <= window,
                "in_flight {} > window {window} after {step:?}",
                t.new.in_flight()
            );
        }
    }

    /// Accounting identity: received + nacks + timeouts never exceeds
    /// requests issued, and receipts produce matching latency records.
    #[test]
    fn accounting_identities(steps in proptest::collection::vec(arb_step(), 1..80)) {
        let mut t = Twins::new(|| consumer(kind(1), 5, None));
        for step in &steps {
            t.apply(step);
            let s = t.new.stats();
            prop_assert!(s.received_chunks + s.nacks + s.timeouts <= s.requested_chunks + s.tag_requests);
            prop_assert_eq!(t.new.latency().len(), s.received_chunks);
            // Latencies are bounded by the elapsed simulated time.
            for (_, mean) in t.new.latency().per_second_means() {
                prop_assert!(mean >= 0.0 && mean <= t.now.as_secs_f64());
            }
        }
    }

    /// A client never sends a content Interest without a tag, and never
    /// sends a second registration while one is pending.
    #[test]
    fn client_discipline(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let mut t = Twins::new(|| consumer(kind(0), 5, None));
        for step in &steps {
            t.apply(step);
        }
        // Replay the outstanding set: every non-registration Interest a
        // client has in flight must carry a tag — verified by refilling
        // and inspecting fresh sends.
        let mut sends = Vec::new();
        t.new.fill(t.now, &mut sends);
        let regs = sends.iter().filter(|i| ext::is_registration(i)).count();
        prop_assert!(regs <= 1, "at most one registration in flight");
        for i in &sends {
            if !ext::is_registration(i) {
                prop_assert!(ext::interest_tag(i).is_some(), "client sent untagged content Interest");
            }
        }
    }
}

/// A retransmitted chunk's first expiry is stale once the retransmission
/// is out: the timer-per-Interest way ignored it, and the wake-up way
/// never arms for it. Fixed inputs that walk a chunk through every
/// retransmission to giving up, for both kinds of user.
#[test]
fn retransmission_expiries_agree() {
    let mut steps = vec![
        Step::Expire(0),
        Step::Tick(500),
        Step::Expire(0),
        Step::Expire(0),
    ];
    steps.extend([
        Step::Tick(1_000),
        Step::Expire(3),
        Step::Expire(0),
        Step::Expire(0),
    ]);
    let policy = Some(RetransmitPolicy::default());
    differential(|| plain(4, policy), &steps).unwrap();
    let mut registered = vec![Step::Answer(0)];
    registered.extend(steps);
    differential(|| consumer(kind(0), 4, policy), &registered).unwrap();
}
