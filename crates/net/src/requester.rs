//! The shared Zipf-window workload driver.
//!
//! Every mechanism is evaluated under the same consumer behaviour: walk a
//! Zipf-ranked object catalog chunk by chunk, keep a fixed window of
//! requests in flight, retry nothing (lost chunks are abandoned — matching
//! an attacker hammering or a client moving on after expiry). Mechanisms
//! that need richer consumers (TACTIC's tag-handling clients) implement
//! their own, but the plain requester lives here so baseline planes and
//! test planes don't each grow a copy.
//!
//! Resilience experiments can opt into Interest retransmission via
//! [`RetransmitPolicy`]: expired chunks are re-requested with a fresh
//! nonce under capped binary exponential backoff, and chunks that exhaust
//! their retries are counted as given up instead of silently abandoned.

use std::collections::{HashMap, VecDeque};

use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest};
use tactic_sim::dist::Zipf;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};

use crate::fault::RetransmitPolicy;

/// The per-provider content catalog a requester walks:
/// `(prefix, objects, chunks per object)`.
pub type Catalog = Vec<(Name, usize, usize)>;

/// Static configuration for one [`ZipfRequester`].
#[derive(Debug, Clone)]
pub struct RequesterConfig {
    /// The node's principal identity (used in nonces and, when
    /// `per_session_names` is set, in names).
    pub principal: u64,
    /// Whether this requester counts as a legitimate client in reports.
    pub is_client: bool,
    /// Requests kept in flight.
    pub window: usize,
    /// Request expiry (also stamped as the Interest lifetime).
    pub timeout: SimDuration,
    /// Zipf skew over the global object ranking.
    pub zipf_alpha: f64,
    /// Append a `/u<principal>` component so every request is
    /// per-session-unique (defeats caching; provider-auth baselines).
    pub per_session_names: bool,
    /// Optional Interest retransmission (`None` = the paper's no-retry
    /// clients: expired chunks are abandoned).
    pub retransmit: Option<RetransmitPolicy>,
}

/// One in-flight request: when its latest Interest went out and how many
/// attempts (0 = original only) have been made.
#[derive(Debug, Clone, Copy)]
struct Flight {
    sent: SimTime,
    attempts: u32,
}

/// Builds a globally-unique Interest nonce: the principal in the top 24
/// bits, the requester's send counter in the low 40.
///
/// The fields are disjoint, so nonces from different principals can never
/// collide — unlike the historical `(principal << 24) ^ counter`, whose
/// counter bled into the principal bits once a requester passed 2²⁴
/// sends, aliasing principals in million-Interest runs. A requester would
/// need 2⁴⁰ (≈10¹²) sends to overflow its field; debug builds assert
/// both fields stay in range.
fn compose_nonce(principal: u64, counter: u64) -> u64 {
    debug_assert!(principal < 1 << 24, "principal exceeds its 24-bit field");
    debug_assert!(counter < 1 << 40, "send counter exceeds its 40-bit field");
    (principal << 40) | counter
}

/// A window-driven Zipf requester over a chunked content catalog.
#[derive(Debug)]
pub struct ZipfRequester {
    /// The node's principal identity.
    pub principal: u64,
    /// Whether this requester counts as a legitimate client in reports.
    pub is_client: bool,
    window: usize,
    timeout: SimDuration,
    zipf: Zipf,
    rng: Rng,
    catalog: Catalog,
    per_session_names: bool,
    retransmit: Option<RetransmitPolicy>,
    current: Option<(usize, usize, usize)>,
    retry: VecDeque<(usize, usize, usize)>,
    in_flight: HashMap<Name, Flight>,
    nonce: u64,
    /// Chunks requested so far (original requests only, not retries).
    pub requested: u64,
    /// Chunks received so far.
    pub received: u64,
    /// Payload bytes received so far.
    pub received_bytes: u64,
    /// Request expiries that fired on a still-current attempt.
    pub timeouts: u64,
    /// Interests retransmitted after an expiry.
    pub retransmitted: u64,
    /// Chunks abandoned after exhausting their retransmission budget.
    pub gave_up: u64,
    /// Per-chunk `(receive time, latency seconds)` records.
    pub latencies: Vec<(SimTime, f64)>,
}

impl ZipfRequester {
    /// Creates a requester over `catalog` with its own RNG stream.
    pub fn new(config: RequesterConfig, catalog: Catalog, rng: Rng) -> Self {
        let total_objects = catalog.iter().map(|c| c.1).sum::<usize>();
        ZipfRequester {
            principal: config.principal,
            is_client: config.is_client,
            window: config.window,
            timeout: config.timeout,
            zipf: Zipf::new(total_objects, config.zipf_alpha),
            rng,
            catalog,
            per_session_names: config.per_session_names,
            retransmit: config.retransmit,
            current: None,
            retry: VecDeque::new(),
            in_flight: HashMap::new(),
            nonce: 0,
            requested: 0,
            received: 0,
            received_bytes: 0,
            timeouts: 0,
            retransmitted: 0,
            gave_up: 0,
            latencies: Vec::new(),
        }
    }

    fn chunk_name(&self, prov: usize, obj: usize, chunk: usize) -> Name {
        let base = self.catalog[prov]
            .0
            .child(format!("obj{obj}"))
            .child(format!("c{chunk}"));
        if self.per_session_names {
            base.child(format!("u{}", self.principal))
        } else {
            base
        }
    }

    fn next_work(&mut self) -> (usize, usize, usize) {
        if let Some(w) = self.retry.pop_front() {
            return w;
        }
        match self.current {
            Some((p, o, c)) if c < self.catalog[p].2 => {
                self.current = Some((p, o, c + 1));
                (p, o, c)
            }
            _ => {
                let mut rank = self.zipf.sample(&mut self.rng);
                let mut prov = 0;
                for (i, c) in self.catalog.iter().enumerate() {
                    if rank < c.1 {
                        prov = i;
                        break;
                    }
                    rank -= c.1;
                }
                self.current = Some((prov, rank, 1));
                (prov, rank, 0)
            }
        }
    }

    /// Tops the in-flight window up, pushing the Interests to transmit
    /// onto `out`.
    pub fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        while self.in_flight.len() < self.window {
            let (p, o, c) = self.next_work();
            let name = self.chunk_name(p, o, c);
            if self.in_flight.contains_key(&name) {
                continue;
            }
            self.nonce += 1;
            let mut i = Interest::new(name.clone(), compose_nonce(self.principal, self.nonce));
            i.set_lifetime_ms((self.timeout.as_nanos() / 1_000_000) as u32);
            self.requested += 1;
            self.in_flight.insert(
                name,
                Flight {
                    sent: now,
                    attempts: 0,
                },
            );
            out.push(i);
        }
    }

    /// Records a delivered chunk and refills the window.
    pub fn on_data(&mut self, d: &Data, now: SimTime, out: &mut Vec<Interest>) {
        if let Some(flight) = self.in_flight.remove(d.name()) {
            self.received += 1;
            self.received_bytes += d.payload().len() as u64;
            self.latencies
                .push((now, now.saturating_since(flight.sent).as_secs_f64()));
        }
        self.fill(now, out)
    }

    /// Expires a request if its *latest* attempt is the one sent at
    /// `sent`: a stale expiry (the chunk was since retransmitted or
    /// completed) is a no-op and counts nothing. A current expiry either
    /// retransmits under the configured policy (fresh nonce, backed-off
    /// lifetime) or abandons the chunk and refills the window.
    pub fn on_timeout(
        &mut self,
        name: &Name,
        sent: SimTime,
        now: SimTime,
        out: &mut Vec<Interest>,
    ) {
        if !matches!(self.in_flight.get(name), Some(f) if f.sent == sent) {
            return;
        }
        self.timeouts += 1;
        if let Some(policy) = self.retransmit {
            let flight = self.in_flight.get_mut(name).expect("checked above");
            if flight.attempts < policy.max_retries {
                flight.attempts += 1;
                flight.sent = now;
                let attempts = flight.attempts;
                self.nonce += 1;
                self.retransmitted += 1;
                let mut i = Interest::new(name.clone(), compose_nonce(self.principal, self.nonce));
                let lifetime = policy.timeout_for(self.timeout, attempts);
                i.set_lifetime_ms((lifetime.as_nanos() / 1_000_000) as u32);
                return out.push(i);
            }
            self.gave_up += 1;
        }
        self.in_flight.remove(name);
        self.fill(now, out)
    }

    /// A handover re-attached this requester: requests in flight across
    /// the old radio link are written off (their timeouts will fire as
    /// no-ops) and the window refills from the new location.
    pub fn on_move(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        self.in_flight.clear();
        self.fill(now, out)
    }

    /// The per-request expiry this requester stamps on its Interests.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// The expiry to schedule for the Interest currently in flight for
    /// `name`: the base timeout scaled by the retransmission backoff of
    /// its attempt count (the base timeout for unknown names or when
    /// retransmission is off).
    pub fn timeout_for(&self, name: &Name) -> SimDuration {
        match (self.retransmit, self.in_flight.get(name)) {
            (Some(policy), Some(f)) => policy.timeout_for(self.timeout, f.attempts),
            _ => self.timeout,
        }
    }
}

/// What the plane harness asks of a windowed user node, whatever the
/// mechanism: the harness owns when these fire, the buffer the Interests
/// are pushed onto (one per run, reused for every call) and how they go
/// on the wire (expiry scheduled before each send); the requester owns
/// which Interests those are.
pub trait Requester {
    /// Tops the in-flight window up, pushing the Interests to transmit
    /// onto `out`.
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>);

    /// The expiry check for `name` sent at `sent` fired; pushes the
    /// follow-up Interests (retransmission and/or refill) onto `out`.
    fn on_timeout(&mut self, name: &Name, sent: SimTime, now: SimTime, out: &mut Vec<Interest>);

    /// The node was re-attached to a new access point: drop whatever was
    /// bound to the old location and refill from the new one.
    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>);

    /// The expiry to schedule for the Interest currently in flight for
    /// `name`.
    fn timeout_for(&self, name: &Name) -> SimDuration;
}

impl Requester for ZipfRequester {
    fn fill(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        ZipfRequester::fill(self, now, out)
    }

    fn on_timeout(&mut self, name: &Name, sent: SimTime, now: SimTime, out: &mut Vec<Interest>) {
        ZipfRequester::on_timeout(self, name, sent, now, out)
    }

    fn on_handover(&mut self, now: SimTime, out: &mut Vec<Interest>) {
        self.on_move(now, out)
    }

    fn timeout_for(&self, name: &Name) -> SimDuration {
        ZipfRequester::timeout_for(self, name)
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

    fn requester_with(per_session: bool, retransmit: Option<RetransmitPolicy>) -> ZipfRequester {
        ZipfRequester::new(
            RequesterConfig {
                principal: 7,
                is_client: true,
                window: 4,
                timeout: SimDuration::from_secs(2),
                zipf_alpha: 0.8,
                per_session_names: per_session,
                retransmit,
            },
            vec![("/prov0".parse().unwrap(), 5, 3)],
            Rng::seed_from_u64(1),
        )
    }

    fn requester(per_session: bool) -> ZipfRequester {
        requester_with(per_session, None)
    }

    #[test]
    fn nonces_never_collide_across_principals_past_2_24_sends() {
        // The historical `(principal << 24) ^ counter` aliased principals
        // once a counter crossed 2²⁴: principal 0's send 2²⁴+c produced
        // principal 1's send c. Walk both counters through dense windows
        // around every 2²⁴ boundary up to 2²⁶ — the exact collision
        // pattern — and require global uniqueness.
        let mut seen = std::collections::HashSet::new();
        let windows = (0u64..=4).map(|k| {
            let base = k << 24;
            base.saturating_sub(512)..base + 512
        });
        for counters in windows {
            for c in counters {
                for principal in [0u64, 1, 2, (1 << 24) - 1] {
                    assert!(
                        seen.insert(compose_nonce(principal, c)),
                        "nonce collision at principal {principal}, counter {c}"
                    );
                }
            }
        }
        // And the disjoint-field argument holds structurally: the
        // principal occupies bits the counter can never reach.
        assert_eq!(compose_nonce(3, 0) >> 40, 3);
        assert_eq!(compose_nonce(0, (1 << 40) - 1) >> 40, 0);
    }

    #[test]
    fn fill_keeps_the_window_full() {
        let mut r = requester(false);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        assert_eq!(sends.len(), 4);
        assert_eq!(r.requested, 4);
        assert!(
            sent(|o| r.fill(SimTime::ZERO, o)).is_empty(),
            "window already full"
        );
    }

    #[test]
    fn per_session_names_append_the_principal() {
        let mut r = requester(true);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        for i in &sends {
            assert!(i.name().to_string().ends_with("/u7"), "{}", i.name());
        }
    }

    #[test]
    fn stale_timeouts_are_ignored() {
        let mut r = requester(false);
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let name = sends[0].name().clone();
        // A timeout carrying the wrong sent-time is a no-op.
        assert!(
            sent(|o| r.on_timeout(&name, SimTime::from_secs(9), SimTime::from_secs(3), o))
                .is_empty()
        );
        assert_eq!(r.timeouts, 0, "stale expiries count nothing");
        // The genuine one frees a slot and refills it.
        let refill = sent(|o| r.on_timeout(&name, SimTime::ZERO, SimTime::from_secs(3), o));
        assert_eq!(refill.len(), 1);
        assert_eq!(r.timeouts, 1);

        // A retransmitted chunk's *original* expiry is stale too: the
        // flight's sent-time moved to the retransmission instant, so the
        // old expiry must not double-count the chunk as lost.
        let mut r = requester_with(false, Some(RetransmitPolicy::default()));
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let name = sends[0].name().clone();
        let t1 = SimTime::from_secs(2);
        let resend = sent(|o| r.on_timeout(&name, SimTime::ZERO, t1, o));
        assert_eq!(resend.len(), 1, "expiry retransmits the same chunk");
        assert_eq!(resend[0].name(), &name);
        assert!(sent(|o| r.on_timeout(&name, SimTime::ZERO, SimTime::from_secs(3), o)).is_empty());
        assert_eq!(
            (r.timeouts, r.retransmitted, r.gave_up),
            (1, 1, 0),
            "the original expiry after a retransmission is a no-op"
        );
        // The retransmission's own expiry is the current one.
        assert_eq!(
            sent(|o| r.on_timeout(&name, t1, SimTime::from_secs(6), o)).len(),
            1
        );
        assert_eq!(r.timeouts, 2);
    }

    #[test]
    fn retransmission_backs_off_and_gives_up() {
        let policy = RetransmitPolicy {
            max_retries: 2,
            max_backoff_shift: 4,
        };
        let mut r = requester_with(false, Some(policy));
        let sends = sent(|o| r.fill(SimTime::ZERO, o));
        let name = sends[0].name().clone();
        let nonce0 = sends[0].nonce();
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(2));

        let resend = sent(|o| r.on_timeout(&name, SimTime::ZERO, SimTime::from_secs(2), o));
        assert_eq!(resend.len(), 1);
        assert_ne!(resend[0].nonce(), nonce0, "retries carry fresh nonces");
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(4));

        let t1 = SimTime::from_secs(2);
        let resend2 = sent(|o| r.on_timeout(&name, t1, SimTime::from_secs(6), o));
        assert_eq!(resend2.len(), 1);
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(8));

        // Retries exhausted: the chunk is given up and the slot refills
        // with different work.
        let t2 = SimTime::from_secs(6);
        let refill = sent(|o| r.on_timeout(&name, t2, SimTime::from_secs(14), o));
        assert_eq!(refill.len(), 1);
        assert_ne!(refill[0].name(), &name, "given-up chunks are not retried");
        assert_eq!((r.retransmitted, r.gave_up), (2, 1));
        assert_eq!(
            r.timeout_for(&name),
            SimDuration::from_secs(2),
            "an unknown name falls back to the base timeout"
        );
        // `requested` counts original chunks only, never retries.
        assert_eq!(r.requested, 5);
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
        assert!((r.latencies[0].1 - 0.25).abs() < 1e-9);
    }
}
