//! Adversarial workloads and the edge defenses that absorb them: the
//! paper's threat model (§3.C) as traffic the repo can drive, on every
//! plane, deterministically.
//!
//! An [`AttackPlan`] turns a scenario's attacker fleet into one of five
//! [`AttackClass`]es at a per-attacker intensity (Interests/s). An
//! attacker fielded as an open-loop source is the harness's
//! [`FleetNode`](crate::harness::FleetNode), built once and never a
//! windowed requester: every [`TICK`] its [`Pacer`] says how many
//! Interests are due, and the harness spells each one — the chunk name
//! under the shard's [`RequestPolicy`](crate::requester::RequestPolicy),
//! a fleet nonce, the request lifetime — straight onto the transport's
//! buffer, never tracking a reply. A plane's [`AttackDriver`] supplies
//! only what differs between mechanisms: which chunk to target (TACTIC:
//! a spray, or a spray at a pooled tag's issuer; the baselines: a spray
//! or a breadth-first walk) and what credential to attach (TACTIC: the
//! class's tag, or a forged body behind a fresh signature; the baselines:
//! none).
//! `Churn` instead re-points attacker radio links at exponential dwell
//! times ([`ChurnConfig`]); the harness counts an active churn plan as
//! mobility when it picks a sharded run's lookahead.
//!
//! A [`DefenseConfig`] names the counter-measures an edge deployment
//! would arm: a per-client token-bucket rate limit ([`RateLimit`]) and a
//! per-face outstanding-Interest cap (both enforced by the transport
//! through [`EdgeDefense`], surfacing [`DropReason::RateLimited`] and
//! [`DropReason::FaceCapped`]), plus a bounded PIT whose deterministic
//! oldest-first evictions the planes count as [`DropReason::PitFull`].
//! Each drop is counted in the run's drop ledger and so reaches reports,
//! sampler rows, telemetry JSONL and manifests; the three print in the
//! golden dump only when non-zero. [`DefenseConfig::none`] builds no
//! state at all, and an armed defense that never binds reproduces the
//! goldens too: the bucket admits without a draw.
//!
//! # Determinism rules
//!
//! * Attack traffic draws only from per-attacker streams, which the
//!   harness alone forks as `ATTACK_STREAM ^ node_index`, and only while
//!   a plan is active — forking is pure, so an inactive plan (`class:
//!   None` or zero intensity) makes no draw and no schedule anywhere and
//!   unattacked runs stay byte-identical to the golden snapshots
//!   (`tests/attacks.rs`). Each Interest draws its target first, then
//!   whatever its credential needs.
//! * Defense state is consulted and mutated at *send* time, inside the
//!   transmitting node's shard, so rate-limiter and face-cap state never
//!   crosses a shard boundary and K-sharded runs merge byte-identically.
//! * All defense arithmetic is integer nanosecond bookkeeping — no
//!   floats, no wall clock.

use tactic_ndn::packet::Interest;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::NodeId;

use crate::catalog::{Catalog, Chunk};
use crate::observer::DropReason;

/// Base RNG stream id for per-attacker adversarial streams
/// (`ATTACK_STREAM ^ node index`). Chosen disjoint from the transport's
/// `NODE_STREAM`/`FAULT_STREAM` and every plane's consumer streams.
pub(crate) const ATTACK_STREAM: u64 = 0xA77A_C200_0000_0000;

/// The adversarial behaviours an attacker fleet can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackClass {
    /// Interest-flooding DoS: spray valid-credential Interests for
    /// random in-catalog names at high rate through the edge APs,
    /// pressuring PITs, links, and providers.
    Flood,
    /// Tag-forgery storm: every Interest carries a freshly forged
    /// signature, burning one signature verification per Interest at the
    /// edge before rejection.
    ForgeTags,
    /// Bloom-filter pollution: cycle a pool of distinct *valid*
    /// credentials so edge Bloom filters absorb attacker keys, driving
    /// occupancy toward saturation resets.
    BfPollution,
    /// Replay of captured-then-expired tags: syntactically valid
    /// credentials past their expiry, rejected at precheck.
    ReplayExpired,
    /// Attacker mobility churn: attackers re-attach to new access points
    /// at an aggressive dwell time while requesting, thrashing relay and
    /// handover state.
    Churn,
}

impl AttackClass {
    /// Every class, in sweep order.
    pub const ALL: [AttackClass; 5] = [
        AttackClass::Flood,
        AttackClass::ForgeTags,
        AttackClass::BfPollution,
        AttackClass::ReplayExpired,
        AttackClass::Churn,
    ];
}

impl std::fmt::Display for AttackClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AttackClass::Flood => "flood",
            AttackClass::ForgeTags => "forge-tags",
            AttackClass::BfPollution => "bf-pollution",
            AttackClass::ReplayExpired => "replay-expired",
            AttackClass::Churn => "churn",
        })
    }
}

/// What the scenario's attacker fleet does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackPlan {
    /// The behaviour (`None` = the historical paper attacker mix).
    pub class: Option<AttackClass>,
    /// Adversarial Interests per second *per attacker* (`0` disables the
    /// plan even when a class is named, so intensity sweeps can include
    /// a genuine zero point).
    pub intensity: u32,
}

impl AttackPlan {
    /// No adversarial plan: attackers keep their historical behaviour.
    pub fn none() -> AttackPlan {
        AttackPlan::default()
    }

    /// Whether the plan drives the attacker fleet at all.
    pub fn active(&self) -> bool {
        self.class.is_some() && self.intensity > 0
    }

    /// The traffic class the attacker fleet drives: `None` when the plan
    /// is inactive, and for [`AttackClass::Churn`], which is scheduled
    /// Move events rather than crafted traffic.
    pub fn fleet_class(&self) -> Option<AttackClass> {
        self.class
            .filter(|&c| self.active() && c != AttackClass::Churn)
    }

    /// Whether the plan re-points attacker radios ([`AttackClass::Churn`]).
    pub fn churns(&self) -> bool {
        self.active() && self.class == Some(AttackClass::Churn)
    }

    /// One-token provenance summary for manifests (`off`,
    /// `flood@200`, ...).
    pub fn summary(&self) -> String {
        match self.class {
            Some(c) if self.intensity > 0 => format!("{c}@{}", self.intensity),
            _ => "off".to_string(),
        }
    }
}

/// Cadence of the self-rescheduling attack tick.
pub const TICK: SimDuration = SimDuration::from_millis(100);

/// One attacker's open-loop rate: an integer nanosecond accumulator that
/// releases exactly `intensity` Interests per second of [`TICK`]s,
/// whatever the two divide to.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    intensity: u32,
    acc_ns: u64,
}

impl Pacer {
    /// A pacer at `intensity` Interests per second.
    pub fn new(intensity: u32) -> Pacer {
        Pacer {
            intensity,
            acc_ns: 0,
        }
    }

    /// One [`TICK`] went by: how many Interests are due.
    pub fn due(&mut self) -> u64 {
        self.acc_ns += u64::from(self.intensity) * TICK.as_nanos();
        let n = self.acc_ns / 1_000_000_000;
        self.acc_ns -= n * 1_000_000_000;
        n
    }
}

/// A fielded attacker as its [`AttackDriver`] sees it: who it is, the
/// catalog it aims into and its own RNG stream.
pub struct Attacker<'a> {
    /// The attacker's principal (its node index).
    pub principal: u64,
    /// The catalog of the shard it asks in.
    pub catalog: &'a Catalog,
    /// Its own stream, forked off `ATTACK_STREAM` by the harness.
    pub rng: &'a mut Rng,
}

/// What a plane puts into its attackers' Interests. The harness paces
/// each fielded attacker and spells every Interest (name, nonce,
/// lifetime); for each it asks the driver for a [`target`](Self::target),
/// then has it [`attach`](Self::attach) a credential, in that order.
pub trait AttackDriver {
    /// The chunk the next Interest asks for.
    fn target(&mut self, at: &mut Attacker<'_>) -> Chunk;

    /// Puts the attacker's credential on `interest`, spelled for `chunk`
    /// (the one [`target`](Self::target) just returned). None by default.
    fn attach(&mut self, _interest: &mut Interest, _chunk: Chunk, _at: &mut Attacker<'_>) {}
}

/// A per-client token-bucket rate limit (GCRA, integer nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained packets per second each client sender may emit.
    pub per_sec: u32,
    /// Burst tolerance in packets above the sustained rate.
    pub burst: u32,
}

impl RateLimit {
    /// The emission interval in nanoseconds.
    fn period_ns(&self) -> u64 {
        1_000_000_000 / u64::from(self.per_sec.max(1))
    }
}

/// The edge's defensive posture. Every knob defaults to off; a config
/// with all knobs off is guaranteed zero-cost (no state allocated, no
/// checks executed, golden snapshots unchanged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Per-client token-bucket rate limiting at the edge radio.
    pub rate_limit: Option<RateLimit>,
    /// Per-face fairness cap: Interests per second one access point may
    /// push into its edge router.
    pub face_cap: Option<u32>,
    /// Bound every router's PIT at this many pending names, evicting
    /// oldest-first ([`DropReason::PitFull`]).
    pub pit_capacity: Option<usize>,
}

impl DefenseConfig {
    /// All defenses off (the historical behaviour).
    pub fn none() -> DefenseConfig {
        DefenseConfig::default()
    }

    /// Whether any knob is armed.
    pub fn active(&self) -> bool {
        self.rate_limit.is_some() || self.face_cap.is_some() || self.pit_capacity.is_some()
    }

    /// One-token provenance summary for manifests (`off` or `on`).
    pub fn summary(&self) -> &'static str {
        if self.active() {
            "on"
        } else {
            "off"
        }
    }
}

/// Attacker mobility churn, scheduled by the transport alongside the
/// regular mobility model: every listed node re-attaches to a uniformly
/// random other AP with exponential dwell times drawn from its own
/// per-node stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnConfig {
    /// The churning nodes, sorted by id (binary-searched per Move).
    pub nodes: Vec<NodeId>,
    /// Mean dwell between re-attachments.
    pub mean_dwell: SimDuration,
}

/// The transport-enforced edge defenses with their runtime state.
///
/// Built by a plane from its [`DefenseConfig`] and topology roles: the
/// transport is role-blind, so the plane hands it sorted membership
/// lists instead. Checks run at *send* time in the transmitting shard
/// (see the module docs); a `None`-everything config never constructs
/// this at all.
#[derive(Debug, Clone)]
pub struct EdgeDefense {
    rate_limit: Option<RateLimit>,
    face_cap: Option<u32>,
    /// Token-bucket subjects (clients + attackers), sorted.
    client_senders: Vec<NodeId>,
    /// Fairness-cap subjects (access points), sorted.
    ap_senders: Vec<NodeId>,
    /// Fairness-cap beneficiaries (edge routers), sorted: the cap
    /// applies only on AP → edge-router links, never to the Data an AP
    /// relays back down to a client.
    edge_receivers: Vec<NodeId>,
    /// GCRA theoretical-arrival-time per client sender (parallel to
    /// `client_senders`), in nanoseconds.
    tat_ns: Vec<u64>,
    /// Per AP → edge link (parallel to `ap_senders`): the current
    /// one-second window index and the packets admitted in it. One slot
    /// per AP suffices because each AP feeds exactly one edge router
    /// face at a time.
    face_windows: Vec<(u64, u32)>,
}

impl EdgeDefense {
    /// Assembles the defense state. Membership lists are sorted
    /// internally; pass each node at most once per list.
    pub fn new(
        rate_limit: Option<RateLimit>,
        face_cap: Option<u32>,
        mut client_senders: Vec<NodeId>,
        mut ap_senders: Vec<NodeId>,
        mut edge_receivers: Vec<NodeId>,
    ) -> EdgeDefense {
        client_senders.sort_unstable();
        ap_senders.sort_unstable();
        edge_receivers.sort_unstable();
        let tat_ns = vec![
            0;
            if rate_limit.is_some() {
                client_senders.len()
            } else {
                0
            }
        ];
        let face_windows = vec![
            (0, 0);
            if face_cap.is_some() {
                ap_senders.len()
            } else {
                0
            }
        ];
        EdgeDefense {
            rate_limit,
            face_cap,
            client_senders,
            ap_senders,
            edge_receivers,
            tat_ns,
            face_windows,
        }
    }

    /// Admission control for a `from → to` transmission at `now`:
    /// `None` admits the packet, `Some(reason)` tells the transport to
    /// drop and label it. Mutates only state belonging to `from`.
    pub fn admit(&mut self, from: NodeId, to: NodeId, now: SimTime) -> Option<DropReason> {
        if let Some(rl) = self.rate_limit {
            if let Ok(i) = self.client_senders.binary_search(&from) {
                let now_ns = now.as_nanos();
                let period = rl.period_ns();
                let tat = self.tat_ns[i];
                if tat > now_ns + u64::from(rl.burst) * period {
                    return Some(DropReason::RateLimited);
                }
                self.tat_ns[i] = tat.max(now_ns) + period;
            }
        }
        if let Some(cap) = self.face_cap {
            if let Ok(i) = self.ap_senders.binary_search(&from) {
                if self.edge_receivers.binary_search(&to).is_ok() {
                    let window = now.as_nanos() / 1_000_000_000;
                    let slot = &mut self.face_windows[i];
                    if slot.0 != window {
                        *slot = (window, 0);
                    }
                    if slot.1 >= cap {
                        return Some(DropReason::FaceCapped);
                    }
                    slot.1 += 1;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn plan_activity_and_summaries() {
        assert!(!AttackPlan::none().active());
        assert_eq!(AttackPlan::none().summary(), "off");
        let zero = AttackPlan {
            class: Some(AttackClass::Flood),
            intensity: 0,
        };
        assert!(!zero.active(), "zero intensity must be inert");
        assert_eq!(zero.summary(), "off");
        let hot = AttackPlan {
            class: Some(AttackClass::ForgeTags),
            intensity: 200,
        };
        assert!(hot.active());
        assert_eq!(hot.summary(), "forge-tags@200");
        assert_eq!(AttackClass::ALL.len(), 5);
        assert!(!DefenseConfig::none().active());
        assert_eq!(DefenseConfig::none().summary(), "off");
        let d = DefenseConfig {
            pit_capacity: Some(512),
            ..DefenseConfig::none()
        };
        assert!(d.active());
        assert_eq!(d.summary(), "on");
    }

    #[test]
    fn accumulator_hits_the_configured_rate_exactly() {
        let mut pacer = Pacer::new(37);
        let per_tick: Vec<u64> = (0..10).map(|_| pacer.due()).collect();
        assert_eq!(
            per_tick.iter().sum::<u64>(),
            37,
            "one second of ticks releases exactly `intensity`: {per_tick:?}"
        );
        let mut idle = Pacer::new(0);
        assert!((0..50).all(|_| idle.due() == 0), "zero intensity is inert");
    }

    #[test]
    fn token_bucket_admits_burst_then_throttles_to_rate() {
        let rl = RateLimit {
            per_sec: 10,
            burst: 3,
        };
        let mut d = EdgeDefense::new(Some(rl), None, vec![n(5)], vec![], vec![]);
        // Back-to-back at t=0: the burst tolerance admits a clump, then
        // the bucket closes.
        let mut admitted = 0;
        for _ in 0..10 {
            if d.admit(n(5), n(1), SimTime::ZERO).is_none() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4, "burst tolerance plus the sustained slot");
        assert_eq!(
            d.admit(n(5), n(1), SimTime::ZERO),
            Some(DropReason::RateLimited)
        );
        // At the sustained rate (one per 100 ms) everything conforms.
        for i in 1..=20u64 {
            assert_eq!(d.admit(n(5), n(1), t_ms(400 + i * 100)), None);
        }
        // Non-members are never touched.
        for _ in 0..100 {
            assert_eq!(d.admit(n(9), n(1), SimTime::ZERO), None);
        }
    }

    #[test]
    fn face_cap_windows_reset_each_second() {
        let mut d = EdgeDefense::new(None, Some(2), vec![], vec![n(3)], vec![n(7)]);
        assert_eq!(d.admit(n(3), n(7), t_ms(10)), None);
        assert_eq!(d.admit(n(3), n(7), t_ms(20)), None);
        assert_eq!(d.admit(n(3), n(7), t_ms(30)), Some(DropReason::FaceCapped));
        // Next second: fresh window.
        assert_eq!(d.admit(n(3), n(7), t_ms(1_010)), None);
        // AP → client (not an edge receiver) is never capped: Data going
        // back down must not be throttled.
        for _ in 0..10 {
            assert_eq!(d.admit(n(3), n(40), t_ms(1_020)), None);
        }
    }

    #[test]
    fn defense_replicas_agree_byte_for_byte() {
        // Two replicas fed the same admission sequence stay identical —
        // the property the sharded transport relies on (state is only
        // touched by the owning sender's shard).
        let build = || {
            EdgeDefense::new(
                Some(RateLimit {
                    per_sec: 5,
                    burst: 2,
                }),
                Some(3),
                vec![n(1), n(2)],
                vec![n(10)],
                vec![n(20)],
            )
        };
        let mut a = build();
        let mut b = build();
        for step in 0..200u64 {
            let from = if step % 3 == 0 { n(1) } else { n(2) };
            assert_eq!(
                a.admit(from, n(10), t_ms(step * 7)),
                b.admit(from, n(10), t_ms(step * 7))
            );
            assert_eq!(
                a.admit(n(10), n(20), t_ms(step * 7)),
                b.admit(n(10), n(20), t_ms(step * 7))
            );
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
