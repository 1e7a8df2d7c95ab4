//! Deterministic fault injection: lossy links, burst loss, and scheduled
//! link/node failures.
//!
//! The paper evaluates TACTIC over ideal links, with clients that never
//! retry; that stays the default ([`FaultPlan::none`]), and this module
//! adds a deterministic way to take it away. A [`FaultPlan`] describes
//! everything that can go wrong during a run: a per-link [`LossModel`]
//! (independent Bernoulli, or two-state Gilbert–Elliott burst loss with
//! one state machine per *directed* link) plus a schedule of timed
//! [`FaultEvent`]s (link-down/link-up, node-crash/node-recover) applied
//! at exact sim instants.
//!
//! # Determinism
//!
//! 1. Loss draws come from a dedicated stream forked off the run seed
//!    (`FAULT_STREAM` in the transport). Forking consumes nothing, so
//!    the main simulation stream never sees a fault.
//! 2. `Rng::chance(p)` draws nothing when `p <= 0.0`, so a plan whose
//!    loss model cannot drop anything reproduces a fault-free run byte
//!    for byte — the golden snapshots double as the regression test, and
//!    `crates/experiments/tests/fault_props.rs` property-tests it.
//! 3. Schedules are data, not draws: the same `(topology, duration)`
//!    yields the same failure instants, so faulted grids stay
//!    byte-identical across `--threads`.
//!
//! # Where faults act
//!
//! Loss is decided *before* link reservation, so a lost packet never
//! occupies transmission capacity
//! ([`Lossy`](crate::observer::DropReason::Lossy)). A downed link drops
//! its traffic ([`LinkDown`](crate::observer::DropReason::LinkDown)); a
//! crashed node services none of its events
//! ([`NodeDown`](crate::observer::DropReason::NodeDown)). Every drop is
//! counted once in the run's drop ledger and reported once to the
//! [`NetObserver`](crate::observer::NetObserver) — bounded-PIT evictions,
//! which planes count from inside a callback, included: the transport
//! diffs the ledger around each callback — so the observer's count equals
//! the report's, reason for reason (`tests/attacks.rs`).
//!
//! Each schedule event recomputes shortest paths over the surviving graph
//! ([`fib_routes_filtered`](crate::links::fib_routes_filtered)) and hands
//! the plane a *full replacement*
//! ([`NodePlane::on_reroute`](crate::plane::NodePlane::on_reroute)):
//! every router's FIB is cleared and exactly the recomputed routes are
//! installed. A router on a partitioned side NACKs `NoRoute` rather than
//! forward into a void.
//!
//! # Recovery
//!
//! Both recovery mechanisms are off by default, as in the paper. Periodic
//! PIT sweeps expire aggregated records whose Data was lost (the
//! high-water mark is sampled just before each sweep); a straggler Data
//! arriving after the sweep is unsolicited and dropped uncached, per NFD
//! policy. [`RetransmitPolicy`] is the consumer-side half, shared by the
//! TACTIC consumer and the baseline requester: capped retries with binary
//! exponential backoff. Retransmissions carry fresh nonces and never
//! inflate `requested`, so satisfaction ratios stay comparable with the
//! paper's no-retry clients; exhausted retries count as `gave_up`.

use std::collections::{HashMap, HashSet};

use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::NodeId;

/// Per-transmission packet-loss model applied to every link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Lossless links (the default; reproduces fault-free runs exactly).
    None,
    /// Independent Bernoulli loss: each transmission is dropped with
    /// probability `p`.
    Uniform {
        /// Per-transmission drop probability in `[0, 1]`. Values ≤ 0 make
        /// no RNG draw at all.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss. Each *directed* link carries
    /// its own good/bad state; per transmission the current state's loss
    /// probability is drawn first, then the state transitions.
    GilbertElliott {
        /// Probability of moving good → bad after a transmission.
        p_good_to_bad: f64,
        /// Probability of moving bad → good after a transmission.
        p_bad_to_good: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

/// One scheduled failure or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of the `a`–`b` link stop carrying packets.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The `a`–`b` link comes back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// `node` crashes: it stops servicing events and every packet
    /// addressed to it is dropped.
    NodeDown {
        /// The crashing node.
        node: NodeId,
    },
    /// `node` recovers and resumes servicing events (its tables survive
    /// the crash; consumers do not restart in-flight windows).
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
}

/// A [`FaultKind`] stamped with the simulation time it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete fault-injection plan for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Loss model applied to every transmission on every live link.
    pub loss: LossModel,
    /// Timed link/node failures and recoveries. Same-time events apply in
    /// vector order.
    pub schedule: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: lossless links, no scheduled failures.
    pub fn none() -> Self {
        FaultPlan {
            loss: LossModel::None,
            schedule: Vec::new(),
        }
    }

    /// True if this plan is exactly the empty plan.
    pub fn is_none(&self) -> bool {
        self.loss == LossModel::None && self.schedule.is_empty()
    }

    /// Uniform Bernoulli loss with no scheduled failures.
    pub fn uniform_loss(p: f64) -> Self {
        FaultPlan {
            loss: LossModel::Uniform { p },
            schedule: Vec::new(),
        }
    }

    /// Compact human-readable form for scenario summaries and manifests.
    pub fn summary(&self) -> String {
        let loss = match self.loss {
            LossModel::None => "none".to_string(),
            LossModel::Uniform { p } => format!("uniform({p})"),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => format!("ge({p_good_to_bad},{p_bad_to_good},{loss_good},{loss_bad})"),
        };
        format!("loss={loss} sched={}", self.schedule.len())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Consumer-side Interest retransmission: capped retries with binary
/// exponential backoff.
///
/// Attempt `k` (0-based; attempt 0 is the original Interest) waits
/// `base << min(k, max_backoff_shift)` before timing out. After
/// `max_retries` retransmissions the chunk is abandoned and counted as
/// given up. This deliberately deviates from the paper's no-retry
/// clients and is therefore off (`None`) everywhere by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Retransmissions allowed per chunk after the original send.
    pub max_retries: u32,
    /// Backoff exponent cap: the timeout multiplier saturates at
    /// `1 << max_backoff_shift`.
    pub max_backoff_shift: u32,
}

impl RetransmitPolicy {
    /// Timeout for attempt number `attempt` (0 = original transmission):
    /// `base` scaled by the capped power-of-two backoff multiplier.
    pub fn timeout_for(&self, base: SimDuration, attempt: u32) -> SimDuration {
        base * (1u64 << attempt.min(self.max_backoff_shift))
    }
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            max_retries: 3,
            max_backoff_shift: 4,
        }
    }
}

/// Live fault state threaded through the transport: which nodes/links are
/// currently down, per-directed-link Gilbert–Elliott states, and the
/// dedicated loss RNG streams.
///
/// Loss draws are made from a **per-directed-link** stream, forked lazily
/// off the pristine base stream the first time that link draws. The fork
/// is a pure function of the base state and the `(from, to)` pair, so the
/// sequence a given link sees is independent of every other link — which
/// is exactly what sharded execution needs: transmissions on `from → to`
/// only ever happen in the shard that owns `from`, so each shard's
/// replica of the link stream advances identically to the sequential run
/// no matter how cross-shard event processing interleaves.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Pristine base stream; never drawn from directly, only forked.
    base_rng: Rng,
    link_rngs: HashMap<(u32, u32), Rng>,
    /// The nodes down now: a set, not a flag per node, so a shard holds
    /// no table the size of the world.
    node_down: HashSet<u32>,
    link_down: HashSet<(u32, u32)>,
    ge_bad: HashMap<(u32, u32), bool>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, rng: Rng) -> Self {
        FaultState {
            plan,
            base_rng: rng,
            link_rngs: HashMap::new(),
            node_down: HashSet::new(),
            link_down: HashSet::new(),
            ge_bad: HashMap::new(),
        }
    }

    fn key(a: NodeId, b: NodeId) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    pub(crate) fn node_is_down(&self, node: NodeId) -> bool {
        !self.node_down.is_empty() && self.node_down.contains(&node.0)
    }

    pub(crate) fn link_is_down(&self, a: NodeId, b: NodeId) -> bool {
        !self.link_down.is_empty() && self.link_down.contains(&Self::key(a, b))
    }

    /// Draws the loss model for one transmission `from → to` from that
    /// directed link's own stream. Only called for live links; makes no
    /// RNG draw (and forks no stream) when the model cannot lose.
    pub(crate) fn loses(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.plan.loss {
            LossModel::None => false,
            LossModel::Uniform { p } => {
                if p <= 0.0 {
                    return false;
                }
                let base = &self.base_rng;
                self.link_rngs
                    .entry((from.0, to.0))
                    .or_insert_with(|| base.fork(((from.0 as u64) << 32) | to.0 as u64))
                    .chance(p)
            }
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let key = (from.0, to.0);
                let base = &self.base_rng;
                let rng = self
                    .link_rngs
                    .entry(key)
                    .or_insert_with(|| base.fork(((from.0 as u64) << 32) | to.0 as u64));
                let bad = self.ge_bad.entry(key).or_insert(false);
                let lost = if *bad {
                    rng.chance(loss_bad)
                } else {
                    rng.chance(loss_good)
                };
                if *bad {
                    if rng.chance(p_bad_to_good) {
                        *bad = false;
                    }
                } else if rng.chance(p_good_to_bad) {
                    *bad = true;
                }
                lost
            }
        }
    }

    /// Applies scheduled event `index` and returns its kind (every kind
    /// changes the usable subgraph, so the caller recomputes routes).
    pub(crate) fn apply(&mut self, index: usize) -> FaultKind {
        let kind = self.plan.schedule[index].kind;
        match kind {
            FaultKind::LinkDown { a, b } => {
                self.link_down.insert(Self::key(a, b));
            }
            FaultKind::LinkUp { a, b } => {
                self.link_down.remove(&Self::key(a, b));
            }
            FaultKind::NodeDown { node } => {
                self.node_down.insert(node.0);
            }
            FaultKind::NodeUp { node } => {
                self.node_down.remove(&node.0);
            }
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::uniform_loss(0.1).is_none());
    }

    #[test]
    fn uniform_loss_is_deterministic_per_stream() {
        let mut a = FaultState::new(FaultPlan::uniform_loss(0.5), Rng::seed_from_u64(7));
        let mut b = FaultState::new(FaultPlan::uniform_loss(0.5), Rng::seed_from_u64(7));
        for _ in 0..256 {
            assert_eq!(a.loses(n(0), n(1)), b.loses(n(0), n(1)));
        }
    }

    #[test]
    fn zero_loss_never_draws_from_the_stream() {
        let rng = Rng::seed_from_u64(9);
        let mut st = FaultState::new(FaultPlan::uniform_loss(0.0), rng.fork(0));
        for _ in 0..64 {
            assert!(!st.loses(n(0), n(1)));
        }
        // The stream is untouched: a fresh fork draws the same first value.
        assert_eq!(rng.fork(0).next_u64(), rng.fork(0).next_u64());
    }

    #[test]
    fn per_link_streams_are_interleaving_independent() {
        // The draws one directed link sees must not depend on how draws
        // on other links interleave with them — the property sharded
        // execution relies on.
        let plan = FaultPlan::uniform_loss(0.5);
        let mut interleaved = FaultState::new(plan.clone(), Rng::seed_from_u64(7));
        let mut alone = FaultState::new(plan, Rng::seed_from_u64(7));
        let mut seq_interleaved = Vec::new();
        for _ in 0..128 {
            seq_interleaved.push(interleaved.loses(n(0), n(1)));
            interleaved.loses(n(1), n(0));
            interleaved.loses(n(2), n(3));
        }
        let seq_alone: Vec<bool> = (0..128).map(|_| alone.loses(n(0), n(1))).collect();
        assert_eq!(seq_interleaved, seq_alone);
    }

    #[test]
    fn gilbert_elliott_bad_state_loses_more() {
        let plan = FaultPlan {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.2,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            schedule: Vec::new(),
        };
        let mut st = FaultState::new(plan, Rng::seed_from_u64(3));
        let mut losses = 0u32;
        for _ in 0..1000 {
            if st.loses(n(0), n(1)) {
                losses += 1;
            }
        }
        // Stationary bad-state share is 0.5, so losses land near 500;
        // loss_good = 0 means every loss is a burst loss.
        assert!(losses > 300 && losses < 700, "losses = {losses}");
    }

    #[test]
    fn schedule_application_toggles_links_and_nodes() {
        let plan = FaultPlan {
            loss: LossModel::None,
            schedule: vec![
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::LinkDown { a: n(1), b: n(0) },
                },
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::NodeDown { node: n(2) },
                },
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::LinkUp { a: n(0), b: n(1) },
                },
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::NodeUp { node: n(2) },
                },
            ],
        };
        let mut st = FaultState::new(plan, Rng::seed_from_u64(1));
        st.apply(0);
        st.apply(1);
        // Link-down is symmetric regardless of endpoint order.
        assert!(st.link_is_down(n(0), n(1)));
        assert!(st.link_is_down(n(1), n(0)));
        assert!(st.node_is_down(n(2)));
        assert!(!st.node_is_down(n(3)));
        st.apply(2);
        st.apply(3);
        assert!(!st.link_is_down(n(0), n(1)));
        assert!(!st.node_is_down(n(2)));
    }

    #[test]
    fn retransmit_backoff_caps() {
        let p = RetransmitPolicy {
            max_retries: 3,
            max_backoff_shift: 2,
        };
        let base = SimDuration::from_millis(100);
        assert_eq!(p.timeout_for(base, 0), base);
        assert_eq!(p.timeout_for(base, 1), base * 2);
        assert_eq!(p.timeout_for(base, 2), base * 4);
        assert_eq!(p.timeout_for(base, 3), base * 4, "shift saturates");
        assert_eq!(p.timeout_for(base, 30), base * 4);
    }

    #[test]
    fn summaries_are_compact() {
        assert_eq!(FaultPlan::none().summary(), "loss=none sched=0");
        assert_eq!(
            FaultPlan::uniform_loss(0.05).summary(),
            "loss=uniform(0.05) sched=0"
        );
    }
}
