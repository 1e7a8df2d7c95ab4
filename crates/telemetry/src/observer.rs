//! The protocol-decision hook trait and its vocabulary.
//!
//! Every hook receives a [`Hop`] stamp (node id, router role, sim time)
//! plus the decision-specific context. All hooks default to no-ops so
//! [`NoopProtocolObserver`] compiles away entirely; recording observers
//! override only what they need.

use tactic_ndn::name::Name;
use tactic_ndn::packet::NackReason;
use tactic_sim::time::SimTime;

/// Who made a protocol decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeRole {
    /// An edge router (Protocol 2's validation point).
    EdgeRouter,
    /// A content/intermediate router (Protocols 3–4).
    CoreRouter,
    /// A content provider.
    Provider,
    /// A consumer (client or attacker).
    Consumer,
}

impl NodeRole {
    /// Stable lowercase label used in metric keys and JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeRole::EdgeRouter => "edge",
            NodeRole::CoreRouter => "core",
            NodeRole::Provider => "provider",
            NodeRole::Consumer => "consumer",
        }
    }
}

/// The (who, when) stamp attached to every hook invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Node id in the topology.
    pub node: u64,
    /// The node's protocol role.
    pub role: NodeRole,
    /// Simulation time of the decision.
    pub now: SimTime,
}

impl Hop {
    /// Convenience constructor.
    pub fn new(node: u64, role: NodeRole, now: SimTime) -> Self {
        Hop { node, role, now }
    }
}

/// Which half of the pre-check ran (Protocol 1 is split between the edge
/// and the content-side checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrecheckStage {
    /// Prefix + expiry (Protocol 1, lines 1–4; runs at edge routers).
    Edge,
    /// Access level + provider key binding (runs where content is served).
    Content,
}

impl PrecheckStage {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecheckStage::Edge => "edge",
            PrecheckStage::Content => "content",
        }
    }
}

/// Why a pre-check (or the access-path check) rejected an Interest.
///
/// Mirrors `tactic::precheck::PreCheckError` without the payload so the
/// telemetry crate stays below `tactic-core` in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// Tag's provider prefix does not cover the requested content.
    PrefixMismatch,
    /// The tag expired (revocation by expiry).
    Expired,
    /// Tag's access level is below the content's requirement.
    InsufficientAccessLevel,
    /// Tag was issued under a different provider key.
    ProviderKeyMismatch,
    /// The Interest carried no tag at all.
    MissingTag,
    /// The request arrived over a path the tag does not authorize.
    AccessPathMismatch,
}

impl RejectReason {
    /// Stable snake_case label used in metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::PrefixMismatch => "prefix_mismatch",
            RejectReason::Expired => "expired",
            RejectReason::InsufficientAccessLevel => "insufficient_access_level",
            RejectReason::ProviderKeyMismatch => "provider_key_mismatch",
            RejectReason::MissingTag => "missing_tag",
            RejectReason::AccessPathMismatch => "access_path_mismatch",
        }
    }
}

/// Outcome of one pre-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecheckVerdict {
    /// The check passed.
    Accepted,
    /// The check failed for the given reason.
    Rejected(RejectReason),
}

/// Outcome of one Bloom-filter membership lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BfOutcome {
    /// The tag was (probably) present.
    Hit,
    /// The tag was definitely absent.
    Miss,
}

impl BfOutcome {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            BfOutcome::Hit => "hit",
            BfOutcome::Miss => "miss",
        }
    }
}

/// What a content router decided on the probabilistic `F > 0` path of
/// Protocol 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RevalidationOutcome {
    /// The coin said trust the edge's validation; no work done.
    Trusted,
    /// The coin fired and the signature re-check passed.
    Verified,
    /// The coin fired and the signature re-check failed.
    Rejected,
}

impl RevalidationOutcome {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            RevalidationOutcome::Trusted => "trusted",
            RevalidationOutcome::Verified => "verified",
            RevalidationOutcome::Rejected => "rejected",
        }
    }
}

/// How a traced Interest's lifecycle ended at the consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetrievalOutcome {
    /// A Data packet satisfied the request.
    Data,
    /// A NACK came back.
    Nack,
    /// The consumer's request timer expired.
    Timeout,
}

impl RetrievalOutcome {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            RetrievalOutcome::Data => "data",
            RetrievalOutcome::Nack => "nack",
            RetrievalOutcome::Timeout => "timeout",
        }
    }
}

/// Observer of per-packet protocol decisions (Protocols 1–4, both
/// planes).
///
/// All hooks are no-ops by default; the monomorphised
/// [`NoopProtocolObserver`] build is byte-identical to one without the
/// hooks. Implementations must not mutate simulation state or draw from
/// the simulation RNG (see the crate-level determinism contract).
#[allow(unused_variables)]
pub trait ProtocolObserver {
    /// A pre-check ran (Protocol 1; either half).
    fn on_precheck(&mut self, hop: Hop, stage: PrecheckStage, verdict: PrecheckVerdict) {}

    /// A Bloom-filter membership lookup completed. `revalidation` marks
    /// lookups on the probabilistic `F > 0` re-validation path.
    fn on_bf_lookup(&mut self, hop: Hop, outcome: BfOutcome, revalidation: bool) {}

    /// A tag was inserted into the router's BF; `triggered_reset` marks
    /// inserts that filled the filter past its capacity and reset it.
    fn on_bf_insert(&mut self, hop: Hop, triggered_reset: bool) {}

    /// A signature verification completed (routers re-validating tags,
    /// providers vetting requests). `revalidation` marks the `F > 0`
    /// probabilistic re-checks at content routers.
    fn on_sig_verify(&mut self, hop: Hop, valid: bool, revalidation: bool) {}

    /// A router read flag `F` off an Interest. `observed` is the wire
    /// value, `enforced` what the router actually uses after trust rules
    /// (downstream zeroing, `flag_f_enabled` ablation).
    fn on_flag_f(&mut self, hop: Hop, observed: f64, enforced: f64) {}

    /// A content router resolved the probabilistic `F > 0` path of
    /// Protocol 3.
    fn on_revalidation(&mut self, hop: Hop, outcome: RevalidationOutcome) {}

    /// An Interest was aggregated onto an existing PIT entry; `depth` is
    /// the number of in-records after aggregation (Protocol 4).
    fn on_pit_aggregated(&mut self, hop: Hop, depth: usize) {}

    /// A NACK was emitted.
    fn on_nack(&mut self, hop: Hop, reason: NackReason) {}

    /// A content-store hit served the request.
    fn on_cache_hit(&mut self, hop: Hop, name: &Name) {}

    /// An Interest arrived at a forwarding node (one lifecycle hop).
    fn on_interest_hop(&mut self, hop: Hop, nonce: u64, name: &Name) {}

    /// A consumer put a fresh Interest on the wire.
    fn on_interest_emitted(&mut self, hop: Hop, nonce: u64, name: &Name) {}

    /// A consumer's request reached a terminal state.
    fn on_retrieval(&mut self, hop: Hop, name: &Name, outcome: RetrievalOutcome) {}

    /// A consumer's request for `name` expired: the latest Interest it
    /// emitted for it went unanswered past its deadline. Fires once per
    /// expiry the consumer acts on.
    fn on_timeout_expired(&mut self, hop: Hop, name: &Name) {}
}

/// The zero-cost default: every hook is the trait's empty default body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProtocolObserver;

impl ProtocolObserver for NoopProtocolObserver {}

/// The kitchen-sink recorder used by the `telemetry` experiment binary:
/// labeled metrics plus the per-nonce lifecycle tracer, driven off one
/// observer slot.
///
/// Lifecycle hooks append to a raw `LifecycleLog`
/// rather than driving the tracer state machine live: per-shard
/// recorders each see only a slice of a journey, so the journeys are
/// reassembled by a canonical sort-and-replay at export time — the same
/// fold sequential runs use, making sharded output byte-identical.
#[derive(Debug, Clone, Default)]
pub struct ProtocolRecorder {
    /// Decision counters and histograms.
    pub(crate) metrics: crate::registry::ProtocolMetrics,
    /// Raw per-Interest lifecycle observations (folded at export).
    pub(crate) lifecycle: crate::lifecycle::LifecycleLog,
}

impl ProtocolObserver for ProtocolRecorder {
    fn on_precheck(&mut self, hop: Hop, stage: PrecheckStage, verdict: PrecheckVerdict) {
        self.metrics.on_precheck(hop, stage, verdict);
    }

    fn on_bf_lookup(&mut self, hop: Hop, outcome: BfOutcome, revalidation: bool) {
        self.metrics.on_bf_lookup(hop, outcome, revalidation);
    }

    fn on_bf_insert(&mut self, hop: Hop, triggered_reset: bool) {
        self.metrics.on_bf_insert(hop, triggered_reset);
    }

    fn on_sig_verify(&mut self, hop: Hop, valid: bool, revalidation: bool) {
        self.metrics.on_sig_verify(hop, valid, revalidation);
    }

    fn on_flag_f(&mut self, hop: Hop, observed: f64, enforced: f64) {
        self.metrics.on_flag_f(hop, observed, enforced);
    }

    fn on_revalidation(&mut self, hop: Hop, outcome: RevalidationOutcome) {
        self.metrics.on_revalidation(hop, outcome);
    }

    fn on_pit_aggregated(&mut self, hop: Hop, depth: usize) {
        self.metrics.on_pit_aggregated(hop, depth);
    }

    fn on_nack(&mut self, hop: Hop, reason: NackReason) {
        self.metrics.on_nack(hop, reason);
    }

    fn on_cache_hit(&mut self, hop: Hop, name: &Name) {
        self.metrics.on_cache_hit(hop, name);
    }

    fn on_interest_hop(&mut self, hop: Hop, nonce: u64, name: &Name) {
        self.lifecycle.on_interest_hop(hop, nonce, name);
    }

    fn on_interest_emitted(&mut self, hop: Hop, nonce: u64, name: &Name) {
        self.lifecycle.on_interest_emitted(hop, nonce, name);
    }

    fn on_retrieval(&mut self, hop: Hop, name: &Name, outcome: RetrievalOutcome) {
        self.metrics.on_retrieval(hop, outcome);
        self.lifecycle.on_retrieval(hop, name, outcome);
    }

    fn on_timeout_expired(&mut self, hop: Hop, name: &Name) {
        self.lifecycle.on_timeout_expired(hop, name);
    }
}

impl ProtocolRecorder {
    /// One registry holding everything this recorder saw: the decision
    /// metrics plus the folded lifecycle tracer's `tactic.lifecycle.*`
    /// exports.
    pub fn export_registry(&self) -> crate::registry::Registry {
        let mut reg = self.metrics.registry.clone();
        self.lifecycle.fold().export_into(&mut reg);
        reg
    }

    /// Folds another recorder's observations into this one: registries
    /// add pointwise, lifecycle logs concatenate. Merging per-shard
    /// recorders in any order yields the same
    /// [`export_registry`](ProtocolRecorder::export_registry) output.
    pub fn merge(&mut self, other: &ProtocolRecorder) {
        self.metrics.registry.merge(&other.metrics.registry);
        self.lifecycle.merge(&other.lifecycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopProtocolObserver>(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NodeRole::EdgeRouter.as_str(), "edge");
        assert_eq!(PrecheckStage::Content.as_str(), "content");
        assert_eq!(RejectReason::Expired.as_str(), "expired");
        assert_eq!(BfOutcome::Miss.as_str(), "miss");
        assert_eq!(RevalidationOutcome::Trusted.as_str(), "trusted");
        assert_eq!(RetrievalOutcome::Timeout.as_str(), "timeout");
    }

    #[test]
    fn noop_hooks_compile_for_every_decision() {
        let mut o = NoopProtocolObserver;
        let hop = Hop::new(3, NodeRole::CoreRouter, SimTime::from_secs_f64(1.5));
        let name: Name = "/p/obj0/c0".parse().unwrap();
        o.on_precheck(hop, PrecheckStage::Edge, PrecheckVerdict::Accepted);
        o.on_bf_lookup(hop, BfOutcome::Hit, false);
        o.on_bf_insert(hop, true);
        o.on_sig_verify(hop, true, true);
        o.on_flag_f(hop, 0.25, 0.0);
        o.on_revalidation(hop, RevalidationOutcome::Verified);
        o.on_pit_aggregated(hop, 2);
        o.on_nack(hop, NackReason::NoRoute);
        o.on_cache_hit(hop, &name);
        o.on_interest_hop(hop, 7, &name);
        o.on_interest_emitted(hop, 7, &name);
        o.on_retrieval(hop, &name, RetrievalOutcome::Data);
    }
}
