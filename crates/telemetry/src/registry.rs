//! Labeled metrics with deterministic merge and JSONL export.
//!
//! A [`Registry`] maps `(metric name, label)` pairs to counters and
//! [`Histogram`]s. Keys live in `BTreeMap`s so export order is label
//! order; [`Registry::merge`] adds counters and bucket counts
//! pointwise, so folding per-thread registries in job order yields
//! byte-identical JSONL regardless of how many threads produced them.

use std::collections::BTreeMap;

use tactic_ndn::name::Name;
use tactic_ndn::packet::NackReason;

use crate::json::JsonObject;
use crate::observer::{
    BfOutcome, Hop, PrecheckStage, PrecheckVerdict, RetrievalOutcome, RevalidationOutcome,
};

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counter(pub u64);

impl Counter {
    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
}

/// Fixed-point scale (2³² fractional bits) for the sample-sum
/// accumulator. Integer addition is associative, so per-shard partial
/// sums merge to the same value under any grouping — which `f64`
/// accumulation cannot guarantee, and byte-identical sharded output
/// requires.
const SUM_SCALE: f64 = 4_294_967_296.0;

/// A fixed-boundary histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, with one implicit overflow bucket at the end.
///
/// Boundaries are fixed at construction and never adapt to data, so two
/// histograms built with the same bounds merge bucket-by-bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples, in `SUM_SCALE` fixed point.
    sum_fp: i128,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bucket edges
    /// (must be strictly increasing and finite).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(bounds.iter().all(|b| b.is_finite()));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum_fp: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_fp += (v * SUM_SCALE) as i128;
    }

    /// The configured bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds `other` into `self`. Panics if bucket bounds differ — merge
    /// is only defined between histograms of the same metric.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_fp += other.sum_fp;
    }

    /// Sum of recorded samples (quantized to the fixed-point grid, so
    /// exact to ~2⁻³² of the recorded unit).
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / SUM_SCALE
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }
}

/// Labeled counters and histograms, exportable as JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Increments the counter named `key`, creating it at zero first.
    pub fn inc(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the counter named `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        self.counters.entry(key.to_owned()).or_default().add(n);
    }

    /// Records `v` into the histogram named `key`, creating it with
    /// `bounds` on first use. `bounds` must be the same at every call
    /// site for a given key (the fixed-boundary determinism rule).
    pub fn observe(&mut self, key: &str, bounds: &[f64], v: f64) {
        self.histograms
            .entry(key.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
            .record(v);
    }

    /// Folds a standalone histogram into the one stored under `key`
    /// (installing a copy if the key is new). Bounds must match any
    /// existing histogram under that key.
    pub(crate) fn merge_histogram(&mut self, key: &str, h: &Histogram) {
        match self.histograms.get_mut(key) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(key.to_owned(), h.clone());
            }
        }
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).map_or(0, |c| c.0)
    }

    /// Sums every counter whose key starts with `prefix` — e.g.
    /// `counter_prefix_sum("tactic.nack.")` totals NACKs across roles
    /// and reasons.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, c)| c.0)
            .sum()
    }

    /// Reads a histogram, if recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Number of distinct metric keys (counters + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise. Because keys are ordered and addition is commutative
    /// over `u64`, folding per-thread registries in job order produces
    /// identical output no matter how work was distributed.
    pub fn merge(&mut self, other: &Registry) {
        for (k, c) in &other.counters {
            self.counters.entry(k.clone()).or_default().add(c.0);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Returns a copy with every key prefixed by `prefix` — used to fold
    /// per-plane registries into one export without key collisions.
    pub fn with_key_prefix(&self, prefix: &str) -> Registry {
        let mut out = Registry::new();
        for (k, c) in &self.counters {
            out.counters.insert(format!("{prefix}{k}"), *c);
        }
        for (k, h) in &self.histograms {
            out.histograms.insert(format!("{prefix}{k}"), h.clone());
        }
        out
    }

    /// Exports every metric as one JSON object per line, in key order.
    ///
    /// Counters: `{"kind":"counter","key":...,"value":...}`.
    /// Histograms: `{"kind":"histogram","key":...,"count":...,"sum":...,
    /// "bounds":[...],"buckets":[...]}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, c) in &self.counters {
            let mut o = JsonObject::new();
            o.field_str("kind", "counter")
                .field_str("key", k)
                .field_u64("value", c.0);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for (k, h) in &self.histograms {
            let mut o = JsonObject::new();
            o.field_str("kind", "histogram")
                .field_str("key", k)
                .field_u64("count", h.count)
                .field_f64("sum", h.sum())
                .field_f64_array("bounds", &h.bounds)
                .field_u64_array("buckets", &h.counts);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// Latency bucket edges (seconds) shared by every latency histogram so
/// merges line up: 1 ms to ~8 s in powers of two.
pub(crate) const LATENCY_BOUNDS: [f64; 14] = [
    0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096,
    8.192,
];

/// Hop-count bucket edges shared by hop histograms.
pub(crate) const HOP_BOUNDS: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0];

/// PIT aggregation-depth bucket edges.
const DEPTH_BOUNDS: [f64; 6] = [2.0, 3.0, 4.0, 6.0, 8.0, 16.0];

/// A [`Registry`]-backed recorder for every protocol decision hook.
///
/// Key scheme: `tactic.<decision>.<role>[.<qualifier>]` — e.g.
/// `tactic.precheck.edge.reject.expired`, `tactic.bf_lookup.core.hit`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProtocolMetrics {
    /// The backing registry (public so callers can merge and export it).
    pub registry: Registry,
}

impl ProtocolMetrics {
    /// Records a pre-check verdict.
    pub fn on_precheck(&mut self, hop: Hop, stage: PrecheckStage, verdict: PrecheckVerdict) {
        let key = match verdict {
            PrecheckVerdict::Accepted => {
                format!(
                    "tactic.precheck.{}.{}.accept",
                    hop.role.as_str(),
                    stage.as_str()
                )
            }
            PrecheckVerdict::Rejected(r) => format!(
                "tactic.precheck.{}.{}.reject.{}",
                hop.role.as_str(),
                stage.as_str(),
                r.as_str()
            ),
        };
        self.registry.inc(&key);
    }

    /// Records a BF lookup outcome.
    pub fn on_bf_lookup(&mut self, hop: Hop, outcome: BfOutcome, revalidation: bool) {
        let phase = if revalidation { "reval" } else { "first" };
        self.registry.inc(&format!(
            "tactic.bf_lookup.{}.{}.{}",
            hop.role.as_str(),
            phase,
            outcome.as_str()
        ));
    }

    /// Records a BF insert (and whether it reset the filter).
    pub fn on_bf_insert(&mut self, hop: Hop, triggered_reset: bool) {
        self.registry
            .inc(&format!("tactic.bf_insert.{}", hop.role.as_str()));
        if triggered_reset {
            self.registry
                .inc(&format!("tactic.bf_reset.{}", hop.role.as_str()));
        }
    }

    /// Records a signature verification.
    pub fn on_sig_verify(&mut self, hop: Hop, valid: bool, revalidation: bool) {
        let phase = if revalidation { "reval" } else { "first" };
        let v = if valid { "valid" } else { "invalid" };
        self.registry.inc(&format!(
            "tactic.sig_verify.{}.{}.{}",
            hop.role.as_str(),
            phase,
            v
        ));
    }

    /// Records observed-vs-enforced flag-F values.
    pub fn on_flag_f(&mut self, hop: Hop, observed: f64, enforced: f64) {
        let role = hop.role.as_str();
        if observed > 0.0 {
            self.registry
                .inc(&format!("tactic.flag_f.{role}.observed_set"));
        }
        if enforced > 0.0 {
            self.registry
                .inc(&format!("tactic.flag_f.{role}.enforced_set"));
        }
        if observed > 0.0 && enforced == 0.0 {
            self.registry
                .inc(&format!("tactic.flag_f.{role}.discarded"));
        }
    }

    /// Records a probabilistic re-validation outcome.
    pub fn on_revalidation(&mut self, hop: Hop, outcome: RevalidationOutcome) {
        self.registry.inc(&format!(
            "tactic.revalidation.{}.{}",
            hop.role.as_str(),
            outcome.as_str()
        ));
    }

    /// Records a PIT aggregation and its depth.
    pub fn on_pit_aggregated(&mut self, hop: Hop, depth: usize) {
        let role = hop.role.as_str();
        self.registry.inc(&format!("tactic.pit_aggregated.{role}"));
        self.registry.observe(
            &format!("tactic.pit_depth.{role}"),
            &DEPTH_BOUNDS,
            depth as f64,
        );
    }

    /// Records a NACK emission by reason.
    pub fn on_nack(&mut self, hop: Hop, reason: NackReason) {
        let r = match reason {
            NackReason::NoRoute => "no_route",
            NackReason::Duplicate => "duplicate",
            NackReason::InvalidTag => "invalid_tag",
            NackReason::AccessPathMismatch => "access_path_mismatch",
        };
        self.registry
            .inc(&format!("tactic.nack.{}.{}", hop.role.as_str(), r));
    }

    /// Records a content-store hit.
    pub fn on_cache_hit(&mut self, hop: Hop, _name: &Name) {
        self.registry
            .inc(&format!("tactic.cache_hit.{}", hop.role.as_str()));
    }

    /// Records a retrieval outcome at the consumer.
    pub fn on_retrieval(&mut self, hop: Hop, outcome: RetrievalOutcome) {
        self.registry.inc(&format!(
            "tactic.retrieval.{}.{}",
            hop.role.as_str(),
            outcome.as_str()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NodeRole, RejectReason};
    use tactic_sim::time::SimTime;

    fn hop(role: NodeRole) -> Hop {
        Hop::new(1, role, SimTime::from_secs_f64(0.5))
    }

    #[test]
    fn counters_accumulate_and_export_in_key_order() {
        let mut r = Registry::new();
        r.inc("z");
        r.inc("a");
        r.inc("z");
        assert_eq!(r.counter("z"), 2);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""key":"a""#), "{jsonl}");
        assert!(lines[1].contains(r#""key":"z""#), "{jsonl}");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(0.5);
        h.record(2.0);
        h.record(99.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.mean() - (0.5 + 2.0 + 99.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_insensitive_on_totals() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.inc("c");
        a.observe("h", &LATENCY_BOUNDS, 0.003);
        b.add("c", 4);
        b.observe("h", &LATENCY_BOUNDS, 0.100);
        b.inc("only_b");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_jsonl(), ba.to_jsonl());
        assert_eq!(ab.counter("c"), 5);
        assert_eq!(ab.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn prefix_sum_and_key_prefixing() {
        let mut r = Registry::new();
        r.add("tactic.nack.core.no_route", 2);
        r.add("tactic.nack.edge.invalid_tag", 3);
        r.add("tactic.cache_hit.edge", 7);
        r.observe("h", &[1.0], 0.5);
        assert_eq!(r.counter_prefix_sum("tactic.nack."), 5);
        assert_eq!(r.counter_prefix_sum("tactic."), 12);
        assert_eq!(r.counter_prefix_sum("zzz"), 0);
        let p = r.with_key_prefix("plane/");
        assert_eq!(p.counter("plane/tactic.cache_hit.edge"), 7);
        assert_eq!(p.histogram("plane/h").unwrap().count, 1);
        assert_eq!(p.len(), r.len());
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn protocol_metrics_key_scheme() {
        let mut m = ProtocolMetrics::default();
        m.on_precheck(
            hop(NodeRole::EdgeRouter),
            PrecheckStage::Edge,
            PrecheckVerdict::Rejected(RejectReason::Expired),
        );
        m.on_bf_lookup(hop(NodeRole::CoreRouter), BfOutcome::Hit, true);
        m.on_pit_aggregated(hop(NodeRole::CoreRouter), 3);
        assert_eq!(
            m.registry
                .counter("tactic.precheck.edge.edge.reject.expired"),
            1
        );
        assert_eq!(m.registry.counter("tactic.bf_lookup.core.reval.hit"), 1);
        assert_eq!(
            m.registry.histogram("tactic.pit_depth.core").unwrap().count,
            1
        );
    }
}
