//! Hot-path span profiling: wall-clock accounting per handler class and
//! per shard/epoch.
//!
//! Unlike the sim-time sampler ([`crate::timeseries`]), everything here
//! measures **wall-clock** time and is therefore nondeterministic by
//! construction: `profile.jsonl` and `trace.json` are diagnostic
//! artifacts, never golden, and are excluded from byte-identity
//! comparisons. The profiler (`Scenario::profile`, CLI `--profile`) is
//! off by default and costs nothing when disabled (the transport holds an
//! `Option` that stays `None`). It totals the routers' `precheck`,
//! `bf_lookup`, `bf_insert`, `sig_verify` and `pit_ops` and the
//! transport's `dispatch.*`, `link.transit` and `calendar.pop`; a
//! sharded run adds one [`EpochSpan`] per (shard, epoch) — work against
//! barrier wait and mailbox drain size, the shard-imbalance signal.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::JsonObject;

/// Accumulated wall-clock statistics for one span class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Mean nanoseconds per entry (0 when never entered).
    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A wall-clock profiler over statically-named span classes
/// (`"precheck"`, `"bf_lookup"`, `"sig_verify"`, ...). Export order is
/// name order (`BTreeMap`), independent of first-entry order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfiler {
    spans: BTreeMap<&'static str, SpanStats>,
}

impl SpanProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    /// Records one completed entry of `name` lasting `ns` nanoseconds.
    pub fn record_ns(&mut self, name: &'static str, ns: u64) {
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
    }

    /// Times `f` as one entry of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record_ns(name, started.elapsed().as_nanos() as u64);
        out
    }

    /// The statistics recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// All spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> {
        self.spans.iter().map(|(&k, v)| (k, v))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Folds another profiler (e.g. a shard's) into this one.
    pub fn merge(&mut self, other: &SpanProfiler) {
        for (&name, stats) in &other.spans {
            let s = self.spans.entry(name).or_default();
            s.count += stats.count;
            s.total_ns += stats.total_ns;
            s.max_ns = s.max_ns.max(stats.max_ns);
        }
    }
}

/// One shard epoch's wall-clock accounting, relative to a run-wide
/// origin captured before the shard threads spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSpan {
    /// Which shard executed the epoch.
    pub shard: u32,
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Epoch start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Nanoseconds spent injecting the mailbox and running events.
    pub work_ns: u64,
    /// Nanoseconds spent waiting at the epoch barrier for the other
    /// shards (the shard-imbalance signal).
    pub wait_ns: u64,
    /// Cross-shard events drained from the mailboxes into this epoch.
    pub inbox: u64,
}

/// Renders a `profile.jsonl` document: one `kind:"span"` line per span
/// class, then one `kind:"epoch"` line per shard epoch. Wall-clock —
/// **non-golden**; never compare these bytes.
pub fn profile_to_jsonl(label: &str, profiler: &SpanProfiler, epochs: &[EpochSpan]) -> String {
    let mut out = String::new();
    for (name, s) in profiler.spans() {
        let mut o = JsonObject::new();
        o.field_str("label", label)
            .field_str("kind", "span")
            .field_str("span", name)
            .field_u64("count", s.count)
            .field_u64("total_ns", s.total_ns)
            .field_f64("mean_ns", s.mean_ns())
            .field_u64("max_ns", s.max_ns);
        out.push_str(&o.finish());
        out.push('\n');
    }
    for e in epochs {
        let mut o = JsonObject::new();
        o.field_str("label", label)
            .field_str("kind", "epoch")
            .field_u64("shard", u64::from(e.shard))
            .field_u64("epoch", e.epoch)
            .field_u64("start_ns", e.start_ns)
            .field_u64("work_ns", e.work_ns)
            .field_u64("wait_ns", e.wait_ns)
            .field_u64("inbox", e.inbox);
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut p = SpanProfiler::new();
        assert!(p.is_empty());
        p.record_ns("bf_lookup", 10);
        p.record_ns("bf_lookup", 30);
        p.record_ns("precheck", 5);
        let s = p.get("bf_lookup").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20.0);
        assert_eq!(SpanStats::default().mean_ns(), 0.0);
    }

    #[test]
    fn time_runs_the_closure_and_records() {
        let mut p = SpanProfiler::new();
        let v = p.time("work", || 7);
        assert_eq!(v, 7);
        assert_eq!(p.get("work").unwrap().count, 1);
    }

    #[test]
    fn merge_folds_counts_and_maxes() {
        let mut a = SpanProfiler::new();
        a.record_ns("x", 10);
        let mut b = SpanProfiler::new();
        b.record_ns("x", 100);
        b.record_ns("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x").unwrap().count, 2);
        assert_eq!(a.get("x").unwrap().max_ns, 100);
        assert_eq!(a.get("y").unwrap().count, 1);
    }

    #[test]
    fn export_order_is_name_order() {
        let mut p = SpanProfiler::new();
        p.record_ns("zeta", 1);
        p.record_ns("alpha", 1);
        let names: Vec<&str> = p.spans().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn jsonl_emits_spans_then_epochs() {
        let mut p = SpanProfiler::new();
        p.record_ns("precheck", 12);
        let epochs = [EpochSpan {
            shard: 1,
            epoch: 0,
            start_ns: 100,
            work_ns: 80,
            wait_ns: 20,
            inbox: 3,
        }];
        let text = profile_to_jsonl("tactic", &p, &epochs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span\""));
        assert!(lines[0].contains("\"span\":\"precheck\""));
        assert!(lines[1].contains("\"kind\":\"epoch\""));
        assert!(lines[1].contains("\"wait_ns\":20"));
    }
}
