//! The traced run (`--trace 1`, family T): the same workload once more
//! with `scenario.profile = true` and ten sampler ticks, read back from
//! the public `RunReport` / `ShardedStats` / `SpanProfiler`.
//!
//! Profiling and sampling are public scenario fields that leave the
//! simulation byte-identical; the traced digest is checked against the
//! untraced one, so the tracing is honest about itself. The spans inside
//! the program are the ones the repo already records; this module adds
//! only benchmark-side spans (`setup`, `run`, `report`) around its calls.

use std::time::Instant;

use tactic::metrics::RunReport;
use tactic::scenario::Scenario;
use tactic_net::ShardedStats;
use tactic_telemetry::SpanProfiler;

use crate::ops::Ops;
use crate::schema::Workload;
use crate::stats::median;
use crate::workloads::{
    check, check_against_sequential, rep, setup_only, sharded_run_phase, Outcome, Rep,
};

/// Share of the `--seconds` window spent on untraced/traced pairs; the
/// layer drivers get the rest.
pub const WINDOW_SHARE: f64 = 0.35;

/// A benchmark-side span, in seconds since the process started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// Collects benchmark-side spans in memory; they are written with the
/// result when the benchmark ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.into(),
            start_s: (start - self.origin).as_secs_f64(),
            end_s: (end - self.origin).as_secs_f64(),
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }
}

/// A span's self time: its total minus what its child spans cover.
/// Clamped at zero — the flat `SpanProfiler` cannot say which parent a
/// child ran under, so a child total may include entries under another
/// parent.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// The scenario with the span profiler on and ten sampler ticks.
fn traced(scenario: &Scenario) -> Scenario {
    Scenario {
        profile: true,
        sample_every: Some(scenario.duration / 10),
        ..scenario.clone()
    }
}

/// Family T from one traced repetition. `trace_run_s` is its run phase,
/// `untraced_run_s` the untraced median it is compared with.
pub fn traced_metrics(
    report: &RunReport,
    sharded: Option<&ShardedStats>,
    trace_run_s: f64,
    untraced_run_s: f64,
) -> Vec<(&'static str, f64)> {
    let empty = SpanProfiler::new();
    let profile = report.profile.as_deref().unwrap_or(&empty);
    let busy = |span: &str| profile.get(span).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let count = |span: &str| profile.get(span).map_or(0.0, |s| s.count as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut ops = report.edge_ops;
    ops.merge(&report.core_ops);
    let router_spans = [
        "precheck",
        "bf_lookup",
        "bf_insert",
        "sig_verify",
        "pit_ops",
    ];
    let routers: f64 = router_spans.iter().map(|s| busy(s)).sum();
    let other: f64 = [
        "dispatch.consumer_start",
        "dispatch.move",
        "dispatch.attach",
        "dispatch.fault",
    ]
    .iter()
    .map(|s| busy(s))
    .sum();

    // Per-shard epoch accounting (all zero on a sequential run).
    let spans = sharded.map_or(&[][..], |s| &s.epoch_spans[..]);
    // Folded from +0.0: an empty `sum()` is -0.0, which prints as "-0".
    let work_s = spans.iter().fold(0.0, |s, e| s + e.work_ns as f64) / 1e9;
    let wait_s = spans.iter().fold(0.0, |s, e| s + e.wait_ns as f64) / 1e9;
    let imbalance = sharded.map_or(0.0, |s| {
        let max = s.per_shard_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = s.per_shard_events.iter().sum::<u64>() as f64 / s.k as f64;
        ratio(max, mean)
    });

    // Spans that enclose no unnamed work. Busy time sums over shard
    // threads, so a sharded run is compared with the shards' summed work.
    let leaves = busy("calendar.pop")
        + busy("link.transit")
        + routers
        + busy("dispatch.purge")
        + busy("dispatch.sample");
    let thread_time = if sharded.is_some() {
        work_s
    } else {
        trace_run_s
    };

    let sampled = |f: fn(&tactic_telemetry::SampleRow) -> u64| {
        report.samples.iter().map(f).max().unwrap_or(0)
    };

    vec![
        ("trace.run_s", trace_run_s),
        (
            "telemetry.traced.overhead_pct",
            (ratio(trace_run_s, untraced_run_s) - 1.0) * 100.0,
        ),
        ("trace.attributed_share", ratio(leaves, thread_time)),
        ("sim.events", report.events as f64),
        (
            "sim.events_per_sec",
            ratio(report.events as f64, untraced_run_s),
        ),
        ("sim.queue.peak_depth", report.peak_queue_depth as f64),
        ("sim.calendar.pop.busy_s", busy("calendar.pop")),
        ("sim.calendar.pop.count", count("calendar.pop")),
        ("net.dispatch.deliver.busy_s", busy("dispatch.deliver")),
        ("net.dispatch.deliver.count", count("dispatch.deliver")),
        (
            "net.dispatch.deliver.self_s",
            self_time(busy("dispatch.deliver"), &[routers, busy("link.transit")]),
        ),
        ("net.dispatch.timeout.busy_s", busy("dispatch.timeout")),
        ("net.dispatch.timeout.count", count("dispatch.timeout")),
        ("net.dispatch.purge.busy_s", busy("dispatch.purge")),
        ("net.dispatch.purge.count", count("dispatch.purge")),
        ("net.dispatch.other.busy_s", other),
        ("net.link.transit.busy_s", busy("link.transit")),
        ("net.link.transit.count", count("link.transit")),
        ("net.drops.count", report.drops.total() as f64),
        (
            "net.retransmissions.count",
            report.client_retransmissions as f64,
        ),
        ("net.timeouts.count", report.client_timeouts as f64),
        (
            "net.sharded.epochs",
            sharded.map_or(0.0, |s| s.epochs as f64),
        ),
        (
            "net.sharded.cross_events",
            sharded.map_or(0.0, |s| s.cross_events as f64),
        ),
        (
            "net.sharded.edge_cut",
            sharded.map_or(0.0, |s| s.edge_cut as f64),
        ),
        ("net.sharded.work_s", work_s),
        ("net.sharded.wait_s", wait_s),
        (
            "net.sharded.barrier_wait_share",
            ratio(wait_s, work_s + wait_s),
        ),
        ("net.sharded.imbalance_x", imbalance),
        ("telemetry.sampler.busy_s", busy("dispatch.sample")),
        ("telemetry.sampler.count", count("dispatch.sample")),
        ("core.precheck.busy_s", busy("precheck")),
        ("core.precheck.count", count("precheck")),
        ("core.interests.count", ops.interests as f64),
        ("core.client_ratio", report.delivery.client_ratio()),
        ("core.attacker_ratio", report.delivery.attacker_ratio()),
        ("core.mean_latency_s", report.mean_latency()),
        (
            "core.nacks.count",
            (ops.nacks + report.providers.nacks) as f64,
        ),
        (
            "core.revalidations.count",
            (ops.revalidations + ops.evicted_revalidations) as f64,
        ),
        (
            "core.tags_renewed.count",
            report.providers.tags_renewed as f64,
        ),
        ("bloom.lookup.busy_s", busy("bf_lookup")),
        ("bloom.lookup.count", count("bf_lookup")),
        ("bloom.insert.busy_s", busy("bf_insert")),
        ("bloom.insert.count", count("bf_insert")),
        ("bloom.resets.count", ops.bf_resets as f64),
        ("bloom.rotations.count", ops.bf_rotations as f64),
        ("crypto.sig_verify.busy_s", busy("sig_verify")),
        ("crypto.sig_verify.count", count("sig_verify")),
        ("ndn.pit_ops.busy_s", busy("pit_ops")),
        ("ndn.pit_ops.count", count("pit_ops")),
        // The report's own high-water marks come from the 1 s purge
        // sweeps, which a 300 ms fleet never reaches; the sampler ticks do.
        (
            "ndn.pit.peak_records",
            report.peak_pit_records.max(sampled(|r| r.pit_records)) as f64,
        ),
        (
            "ndn.cs.peak_entries",
            report.peak_cs_entries.max(sampled(|r| r.cs_entries)) as f64,
        ),
        (
            "ndn.cs.hit_ratio",
            ratio(ops.cache_hits as f64, ops.interests as f64),
        ),
    ]
}

/// What the traced part of `--trace 1` produced.
pub struct Traced {
    pub outcome: Option<Outcome>,
    /// Family T, empty when no traced repetition succeeded.
    pub values: Vec<(&'static str, f64)>,
}

/// Runs untraced/traced pairs of `workload` for about
/// `seconds * WINDOW_SHARE` and derives family T from the traced
/// repetition with the median run time, so that every busy time, count
/// and share comes from one consistent profile.
pub fn trace(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    ops: &mut Ops,
    spans: &mut Spans,
) -> Traced {
    let scenario = workload.scenario(smoke);
    let traced_scenario = traced(&scenario);
    let nothing = Traced {
        outcome: None,
        values: Vec::new(),
    };

    // One repetition with its benchmark-side spans and output checks.
    let mut one = |ops: &mut Ops,
                   what: &str,
                   s: &Scenario,
                   reference: Option<&Outcome>|
     -> Option<(Rep, Outcome)> {
        ops.run(what, || {
            let mut r = rep(workload, s, seed, |name, a, b| spans.record(name, a, b));
            // The sampler's ticks are engine events of their own, one per
            // sample row; they are the only thing tracing may add.
            r.report.events -= r.report.samples.len() as u64;
            let outcome = spans.time("report", || Outcome::of(&r.report));
            check(workload, s, smoke, &outcome, reference)?;
            Ok((r, outcome))
        })
    };

    let Some((_, reference)) = one(ops, "warm-up", &scenario, None) else {
        return nothing;
    };
    // A sharded call builds and runs in one; every repetition here runs
    // the same seed, so one set-up time serves them all.
    let mut sharded_setup_s = None;
    if workload.sharded() {
        ops.run("sequential reference", || {
            check_against_sequential(&scenario, seed, &reference)
        });
        let samples: Vec<f64> = (0..if smoke { 1 } else { 2 })
            .filter_map(|_| ops.run("build only", || Ok(setup_only(workload, &scenario, seed))))
            .collect();
        sharded_setup_s = median(&samples);
        if sharded_setup_s.is_none() {
            return nothing;
        }
    }
    let run_phase =
        |wall_s: f64| sharded_setup_s.map_or(wall_s, |s| sharded_run_phase(wall_s, s, smoke));

    let window = Instant::now();
    let min_pairs = if smoke { 1 } else { 2 };
    let mut untraced = Vec::new();
    let mut traced_reps: Vec<(f64, Rep)> = Vec::new();
    while traced_reps.len() < min_pairs
        || (!smoke && window.elapsed().as_secs_f64() < seconds * WINDOW_SHARE)
    {
        if ops.failed > min_pairs as u64 {
            break;
        }
        if let Some((r, _)) = one(ops, "untraced repetition", &scenario, Some(&reference)) {
            untraced.push(run_phase(r.wall_s));
        }
        // The traced digest must equal the untraced one: profiling and
        // sampling may not perturb the simulation.
        if let Some((r, _)) = one(ops, "traced repetition", &traced_scenario, Some(&reference)) {
            traced_reps.push((run_phase(r.wall_s), r));
        }
    }
    let Some(untraced_run_s) = median(&untraced).filter(|v| *v > 0.0) else {
        return nothing;
    };
    traced_reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some((trace_run_s, median_rep)) = traced_reps.get(traced_reps.len().saturating_sub(1) / 2)
    else {
        return nothing;
    };
    Traced {
        outcome: Some(reference),
        values: traced_metrics(
            &median_rep.report,
            median_rep.sharded.as_ref(),
            *trace_run_s,
            untraced_run_s,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TRACED;
    use tactic_telemetry::EpochSpan;

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(10.0, &[3.0, 2.5]), 4.5);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.75, 0.75]), 0.0);
    }

    fn profiled_report() -> RunReport {
        let mut p = SpanProfiler::new();
        for (span, ns) in [
            ("dispatch.deliver", 700_000_000),
            ("link.transit", 100_000_000),
            ("precheck", 20_000_000),
            ("bf_lookup", 10_000_000),
            ("bf_insert", 5_000_000),
            ("sig_verify", 5_000_000),
            ("pit_ops", 10_000_000),
            ("calendar.pop", 50_000_000),
            ("dispatch.purge", 40_000_000),
            ("dispatch.sample", 10_000_000),
            ("dispatch.consumer_start", 1_000_000),
            ("dispatch.move", 2_000_000),
        ] {
            p.record_ns(span, ns);
        }
        let mut report = RunReport {
            events: 1_000,
            profile: Some(Box::new(p)),
            ..RunReport::default()
        };
        report.edge_ops.interests = 30;
        report.core_ops.interests = 10;
        report.core_ops.cache_hits = 10;
        report
    }

    #[test]
    fn family_t_has_every_listed_name_once_in_order() {
        let values = traced_metrics(&profiled_report(), None, 1.0, 0.8);
        let got: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = TRACED.iter().map(|l| l.name).collect();
        assert_eq!(got, listed);
        assert!(values.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn shares_and_self_times_derive_from_the_profile() {
        let values = traced_metrics(&profiled_report(), None, 1.0, 0.8);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        // deliver 0.7 - routers 0.05 - transit 0.1
        assert!((get("net.dispatch.deliver.self_s") - 0.55).abs() < 1e-12);
        // pop .05 + transit .1 + routers .05 + purge .04 + sample .01, over 1 s
        assert!((get("trace.attributed_share") - 0.25).abs() < 1e-12);
        assert!((get("telemetry.traced.overhead_pct") - 25.0).abs() < 1e-9);
        assert_eq!(get("sim.events_per_sec"), 1_250.0);
        assert!((get("net.dispatch.other.busy_s") - 0.003).abs() < 1e-12);
        assert_eq!(get("ndn.cs.hit_ratio"), 0.25);
        assert_eq!(get("net.sharded.epochs"), 0.0);
        assert_eq!(get("net.sharded.barrier_wait_share"), 0.0);
    }

    #[test]
    fn sharded_metrics_come_from_epoch_spans() {
        let epoch = |shard, work_ns, wait_ns| EpochSpan {
            shard,
            epoch: 0,
            start_ns: 0,
            work_ns,
            wait_ns,
            inbox: 0,
        };
        let stats = ShardedStats {
            k: 2,
            epochs: 1,
            cross_events: 7,
            edge_cut: 3,
            per_shard_events: vec![600, 400],
            per_shard_peak_queue: vec![],
            per_shard_peak_pit: vec![],
            per_shard_peak_cs: vec![],
            epoch_spans: vec![
                epoch(0, 600_000_000, 100_000_000),
                epoch(1, 400_000_000, 300_000_000),
            ],
        };
        let values = traced_metrics(&profiled_report(), Some(&stats), 0.7, 0.6);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("net.sharded.cross_events"), 7.0);
        assert_eq!(get("net.sharded.work_s"), 1.0);
        assert!((get("net.sharded.barrier_wait_share") - 0.4 / 1.4).abs() < 1e-12);
        assert_eq!(get("net.sharded.imbalance_x"), 1.2);
        // Busy time sums over both shard threads: compared with 1.0 s of
        // summed work, not with the 0.7 s of wall-clock.
        assert!((get("trace.attributed_share") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn spans_are_relative_to_the_origin() {
        let origin = Instant::now();
        let mut spans = Spans::new(origin);
        assert_eq!(spans.time("x", || 4), 4);
        let s = &spans.spans[0];
        assert_eq!(s.name, "x");
        assert!(0.0 <= s.start_s && s.start_s <= s.end_s);
    }
}
