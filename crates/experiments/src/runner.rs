//! Shared run helpers: the parallel deterministic grid runner, per-run
//! seed derivation, scenario shaping, and aggregation.
//!
//! Every TACTIC-only experiment fans its (topology × scenario × seed) grid
//! out over worker threads via [`run_grid_with`], one [`run_job`] per
//! cell. Each run's RNG stream is derived by
//! [`tactic_sim::rng::derive_seed`] from the run's grid coordinates alone
//! — never from thread count or scheduling — and results are collected
//! and aggregated in job order, so the produced tables and CSV files are
//! byte-identical for any `--threads` value.

use tactic::metrics::RunReport;
use tactic::router::OpCounters;
use tactic::scenario::Scenario;
use tactic_net::NoopObserver;
use tactic_sim::rng::{derive_seed, splitmix64};
use tactic_sim::time::SimDuration;
use tactic_telemetry::{NoopProtocolObserver, RunManifest};
use tactic_topology::paper::PaperTopology;

use crate::opts::{RunOpts, Verbosity};
use crate::plane::{run_job, run_ordered, PlaneId};

/// Base seed so experiment runs are reproducible but distinct per grid
/// cell.
pub const BASE_SEED: u64 = 0x7A_C71C;

/// One cell of the (topology × scenario × seed) grid.
pub struct GridJob<'a> {
    /// Shown in stderr progress lines (never in the output tables).
    pub label: String,
    /// Topology coordinate for seed derivation.
    pub topology: u32,
    /// Scenario coordinate for seed derivation; use [`scenario_id`] to
    /// build one from an experiment tag and its knob values.
    pub scenario_id: u64,
    /// Seed index within the (topology, scenario) cell.
    pub run_idx: u64,
    /// The scenario to simulate.
    pub scenario: &'a Scenario,
}

impl GridJob<'_> {
    /// The derived RNG seed for this cell.
    pub fn seed(&self) -> u64 {
        derive_seed(BASE_SEED, self.topology, self.scenario_id, self.run_idx)
    }
}

/// A stable scenario coordinate for seed derivation, hashed from an
/// experiment tag and its knob values (pass `f64` knobs as `to_bits()`).
/// FNV-1a over the tag, then a SplitMix64 chain over the knobs: stable
/// across runs, platforms, and thread counts.
pub fn scenario_id(tag: &str, knobs: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &k in knobs {
        let mut s = h ^ k;
        h = splitmix64(&mut s);
    }
    h
}

/// One line of reproducibility provenance for a [`GridJob`]'s scenario.
/// Deterministic for a given scenario (no RNG, no clocks).
pub fn scenario_summary(s: &Scenario) -> String {
    format!(
        "duration={}s bf={}x{} window={} flag_f={} mobility={} faults=[{}] retransmit={} \
         attack={} defense={} life={} cache={}",
        s.duration.as_secs_f64(),
        s.bf_capacity,
        s.bf_hashes,
        s.window,
        s.flag_f_enabled,
        s.mobility.is_some(),
        s.faults.summary(),
        s.retransmit.is_some(),
        s.attack.summary(),
        s.defense.summary(),
        s.lifetime.summary(),
        s.cache_policy.summary(),
    )
}

/// Runs every job in the grid, fanned out over `threads` worker threads.
///
/// Workers claim jobs from a shared counter and write each report into
/// the slot of the job that produced it, so the returned reports are in
/// job order regardless of which worker finished when. Per-run progress
/// and timing lines go to stderr only (and only when `verbosity` allows);
/// stdout and files stay byte-identical across thread counts.
pub fn run_grid(jobs: &[GridJob<'_>], threads: usize, verbosity: Verbosity) -> Vec<RunReport> {
    let opts = RunOpts {
        threads: Some(threads),
        verbosity,
        ..RunOpts::default()
    };
    run_grid_with(jobs, &opts).0
}

/// [`run_grid`] on the TACTIC plane under `opts` (`--threads`, `--shards`,
/// verbosity), plus one [`RunManifest`] per job, in job order. Reports
/// are byte-identical for any thread and shard count.
pub fn run_grid_with(jobs: &[GridJob<'_>], opts: &RunOpts) -> (Vec<RunReport>, Vec<RunManifest>) {
    let runs = run_ordered(jobs.len(), opts.thread_count(), |i| {
        let run = run_job(
            PlaneId::Tactic,
            &jobs[i],
            jobs[i].seed(),
            (i, jobs.len()),
            opts,
            |_| NoopObserver,
            |_| NoopProtocolObserver,
        );
        (run.report.into_tactic(), run.manifest)
    });
    runs.into_iter().unzip()
}

/// Runs `--seeds` (default 2) independent replicas of one scenario in
/// parallel — the common case of a figure/table averaging one knob
/// setting over seeds.
pub fn run_replicas(
    label: &str,
    topo: PaperTopology,
    scenario_id: u64,
    scenario: &Scenario,
    opts: &RunOpts,
) -> (Vec<RunReport>, Vec<RunManifest>) {
    let jobs: Vec<GridJob<'_>> = (0..opts.seed_count(2))
        .map(|i| GridJob {
            label: label.to_string(),
            topology: topo.index() as u32,
            scenario_id,
            run_idx: i as u64,
            scenario,
        })
        .collect();
    run_grid_with(&jobs, opts)
}

/// The paper-replica scenario for `topo`, shaped by the options
/// (duration override and the observability switches `--sample-every` /
/// `--profile`; everything else stays at §8.A defaults).
pub fn shaped_scenario(topo: PaperTopology, opts: &RunOpts, reduced_duration: u64) -> Scenario {
    let mut s = Scenario::paper(topo);
    s.duration = SimDuration::from_secs(opts.duration(reduced_duration));
    s.sample_every = opts.sample_every_secs.map(SimDuration::from_secs_f64);
    s.profile = opts.profile;
    s
}

/// Merged per-tier operation counters across runs, through the
/// [`OpCounters::merge`] aggregation path. Returns `(edge, core)`.
pub fn merged_ops(reports: &[RunReport]) -> (OpCounters, OpCounters) {
    let mut edge = OpCounters::default();
    let mut core = OpCounters::default();
    for r in reports {
        edge.merge(&r.edge_ops);
        core.merge(&r.core_ops);
    }
    (edge, core)
}

/// Mean over reports of a projection.
pub fn mean_of<F: Fn(&RunReport) -> f64>(reports: &[RunReport], f: F) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Sum over reports of a projection (u64).
pub fn sum_of<F: Fn(&RunReport) -> u64>(reports: &[RunReport], f: F) -> u64 {
    reports.iter().map(f).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(secs: u64) -> Scenario {
        let mut s = Scenario::small();
        s.duration = SimDuration::from_secs(secs);
        s
    }

    fn quiet(threads: usize) -> RunOpts {
        RunOpts {
            threads: Some(threads),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    #[test]
    fn replicas_are_reproducible_and_distinct() {
        let s = small(5);
        let (a, _) = run_replicas("t", PaperTopology::Topo1, 1, &s, &quiet(1));
        let (b, _) = run_replicas("t", PaperTopology::Topo1, 1, &s, &quiet(1));
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].events, b[0].events);
        assert_ne!(
            a[0].events, a[1].events,
            "run indices give distinct streams"
        );
    }

    #[test]
    fn grid_order_is_job_order_regardless_of_threads() {
        let s = small(5);
        let jobs: Vec<GridJob<'_>> = (0..4)
            .map(|i| GridJob {
                label: format!("job{i}"),
                topology: 1,
                scenario_id: 7,
                run_idx: i,
                scenario: &s,
            })
            .collect();
        let serial = run_grid(&jobs, 1, Verbosity::Quiet);
        let parallel = run_grid(&jobs, 4, Verbosity::Quiet);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.edge_ops, b.edge_ops);
            assert_eq!(a.core_ops, b.core_ops);
        }
    }

    #[test]
    fn scenario_ids_separate_experiments() {
        assert_ne!(scenario_id("fig5", &[500]), scenario_id("fig5", &[2500]));
        assert_ne!(scenario_id("fig5", &[500]), scenario_id("fig8", &[500]));
        assert_eq!(scenario_id("fig5", &[500]), scenario_id("fig5", &[500]));
    }

    #[test]
    fn shaped_scenario_respects_duration() {
        let opts = RunOpts::default();
        let s = shaped_scenario(PaperTopology::Topo1, &opts, 45);
        assert_eq!(s.duration, SimDuration::from_secs(45));
    }

    #[test]
    fn aggregations() {
        let s = small(5);
        let (reports, _) = run_replicas("agg", PaperTopology::Topo1, 2, &s, &quiet(2));
        let m = mean_of(&reports, |r| r.delivery.client_ratio());
        assert!(m > 0.5);
        let total = sum_of(&reports, |r| r.delivery.client_requested);
        assert!(total > 0);
        let (edge, core) = merged_ops(&reports);
        assert_eq!(edge.bf_lookups, sum_of(&reports, |r| r.edge_ops.bf_lookups));
        assert_eq!(core.interests, sum_of(&reports, |r| r.core_ops.interests));
    }
}
