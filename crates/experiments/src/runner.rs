//! What one grid job is made of and what a TACTIC cell folds into: the
//! job's coordinates ([`GridJob`], [`scenario_id`]) and the seed derived
//! from them alone — never from thread count or scheduling —, the
//! paper-replica scenario shaped by the options, its manifest summary, and
//! the mean/sum/merge folds over a cell's runs. The fan-out itself is
//! [`crate::plane::sweep`]; [`run_grid`] is the same pool over
//! caller-built jobs, for callers outside this crate.

use tactic::metrics::RunReport;
use tactic::router::OpCounters;
use tactic::scenario::Scenario;
use tactic_net::NoopObserver;
use tactic_sim::rng::{derive_seed, splitmix64};
use tactic_sim::time::SimDuration;
use tactic_telemetry::{NoopProtocolObserver, RunManifest};
use tactic_topology::paper::PaperTopology;

use crate::opts::{RunOpts, Verbosity};
use crate::plane::{run_job, run_ordered, sweep, Cell, PlaneId, PlaneRun};

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

/// Runs caller-built TACTIC jobs over `threads` workers of the pool
/// every experiment's grid uses ([`run_ordered`]) and returns the reports
/// in job order, whichever worker finished when. Per-run progress goes to
/// stderr only, and only when `verbosity` allows.
pub fn run_grid(jobs: &[GridJob<'_>], threads: usize, verbosity: Verbosity) -> Vec<RunReport> {
    let opts = RunOpts {
        verbosity,
        ..RunOpts::default()
    };
    run_ordered(jobs.len(), threads, |i| {
        let job = &jobs[i];
        let run = run_job(
            PlaneId::Tactic,
            job,
            job.seed(),
            (i, jobs.len()),
            &opts,
            |_| NoopObserver,
            |_| NoopProtocolObserver,
        );
        run.report.into_tactic()
    })
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

/// The plainest grid: the paper scenario (60 s at reduced scale) on the
/// TACTIC plane, one cell per selected topology, labelled and seeded
/// under `tag`, each folded by `fold` ([`sweep`]). Returns the folds in
/// `--topo` order and the manifests.
pub fn paper_grid<R: Send>(
    tag: &str,
    opts: &RunOpts,
    fold: impl Fn(&Cell<PaperTopology>, Vec<PlaneRun>) -> R + Sync,
) -> (Vec<R>, Vec<RunManifest>) {
    let cell = |&topo| Cell::tactic(topo, scenario_id(tag, &[]), topo);
    let cells: Vec<_> = opts.topologies.iter().map(cell).collect();
    let shape = |cell: &Cell<_>, _seed| {
        let topo = cell.knobs;
        (format!("{tag} {topo}"), shaped_scenario(topo, opts, 60))
    };
    sweep(&cells, opts, shape, fold)
}

/// Merged per-tier operation counters across a TACTIC cell's runs,
/// through the [`OpCounters::merge`] aggregation path. Returns
/// `(edge, core)`.
pub fn merged_ops(runs: &[PlaneRun]) -> (OpCounters, OpCounters) {
    let mut edge = OpCounters::default();
    let mut core = OpCounters::default();
    for run in runs {
        edge.merge(&run.report.tactic().edge_ops);
        core.merge(&run.report.tactic().core_ops);
    }
    (edge, core)
}

/// Mean over a TACTIC cell's reports of a projection.
pub fn mean_of<F: Fn(&RunReport) -> f64>(runs: &[PlaneRun], f: F) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|run| f(run.report.tactic())).sum::<f64>() / runs.len() as f64
}

/// Sum over a TACTIC cell's reports of a projection (u64).
pub fn sum_of<F: Fn(&RunReport) -> u64>(runs: &[PlaneRun], f: F) -> u64 {
    runs.iter().map(|run| f(run.report.tactic())).sum()
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

    /// One TACTIC cell on Topo1, `--seeds` (default 2) runs of `s`.
    fn replicas(id: u64, s: &Scenario, opts: &RunOpts) -> Vec<PlaneRun> {
        let cells = [Cell::tactic(PaperTopology::Topo1, id, ())];
        let shape = |_: &Cell<()>, _| ("t".into(), s.clone());
        sweep(&cells, opts, shape, |_, runs| runs).0.remove(0)
    }

    #[test]
    fn replicas_are_reproducible_and_distinct() {
        let s = small(5);
        let events = |runs: &[PlaneRun]| -> Vec<u64> {
            runs.iter().map(|r| r.report.tactic().events).collect()
        };
        let a = events(&replicas(1, &s, &quiet(1)));
        assert_eq!(a.len(), 2);
        assert_eq!(a, events(&replicas(1, &s, &quiet(1))));
        assert_ne!(a[0], a[1], "run indices give distinct streams");
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
        let reports = replicas(2, &s, &quiet(2));
        let m = mean_of(&reports, |r| r.delivery.client_ratio());
        assert!(m > 0.5);
        let total = sum_of(&reports, |r| r.delivery.client_requested);
        assert!(total > 0);
        let (edge, core) = merged_ops(&reports);
        assert_eq!(edge.bf_lookups, sum_of(&reports, |r| r.edge_ops.bf_lookups));
        assert_eq!(core.interests, sum_of(&reports, |r| r.core_ops.interests));
    }
}
