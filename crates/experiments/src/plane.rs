//! The one module that knows there are four planes: which they are, how
//! one is run ([`run_job`] — every simulation of every experiment, for
//! any shard count, with any observers), what every experiment reads from
//! a run whatever the plane, how a run becomes a manifest line — and the
//! one fan-out: an experiment declares its grid as [`Cell`]s, and
//! [`sweep`] runs every cell × seed over the ordered worker pool
//! ([`run_ordered`]) and folds each cell as its last seed finishes.
//!
//! # How an experiment is written
//!
//! An experiment has one shape, and this crate has one of each piece:
//!
//! 1. **Cells.** It declares its whole grid up front as [`Cell`]s — a
//!    [`PlaneId`], the topology coordinate, a
//!    [`scenario_id`](crate::runner::scenario_id) and the knob values the
//!    cell stands for — in the order its rows come out.
//! 2. **Shape.** It hands them to [`sweep`] with a `shape(cell, seed)`
//!    closure that builds one run's label and scenario (the seed is there
//!    for what must follow the topology it builds, such as a fault
//!    schedule); [`sweep_observed`] is the same call with per-shard
//!    observer factories. Each run is seeded by
//!    `derive_seed(BASE_SEED, topology, scenario_id, run_idx)`, never by
//!    thread or schedule, and is one [`run_job`], so `--shards` means
//!    the same everywhere.
//! 3. **Fold.** With them goes a `fold(cell, runs)` closure: the worker
//!    that finishes a cell's last seed hands it the cell's runs in run
//!    order, and the fold turns them into what the experiment reports —
//!    most often the cell's row — with
//!    [`mean_of`](crate::runner::mean_of),
//!    [`sum_of`](crate::runner::sum_of),
//!    [`merged_ops`](crate::runner::merged_ops) over a TACTIC cell, or
//!    [`RunSummary::of_cell`] for the plane-agnostic summary. The runs
//!    die with the fold, so memory holds the cells in flight, not the
//!    grid. [`sweep`] returns the folds in cell order and every run's
//!    manifest in job order; nobody slices by a seed count.
//! 4. **Sheet.** It reports through one
//!    [`Sheet`](crate::output::Sheet): columns declared once, one row per
//!    result, [`Field::two`](crate::output::Field::two) where the table
//!    and the CSV render a value differently. Every file it leaves goes
//!    through one writer, [`output`](crate::output::output) — most often
//!    as [`Sheet::finish`](crate::output::Sheet::finish), which writes
//!    `<stem>.csv` and `<stem>.manifest.jsonl` — whose one trailer names
//!    exactly the files written.
//!
//! [`paper_grid`](crate::runner::paper_grid) is the commonest grid, the
//! paper scenario once per `--topo` entry. `scale` runs one sweep per
//! `--shards` count at `--threads 1`, since that is what it measures;
//! `transport` and `simulate` pick their own seed and call [`run_job`]
//! directly, and [`run_grid`](crate::runner::run_grid) takes caller-built
//! jobs. CI's "One experiment shape" step keeps job literals and
//! hand-built tables from growing back.
//!
//! # One run at several shard counts
//!
//! [`run_job`] runs its job once per `--shards` entry and checks each
//! later count's report (`{:#?}`) and sampler rows against the first
//! count's by their golden digest (`FirstCount`, which `scale`'s
//! shard-count axis goes through too): a divergence prints the first
//! differing line and exits 1. Only the first count's report is kept for
//! that. The last count's run comes back whole — the plane's report, the
//! per-shard observers, the sharded stats and the manifest built from
//! them. Over-sharding is a typed error that exits 2 like any other bad
//! argument.

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tactic::metrics::RunReport;
use tactic::scenario::Scenario;
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::{BaselineReport, BaselineSpec};
use tactic_crypto::hash::Hasher64;
use tactic_net::{harness, DropTotals, NetObserver, NoopObserver, ShardedStats};
use tactic_sim::rng::derive_seed;
use tactic_telemetry::{
    timeseries_to_jsonl, LifecycleTotals, NoopProtocolObserver, ProtocolObserver, RunManifest,
    SampleRow, SpanProfiler,
};
use tactic_topology::paper::PaperTopology;

use crate::opts::RunOpts;
use crate::runner::{scenario_summary, GridJob, BASE_SEED};

/// One of the access-control planes the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneId {
    /// TACTIC itself.
    Tactic,
    /// One of the baselines it is motivated against.
    Baseline(Mechanism),
}

impl PlaneId {
    /// Every plane, in comparison order.
    pub const ALL: [PlaneId; 4] = [
        PlaneId::Tactic,
        PlaneId::Baseline(Mechanism::NoAccessControl),
        PlaneId::Baseline(Mechanism::ClientSideAc),
        PlaneId::Baseline(Mechanism::ProviderAuthAc),
    ];

    /// The plane's position in [`ALL`](Self::ALL): its coordinate in every
    /// experiment's seed derivation.
    pub fn index(self) -> u64 {
        let at = PlaneId::ALL.iter().position(|&p| p == self);
        at.expect("ALL lists every plane") as u64
    }

    /// The plane's name in tables, CSVs, labels and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            PlaneId::Tactic => "tactic",
            PlaneId::Baseline(m) => m.name(),
        }
    }
}

tactic_telemetry::counter_set! {
    /// What every experiment reads from one run, whatever the plane.
    /// `merge` folds another seed's run into a cell total: counters (and
    /// the per-run mean latencies, which [`RunSummary::of_cell`] divides by
    /// the run count at the end) sum, high-water marks take the max.
    #[derive(Clone, Copy, Default)]
    pub struct RunSummary {
        /// Client chunks requested (retransmissions excluded).
        requested: Add, Always;
        /// Client chunks received.
        received: Add, Always;
        /// Client Interests retransmitted after an expiry.
        retransmitted: Add, Always;
        /// Client chunks abandoned after the retry budget.
        gave_up: Add, Always;
        /// Client request expiries.
        timeouts: Add, Always;
        /// Authentication work: TACTIC router signature verifications, or
        /// baseline provider per-request authentications.
        auth_ops: Add, Always;
        /// Expired-tag pre-check rejections (TACTIC only).
        expired_rejections: Add, Always;
        /// PIT-record high-water mark over all routers.
        peak_pit_records: Max, Always;
        /// Content-store high-water mark over all routers.
        peak_cs_entries: Max, Always;
        /// Engine events processed.
        events: Add, Always;
        /// Engine queue high-water mark.
        peak_queue_depth: Max, Always;
    }
    with {
        /// Mean client retrieval latency, in seconds.
        latency_mean: f64;
        /// Transport + plane drops by reason.
        drops: DropTotals;
        /// Tag-lifecycle totals (TACTIC only).
        lifecycle: LifecycleTotals;
    }
}

impl From<&RunReport> for RunSummary {
    fn from(r: &RunReport) -> Self {
        RunSummary {
            requested: r.delivery.client_requested,
            received: r.delivery.client_received,
            retransmitted: r.client_retransmissions,
            gave_up: r.client_gave_up,
            timeouts: r.client_timeouts,
            latency_mean: r.latency.overall_mean(),
            auth_ops: r.edge_ops.sig_verifications + r.core_ops.sig_verifications,
            expired_rejections: r.edge_ops.expired_rejections + r.core_ops.expired_rejections,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            events: r.events,
            peak_queue_depth: r.peak_queue_depth,
            lifecycle: LifecycleTotals {
                tag_renewals: r.providers.tags_renewed,
                revalidations: r.edge_ops.evicted_revalidations + r.core_ops.evicted_revalidations,
                bf_rotations: r.edge_ops.bf_rotations + r.core_ops.bf_rotations,
            },
        }
    }
}

impl From<&BaselineReport> for RunSummary {
    fn from(r: &BaselineReport) -> Self {
        RunSummary {
            requested: r.client_requested,
            received: r.client_received,
            retransmitted: r.client_retransmitted,
            gave_up: r.client_gave_up,
            timeouts: r.client_timeouts,
            latency_mean: r.mean_latency(),
            auth_ops: r.provider_auth_ops,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            events: r.events,
            peak_queue_depth: r.peak_queue_depth,
            // Baseline mechanisms have neither tags nor a tag lifecycle.
            ..RunSummary::default()
        }
    }
}

impl RunSummary {
    /// One cell's runs folded into one total (see [`merge`](Self::merge));
    /// `latency_mean` ends up the mean over the runs.
    pub fn of_cell<O, PO>(runs: &[PlaneRun<O, PO>]) -> Self {
        let mut total = RunSummary::default();
        for run in runs {
            total.merge(&run.report.summary());
        }
        total.latency_mean /= runs.len() as f64;
        total
    }
}

/// The full report of one run, whichever plane produced it (boxed: the
/// reports are hundreds of bytes and of very different sizes).
pub enum PlaneReport {
    /// TACTIC's report.
    Tactic(Box<RunReport>),
    /// A baseline mechanism's report.
    Baseline(Box<BaselineReport>),
}

/// The one failure of reading a baseline's report as TACTIC's.
fn not_tactic(r: &BaselineReport) -> ! {
    panic!("{} is not the TACTIC plane", r.mechanism_name)
}

impl PlaneReport {
    /// What every experiment reads from a run, whatever the plane.
    pub fn summary(&self) -> RunSummary {
        match self {
            PlaneReport::Tactic(r) => RunSummary::from(&**r),
            PlaneReport::Baseline(r) => RunSummary::from(&**r),
        }
    }

    /// The sampler's time series (empty unless the scenario samples).
    pub fn samples(&self) -> &[SampleRow] {
        match self {
            PlaneReport::Tactic(r) => &r.samples,
            PlaneReport::Baseline(r) => &r.samples,
        }
    }

    /// The wall-clock span profile (`None` unless the scenario profiles).
    pub fn profile(&self) -> Option<&SpanProfiler> {
        match self {
            PlaneReport::Tactic(r) => r.profile.as_deref(),
            PlaneReport::Baseline(r) => r.profile.as_deref(),
        }
    }

    /// The TACTIC report of a run on [`PlaneId::Tactic`].
    ///
    /// # Panics
    ///
    /// Panics on a baseline plane's report.
    pub fn tactic(&self) -> &RunReport {
        match self {
            PlaneReport::Tactic(r) => r,
            PlaneReport::Baseline(r) => not_tactic(r),
        }
    }

    /// [`tactic`](Self::tactic), by value.
    pub fn into_tactic(self) -> RunReport {
        match self {
            PlaneReport::Tactic(r) => *r,
            PlaneReport::Baseline(r) => not_tactic(&r),
        }
    }

    /// Everything two shard counts must agree on, byte for byte: the
    /// report's `{:#?}` form and, below it, the sampler's JSONL (which the
    /// `Debug` form leaves out).
    pub(crate) fn golden(&self, label: &str) -> String {
        let mut golden = String::new();
        self.write_golden(label, &mut golden)
            .expect("a String takes every write");
        golden
    }

    /// The [`golden`](Self::golden) form folded through a [`Hasher64`] as
    /// it is written, so comparing two runs' forms builds neither.
    pub(crate) fn golden_digest(&self, label: &str) -> u64 {
        let mut digest = Digesting(Hasher64::new());
        self.write_golden(label, &mut digest)
            .expect("a hasher takes every write");
        digest.0.finish()
    }

    fn write_golden(&self, label: &str, out: &mut impl Write) -> fmt::Result {
        match self {
            PlaneReport::Tactic(r) => writeln!(out, "{r:#?}")?,
            PlaneReport::Baseline(r) => writeln!(out, "{r:#?}")?,
        }
        out.write_str(&timeseries_to_jsonl(label, self.samples()))
    }
}

/// A sink that hashes what is written to it.
struct Digesting(Hasher64);

impl Write for Digesting {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

/// One run of one plane: the report, the per-shard observers (unmerged,
/// in shard order), the epoch loop's stats and the provenance line. A
/// one-shard run has one observer of each kind, no epochs and no edge
/// cut.
pub struct PlaneRun<O = NoopObserver, PO = NoopProtocolObserver> {
    /// The plane's own report.
    pub report: PlaneReport,
    /// Per-shard transport observers.
    pub observers: Vec<O>,
    /// Per-shard protocol observers.
    pub protos: Vec<PO>,
    /// Sharding provenance.
    pub stats: ShardedStats,
    /// The run's provenance record. The only nondeterministic field is
    /// `wall_ms`; `shards`, `edge_cut`, `epochs` and the per-shard
    /// vectors depend on the shard count and nothing else does.
    pub manifest: RunManifest,
}

/// The first count a job runs at, kept to check every later count
/// against: its report — printed from only when a later count differs —
/// and that report's golden digest.
pub(crate) struct FirstCount {
    k: usize,
    report: PlaneReport,
    digest: u64,
}

impl FirstCount {
    /// Keeps `report`, run at `--shards k` and labelled `label`.
    pub(crate) fn new(k: usize, report: PlaneReport, label: &str) -> Self {
        let digest = report.golden_digest(label);
        FirstCount { k, report, digest }
    }

    /// **The** shard check: `other`, run at `--shards k`, must be this run
    /// byte for byte ([`PlaneReport::golden_digest`]). On a mismatch, the
    /// counts and the first line their golden forms differ on.
    pub(crate) fn check(&self, label: &str, k: usize, other: &PlaneReport) -> Result<(), String> {
        if other.golden_digest(label) == self.digest {
            return Ok(());
        }
        let (first, other) = (self.report.golden(label), other.golden(label));
        let at = match first.lines().zip(other.lines()).find(|(a, b)| a != b) {
            Some((a, b)) => format!("  --shards {}: {a}\n  --shards {k}: {b}", self.k),
            None => format!(
                "  --shards {k} and --shards {} differ in length only",
                self.k
            ),
        };
        Err(format!(
            "--shards {k} DIVERGED from --shards {}\n{at}",
            self.k
        ))
    }
}

/// **The** run path: every simulation any experiment performs is one call
/// of this function. It runs grid cell `job` of `plane` from `seed` once
/// per `--shards` entry (1 = on the calling thread) with per-shard
/// observers, times each execution, prints its stderr progress line as
/// the `position.0`-th of `position.1` jobs, checks every later entry's
/// report and sampler rows against the first entry's (`FirstCount`),
/// and returns the **last** entry's run with its manifest — so `--shards
/// 1,4` checks determinism live and records the sharded execution.
///
/// Exits the process with status 2 when a shard count does not fit the
/// topology and with status 1 when two counts diverge.
pub fn run_job<O, PO>(
    plane: PlaneId,
    job: &GridJob<'_>,
    seed: u64,
    position: (usize, usize),
    opts: &RunOpts,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
) -> PlaneRun<O, PO>
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    let compared = opts.shards.len() > 1;
    let mut first: Option<FirstCount> = None;
    let mut last = None;
    for &k in &opts.shards {
        let started = Instant::now();
        let ran = match plane {
            PlaneId::Tactic => harness::run(job.scenario, seed, k, &make_observer, &make_proto)
                .map(|(r, o, p, s)| (PlaneReport::Tactic(Box::new(r)), o, p, s)),
            PlaneId::Baseline(mechanism) => harness::run(
                &BaselineSpec::new(job.scenario, mechanism),
                seed,
                k,
                &make_observer,
                &make_proto,
            )
            .map(|(r, o, p, s)| (PlaneReport::Baseline(Box::new(r)), o, p, s)),
        };
        // A count that does not fit the topology is a bad argument.
        let (report, observers, protos, stats) = ran.unwrap_or_else(|e| {
            eprintln!("--shards {k}: {e}");
            std::process::exit(2)
        });
        let wall = started.elapsed();
        if opts.verbosity.progress() {
            eprintln!(
                "[{n}/{total}] {label} run {run} (seed {seed:#018x}){at} in {wall:.1?}",
                n = position.0 + 1,
                total = position.1,
                label = job.label,
                run = job.run_idx,
                at = if compared {
                    format!(" --shards {k}")
                } else {
                    String::new()
                },
            );
        }
        match &first {
            // A determinism bug: name the run, show where, exit 1.
            Some(first) => {
                if let Err(divergence) = first.check(&job.label, k, &report) {
                    eprintln!("{} run {}: {divergence}", job.label, job.run_idx);
                    std::process::exit(1);
                }
            }
            None if compared => {
                first = Some(FirstCount::new(k, report, &job.label));
                continue;
            }
            None => {}
        }
        last = Some((report, observers, protos, stats, wall));
    }
    let (report, observers, protos, stats, wall) = last.expect("--shards has at least one entry");
    let summary = report.summary();
    if opts.verbosity.detailed() {
        eprintln!(
            "    events={events} peak_queue={peak}",
            events = summary.events,
            peak = summary.peak_queue_depth,
        );
    }
    let manifest = RunManifest {
        label: job.label.clone(),
        topology: format!("Topo{}", job.topology),
        scenario_id: job.scenario_id,
        run_idx: job.run_idx,
        seed,
        scenario: scenario_summary(job.scenario),
        sim_events: summary.events,
        peak_queue_depth: summary.peak_queue_depth,
        wall_ms: wall.as_millis() as u64,
        drops: summary.drops,
        shards: stats.k as u64,
        edge_cut: stats.edge_cut,
        epochs: stats.epochs,
        per_shard_events: stats.per_shard_events.clone(),
        per_shard_peak_queue: stats.per_shard_peak_queue.clone(),
        per_shard_peak_pit: stats.per_shard_peak_pit.clone(),
        per_shard_peak_cs: stats.per_shard_peak_cs.clone(),
        lifecycle: summary.lifecycle,
    };
    PlaneRun {
        report,
        observers,
        protos,
        stats,
        manifest,
    }
}

/// One cell of an experiment's grid — a plane, a topology and a knob
/// setting; its `--seeds` runs fold into one row.
#[derive(Debug, Clone, Copy)]
pub struct Cell<K> {
    /// The plane.
    pub plane: PlaneId,
    /// The topology coordinate of the seed derivation: a paper topology's
    /// index, 0 for a custom one.
    pub topology: u32,
    /// The cell's seed-derivation coordinate (see
    /// [`scenario_id`](crate::runner::scenario_id)).
    pub scenario_id: u64,
    /// The experiment's knob values.
    pub knobs: K,
}

impl<K> Cell<K> {
    /// A cell of the TACTIC plane on paper topology `topo`.
    pub fn tactic(topo: PaperTopology, scenario_id: u64, knobs: K) -> Self {
        Cell {
            plane: PlaneId::Tactic,
            topology: topo.index() as u32,
            scenario_id,
            knobs,
        }
    }
}

/// **The** fan-out: runs every `cell` × `--seeds` (default 2) replica of
/// an experiment's grid over `--threads` workers and folds each cell as
/// its last seed finishes: `fold(cell, runs)` gets the cell's runs in
/// run order, on the worker that finished the last of them, and is the
/// last to hold them. Returns the folded values in cell order and every
/// run's manifest in job order, so whatever callers build from them is
/// byte-identical for any thread count. `shape` turns a cell and the
/// run's derived seed into the run's label and scenario.
pub fn sweep<K: Sync, R: Send>(
    cells: &[Cell<K>],
    opts: &RunOpts,
    shape: impl Fn(&Cell<K>, u64) -> (String, Scenario) + Sync,
    fold: impl Fn(&Cell<K>, Vec<PlaneRun>) -> R + Sync,
) -> (Vec<R>, Vec<RunManifest>) {
    sweep_observed(
        cells,
        opts,
        shape,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
        fold,
    )
}

/// [`sweep`] with per-shard observers attached to every run.
pub fn sweep_observed<K: Sync, O, PO, R: Send>(
    cells: &[Cell<K>],
    opts: &RunOpts,
    shape: impl Fn(&Cell<K>, u64) -> (String, Scenario) + Sync,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
    fold: impl Fn(&Cell<K>, Vec<PlaneRun<O, PO>>) -> R + Sync,
) -> (Vec<R>, Vec<RunManifest>)
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    let seeds = opts.seed_count(2);
    let total = cells.len() * seeds;
    // Per cell, its runs so far.
    let pending: Vec<Mutex<Vec<_>>> = cells.iter().map(|_| Mutex::default()).collect();
    let jobs = run_ordered(total, opts.thread_count(), |i| {
        let (cell, run_idx) = (&cells[i / seeds], (i % seeds) as u64);
        let seed = derive_seed(BASE_SEED, cell.topology, cell.scenario_id, run_idx);
        let (label, scenario) = shape(cell, seed);
        let job = GridJob {
            label,
            topology: cell.topology,
            scenario_id: cell.scenario_id,
            run_idx,
            scenario: &scenario,
        };
        let run = run_job(
            cell.plane,
            &job,
            seed,
            (i, total),
            opts,
            &make_observer,
            &make_proto,
        );
        let manifest = run.manifest.clone();
        let mut cell_runs = pending[i / seeds]
            .lock()
            .expect("no worker panics holding a cell");
        cell_runs.push(run);
        // The cell's last run takes the whole cell out, in run order.
        let runs = (cell_runs.len() == seeds).then(|| std::mem::take(&mut *cell_runs));
        drop(cell_runs);
        let folded = runs.map(|mut runs: Vec<PlaneRun<O, PO>>| {
            runs.sort_by_key(|run| run.manifest.run_idx);
            fold(cell, runs)
        });
        (folded, manifest)
    });
    let (folded, manifests): (Vec<Option<R>>, _) = jobs.into_iter().unzip();
    (folded.into_iter().flatten().collect(), manifests)
}

/// Runs `job(0..n)` over up to `threads` worker threads and returns the
/// results **in index order**: workers claim indices from a shared
/// counter and write each result into the slot of the index that
/// produced it, so what callers fold is independent of which worker
/// finished when — the property every experiment's byte-identity across
/// `--threads` rests on.
pub fn run_ordered<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("no worker panics holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every index was claimed and ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Verbosity;
    use tactic_baselines::mechanism::Mechanism;
    use tactic_sim::time::SimDuration;

    /// The shard check by golden digest: two reports with equal event
    /// counts that differ in one counter fail it, naming the counts and the
    /// first differing line; an equal report passes.
    #[test]
    fn a_divergence_names_the_counts_and_the_first_differing_line() {
        let report = |moves| {
            PlaneReport::Tactic(Box::new(RunReport {
                events: 700,
                moves,
                ..RunReport::default()
            }))
        };
        let label = "scale 48 nodes";
        let first = FirstCount::new(1, report(3), label);
        assert_eq!(first.check(label, 2, &report(3)), Ok(()));
        assert_eq!(
            first.check(label, 2, &report(4)).unwrap_err(),
            "--shards 2 DIVERGED from --shards 1\n  \
             --shards 1:     moves: 3,\n  \
             --shards 2:     moves: 4,"
        );
        // The sampler rows below the report (which its `Debug` form leaves
        // out) are compared too.
        let sampled = PlaneReport::Tactic(Box::new(RunReport {
            events: 700,
            moves: 3,
            samples: vec![SampleRow::default()],
            ..RunReport::default()
        }));
        assert_eq!(
            first.check(label, 4, &sampled).unwrap_err(),
            "--shards 4 DIVERGED from --shards 1\n  \
             --shards 4 and --shards 1 differ in length only"
        );
    }

    fn quiet(seeds: usize, threads: usize) -> RunOpts {
        RunOpts {
            seeds: Some(seeds),
            threads: Some(threads),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// The grid's contract: cells outermost, each cell folded once with
    /// its `--seeds` runs in run order, every run labelled by `shape` and
    /// seeded from its own coordinates, the manifests in job order —
    /// whatever the thread count.
    #[test]
    fn sweep_groups_each_cells_seeds_under_it_in_job_order() {
        let mut scenario = Scenario::small();
        scenario.duration = SimDuration::from_secs(1);
        let cells = [
            Cell::tactic(PaperTopology::Topo1, 7, "a"),
            Cell::tactic(PaperTopology::Topo2, 9, "b"),
        ];
        for threads in [1, 4] {
            let folds = Mutex::new(Vec::new());
            let (totals, manifests) = sweep(
                &cells,
                &quiet(3, threads),
                |cell, seed| (format!("{} {seed:#x}", cell.knobs), scenario.clone()),
                |cell, runs| {
                    for (run_idx, run) in runs.iter().enumerate() {
                        let seed =
                            derive_seed(BASE_SEED, cell.topology, cell.scenario_id, run_idx as u64);
                        assert_eq!(run.manifest.run_idx, run_idx as u64);
                        assert_eq!(run.manifest.seed, seed);
                        assert_eq!(run.manifest.label, format!("{} {seed:#x}", cell.knobs));
                    }
                    folds.lock().unwrap().push(cell.knobs);
                    RunSummary::of_cell(&runs)
                },
            );
            let mut folds = folds.into_inner().unwrap();
            folds.sort_unstable();
            assert_eq!(
                folds,
                ["a", "b"],
                "each cell folded once, --threads {threads}"
            );
            let coordinates: Vec<_> = (manifests.iter())
                .map(|m| (m.topology.as_str(), m.scenario_id, m.run_idx))
                .collect();
            let cell = |topo, id| [(topo, id, 0), (topo, id, 1), (topo, id, 2)];
            assert_eq!(coordinates, [cell("Topo1", 7), cell("Topo2", 9)].concat());
            for (total, runs) in totals.iter().zip(manifests.chunks(3)) {
                let events = runs.iter().map(|m| m.sim_events);
                assert_eq!(total.events, events.sum::<u64>());
            }
            assert_ne!(totals[0].events, totals[1].events);
        }
    }

    /// Transport observers alive in this process.
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    /// An observer that counts itself alive.
    struct Live;

    impl Live {
        fn new() -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Live
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl NetObserver for Live {}

    /// At `--threads 1` memory holds one cell, not the grid: when a cell is
    /// folded, the only runs alive are its own.
    #[test]
    fn a_cells_runs_are_dropped_before_the_next_cell_is_folded() {
        let mut scenario = Scenario::small();
        scenario.duration = SimDuration::from_secs(1);
        let cells: Vec<_> = (0..3)
            .map(|id| Cell::tactic(PaperTopology::Topo1, id, ()))
            .collect();
        let (alive, _) = sweep_observed(
            &cells,
            &quiet(2, 1),
            |_, _| ("live".into(), scenario.clone()),
            |_| Live::new(),
            |_| NoopProtocolObserver,
            |_, runs| (runs.len(), LIVE.load(Ordering::SeqCst)),
        );
        assert_eq!(alive, [(2, 2); 3], "one observer per run, one cell's runs");
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    /// `--shards 1,2` means one thing on every plane: both counts execute
    /// (three shards' observers are built in all), the reports agree, and
    /// the run and manifest handed back are the last entry's.
    #[test]
    fn every_shard_count_runs_and_the_last_one_is_recorded() {
        let mut scenario = Scenario::small();
        scenario.duration = SimDuration::from_secs(2);
        scenario.sample_every = Some(SimDuration::from_secs(1));
        let job = GridJob {
            label: "both counts".into(),
            topology: 1,
            scenario_id: 7,
            run_idx: 0,
            scenario: &scenario,
        };
        let opts = RunOpts {
            shards: vec![1, 2],
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        };
        for plane in [
            PlaneId::Tactic,
            PlaneId::Baseline(Mechanism::ProviderAuthAc),
        ] {
            let built = AtomicUsize::new(0);
            let run = run_job(
                plane,
                &job,
                job.seed(),
                (0, 1),
                &opts,
                |_| {
                    built.fetch_add(1, Ordering::Relaxed);
                    NoopObserver
                },
                |_| NoopProtocolObserver,
            );
            assert_eq!(built.into_inner(), 1 + 2, "{}", plane.name());
            assert_eq!((run.observers.len(), run.protos.len()), (2, 2));
            assert_eq!((run.stats.k, run.manifest.shards), (2, 2));
            assert_eq!(run.manifest.per_shard_events.len(), 2);
            assert_eq!(run.manifest.seed, job.seed());
            assert!(run.manifest.sim_events > 0 && !run.report.samples().is_empty());
        }
    }
}
