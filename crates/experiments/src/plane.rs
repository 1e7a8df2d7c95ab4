//! The one module that knows there are four planes: which they are, how
//! one is run (for any shard count, with any observers), what every
//! experiment reads from a run whatever the plane, how a run becomes a
//! manifest line — and the ordered worker pool every grid fans out over.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tactic::metrics::RunReport;
use tactic::scenario::Scenario;
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::{BaselineReport, BaselineSpec};
use tactic_net::{harness, DropTotals, NetObserver, NoopObserver, ShardedStats};
use tactic_sim::rng::derive_seed;
use tactic_telemetry::{
    LifecycleTotals, NoopProtocolObserver, ProtocolObserver, RunManifest, SampleRow, SpanProfiler,
};
use tactic_topology::ShardError;

use crate::opts::Verbosity;
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
    /// the per-run mean latencies, which [`sweep`] divides by the seed
    /// count at the end) sum, high-water marks take the max.
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

/// One run of one plane: the summary, the observability artifacts, the
/// per-shard observers (unmerged, in shard order) and the coordinator's
/// stats. A one-shard run has one observer of each kind, no epochs and
/// no edge cut.
pub struct PlaneRun<O, PO> {
    /// The plane-agnostic totals.
    pub summary: RunSummary,
    /// The sampler's time series (empty unless the scenario samples).
    pub samples: Vec<SampleRow>,
    /// The wall-clock span profile (`None` unless the scenario profiles).
    pub profile: Option<Box<SpanProfiler>>,
    /// Per-shard transport observers.
    pub observers: Vec<O>,
    /// Per-shard protocol observers.
    pub protos: Vec<PO>,
    /// Sharding provenance.
    pub stats: ShardedStats,
}

/// Runs `plane` over `scenario` for `seed` across `shards` worker
/// threads (1 = on the calling thread), with per-shard observers. Every
/// number in the result except `stats` is identical for any shard count.
///
/// # Errors
///
/// A [`ShardError`] when `shards` does not fit the topology.
pub fn run_plane<O, PO>(
    plane: PlaneId,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
) -> Result<PlaneRun<O, PO>, ShardError>
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    Ok(match plane {
        PlaneId::Tactic => {
            let (r, observers, protos, stats) =
                harness::run(scenario, seed, shards, make_observer, make_proto)?;
            PlaneRun {
                summary: RunSummary::from(&r),
                samples: r.samples,
                profile: r.profile,
                observers,
                protos,
                stats,
            }
        }
        PlaneId::Baseline(mechanism) => {
            let spec = BaselineSpec::new(scenario, mechanism);
            let (r, observers, protos, stats) =
                harness::run(&spec, seed, shards, make_observer, make_proto)?;
            PlaneRun {
                summary: RunSummary::from(&r),
                samples: r.samples,
                profile: r.profile,
                observers,
                protos,
                stats,
            }
        }
    })
}

/// A `--shards` count that does not fit the topology is a bad CLI
/// argument like any other: say so and exit with status 2.
pub fn exit_bad_shards(shards: usize, e: &ShardError) -> ! {
    eprintln!("--shards {shards}: {e}");
    std::process::exit(2);
}

/// The provenance record of one run. The only nondeterministic field is
/// `wall_ms`; `shards`, `edge_cut`, `epochs` and the per-shard vectors
/// depend on the shard count and nothing else does.
pub fn manifest(
    job: &GridJob<'_>,
    wall: Duration,
    summary: &RunSummary,
    stats: &ShardedStats,
) -> RunManifest {
    RunManifest {
        label: job.label.clone(),
        topology: format!("Topo{}", job.topology),
        scenario_id: job.scenario_id,
        run_idx: job.run_idx,
        seed: job.seed(),
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
    }
}

/// The per-run stderr progress line for the `index`-th of `total` jobs.
/// Stdout and files never carry it.
pub fn progress(
    verbosity: Verbosity,
    (index, total): (usize, usize),
    job: &GridJob<'_>,
    wall: Duration,
) {
    if verbosity.progress() {
        eprintln!(
            "[{n}/{total}] {label} run {run} (seed {seed:#018x}) in {wall:.1?}",
            n = index + 1,
            label = job.label,
            run = job.run_idx,
            seed = job.seed(),
        );
    }
}

/// One grid cell of `plane`, with per-shard observers: runs it, times
/// it, writes its manifest and its progress line. Exits with status 2
/// when `shards` does not fit the topology.
pub fn run_job<O, PO>(
    plane: PlaneId,
    job: &GridJob<'_>,
    position: (usize, usize),
    shards: usize,
    verbosity: Verbosity,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
) -> (PlaneRun<O, PO>, RunManifest)
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    let started = Instant::now();
    let run = run_plane(
        plane,
        job.scenario,
        job.seed(),
        shards,
        make_observer,
        make_proto,
    )
    .unwrap_or_else(|e| exit_bad_shards(shards, &e));
    let manifest = manifest(job, started.elapsed(), &run.summary, &run.stats);
    progress(verbosity, position, job, started.elapsed());
    (run, manifest)
}

/// One knob setting of a sweep on one plane; its seeds fold into one row.
#[derive(Debug, Clone, Copy)]
pub struct Cell<K> {
    /// The plane.
    pub plane: PlaneId,
    /// The cell's seed-derivation coordinate.
    pub scenario_id: u64,
    /// The experiment's knob values.
    pub knobs: K,
}

/// Runs every `cell` × `seeds` of a sweep on paper topology `topology`
/// over `threads` workers and folds each cell's seeds **in job order**
/// (see [`RunSummary::merge`]; `latency_mean` ends up the mean over
/// the cell's runs), so totals and manifests are byte-identical for any
/// thread count. `shape` turns a cell and the
/// run's derived seed into the run's label and scenario.
pub fn sweep<K: Sync>(
    cells: &[Cell<K>],
    topology: u32,
    seeds: usize,
    threads: usize,
    shards: usize,
    verbosity: Verbosity,
    shape: impl Fn(&Cell<K>, u64) -> (String, Scenario) + Sync,
) -> (Vec<RunSummary>, Vec<RunManifest>) {
    let total = cells.len() * seeds;
    let runs = run_ordered(total, threads, |i| {
        let (cell, run_idx) = (&cells[i / seeds], (i % seeds) as u64);
        // The seed `GridJob::seed` derives below, for shapes that need it.
        let seed = derive_seed(BASE_SEED, topology, cell.scenario_id, run_idx);
        let (label, scenario) = shape(cell, seed);
        let job = GridJob {
            label,
            topology,
            scenario_id: cell.scenario_id,
            run_idx,
            scenario: &scenario,
        };
        let (run, manifest) = run_job(
            cell.plane,
            &job,
            (i, total),
            shards,
            verbosity,
            |_| NoopObserver,
            |_| NoopProtocolObserver,
        );
        (run.summary, manifest)
    });
    let mut totals = vec![RunSummary::default(); cells.len()];
    let mut manifests = Vec::with_capacity(total);
    for (i, (run, manifest)) in runs.into_iter().enumerate() {
        totals[i / seeds].merge(&run);
        manifests.push(manifest);
    }
    for total in &mut totals {
        total.latency_mean /= seeds as f64;
    }
    (totals, manifests)
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
