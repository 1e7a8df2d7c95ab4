//! Engine throughput as the topology grows: the `scale` experiment runs
//! a fleet-shaped TACTIC scenario at every `--ramp` node count
//! (10³ → 10⁵ by default; the paper's Table III presets top out at a few
//! hundred nodes) × every `--shards` count, one count per cell — here,
//! and only here, `--shards` is a grid axis rather than a determinism
//! check, because events/s against K is what the experiment measures.
//!
//! Every cell is one run of the common grid ([`sweep`]), one pass over
//! the ramp per shard count; events/s is read off its manifest
//! (`sim_events` / `wall_ms`, the world build included) and cells run one
//! at a time so they do not steal each other's cores. The cells of one
//! node count share a seed, so their reports must agree byte for byte,
//! through the one shard check every `--shards` comparison makes
//! (`FirstCount`, as in [`run_job`](crate::plane::run_job)): the first
//! count's reports are kept, each later count's is checked against its
//! point's by golden digest as it is folded, and two counts that differ
//! exit 1 showing the first differing line. Peak memory and set-up time at fleet scale are `benchmark/`'s
//! child-isolated `peak_rss_mb` / `setup_s`.
//!
//! Output: `scale.csv` (the deterministic columns, one row per node
//! count) and `scale.manifest.jsonl` (one line per cell); the wall-clock
//! columns are on stdout only.

use tactic::scenario::{Scenario, TopologyChoice};
use tactic_sim::time::SimDuration;
use tactic_telemetry::RunManifest;
use tactic_topology::fleet::FleetSpec;

use crate::opts::RunOpts;
use crate::output::{fmt_f, output, Column, Sheet};
use crate::plane::{sweep, Cell, FirstCount, PlaneId};
use crate::runner::scenario_id;

/// The smallest fleet [`FleetSpec::sized`] can shape.
const MIN_NODES: usize = 16;

/// Simulated horizon per point, shrinking with size so the largest run
/// stays minutes-not-hours: 10³ → 5 s, 10⁴ → 1 s, 10⁵ → 300 ms.
fn sim_ms_for(nodes: usize) -> u64 {
    (10_000_000 / nodes as u64).clamp(300, 5_000)
}

/// The `scale` experiment: node-count × shard-count cells of the fleet
/// scenario, events/s per cell.
///
/// # Errors
///
/// Rejects a `--ramp` point below the 16-node fleet floor as invalid
/// input (exit status 2, like any bad argument), reports two shard counts
/// that simulated different runs (exit status 1, like any divergence) and
/// propagates I/O errors from writing `scale.csv`.
pub fn scale(opts: &RunOpts) -> std::io::Result<String> {
    let ramp = opts.ramp();
    if let Some(small) = ramp.iter().find(|&&nodes| nodes < MIN_NODES) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("--ramp {small}: a fleet needs at least {MIN_NODES} nodes"),
        ));
    }
    // Fleet-shaped scenarios: shares from `FleetSpec::sized`, small
    // catalogue, short horizon (`--duration` pins every point to one
    // horizon instead, as in `tagscale`).
    let fleet = |&nodes: &usize| {
        let mut s = Scenario::small();
        s.topology = TopologyChoice::Custom(FleetSpec::sized(nodes).to_table_spec());
        s.duration = opts.duration_secs.map_or_else(
            || SimDuration::from_millis(sim_ms_for(nodes)),
            SimDuration::from_secs,
        );
        s.objects_per_provider = 10;
        s.chunks_per_object = 10;
        s
    };
    let cells: Vec<_> = (ramp.iter().enumerate())
        .map(|(point, &nodes)| Cell {
            plane: PlaneId::Tactic,
            // 0 is the custom-topology coordinate.
            topology: 0,
            scenario_id: scenario_id("scale", &[nodes as u64]),
            knobs: (point, nodes),
        })
        .collect();
    let shape = |cell: &Cell<(usize, usize)>, _seed| {
        let nodes = cell.knobs.1;
        (format!("scale {nodes} nodes"), fleet(&nodes))
    };
    // One pass over the ramp per shard count, one cell at a time, one run
    // per cell: `per_count[k][point]`. The first count's reports are kept
    // to check every later count's against.
    let mut per_count: Vec<Vec<RunManifest>> = Vec::with_capacity(opts.shards.len());
    let mut firsts: Vec<FirstCount> = Vec::new();
    for &k in &opts.shards {
        let pass = RunOpts {
            seeds: Some(1),
            threads: Some(1),
            shards: vec![k],
            ..opts.clone()
        };
        let (checked, manifests) = sweep(&cells, &pass, shape, |cell, mut runs| {
            let ((point, nodes), run) = (cell.knobs, runs.remove(0));
            let label = &run.manifest.label;
            match firsts.get(point) {
                Some(first) => (first.check(label, k, &run.report))
                    .map_err(|divergence| format!("{nodes} nodes: {divergence}"))
                    .map(|()| None),
                None => Ok(Some(FirstCount::new(k, run.report, label))),
            }
        });
        for checked in checked {
            firsts.extend(checked.map_err(std::io::Error::other)?);
        }
        per_count.push(manifests);
    }

    let mut table = Sheet::new(
        [
            "nodes",
            "shards",
            "sim_events",
            "wall_ms",
            "events_per_sec",
            "speedup_x",
            "epochs",
            "edge_cut",
        ]
        .map(Column::table),
    );
    let mut csv = Sheet::new(["nodes", "clients", "sim_ms", "sim_events"].map(Column::csv));
    let events_per_sec = |m: &RunManifest| m.sim_events as f64 * 1e3 / m.wall_ms.max(1) as f64;
    for (point, nodes) in ramp.iter().enumerate() {
        let first = &per_count[0][point];
        for m in per_count.iter().map(|pass| &pass[point]) {
            table.row([
                nodes.to_string().into(),
                m.shards.to_string().into(),
                m.sim_events.to_string().into(),
                m.wall_ms.to_string().into(),
                fmt_f(events_per_sec(m)).into(),
                fmt_f(events_per_sec(m) / events_per_sec(first)).into(),
                m.epochs.to_string().into(),
                m.edge_cut.to_string().into(),
            ]);
        }
        let scenario = fleet(nodes);
        let spec = scenario.topology.spec();
        csv.row([
            nodes.to_string().into(),
            (spec.clients + spec.attackers).to_string().into(),
            (scenario.duration.as_nanos() / 1_000_000)
                .to_string()
                .into(),
            first.sim_events.to_string().into(),
        ]);
    }
    let csv = [("scale.csv", csv.to_csv())];
    let trailer = output(&opts.out_dir, "scale", csv, per_count.iter().flatten())?;
    Ok(format!(
        "Scale — {} node counts × --shards {:?}, events/s per cell (speedup vs the first count)\n\n\
         {}\n{trailer}",
        ramp.len(),
        opts.shards,
        table.render(),
    ))
}
