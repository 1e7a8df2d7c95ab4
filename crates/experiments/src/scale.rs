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
//! node count share a seed, so their `sim_events` must agree — the one
//! thing checked across counts here. Peak memory and set-up time at
//! fleet scale are `benchmark/`'s child-isolated `peak_rss_mb` /
//! `setup_s`.
//!
//! Output: `scale.csv` (the deterministic columns, one row per node
//! count) and `scale.manifest.jsonl` (one line per cell); the wall-clock
//! columns are on stdout only.

use tactic::scenario::{Scenario, TopologyChoice};
use tactic_sim::time::SimDuration;
use tactic_telemetry::RunManifest;
use tactic_topology::fleet::FleetSpec;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, Column, Sheet};
use crate::plane::{sweep, Cell, PlaneId};
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
    let cells: Vec<_> = ramp
        .iter()
        .map(|&nodes| Cell {
            plane: PlaneId::Tactic,
            // 0 is the custom-topology coordinate.
            topology: 0,
            scenario_id: scenario_id("scale", &[nodes as u64]),
            knobs: nodes,
        })
        .collect();
    // One pass over the ramp per shard count, one cell at a time, one run
    // per cell: `per_count[k][point]`.
    let per_count: Vec<Vec<RunManifest>> = opts
        .shards
        .iter()
        .map(|&k| {
            let pass = RunOpts {
                seeds: Some(1),
                threads: Some(1),
                shards: vec![k],
                ..opts.clone()
            };
            let runs = sweep(&cells, &pass, |cell, _seed| {
                (format!("scale {} nodes", cell.knobs), fleet(&cell.knobs))
            });
            runs.into_iter().flatten().map(|run| run.manifest).collect()
        })
        .collect();

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
            if m.sim_events != first.sim_events {
                return Err(std::io::Error::other(divergence(*nodes, first, m)));
            }
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
    write_file(&opts.out_dir, "scale.csv", &csv.to_csv())?;
    write_manifests(&opts.out_dir, "scale", per_count.iter().flatten())?;
    Ok(format!(
        "Scale — {} node counts × --shards {:?}, events/s per cell (speedup vs the first count)\n\n\
         {}\nWritten to scale.csv (+ .manifest.jsonl)\n",
        ramp.len(),
        opts.shards,
        table.render(),
    ))
}

/// What `scale` reports when two shard counts simulated different runs of
/// one node count: the run, the first differing value, as
/// [`run_job`](crate::plane::run_job) reports any divergence.
fn divergence(nodes: usize, first: &RunManifest, other: &RunManifest) -> String {
    format!(
        "{nodes} nodes: --shards {} DIVERGED from --shards {}: sim_events {} vs {}",
        other.shards, first.shards, other.sim_events, first.sim_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_divergence_names_the_run_the_counts_and_the_first_differing_value() {
        let cell = |shards, sim_events| RunManifest {
            shards,
            sim_events,
            ..RunManifest::default()
        };
        assert_eq!(
            divergence(48, &cell(1, 700), &cell(2, 701)),
            "48 nodes: --shards 2 DIVERGED from --shards 1: sim_events 701 vs 700"
        );
    }
}
