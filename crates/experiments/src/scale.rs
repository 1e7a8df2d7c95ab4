//! Engine throughput as the topology grows: the `scale` experiment runs
//! a fleet-shaped TACTIC scenario at every `--ramp` node count
//! (10³ → 10⁵ by default; the paper's Table III presets top out at a few
//! hundred nodes) × every `--shards` count, one count per cell — here,
//! and only here, `--shards` is a grid axis rather than a determinism
//! check, because events/s against K is what the experiment measures.
//!
//! Every cell is one [`run_job`](crate::plane::run_job) like any other
//! run; events/s is read off its manifest (`sim_events` / `wall_ms`, the
//! world build included) and cells run one at a time so they do not
//! steal each other's cores. The cells of one node count share a seed,
//! so their `sim_events` must agree — the one thing checked across
//! counts here. Peak memory and set-up time at fleet scale are
//! `benchmark/`'s child-isolated `peak_rss_mb` / `setup_s`.
//!
//! Output: `scale.csv` (the deterministic columns, one row per node
//! count) and `scale.manifest.jsonl` (one line per cell); the wall-clock
//! columns are on stdout only.

use tactic::scenario::{Scenario, TopologyChoice};
use tactic_sim::time::SimDuration;
use tactic_telemetry::RunManifest;
use tactic_topology::fleet::FleetSpec;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{run_grid_with, scenario_id, GridJob};

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
/// input (exit status 2, like any bad argument) and propagates I/O
/// errors from writing `scale.csv`.
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
    let scenarios: Vec<Scenario> = ramp.iter().map(fleet).collect();
    let jobs: Vec<GridJob<'_>> = ramp
        .iter()
        .zip(&scenarios)
        .map(|(nodes, scenario)| GridJob {
            label: format!("scale {nodes} nodes"),
            // 0 is the custom-topology coordinate.
            topology: 0,
            scenario_id: scenario_id("scale", &[*nodes as u64]),
            run_idx: 0,
            scenario,
        })
        .collect();
    // One pass over the ramp per shard count: `per_count[k][point]`.
    let per_count: Vec<Vec<RunManifest>> = opts
        .shards
        .iter()
        .map(|&k| {
            let cell = RunOpts {
                threads: Some(1),
                shards: vec![k],
                ..opts.clone()
            };
            run_grid_with(&jobs, &cell).1
        })
        .collect();

    let mut table = TextTable::new(vec![
        "nodes",
        "shards",
        "sim_events",
        "wall_ms",
        "events_per_sec",
        "speedup_x",
        "epochs",
        "edge_cut",
    ]);
    let mut csv = TextTable::new(vec!["nodes", "clients", "sim_ms", "sim_events"]);
    let events_per_sec = |m: &RunManifest| m.sim_events as f64 * 1e3 / m.wall_ms.max(1) as f64;
    for (point, (nodes, scenario)) in ramp.iter().zip(&scenarios).enumerate() {
        let first = &per_count[0][point];
        for m in per_count.iter().map(|pass| &pass[point]) {
            assert_eq!(
                m.sim_events, first.sim_events,
                "{nodes} nodes: --shards {} and --shards {} simulated different runs",
                m.shards, first.shards,
            );
            table.row(vec![
                nodes.to_string(),
                m.shards.to_string(),
                m.sim_events.to_string(),
                m.wall_ms.to_string(),
                fmt_f(events_per_sec(m)),
                fmt_f(events_per_sec(m) / events_per_sec(first)),
                m.epochs.to_string(),
                m.edge_cut.to_string(),
            ]);
        }
        let spec = scenario.topology.spec();
        csv.row(vec![
            nodes.to_string(),
            (spec.clients + spec.attackers).to_string(),
            (scenario.duration.as_nanos() / 1_000_000).to_string(),
            first.sim_events.to_string(),
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
