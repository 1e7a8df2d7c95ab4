//! The cross-topology sweep: every (topology × seed) run of the paper
//! scenario, merged into a per-topology summary table — the plainest grid
//! there is, one cell per topology, and CI's `--shards 1,2,3,4,8`
//! determinism gate.

use crate::opts::RunOpts;
use crate::output::{fmt_f, Column, Sheet};
use crate::runner::{mean_of, merged_ops, paper_grid};

/// Runs the full (topology × seed) grid and renders a per-topology
/// summary of delivery, latency, and the merged per-tier operation
/// counters.
///
/// # Errors
///
/// Propagates I/O errors from writing `sweep_summary.csv`.
pub fn sweep(opts: &RunOpts) -> std::io::Result<String> {
    let (rows, manifests) = paper_grid("sweep", opts, |cell, runs| {
        let n = runs.len() as u64;
        let (edge, core) = merged_ops(&runs);
        [
            cell.knobs.into(),
            n.to_string().into(),
            fmt_f(mean_of(&runs, |r| r.delivery.client_ratio())).into(),
            fmt_f(mean_of(&runs, |r| r.delivery.attacker_ratio())).into(),
            fmt_f(mean_of(&runs, |r| r.mean_latency())).into(),
            (edge.sig_verifications / n).to_string().into(),
            (core.sig_verifications / n).to_string().into(),
            (edge.bf_resets / n).to_string().into(),
            (core.bf_resets / n).to_string().into(),
            ((edge.nacks + core.nacks) / n).to_string().into(),
        ]
    });
    let mut sheet = Sheet::new([
        Column::new("topology", "Topology"),
        Column::new("runs", "Runs"),
        Column::new("client_ratio", "Client ratio"),
        Column::new("attacker_ratio", "Attacker ratio"),
        Column::new("mean_latency_s", "Mean latency (s)"),
        Column::new("edge_verifications", "Edge verif."),
        Column::new("core_verifications", "Core verif."),
        Column::new("edge_bf_resets", "Edge BF resets"),
        Column::new("core_bf_resets", "Core BF resets"),
        Column::new("nacks", "NACKs"),
    ]);
    let topos = rows.len();
    sheet.rows(rows);
    let table = sheet.finish(&opts.out_dir, "sweep_summary", &manifests)?;
    Ok(format!(
        "Sweep — {topos} topologies × {seeds} seeds = {total} runs\n\n{table}",
        seeds = opts.seed_count(2),
        total = manifests.len(),
    ))
}
