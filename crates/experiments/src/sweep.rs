//! The cross-topology sweep: every (topology × seed) cell of the grid in
//! one parallel batch, merged into a per-topology summary table.
//!
//! This is the harness's end-to-end stress case for the deterministic
//! grid runner: all cells are fanned out over the worker pool at once
//! (rather than per-figure batches), and the resulting table and CSV are
//! byte-identical for any `--threads` value because every run's RNG
//! stream is derived from its grid coordinates alone and aggregation
//! happens in job order.

use tactic_topology::paper::PaperTopology;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{merged_ops, run_grid_with, scenario_id, shaped_scenario, GridJob};

/// Runs the full (topology × seed) grid in one parallel batch and
/// renders a per-topology summary of delivery, latency, and the merged
/// per-tier operation counters.
///
/// # Errors
///
/// Propagates I/O errors from writing `sweep_summary.csv`.
pub fn sweep(opts: &RunOpts) -> std::io::Result<String> {
    let seeds = opts.seed_count(2);
    let scenarios: Vec<(PaperTopology, _)> = opts
        .topologies
        .iter()
        .map(|&topo| (topo, shaped_scenario(topo, opts, 60)))
        .collect();
    let jobs: Vec<GridJob<'_>> = scenarios
        .iter()
        .flat_map(|(topo, scenario)| {
            (0..seeds).map(move |i| GridJob {
                label: format!("sweep {topo}"),
                topology: topo.index() as u32,
                scenario_id: scenario_id("sweep", &[]),
                run_idx: i as u64,
                scenario,
            })
        })
        .collect();
    let (reports, manifests) = run_grid_with(&jobs, opts);

    let mut report = format!(
        "Sweep — {topos} topologies × {seeds} seeds = {total} runs\n\n",
        topos = scenarios.len(),
        total = jobs.len(),
    );
    let mut table = TextTable::new(vec![
        "Topology",
        "Runs",
        "Client ratio",
        "Attacker ratio",
        "Mean latency (s)",
        "Edge verif.",
        "Core verif.",
        "Edge BF resets",
        "Core BF resets",
        "NACKs",
    ]);
    let mut csv = TextTable::new(vec![
        "topology",
        "runs",
        "client_ratio",
        "attacker_ratio",
        "mean_latency_s",
        "edge_verifications",
        "core_verifications",
        "edge_bf_resets",
        "core_bf_resets",
        "nacks",
    ]);
    for (t, (topo, _)) in scenarios.iter().enumerate() {
        let slice = &reports[t * seeds..(t + 1) * seeds];
        let n = slice.len() as u64;
        let (edge, core) = merged_ops(slice);
        let client = slice.iter().map(|r| r.delivery.client_ratio()).sum::<f64>() / n as f64;
        let attacker = slice
            .iter()
            .map(|r| r.delivery.attacker_ratio())
            .sum::<f64>()
            / n as f64;
        let latency = slice.iter().map(|r| r.mean_latency()).sum::<f64>() / n as f64;
        table.row(vec![
            topo.to_string(),
            n.to_string(),
            fmt_f(client),
            fmt_f(attacker),
            fmt_f(latency),
            (edge.sig_verifications / n).to_string(),
            (core.sig_verifications / n).to_string(),
            (edge.bf_resets / n).to_string(),
            (core.bf_resets / n).to_string(),
            ((edge.nacks + core.nacks) / n).to_string(),
        ]);
        csv.row(vec![
            topo.index().to_string(),
            n.to_string(),
            fmt_f(client),
            fmt_f(attacker),
            fmt_f(latency),
            (edge.sig_verifications / n).to_string(),
            (core.sig_verifications / n).to_string(),
            (edge.bf_resets / n).to_string(),
            (core.bf_resets / n).to_string(),
            ((edge.nacks + core.nacks) / n).to_string(),
        ]);
    }
    write_file(&opts.out_dir, "sweep_summary.csv", &csv.to_csv())?;
    write_manifests(&opts.out_dir, "sweep_summary", &manifests)?;
    report.push_str(&table.render());
    report.push_str("\nWritten to sweep_summary.csv\n");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(threads: usize, out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(3),
            seeds: Some(4),
            topologies: vec![PaperTopology::Topo1, PaperTopology::Topo2],
            out_dir: std::env::temp_dir().join(out),
            threads: Some(threads),
            verbosity: crate::opts::Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// The ISSUE's acceptance case: a 2-topology × 4-seed sweep must be
    /// byte-identical between `--threads 1` and `--threads N`.
    #[test]
    fn sweep_output_is_byte_identical_across_thread_counts() {
        let serial_opts = tiny_opts(1, "tactic-exp-test-sweep-t1");
        let parallel_opts = tiny_opts(4, "tactic-exp-test-sweep-t4");
        let serial = sweep(&serial_opts).unwrap();
        let parallel = sweep(&parallel_opts).unwrap();
        assert_eq!(
            serial, parallel,
            "rendered report must not depend on thread count"
        );
        let a = std::fs::read(serial_opts.out_dir.join("sweep_summary.csv")).unwrap();
        let b = std::fs::read(parallel_opts.out_dir.join("sweep_summary.csv")).unwrap();
        assert_eq!(a, b, "CSV bytes must not depend on thread count");
        assert!(serial.contains("Topo. 1"));
        assert!(serial.contains("Topo. 2"));
        assert!(serial.contains("8 runs"));
        let manifest =
            std::fs::read_to_string(serial_opts.out_dir.join("sweep_summary.manifest.jsonl"))
                .unwrap();
        assert_eq!(manifest.lines().count(), 8, "one manifest line per run");
    }
}
