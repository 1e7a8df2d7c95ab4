//! Beyond the paper's own plots: design-choice ablations and the
//! quantified baseline comparison that §1 motivates qualitatively.

use tactic::consumer::AttackerStrategy;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::plane::{sweep, Cell, PlaneId, PlaneReport};
use crate::runner::{mean_of, merged_ops, run_replicas, scenario_id, shaped_scenario};

/// Ablations of TACTIC's design choices (first selected topology):
///
/// * **flag F off** — content routers ignore the edge's validation flag
///   and re-run the full `F = 0` path: core verifications rise while
///   delivery stays intact (the point of the cooperation flag);
/// * **access path on** — with `SharedTag` attackers in the mix, the
///   access-path check stops tags replayed from other locations; with it
///   off (the paper's own simulation config) those attackers succeed;
/// * **content-NACK off** — invalid tags are dropped instead of answered
///   with content+NACK, so co-aggregated *valid* requesters wait out
///   timeouts: client latency suffers.
pub fn ablations(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let mut manifests = Vec::new();
    let mut report = format!("Ablations ({topo})\n\n");
    let mut table = TextTable::new(vec![
        "variant",
        "client ratio",
        "attacker ratio",
        "mean latency (s)",
        "core verifications",
        "edge verifications",
    ]);
    let mut csv = TextTable::new(vec![
        "variant",
        "client_ratio",
        "attacker_ratio",
        "mean_latency_s",
        "core_verifications",
        "edge_verifications",
    ]);

    let mut run_variant = |name: &str,
                           table: &mut TextTable,
                           csv: &mut TextTable,
                           mutate: &dyn Fn(&mut tactic::scenario::Scenario)|
     -> std::io::Result<()> {
        let mut scenario = shaped_scenario(topo, opts, 60);
        mutate(&mut scenario);
        let (reports, runs) = run_replicas(
            &format!("ablation '{name}'"),
            topo,
            scenario_id(name, &[]),
            &scenario,
            opts,
        );
        manifests.extend(runs);
        let n = reports.len() as u64;
        let (edge, core) = merged_ops(&reports);
        let row = vec![
            name.to_string(),
            fmt_f(mean_of(&reports, |r| r.delivery.client_ratio())),
            fmt_f(mean_of(&reports, |r| r.delivery.attacker_ratio())),
            fmt_f(mean_of(&reports, |r| r.mean_latency())),
            (core.sig_verifications / n).to_string(),
            (edge.sig_verifications / n).to_string(),
        ];
        table.row(row.clone());
        csv.row(row);
        Ok(())
    };

    run_variant("baseline (paper config)", &mut table, &mut csv, &|_| {})?;
    run_variant("flag F disabled", &mut table, &mut csv, &|s| {
        s.flag_f_enabled = false
    })?;
    run_variant("content-NACK disabled", &mut table, &mut csv, &|s| {
        s.content_nack_enabled = false;
    })?;
    run_variant(
        "shared-tag attackers, AP check OFF",
        &mut table,
        &mut csv,
        &|s| {
            s.attacker_mix = vec![AttackerStrategy::SharedTag];
        },
    )?;
    run_variant(
        "shared-tag attackers, AP check ON",
        &mut table,
        &mut csv,
        &|s| {
            s.attacker_mix = vec![AttackerStrategy::SharedTag];
            s.access_path_enabled = true;
        },
    )?;

    write_file(&opts.out_dir, "ablations.csv", &csv.to_csv())?;
    write_manifests(&opts.out_dir, "ablations", &manifests)?;
    report.push_str(&table.render());
    report.push_str("\nWritten to ablations.csv\n");
    Ok(report)
}

/// What one run contributes to its mechanism's row of the comparison.
struct Outcome {
    client_ratio: f64,
    attacker_deliveries: u64,
    wasted_mb: f64,
    provider_handled: u64,
    latency: f64,
    cache_hit_ratio: f64,
}

/// TACTIC vs the baseline mechanisms on the same topology/workload:
/// quantifies §1's motivation (wasted bandwidth under client-side AC;
/// provider load without cache reuse under provider-auth AC). One grid
/// like any other: every plane's `--seeds` runs are seeded from
/// (topology, `scenario_id("baselines", [plane])`, run index), fan out
/// over `--threads` and honour `--shards`.
pub fn baselines(opts: &RunOpts) -> std::io::Result<String> {
    let seeds = opts.seed_count(2);
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 60);
    let mut report = format!("Baseline comparison ({topo})\n\n");
    let mut table = TextTable::new(vec![
        "mechanism",
        "client ratio",
        "attacker deliveries",
        "wasted MB",
        "provider handled",
        "mean latency (s)",
        "cache hit ratio",
    ]);
    let mut csv = TextTable::new(vec![
        "mechanism",
        "client_ratio",
        "attacker_deliveries",
        "wasted_mb",
        "provider_handled",
        "mean_latency_s",
        "cache_hit_ratio",
    ]);

    let cells = PlaneId::ALL.map(|plane| Cell {
        plane,
        scenario_id: scenario_id("baselines", &[plane.index()]),
        knobs: (),
    });
    let runs = sweep(&cells, topo.index() as u32, opts, |cell, _seed| {
        let label = format!("baselines {}", cell.plane.name());
        (label, scenario.clone())
    });
    for (cell, runs) in cells.iter().zip(runs.chunks(seeds)) {
        let per_run: Vec<Outcome> = runs
            .iter()
            .map(|run| match &run.report {
                PlaneReport::Tactic(r) => Outcome {
                    client_ratio: r.delivery.client_ratio(),
                    attacker_deliveries: r.delivery.attacker_received,
                    wasted_mb: r.delivery.attacker_received as f64 * scenario.chunk_size as f64
                        / 1e6,
                    provider_handled: r.providers.chunks_served,
                    latency: r.mean_latency(),
                    cache_hit_ratio: 0.0,
                },
                PlaneReport::Baseline(r) => Outcome {
                    client_ratio: r.client_ratio(),
                    attacker_deliveries: r.attacker_received,
                    wasted_mb: r.attacker_bytes as f64 / 1e6,
                    provider_handled: r.provider_handled,
                    latency: r.mean_latency(),
                    cache_hit_ratio: r.cache_hit_ratio(),
                },
            })
            .collect();
        let n = per_run.len();
        let mean = |f: fn(&Outcome) -> f64| per_run.iter().map(f).sum::<f64>() / n as f64;
        let per_seed = |f: fn(&Outcome) -> u64| per_run.iter().map(f).sum::<u64>() / n as u64;
        let row = vec![
            match cell.plane {
                PlaneId::Tactic => "TACTIC".to_string(),
                PlaneId::Baseline(mechanism) => mechanism.to_string(),
            },
            fmt_f(mean(|o| o.client_ratio)),
            per_seed(|o| o.attacker_deliveries).to_string(),
            fmt_f(mean(|o| o.wasted_mb)),
            per_seed(|o| o.provider_handled).to_string(),
            fmt_f(mean(|o| o.latency)),
            match cell.plane {
                PlaneId::Tactic => "(with caching)".to_string(),
                PlaneId::Baseline(_) => fmt_f(mean(|o| o.cache_hit_ratio)),
            },
        ];
        table.row(row.clone());
        csv.row(row);
    }

    write_file(&opts.out_dir, "baseline_comparison.csv", &csv.to_csv())?;
    let manifests = runs.iter().map(|run| &run.manifest);
    write_manifests(&opts.out_dir, "baseline_comparison", manifests)?;
    report.push_str(&table.render());
    report.push_str("\nWritten to baseline_comparison.csv\n");
    Ok(report)
}
