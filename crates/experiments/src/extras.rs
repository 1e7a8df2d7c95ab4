//! Beyond the paper's own plots: design-choice ablations and the
//! quantified baseline comparison that §1 motivates qualitatively.

use tactic::consumer::AttackerStrategy;
use tactic::scenario::Scenario;

use crate::opts::RunOpts;
use crate::output::{fmt_f, Column, Sheet};
use crate::plane::{sweep, Cell, PlaneId, PlaneReport};
use crate::runner::{mean_of, merged_ops, scenario_id, shaped_scenario};

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
    type Variant = (&'static str, fn(&mut Scenario));
    let variants: [Variant; 5] = [
        ("baseline (paper config)", |_| {}),
        ("flag F disabled", |s| s.flag_f_enabled = false),
        ("content-NACK disabled", |s| s.content_nack_enabled = false),
        ("shared-tag attackers, AP check OFF", |s| {
            s.attacker_mix = vec![AttackerStrategy::SharedTag];
        }),
        ("shared-tag attackers, AP check ON", |s| {
            s.attacker_mix = vec![AttackerStrategy::SharedTag];
            s.access_path_enabled = true;
        }),
    ];
    let cells = variants.map(|variant| Cell::tactic(topo, scenario_id(variant.0, &[]), variant));
    let shape = |cell: &Cell<Variant>, _seed| {
        let (name, mutate) = cell.knobs;
        let mut scenario = shaped_scenario(topo, opts, 60);
        mutate(&mut scenario);
        (format!("ablation '{name}'"), scenario)
    };
    let (rows, manifests) = sweep(&cells, opts, shape, |cell, runs| {
        let n = runs.len() as u64;
        let (edge, core) = merged_ops(&runs);
        [
            cell.knobs.0.into(),
            fmt_f(mean_of(&runs, |r| r.delivery.client_ratio())).into(),
            fmt_f(mean_of(&runs, |r| r.delivery.attacker_ratio())).into(),
            fmt_f(mean_of(&runs, |r| r.mean_latency())).into(),
            (core.sig_verifications / n).to_string().into(),
            (edge.sig_verifications / n).to_string().into(),
        ]
    });
    let mut sheet = Sheet::new([
        Column::new("variant", "variant"),
        Column::new("client_ratio", "client ratio"),
        Column::new("attacker_ratio", "attacker ratio"),
        Column::new("mean_latency_s", "mean latency (s)"),
        Column::new("core_verifications", "core verifications"),
        Column::new("edge_verifications", "edge verifications"),
    ]);
    sheet.rows(rows);
    let table = sheet.finish(&opts.out_dir, "ablations", &manifests)?;
    Ok(format!("Ablations ({topo})\n\n{table}"))
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
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 60);
    let cells = PlaneId::ALL.map(|plane| Cell {
        plane,
        topology: topo.index() as u32,
        scenario_id: scenario_id("baselines", &[plane.index()]),
        knobs: (),
    });
    let shape = |cell: &Cell<()>, _seed| {
        let label = format!("baselines {}", cell.plane.name());
        (label, scenario.clone())
    };
    let (rows, manifests) = sweep(&cells, opts, shape, |cell, runs| {
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
        [
            match cell.plane {
                PlaneId::Tactic => "TACTIC".into(),
                PlaneId::Baseline(mechanism) => mechanism.to_string().into(),
            },
            fmt_f(mean(|o| o.client_ratio)).into(),
            per_seed(|o| o.attacker_deliveries).to_string().into(),
            fmt_f(mean(|o| o.wasted_mb)).into(),
            per_seed(|o| o.provider_handled).to_string().into(),
            fmt_f(mean(|o| o.latency)).into(),
            match cell.plane {
                PlaneId::Tactic => "(with caching)".into(),
                PlaneId::Baseline(_) => fmt_f(mean(|o| o.cache_hit_ratio)).into(),
            },
        ]
    });
    let mut sheet = Sheet::new([
        Column::new("mechanism", "mechanism"),
        Column::new("client_ratio", "client ratio"),
        Column::new("attacker_deliveries", "attacker deliveries"),
        Column::new("wasted_mb", "wasted MB"),
        Column::new("provider_handled", "provider handled"),
        Column::new("mean_latency_s", "mean latency (s)"),
        Column::new("cache_hit_ratio", "cache hit ratio"),
    ]);
    sheet.rows(rows);
    let table = sheet.finish(&opts.out_dir, "baseline_comparison", &manifests)?;
    Ok(format!("Baseline comparison ({topo})\n\n{table}"))
}
