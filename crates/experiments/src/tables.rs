//! The paper's tables: II (mechanism comparison), III (topologies),
//! IV (delivery ratios), V (BF resets vs size/FPP).

use tactic_baselines::comparison::render_table_ii;
use tactic_sim::time::SimDuration;
use tactic_topology::graph::Role;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{merged_ops, run_replicas, scenario_id, shaped_scenario, sum_of, BASE_SEED};

/// Table II — qualitative comparison with the state of the art (encoded
/// from the paper; see `tactic_baselines::comparison`).
pub fn table2(opts: &RunOpts) -> std::io::Result<String> {
    let mut report = String::from("Table II — comparison with prior ICN access control\n\n");
    for line in render_table_ii() {
        report.push_str(&line);
        report.push('\n');
    }
    write_file(&opts.out_dir, "table2_comparison.txt", &report)?;
    Ok(report)
}

/// Table III — the four evaluation topologies, with generated-graph
/// statistics alongside the paper's entity counts.
pub fn table3(opts: &RunOpts) -> std::io::Result<String> {
    let mut report = String::from("Table III — network topologies\n\n");
    let mut table = TextTable::new(vec![
        "Topology",
        "Core routers",
        "Edge routers",
        "Providers",
        "Clients",
        "Attackers",
        "Links (built)",
        "Max degree",
        "Connected",
    ]);
    let mut csv = TextTable::new(vec![
        "topology",
        "core_routers",
        "edge_routers",
        "providers",
        "clients",
        "attackers",
        "links",
        "max_degree",
    ]);
    for &topo in &opts.topologies {
        let spec = topo.spec();
        let built = topo.build(BASE_SEED);
        let max_degree = built
            .graph
            .nodes()
            .map(|n| built.graph.degree(n))
            .max()
            .unwrap_or(0);
        // Count only the router-to-router fabric for the degree stat story.
        let router_links = (0..built.graph.link_count())
            .filter(|&i| {
                let l = built
                    .graph
                    .link(tactic_topology::graph::LinkId::from_index(i));
                matches!(built.graph.role(l.a), Role::CoreRouter | Role::EdgeRouter)
                    && matches!(built.graph.role(l.b), Role::CoreRouter | Role::EdgeRouter)
            })
            .count();
        table.row(vec![
            topo.to_string(),
            spec.core_routers.to_string(),
            spec.edge_routers.to_string(),
            spec.providers.to_string(),
            spec.clients.to_string(),
            spec.attackers.to_string(),
            router_links.to_string(),
            max_degree.to_string(),
            built.graph.is_connected().to_string(),
        ]);
        csv.row(vec![
            topo.index().to_string(),
            spec.core_routers.to_string(),
            spec.edge_routers.to_string(),
            spec.providers.to_string(),
            spec.clients.to_string(),
            spec.attackers.to_string(),
            router_links.to_string(),
            max_degree.to_string(),
        ]);
    }
    report.push_str(&table.render());
    write_file(&opts.out_dir, "table3_topologies.csv", &csv.to_csv())?;
    report.push_str("\nWritten to table3_topologies.csv\n");
    Ok(report)
}

/// Table IV — clients' and attackers' successful delivery ratios.
///
/// Expected shape: clients ≈ 0.99x, attackers ≈ 0 with only BF
/// false-positive leakage (forged-signature attackers).
pub fn table4(opts: &RunOpts) -> std::io::Result<String> {
    let mut manifests = Vec::new();
    let mut report = String::from("Table IV — successful delivery ratios\n\n");
    let mut table = TextTable::new(vec![
        "Topology",
        "Client req.",
        "Client recv.",
        "Client ratio",
        "Attacker req.",
        "Attacker recv.",
        "Attacker ratio",
    ]);
    let mut csv = TextTable::new(vec![
        "topology",
        "client_requested",
        "client_received",
        "client_ratio",
        "attacker_requested",
        "attacker_received",
        "attacker_ratio",
    ]);
    for &topo in &opts.topologies {
        let scenario = shaped_scenario(topo, opts, 60);
        let (reports, runs) = run_replicas(
            &format!("table4 {topo}"),
            topo,
            scenario_id("table4", &[]),
            &scenario,
            opts,
        );
        manifests.extend(runs);
        let c_req = sum_of(&reports, |r| r.delivery.client_requested);
        let c_rcv = sum_of(&reports, |r| r.delivery.client_received);
        let a_req = sum_of(&reports, |r| r.delivery.attacker_requested);
        let a_rcv = sum_of(&reports, |r| r.delivery.attacker_received);
        let c_ratio = if c_req == 0 {
            0.0
        } else {
            c_rcv as f64 / c_req as f64
        };
        let a_ratio = if a_req == 0 {
            0.0
        } else {
            a_rcv as f64 / a_req as f64
        };
        table.row(vec![
            topo.to_string(),
            c_req.to_string(),
            c_rcv.to_string(),
            fmt_f(c_ratio),
            a_req.to_string(),
            a_rcv.to_string(),
            fmt_f(a_ratio),
        ]);
        csv.row(vec![
            topo.index().to_string(),
            c_req.to_string(),
            c_rcv.to_string(),
            fmt_f(c_ratio),
            a_req.to_string(),
            a_rcv.to_string(),
            fmt_f(a_ratio),
        ]);
    }
    write_file(&opts.out_dir, "table4_delivery.csv", &csv.to_csv())?;
    write_manifests(&opts.out_dir, "table4_delivery", &manifests)?;
    report.push_str(&table.render());
    report.push_str("\nWritten to table4_delivery.csv\n");
    Ok(report)
}

/// Table V — BF reset counts for two filter sizes × two threshold FPPs,
/// and the improvement from the 10× larger filter.
///
/// Reduced scale uses 50/500-tag filters and a 2 s tag expiry so resets
/// occur within the shortened horizon; `--paper` uses the paper's
/// 500/5000 at 10 s expiry.
pub fn table5(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let mut manifests = Vec::new();
    let (sizes, te) = if opts.paper {
        ([500usize, 5_000], 10u64)
    } else {
        ([50usize, 500], 2u64)
    };
    let fpps = [1e-4, 1e-2];
    let mut report = format!(
        "Table V — BF resets for sizes {}/{} items at {te} s tag expiry ({topo})\n\n",
        sizes[0], sizes[1]
    );
    let mut table = TextTable::new(vec![
        "tier",
        "FPP",
        &format!("resets @{}", sizes[0]),
        &format!("resets @{}", sizes[1]),
        "improvement",
    ]);
    let mut csv = TextTable::new(vec![
        "tier",
        "fpp",
        "resets_small",
        "resets_large",
        "improvement_pct",
    ]);
    let mut measured: Vec<(f64, u64, u64, u64, u64)> = Vec::new(); // fpp, e_small, e_large, c_small, c_large
    for &fpp in &fpps {
        let mut per_size = Vec::new();
        for &size in &sizes {
            let mut scenario = shaped_scenario(topo, opts, 120);
            scenario.bf_capacity = size;
            scenario.bf_max_fpp = fpp;
            scenario.tag_validity = SimDuration::from_secs(te);
            let (reports, runs) = run_replicas(
                &format!("table5 {topo} bf{size} fpp{fpp:.0e}"),
                topo,
                scenario_id("table5", &[size as u64, fpp.to_bits()]),
                &scenario,
                opts,
            );
            manifests.extend(runs);
            let n = reports.len() as u64;
            let (edge, core) = merged_ops(&reports);
            per_size.push((edge.bf_resets / n, core.bf_resets / n));
        }
        measured.push((
            fpp,
            per_size[0].0,
            per_size[1].0,
            per_size[0].1,
            per_size[1].1,
        ));
    }
    for (tier, idx) in [("edge", 0usize), ("core", 1usize)] {
        for &(fpp, es, el, cs, cl) in &measured {
            let (small, large) = if idx == 0 { (es, el) } else { (cs, cl) };
            let improvement = reset_improvement(small, large);
            table.row(vec![
                tier.to_string(),
                format!("{fpp:.0e}"),
                small.to_string(),
                large.to_string(),
                improvement.clone(),
            ]);
            csv.row(vec![
                tier.to_string(),
                format!("{fpp:e}"),
                small.to_string(),
                large.to_string(),
                improvement,
            ]);
        }
    }
    write_file(&opts.out_dir, "table5_bf_sizing.csv", &csv.to_csv())?;
    write_manifests(&opts.out_dir, "table5_bf_sizing", &manifests)?;
    report.push_str(&table.render());
    report.push_str("\nWritten to table5_bf_sizing.csv\n");
    Ok(report)
}

/// Table V's last column: by how much the larger filter cut the reset
/// count, relative to the smaller one's. Each size cell draws its own
/// seeds, so at low counts the larger filter can reset *more* often —
/// the difference is taken in `f64` and may be negative.
fn reset_improvement(small: u64, large: u64) -> String {
    if small == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.2}%",
            100.0 * (small as f64 - large as f64) / small as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_improvement_may_be_negative() {
        assert_eq!(reset_improvement(1, 2), "-100.00%");
        assert_eq!(reset_improvement(0, 3), "n/a");
        assert_eq!(reset_improvement(4, 1), "75.00%");
    }
}
