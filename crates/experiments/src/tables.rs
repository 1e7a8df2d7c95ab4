//! The paper's tables: II (mechanism comparison), III (topologies),
//! IV (delivery ratios), V (BF resets vs size/FPP).

use tactic_baselines::comparison::render_table_ii;
use tactic_sim::stats::ratio;
use tactic_sim::time::SimDuration;
use tactic_topology::graph::Role;

use crate::opts::RunOpts;
use crate::output::{fmt_f, output, Column, Field, Sheet};
use crate::plane::{sweep, Cell};
use crate::runner::{merged_ops, paper_grid, scenario_id, shaped_scenario, sum_of, BASE_SEED};

/// Table II — qualitative comparison with the state of the art (encoded
/// from the paper; see `tactic_baselines::comparison`).
pub fn table2(opts: &RunOpts) -> std::io::Result<String> {
    let mut report = String::from("Table II — comparison with prior ICN access control\n\n");
    for line in render_table_ii() {
        report.push_str(&line);
        report.push('\n');
    }
    let file = ("table2_comparison.txt", report.clone());
    let trailer = output(&opts.out_dir, "table2", [file], [])?;
    Ok(format!("{report}\n{trailer}"))
}

/// Table III — the four evaluation topologies, with generated-graph
/// statistics alongside the paper's entity counts.
pub fn table3(opts: &RunOpts) -> std::io::Result<String> {
    let mut sheet = Sheet::new([
        Column::new("topology", "Topology"),
        Column::new("core_routers", "Core routers"),
        Column::new("edge_routers", "Edge routers"),
        Column::new("providers", "Providers"),
        Column::new("clients", "Clients"),
        Column::new("attackers", "Attackers"),
        Column::new("links", "Links (built)"),
        Column::new("max_degree", "Max degree"),
        Column::table("Connected"),
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
        sheet.row([
            topo.into(),
            spec.core_routers.to_string().into(),
            spec.edge_routers.to_string().into(),
            spec.providers.to_string().into(),
            spec.clients.to_string().into(),
            spec.attackers.to_string().into(),
            router_links.to_string().into(),
            max_degree.to_string().into(),
            built.graph.is_connected().to_string().into(),
        ]);
    }
    let table = sheet.finish(&opts.out_dir, "table3_topologies", [])?;
    Ok(format!("Table III — network topologies\n\n{table}"))
}

/// Table IV — clients' and attackers' successful delivery ratios.
///
/// Expected shape: clients ≈ 0.99x, attackers ≈ 0 with only BF
/// false-positive leakage (forged-signature attackers).
pub fn table4(opts: &RunOpts) -> std::io::Result<String> {
    let (rows, manifests) = paper_grid("table4", opts, |cell, runs| {
        let c_req = sum_of(&runs, |r| r.delivery.client_requested);
        let c_rcv = sum_of(&runs, |r| r.delivery.client_received);
        let a_req = sum_of(&runs, |r| r.delivery.attacker_requested);
        let a_rcv = sum_of(&runs, |r| r.delivery.attacker_received);
        [
            cell.knobs.into(),
            c_req.to_string().into(),
            c_rcv.to_string().into(),
            fmt_f(ratio(c_rcv, c_req)).into(),
            a_req.to_string().into(),
            a_rcv.to_string().into(),
            fmt_f(ratio(a_rcv, a_req)).into(),
        ]
    });
    let mut sheet = Sheet::new([
        Column::new("topology", "Topology"),
        Column::new("client_requested", "Client req."),
        Column::new("client_received", "Client recv."),
        Column::new("client_ratio", "Client ratio"),
        Column::new("attacker_requested", "Attacker req."),
        Column::new("attacker_received", "Attacker recv."),
        Column::new("attacker_ratio", "Attacker ratio"),
    ]);
    sheet.rows(rows);
    let table = sheet.finish(&opts.out_dir, "table4_delivery", &manifests)?;
    Ok(format!("Table IV — successful delivery ratios\n\n{table}"))
}

/// Table V — BF reset counts for two filter sizes × two threshold FPPs,
/// and the improvement from the 10× larger filter.
///
/// Reduced scale uses 50/500-tag filters and a 2 s tag expiry so resets
/// occur within the shortened horizon; `--paper` uses the paper's
/// 500/5000 at 10 s expiry.
pub fn table5(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let (sizes, te) = if opts.paper {
        ([500usize, 5_000], 10u64)
    } else {
        ([50usize, 500], 2u64)
    };
    let fpps = [1e-4f64, 1e-2];
    // Knobs: (threshold FPP, BF items) — per FPP, the small filter's cell
    // then the large one's.
    let cells: Vec<_> = fpps
        .iter()
        .flat_map(|&fpp| sizes.map(|size| (fpp, size)))
        .map(|(fpp, size)| {
            let id = scenario_id("table5", &[size as u64, fpp.to_bits()]);
            Cell::tactic(topo, id, (fpp, size))
        })
        .collect();
    let shape = |cell: &Cell<(f64, usize)>, _seed| {
        let (fpp, size) = cell.knobs;
        let mut scenario = shaped_scenario(topo, opts, 120);
        scenario.bf_capacity = size;
        scenario.bf_max_fpp = fpp;
        scenario.tag_validity = SimDuration::from_secs(te);
        (format!("table5 {topo} bf{size} fpp{fpp:.0e}"), scenario)
    };
    // Per cell: mean (edge, core) resets per seed.
    let (resets, manifests) = sweep(&cells, opts, shape, |_, runs| {
        let (edge, core) = merged_ops(&runs);
        let n = runs.len() as u64;
        (edge.bf_resets / n, core.bf_resets / n)
    });
    let mut sheet = Sheet::new([
        Column::new("tier", "tier"),
        Column::new("fpp", "FPP"),
        Column::new("resets_small", format!("resets @{}", sizes[0])),
        Column::new("resets_large", format!("resets @{}", sizes[1])),
        Column::new("improvement_pct", "improvement"),
    ]);
    for tier in ["edge", "core"] {
        for (&fpp, pair) in fpps.iter().zip(resets.chunks(sizes.len())) {
            let of_tier = |(edge, core): (u64, u64)| if tier == "edge" { edge } else { core };
            let (small, large) = (of_tier(pair[0]), of_tier(pair[1]));
            sheet.row([
                tier.into(),
                Field::fpp(fpp),
                small.to_string().into(),
                large.to_string().into(),
                reset_improvement(small, large).into(),
            ]);
        }
    }
    let table = sheet.finish(&opts.out_dir, "table5_bf_sizing", &manifests)?;
    Ok(format!(
        "Table V — BF resets for sizes {}/{} items at {te} s tag expiry ({topo})\n\n{table}",
        sizes[0], sizes[1]
    ))
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
