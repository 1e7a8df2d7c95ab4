//! Transport-level observability: link utilisation, drop accounting, and
//! handover counts per simulation plane, measured by attaching a
//! [`NetCounters`] observer to the shared transport — numbers no plane
//! report exposes on its own.

use tactic_net::{MobilityConfig, NetCounters};
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;

use crate::opts::RunOpts;
use crate::output::{fmt_f, output, Column, Field, Sheet};
use crate::plane::{run_job, run_ordered, PlaneId};
use crate::runner::{scenario_id, shaped_scenario, GridJob, BASE_SEED};

/// Transport-plane utilisation and loss accounting, static and mobile:
/// one observed run per (regime × plane), all from [`BASE_SEED`] so every
/// plane moves the same clients over the same topology — which is why
/// this grid calls [`run_job`] itself: [`crate::plane::sweep`] derives
/// each cell's seed from its coordinates. The per-shard counters merge to
/// exactly the one-shard counters, so the tables are byte-identical for
/// any shard count.
pub fn transport(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 60);
    let mut mobile = scenario.clone();
    mobile.mobility = Some(MobilityConfig {
        mean_dwell: SimDuration::from_secs(5),
        mobile_fraction: 0.5,
    });
    let regimes = [("static", &scenario), ("mobile", &mobile)];
    let planes = PlaneId::ALL.len();
    let total = regimes.len() * planes;
    // Each run becomes its row as it finishes: its counters merged over
    // its shards.
    let rows = run_ordered(total, opts.thread_count(), |i| {
        let ((regime, scenario), plane) = (regimes[i / planes], PlaneId::ALL[i % planes]);
        let job = GridJob {
            label: format!("transport {regime} {}", plane.name()),
            topology: topo.index() as u32,
            scenario_id: scenario_id("transport", &[(i / planes) as u64, plane.index()]),
            run_idx: 0,
            scenario,
        };
        let run = run_job(
            plane,
            &job,
            BASE_SEED,
            (i, total),
            opts,
            |_| NetCounters::default(),
            |_| NoopProtocolObserver,
        );
        let mut c = NetCounters::default();
        for shard in &run.observers {
            c.merge(shard);
        }
        let busiest = c
            .busiest_links(1)
            .first()
            .map(|((from, to), load)| format!("{from}->{to} ({:.2} MB)", load.bytes as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        let row: [Field; 8] = [
            regime.into(),
            plane.name().into(),
            c.scheduled.to_string().into(),
            c.delivered.to_string().into(),
            c.dropped().to_string().into(),
            c.handovers.to_string().into(),
            fmt_f(c.bytes_on_wire as f64 / 1e6).into(),
            busiest.into(),
        ];
        (row, run.manifest)
    });
    let (rows, manifests): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let mut sheet = Sheet::new([
        Column::csv("mobility"),
        Column::new("plane", "plane"),
        Column::new("scheduled", "scheduled"),
        Column::new("delivered", "delivered"),
        Column::new("dropped", "dropped"),
        Column::new("handovers", "handovers"),
        Column::new("wire_mb", "wire MB"),
        Column::new("busiest_link", "busiest link"),
    ]);
    sheet.rows(rows);

    let mut report = format!("Transport observability ({topo})\n\n");
    report.push_str("Static clients:\n");
    report.push_str(&sheet.render_rows(0..planes));
    report.push_str("\nHalf the clients mobile (5 s mean dwell):\n");
    report.push_str(&sheet.render_rows(planes..total));
    report.push_str(
        "\nDrops are in-flight packets whose radio link a handover tore down\n\
         (the shared transport accounts for them instead of panicking).\n",
    );

    let csv = [("transport.csv", sheet.to_csv())];
    report.push('\n');
    report.push_str(&output(&opts.out_dir, "transport", csv, &manifests)?);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_report_covers_both_regimes_and_all_planes() {
        let dir = std::env::temp_dir().join("tactic-transport-test");
        let opts = RunOpts {
            duration_secs: Some(5),
            seeds: Some(1),
            out_dir: dir.clone(),
            ..RunOpts::default()
        };
        let report = transport(&opts).expect("runs");
        for plane in PlaneId::ALL.map(PlaneId::name) {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        assert!(report.contains("Half the clients mobile"));
        let csv = std::fs::read_to_string(dir.join("transport.csv")).expect("csv written");
        assert_eq!(csv.lines().count(), 1 + 2 * PlaneId::ALL.len());
    }
}
