//! Graceful-degradation experiments: loss rate × failure intensity sweeps
//! over all four planes, with and without client retransmission.
//!
//! Each cell runs the same Zipf-window workload through the shared
//! transport under a [`FaultPlan`]: a uniform per-hop loss probability
//! plus (optionally) a "heavy" schedule that crashes a core router and
//! cuts a router-router link mid-run, both recovering later. The output
//! curves show how each mechanism's satisfaction ratio degrades, what
//! retransmission buys back, and what the faults cost in PIT occupancy
//! and per-reason drops.
//!
//! Restricted to the paper topologies so the fault schedule's node ids
//! mean the same thing in the TACTIC and baseline planes (both build the
//! topology from the same seed).

use tactic::scenario::{FaultEvent, FaultKind, FaultPlan, LossModel, RetransmitPolicy, Scenario};
use tactic_sim::stats::ratio;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::RunManifest;
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::Topology;

use crate::opts::RunOpts;
use crate::output::{fmt_f, Column, Sheet};
use crate::plane::{cell_totals, sweep, Cell, PlaneId, RunSummary};
use crate::runner::{scenario_id, shaped_scenario};

/// The loss rates swept by the `resilience` binary.
pub const LOSS_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// One aggregated grid cell of the degradation sweep.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Plane name (`tactic` or a baseline mechanism).
    pub plane: &'static str,
    /// Per-hop uniform loss probability.
    pub loss: f64,
    /// Failure-schedule intensity (`none` or `heavy`).
    pub failures: &'static str,
    /// Whether clients retransmitted expired Interests.
    pub retransmit: bool,
    /// The cell's runs folded over seeds (see [`RunSummary::merge`]).
    pub total: RunSummary,
}

impl CellRow {
    /// Clients' satisfaction ratio (received / requested).
    pub fn satisfaction(&self) -> f64 {
        ratio(self.total.received, self.total.requested)
    }

    /// Retransmission overhead: extra Interests per requested chunk.
    pub fn retransmit_overhead(&self) -> f64 {
        if self.total.requested == 0 {
            0.0
        } else {
            self.total.retransmitted as f64 / self.total.requested as f64
        }
    }

    /// Drops for any reason the table has no column of its own for —
    /// by subtraction, so a new `DropReason` cannot fall out of the CSV.
    pub fn drops_other(&self) -> u64 {
        let drops = &self.total.drops;
        drops.total() - drops.lossy - drops.link_down - drops.node_down
    }
}

/// The "heavy" failure schedule for a built topology: crash the first
/// core router for the middle quarter of the run and cut one
/// router-router link (not touching the victim) overlapping it. Purely a
/// function of the topology and duration, so runs stay deterministic.
fn heavy_schedule(topo: &Topology, duration: SimDuration) -> Vec<FaultEvent> {
    let at = |frac: f64| SimTime::from_secs_f64(duration.as_secs_f64() * frac);
    let mut schedule = Vec::new();
    let Some(&victim) = topo.core_routers.first() else {
        return schedule;
    };
    schedule.push(FaultEvent {
        at: at(0.25),
        kind: FaultKind::NodeDown { node: victim },
    });
    schedule.push(FaultEvent {
        at: at(0.5),
        kind: FaultKind::NodeUp { node: victim },
    });
    if let Some((a, b)) = cuttable_link(topo, victim) {
        schedule.push(FaultEvent {
            at: at(0.4),
            kind: FaultKind::LinkDown { a, b },
        });
        schedule.push(FaultEvent {
            at: at(0.7),
            kind: FaultKind::LinkUp { a, b },
        });
    }
    schedule
}

/// The first router-router link neither of whose endpoints is `victim`,
/// in deterministic (node order, adjacency order) scan order.
fn cuttable_link(topo: &Topology, victim: NodeId) -> Option<(NodeId, NodeId)> {
    let is_router = |n: NodeId| matches!(topo.graph.role(n), Role::CoreRouter | Role::EdgeRouter);
    for a in topo.graph.nodes() {
        if !is_router(a) || a == victim {
            continue;
        }
        for (b, _) in topo.graph.incident(a) {
            if a < b && is_router(b) && b != victim {
                return Some((a, b));
            }
        }
    }
    None
}

/// The fault plan for one run: uniform loss at `loss` plus the heavy
/// schedule when requested. The schedule derives from the topology this
/// seed builds, which is the same one both planes simulate.
fn cell_plan(
    topo: PaperTopology,
    seed: u64,
    loss: f64,
    heavy: bool,
    duration: SimDuration,
) -> FaultPlan {
    let loss_model = if loss > 0.0 {
        LossModel::Uniform { p: loss }
    } else {
        LossModel::None
    };
    let schedule = if heavy {
        heavy_schedule(&topo.build(seed), duration)
    } else {
        Vec::new()
    };
    FaultPlan {
        loss: loss_model,
        schedule,
    }
}

/// Runs the full (plane × loss × failures × retransmit × seed) sweep
/// fanned out over `--threads` workers and aggregates each cell over its
/// seeds **in job order**, so rows and manifests are byte-identical for
/// any thread count.
pub fn sweep_cells(
    topo: PaperTopology,
    base: &Scenario,
    losses: &[f64],
    failure_levels: &[bool],
    retransmits: &[bool],
    opts: &RunOpts,
) -> (Vec<CellRow>, Vec<RunManifest>) {
    let on_off = |on: bool| if on { "on" } else { "off" };
    let level = |heavy: bool| if heavy { "heavy" } else { "none" };
    let mut cells = Vec::new();
    for plane in PlaneId::ALL {
        for &loss in losses {
            for &heavy in failure_levels {
                for &retransmit in retransmits {
                    let knobs = [
                        plane.index(),
                        loss.to_bits(),
                        heavy as u64,
                        retransmit as u64,
                    ];
                    cells.push(Cell {
                        plane,
                        topology: topo.index() as u32,
                        scenario_id: scenario_id("resilience", &knobs),
                        knobs: (loss, heavy, retransmit),
                    });
                }
            }
        }
    }
    let runs = sweep(&cells, opts, |cell, seed| {
        let (loss, heavy, retransmit) = cell.knobs;
        let mut scenario = base.clone();
        // The failure schedule names nodes of the topology this
        // run's seed builds.
        scenario.faults = cell_plan(topo, seed, loss, heavy, base.duration);
        scenario.retransmit = retransmit.then(RetransmitPolicy::default);
        let label = format!(
            "resilience {} loss={loss} failures={} retransmit={}",
            cell.plane.name(),
            level(heavy),
            on_off(retransmit),
        );
        (label, scenario)
    });
    let rows = cells
        .iter()
        .zip(cell_totals(&runs))
        .map(|(cell, total)| CellRow {
            plane: cell.plane.name(),
            loss: cell.knobs.0,
            failures: level(cell.knobs.1),
            retransmit: cell.knobs.2,
            total,
        })
        .collect();
    let manifests = runs.into_iter().flatten().map(|run| run.manifest);
    (rows, manifests.collect())
}

/// The sweep rows as the experiment's sheet: the full ledger in the CSV,
/// the columns that carry the degradation story in the table.
pub fn sheet(rows: &[CellRow]) -> Sheet {
    let mut sheet = Sheet::new([
        Column::new("plane", "plane"),
        Column::new("loss", "loss"),
        Column::new("failures", "failures"),
        Column::new("retransmit", "retransmit"),
        Column::csv("requested"),
        Column::csv("received"),
        Column::new("satisfaction", "satisfaction"),
        Column::table("retx/req"),
        Column::csv("retransmitted"),
        Column::new("gave_up", "gave up"),
        Column::csv("timeouts"),
        Column::csv("drops_lossy"),
        Column::csv("drops_link_down"),
        Column::csv("drops_node_down"),
        Column::csv("drops_other"),
        Column::new("peak_pit_records", "peak PIT"),
    ]);
    for r in rows {
        let t = &r.total;
        sheet.row([
            r.plane.into(),
            fmt_f(r.loss).into(),
            r.failures.into(),
            if r.retransmit { "on" } else { "off" }.into(),
            t.requested.to_string().into(),
            t.received.to_string().into(),
            fmt_f(r.satisfaction()).into(),
            fmt_f(r.retransmit_overhead()).into(),
            t.retransmitted.to_string().into(),
            t.gave_up.to_string().into(),
            t.timeouts.to_string().into(),
            t.drops.lossy.to_string().into(),
            t.drops.link_down.to_string().into(),
            t.drops.node_down.to_string().into(),
            r.drops_other().to_string().into(),
            t.peak_pit_records.to_string().into(),
        ]);
    }
    sheet
}

/// The graceful-degradation sweep: loss × failure intensity × retransmit
/// across all four planes, written as `resilience.csv` (+ manifests).
pub fn resilience(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 20);
    let seeds = opts.seed_count(2);
    let (rows, manifests) = sweep_cells(
        topo,
        &scenario,
        &LOSS_RATES,
        &[false, true],
        &[false, true],
        opts,
    );
    let table = sheet(&rows).finish(&opts.out_dir, "resilience", &manifests)?;
    Ok(format!(
        "Resilience under faults ({topo}, {seeds} seeds)\n\n{table}\n\
         Loss is the per-hop uniform drop probability; `heavy` failures\n\
         crash a core router for the middle quarter of the run and cut one\n\
         router-router link overlapping it (both recover). Retransmission\n\
         is capped exponential backoff at the clients; the paper's own\n\
         clients never retry, so `off` rows are its model under loss.\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Verbosity;
    use tactic_net::DropTotals;

    fn tiny_opts(out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            seeds: Some(1),
            out_dir: std::env::temp_dir().join(out),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    fn cell<'a>(
        rows: &'a [CellRow],
        plane: &str,
        loss: f64,
        failures: &str,
        retransmit: bool,
    ) -> &'a CellRow {
        rows.iter()
            .find(|r| {
                r.plane == plane
                    && r.loss == loss
                    && r.failures == failures
                    && r.retransmit == retransmit
            })
            .expect("cell present")
    }

    /// The ISSUE's acceptance cases: satisfaction degrades monotonically
    /// with loss, retransmission strictly improves it at the same loss,
    /// and the fault machinery visibly fired (lossy drops, PIT pressure).
    #[test]
    fn degradation_curves_behave() {
        let opts = tiny_opts("tactic-resilience-curves");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let (rows, manifests) = sweep_cells(
            topo,
            &scenario,
            &LOSS_RATES,
            &[false],
            &[false, true],
            &opts,
        );
        assert_eq!(rows.len(), PlaneId::ALL.len() * LOSS_RATES.len() * 2);
        assert_eq!(manifests.len(), rows.len());
        for plane in PlaneId::ALL.map(PlaneId::name) {
            let clean = cell(&rows, plane, 0.0, "none", false);
            let light = cell(&rows, plane, 0.05, "none", false);
            let harsh = cell(&rows, plane, 0.2, "none", false);
            assert!(
                clean.total.drops.lossy == 0,
                "{plane}: lossless run dropped"
            );
            assert!(
                harsh.total.drops.lossy > 0,
                "{plane}: loss model never fired"
            );
            assert!(
                clean.satisfaction() >= light.satisfaction()
                    && light.satisfaction() >= harsh.satisfaction(),
                "{plane}: satisfaction must degrade monotonically \
                 ({} >= {} >= {} violated)",
                clean.satisfaction(),
                light.satisfaction(),
                harsh.satisfaction(),
            );
            let retried = cell(&rows, plane, 0.2, "none", true);
            assert!(
                retried.total.retransmitted > 0,
                "{plane}: no retransmissions"
            );
            assert!(
                retried.satisfaction() > harsh.satisfaction(),
                "{plane}: retransmission must strictly improve satisfaction \
                 ({} vs {})",
                retried.satisfaction(),
                harsh.satisfaction(),
            );
        }
    }

    /// `drops_other` is everything without a column of its own — the
    /// defense reasons included, which the original two-term sum dropped.
    #[test]
    fn drops_other_covers_every_reason_without_a_column() {
        let row = CellRow {
            plane: "tactic",
            loss: 0.05,
            failures: "none",
            retransmit: false,
            total: RunSummary {
                drops: DropTotals {
                    dangling_face: 1,
                    reverse_face: 2,
                    lossy: 30,
                    link_down: 20,
                    node_down: 10,
                    pit_full: 4,
                    ..DropTotals::default()
                },
                peak_pit_records: 3,
                ..RunSummary::default()
            },
        };
        assert_eq!(row.drops_other(), 7);
        let csv = sheet(&[row]).to_csv();
        assert!(csv.ends_with(",30,20,10,7,3\n"), "{csv}");
    }

    /// [`sweep`] is shared with the `attacks` grid: this is the one test
    /// of its thread-count invariance, on the harshest cell there is.
    #[test]
    fn sweep_is_byte_identical_across_thread_counts() {
        let opts = tiny_opts("tactic-resilience-threads");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 4);
        let run = |threads| {
            let opts = RunOpts {
                seeds: Some(2),
                threads: Some(threads),
                ..opts.clone()
            };
            sweep_cells(topo, &scenario, &[0.2], &[true], &[true], &opts)
        };
        let (serial, serial_m) = run(1);
        let (parallel, parallel_m) = run(8);
        assert_eq!(sheet(&serial).to_csv(), sheet(&parallel).to_csv());
        // Manifests too, minus the wall-clock field.
        let strip = |ms: &[RunManifest]| {
            ms.iter()
                .map(|m| {
                    let mut m = m.clone();
                    m.wall_ms = 0;
                    m.to_json_line()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&serial_m), strip(&parallel_m));
    }

    #[test]
    fn resilience_writes_parseable_outputs() {
        let opts = tiny_opts("tactic-resilience-outputs");
        let report = resilience(&opts).expect("runs");
        for plane in PlaneId::ALL.map(PlaneId::name) {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("resilience.csv")).expect("csv");
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("plane,loss,failures,retransmit,"));
        let satisfaction = header.split(',').position(|h| h == "satisfaction");
        let columns = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), columns, "ragged row: {line}");
            let s: f64 = cells[satisfaction.expect("column")]
                .parse()
                .expect("a number");
            assert!(
                (0.0..=1.0).contains(&s),
                "satisfaction out of range: {line}"
            );
            rows += 1;
        }
        assert_eq!(rows, PlaneId::ALL.len() * LOSS_RATES.len() * 2 * 2);
        let manifest = std::fs::read_to_string(opts.out_dir.join("resilience.manifest.jsonl"))
            .expect("manifest");
        assert_eq!(manifest.lines().count(), rows, "one seed per cell here");
        for key in RunManifest::required_keys() {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
    }
}
