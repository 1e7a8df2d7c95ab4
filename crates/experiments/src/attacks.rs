//! Adversarial-workload experiments: attack class × intensity × defense
//! posture across all four planes, producing graceful-degradation curves
//! (results in EXPERIMENTS.md).
//!
//! Each cell drives the same Zipf-window client workload while the
//! attacker fleet executes one [`AttackClass`] at a fixed per-attacker
//! intensity — Interest flooding with valid credentials, tag-forgery
//! storms, Bloom-filter pollution, expired-tag replay, or mobility churn
//! — with the edge defenses (per-client token bucket, per-face fairness
//! cap, bounded PIT) either all off or all armed. The output curves show
//! what each attack costs every mechanism in client goodput, latency,
//! and authentication work, and what the defenses buy back.
//!
//! The run seed depends on the plane alone, not on the attack point or
//! the posture, so every cell replays the identical client workload and a
//! curve measures only the adversarial knobs; [`armed_defense`] is the
//! armed posture and its sizing. `tests/attacks.rs`
//! holds defenses-on goodput at or above defenses-off under every class
//! and intensity on every plane, and byte-identity across shard counts
//! and concurrent workers.
//!
//! Restricted to the paper topologies so attacker placement means the
//! same thing in the TACTIC and baseline planes (both build the topology
//! from the same seed).

use tactic::scenario::{AttackClass, AttackPlan, DefenseConfig, RateLimit, Scenario};
use tactic_sim::stats::ratio;
use tactic_telemetry::RunManifest;
use tactic_topology::paper::PaperTopology;

use crate::opts::RunOpts;
use crate::output::{fmt_f, Column, Sheet};
use crate::plane::{sweep, Cell, PlaneId, RunSummary};
use crate::runner::{scenario_id, shaped_scenario};

/// Per-attacker intensities (Interests per second) swept for every
/// attack class except churn, which re-attaches on its own clock and
/// only needs one active point.
pub const INTENSITIES: [u32; 2] = [500, 2000];

/// The armed defensive posture every `defense=on` cell uses.
///
/// The token bucket is sized above what a legitimate windowed client
/// ever sustains on the paper topologies (window 5 over millisecond
/// radio RTTs peaks near 150 Interests/s when the edge cache is hot)
/// but well below the swept attack intensities, so it clamps the fleet
/// without touching clients — measured on Topo1, the unattacked armed
/// run is packet-for-packet identical to the undefended one. The burst
/// allowance is kept small so the bucket engages within the first
/// second of a flood rather than lending the fleet seconds of credit;
/// the face cap and PIT bound are second-line caps that bind only
/// under concentrated pressure.
pub fn armed_defense() -> DefenseConfig {
    DefenseConfig {
        rate_limit: Some(RateLimit {
            per_sec: 150,
            burst: 50,
        }),
        face_cap: Some(400),
        pit_capacity: Some(512),
    }
}

/// The swept attack points: the no-attack baseline, every traffic class
/// at each intensity, and churn once.
pub fn attack_points() -> Vec<AttackPlan> {
    let mut points = vec![AttackPlan::none()];
    for class in AttackClass::ALL {
        if class == AttackClass::Churn {
            points.push(AttackPlan {
                class: Some(class),
                intensity: INTENSITIES[0],
            });
        } else {
            for &intensity in &INTENSITIES {
                points.push(AttackPlan {
                    class: Some(class),
                    intensity,
                });
            }
        }
    }
    points
}

/// One aggregated grid cell of the degradation sweep.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Plane name (`tactic` or a baseline mechanism).
    pub plane: &'static str,
    /// The attack point.
    pub plan: AttackPlan,
    /// Whether the edge defenses were armed.
    pub defended: bool,
    /// The cell's runs folded over seeds (see [`RunSummary::merge`];
    /// `latency_mean` is the mean of the per-run means): client traffic
    /// only — the fleet's open-loop traffic is excluded.
    pub total: RunSummary,
}

impl CellRow {
    /// Clients' goodput ratio (received / requested).
    pub fn goodput(&self) -> f64 {
        ratio(self.total.received, self.total.requested)
    }

    fn defense(&self) -> &'static str {
        if self.defended {
            "on"
        } else {
            "off"
        }
    }
}

/// Runs the full (plane × attack point × defense × seed) sweep fanned
/// out over `--threads` workers and folds each cell over its seeds **in
/// run order** as the cell finishes, so rows and manifests are
/// byte-identical for any thread count.
pub fn sweep_cells(
    topo: PaperTopology,
    base: &Scenario,
    points: &[AttackPlan],
    defenses: &[bool],
    opts: &RunOpts,
) -> (Vec<CellRow>, Vec<RunManifest>) {
    let mut cells = Vec::new();
    for plane in PlaneId::ALL {
        for &plan in points {
            for &defended in defenses {
                cells.push(Cell {
                    plane,
                    topology: topo.index() as u32,
                    // The seed depends on the plane alone, NOT on the attack
                    // point or defense posture: every cell in a plane's grid
                    // replays the identical client workload (attack drivers
                    // draw from their own forked streams), so the on/off and
                    // attacked/unattacked comparisons are same-seed and the
                    // degradation curve measures only the adversarial knobs.
                    scenario_id: scenario_id("attacks", &[plane.index()]),
                    knobs: (plan, defended),
                });
            }
        }
    }
    let shape = |cell: &Cell<(AttackPlan, bool)>, _seed| {
        let (plan, defended) = cell.knobs;
        let mut scenario = base.clone();
        scenario.attack = plan;
        scenario.defense = if defended {
            armed_defense()
        } else {
            DefenseConfig::none()
        };
        let label = format!(
            "attacks {} attack={} defense={}",
            cell.plane.name(),
            plan.summary(),
            scenario.defense.summary(),
        );
        (label, scenario)
    };
    sweep(&cells, opts, shape, |cell, runs| CellRow {
        plane: cell.plane.name(),
        plan: cell.knobs.0,
        defended: cell.knobs.1,
        total: RunSummary::of_cell(&runs),
    })
}

/// The sweep rows as the experiment's sheet: the full ledger in the CSV,
/// the columns that carry the degradation story in the table.
pub fn sheet(rows: &[CellRow]) -> Sheet {
    let mut sheet = Sheet::new([
        Column::new("plane", "plane"),
        Column::new("attack", "attack"),
        Column::csv("intensity"),
        Column::new("defense", "defense"),
        Column::csv("requested"),
        Column::csv("received"),
        Column::new("goodput", "goodput"),
        Column::new("mean_latency", "latency"),
        Column::new("auth_ops", "auth ops"),
        Column::csv("expired_rejections"),
        Column::new("drops_rate_limited", "rate-limited"),
        Column::csv("drops_face_capped"),
        Column::new("drops_pit_full", "pit-full"),
        Column::csv("drops_other"),
        Column::csv("peak_pit_records"),
    ]);
    for r in rows {
        let t = &r.total;
        sheet.row([
            r.plane.into(),
            r.plan.summary().into(),
            r.plan.intensity.to_string().into(),
            r.defense().into(),
            t.requested.to_string().into(),
            t.received.to_string().into(),
            fmt_f(r.goodput()).into(),
            fmt_f(t.latency_mean).into(),
            t.auth_ops.to_string().into(),
            t.expired_rejections.to_string().into(),
            t.drops.rate_limited.to_string().into(),
            t.drops.face_capped.to_string().into(),
            t.drops.pit_full.to_string().into(),
            (t.drops.total() - t.drops.rate_limited - t.drops.face_capped - t.drops.pit_full)
                .to_string()
                .into(),
            t.peak_pit_records.to_string().into(),
        ]);
    }
    sheet
}

/// The adversarial-workload sweep: attack class × intensity × defense
/// posture across all four planes, written as `attacks.csv`
/// (+ manifests).
pub fn attacks(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 20);
    let seeds = opts.seed_count(2);
    let (rows, manifests) = sweep_cells(topo, &scenario, &attack_points(), &[false, true], opts);
    let table = sheet(&rows).finish(&opts.out_dir, "attacks", &manifests)?;
    Ok(format!(
        "Adversarial workloads ({topo}, {seeds} seeds)\n\n{table}\n\
         Each attack row drives every attacker at the named per-attacker\n\
         intensity (Interests/s) through the shared edge; `defense=on` arms\n\
         the per-client token bucket, the per-face fairness cap, and the\n\
         bounded PIT together. `off` rows are the graceful-degradation\n\
         curve; the on/off gap is what the edge defenses buy back.\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Verbosity;

    fn tiny_opts(out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            seeds: Some(1),
            out_dir: std::env::temp_dir().join(out),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    fn cell<'a>(rows: &'a [CellRow], plane: &str, attack: &str, defended: bool) -> &'a CellRow {
        rows.iter()
            .find(|r| r.plane == plane && r.plan.summary() == attack && r.defended == defended)
            .expect("cell present")
    }

    #[test]
    fn flood_defenses_clamp_the_fleet_and_protect_goodput() {
        let opts = tiny_opts("tactic-attacks-flood");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let points = [
            AttackPlan::none(),
            AttackPlan {
                class: Some(AttackClass::Flood),
                intensity: 500,
            },
        ];
        let (rows, manifests) = sweep_cells(topo, &scenario, &points, &[false, true], &opts);
        assert_eq!(rows.len(), PlaneId::ALL.len() * points.len() * 2);
        assert_eq!(manifests.len(), rows.len());
        for plane in PlaneId::ALL.map(PlaneId::name) {
            let off = cell(&rows, plane, "flood@500", false);
            let on = cell(&rows, plane, "flood@500", true);
            assert!(
                on.total.drops.rate_limited > 0,
                "{plane}: token bucket never fired under flood"
            );
            assert!(
                on.goodput() >= off.goodput(),
                "{plane}: defenses must not lose goodput ({} vs {})",
                on.goodput(),
                off.goodput(),
            );
            let base_off = cell(&rows, plane, "off", false);
            let base_on = cell(&rows, plane, "off", true);
            assert_eq!(
                base_on.total.requested, base_off.total.requested,
                "{plane}: unattacked defenses must not touch client traffic"
            );
            assert_eq!(base_on.total.received, base_off.total.received);
            assert_eq!(base_on.total.drops.rate_limited, 0);
        }
    }

    #[test]
    fn attacks_writes_parseable_outputs() {
        let mut opts = tiny_opts("tactic-attacks-outputs");
        opts.duration_secs = Some(1);
        let report = attacks(&opts).expect("runs");
        for plane in PlaneId::ALL.map(PlaneId::name) {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("attacks.csv")).expect("csv");
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("plane,attack,intensity,defense,"));
        let column = |name: &str| header.split(',').position(|h| h == name).expect(name);
        let (defense, goodput) = (column("defense"), column("goodput"));
        let columns = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), columns, "ragged row: {line}");
            assert!(matches!(cells[defense], "on" | "off"), "{line}");
            let g: f64 = cells[goodput].parse().expect("goodput is a number");
            assert!((0.0..=1.0).contains(&g), "goodput out of range: {line}");
            rows += 1;
        }
        assert_eq!(rows, PlaneId::ALL.len() * attack_points().len() * 2);
        let manifest =
            std::fs::read_to_string(opts.out_dir.join("attacks.manifest.jsonl")).expect("manifest");
        assert_eq!(manifest.lines().count(), rows, "one seed per cell here");
        for key in RunManifest::required_keys() {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
        // Every cell's scenario summary names its attack and defense posture.
        assert!(manifest
            .lines()
            .all(|l| l.contains("attack=") && l.contains("defense=")));
    }

    #[test]
    fn attack_points_cover_every_class_once() {
        let points = attack_points();
        assert_eq!(points[0], AttackPlan::none());
        for class in AttackClass::ALL {
            assert!(
                points.iter().any(|p| p.class == Some(class)),
                "{class} missing from the sweep"
            );
        }
        // Churn appears once; traffic classes at every intensity.
        assert_eq!(
            points.len(),
            1 + (AttackClass::ALL.len() - 1) * INTENSITIES.len() + 1
        );
    }
}
