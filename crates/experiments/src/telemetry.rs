//! Protocol-level telemetry: drives a recording [`ProtocolRecorder`]
//! through both simulation planes, folds the per-run metric registries
//! deterministically (job order, so any `--threads` value yields
//! byte-identical JSONL), and writes the labeled metrics next to a
//! per-run manifest file.
//!
//! This is the decision-level companion to the `transport` experiment:
//! where that one watches the wire, this one watches Protocols 1–4 —
//! pre-check verdicts, BF lookups, signature (re-)validations, PIT
//! aggregation, NACKs — plus the per-Interest lifecycle histograms.

use tactic::scenario::Scenario;
use tactic_net::{DropTotals, NoopObserver};
use tactic_telemetry::{ProtocolRecorder, Registry};

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, Column, Sheet};
use crate::plane::{manifests, sweep_observed, Cell, PlaneId, PlaneRun};
use crate::runner::{scenario_id, shaped_scenario};

/// Folds the transport's per-reason drop totals into the decision-metric
/// registry so the exported JSONL carries them alongside Protocol 1–4
/// counters (all zero on lossless runs, but a key per reason is always
/// present).
fn inject_drop_metrics(registry: &mut Registry, drops: DropTotals) {
    for (metric, dropped) in DropTotals::SCHEMA.iter().zip(drops.values()) {
        registry.add(&format!("net.drop.{}", metric.name), dropped);
    }
}

/// A recorded run: the transport unobserved, every shard's protocol
/// decisions in a [`ProtocolRecorder`].
type Recorded = PlaneRun<NoopObserver, ProtocolRecorder>;

/// Runs `--seeds` recorded replicas of each of `planes` over `--threads`
/// workers — one cell per plane, seeded from (topology,
/// `scenario_id("telemetry", [plane])`, run index).
pub fn recorded_planes(
    planes: &[PlaneId],
    topology: u32,
    scenario: &Scenario,
    opts: &RunOpts,
) -> Vec<Vec<Recorded>> {
    let cells: Vec<_> = planes
        .iter()
        .map(|&plane| Cell {
            plane,
            topology,
            scenario_id: scenario_id("telemetry", &[plane.index()]),
            knobs: (),
        })
        .collect();
    let shape = |cell: &Cell<()>, _seed| {
        let label = format!("telemetry {}", cell.plane.name());
        (label, scenario.clone())
    };
    sweep_observed(
        &cells,
        opts,
        shape,
        |_| NoopObserver,
        |_| ProtocolRecorder::default(),
    )
}

/// Folds one plane's runs into one registry (decision metrics, lifecycle
/// and drop totals) **in job order** — the fold is what makes the exported
/// JSONL byte-identical for any thread count; merging each run's
/// per-shard recorders in shard order is what makes it byte-identical for
/// any shard count.
pub fn folded_registry(runs: &[Recorded]) -> Registry {
    let mut folded = Registry::new();
    for run in runs {
        let mut recorder = ProtocolRecorder::default();
        for shard in &run.protos {
            recorder.merge(shard);
        }
        let mut registry = recorder.export_registry();
        inject_drop_metrics(&mut registry, run.manifest.drops);
        folded.merge(&registry);
    }
    folded
}

/// Protocol-decision telemetry across all four planes: per-plane decision
/// counters, lifecycle histograms, a combined JSONL metrics export, and
/// per-run manifests.
pub fn telemetry(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 30);
    let seeds = opts.seed_count(2);
    let runs = recorded_planes(&PlaneId::ALL, topo.index() as u32, &scenario, opts);

    let mut report = format!("Protocol telemetry ({topo}, {seeds} seeds)\n\n");
    let mut table = Sheet::new(
        [
            "plane",
            "bf lookups",
            "sig verifies",
            "revalidations",
            "nacks",
            "cache hits",
            "data",
            "timeouts",
            "mean hops",
        ]
        .map(Column::table),
    );
    let mut combined = Registry::new();
    for (plane, runs) in PlaneId::ALL.iter().zip(&runs) {
        let registry = folded_registry(runs);
        let prefix_sum = |prefix: &str| registry.counter_prefix_sum(prefix).to_string();
        table.row([
            plane.name().into(),
            prefix_sum("tactic.bf_lookup.").into(),
            prefix_sum("tactic.sig_verify.").into(),
            prefix_sum("tactic.revalidation.").into(),
            prefix_sum("tactic.nack.").into(),
            prefix_sum("tactic.cache_hit.").into(),
            registry
                .counter("tactic.lifecycle.completed.data")
                .to_string()
                .into(),
            registry
                .counter("tactic.lifecycle.completed.timeout")
                .to_string()
                .into(),
            fmt_f(
                registry
                    .histogram("tactic.lifecycle.hops")
                    .map_or(0.0, |h| h.mean()),
            )
            .into(),
        ]);
        combined.merge(&registry.with_key_prefix(&format!("{}/", plane.name())));
    }

    write_file(
        &opts.out_dir,
        "telemetry_metrics.jsonl",
        &combined.to_jsonl(),
    )?;
    write_manifests(&opts.out_dir, "telemetry_metrics", manifests(&runs))?;
    report.push_str(&table.render());
    report.push_str(
        "\nMetric keys are `<plane>/tactic.<decision>.<role>[.<qualifier>]`;\n\
         baseline planes surface only the decisions they actually make\n\
         (cache hits, provider auth), so most TACTIC keys exist only on\n\
         the tactic plane.\n",
    );
    report.push_str("\nWritten to telemetry_metrics.jsonl (+ .manifest.jsonl)\n");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Verbosity;
    use tactic_topology::paper::PaperTopology;

    fn tiny_opts(out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            seeds: Some(2),
            out_dir: std::env::temp_dir().join(out),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// A drop reason cannot stay out of `telemetry_metrics.jsonl`: the
    /// export carries one `net.drop.*` key per [`DropReason`], and
    /// counting a reason moves its key and no other.
    #[test]
    fn exported_registry_has_one_net_drop_key_per_reason() {
        use tactic_net::DropReason;
        let drop_lines = |drops: DropTotals| -> Vec<String> {
            let mut registry = Registry::new();
            inject_drop_metrics(&mut registry, drops);
            let jsonl = registry.to_jsonl();
            let lines = jsonl.lines().filter(|l| l.contains("\"net.drop."));
            lines.map(str::to_string).collect()
        };
        let quiet = drop_lines(DropTotals::default());
        assert_eq!(quiet.len(), DropReason::ALL.len(), "{quiet:?}");
        let mut moved = std::collections::BTreeSet::new();
        for reason in DropReason::ALL {
            let mut drops = DropTotals::default();
            drops.count(reason);
            let lines = drop_lines(drops);
            let changed: Vec<usize> = (0..lines.len()).filter(|&i| lines[i] != quiet[i]).collect();
            assert_eq!(
                changed.len(),
                1,
                "{reason:?} moved {changed:?} of {lines:?}"
            );
            moved.insert(changed[0]);
        }
        assert_eq!(moved.len(), DropReason::ALL.len());
    }

    /// The ISSUE's acceptance case: folding per-thread registries in job
    /// order must yield byte-identical JSONL for any `--threads` value.
    #[test]
    fn registry_fold_is_byte_identical_across_thread_counts() {
        let opts = tiny_opts("tactic-telemetry-fold");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let runs = |threads: usize, shards: &[usize]| {
            let opts = RunOpts {
                seeds: Some(4),
                threads: Some(threads),
                shards: shards.to_vec(),
                ..opts.clone()
            };
            let planes = [PlaneId::Tactic];
            recorded_planes(&planes, topo.index() as u32, &scenario, &opts).remove(0)
        };
        let serial = folded_registry(&runs(1, &[1]));
        let parallel = folded_registry(&runs(8, &[1]));
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert!(!serial.is_empty());

        // The intra-run axis: space-partitioning each replica across 2
        // shards must not change a byte of the folded export either.
        let sharded = runs(1, &[2]);
        assert_eq!(serial.to_jsonl(), folded_registry(&sharded).to_jsonl());
        assert!(sharded.iter().all(|run| run.manifest.shards == 2));
    }

    #[test]
    fn telemetry_report_covers_all_planes_and_writes_outputs() {
        let opts = tiny_opts("tactic-telemetry-test");
        let report = telemetry(&opts).expect("runs");
        for plane in PlaneId::ALL.map(PlaneId::name) {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let jsonl =
            std::fs::read_to_string(opts.out_dir.join("telemetry_metrics.jsonl")).expect("jsonl");
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}') && line.contains("\"key\":"),
                "not a keyed JSON object: {line}"
            );
        }
        assert!(jsonl.contains("tactic/tactic.bf_lookup."));
        let manifest =
            std::fs::read_to_string(opts.out_dir.join("telemetry_metrics.manifest.jsonl"))
                .expect("manifest");
        assert_eq!(
            manifest.lines().count(),
            2 * PlaneId::ALL.len(),
            "one manifest line per (plane, seed)"
        );
        for key in tactic_telemetry::RunManifest::required_keys() {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
    }
}
