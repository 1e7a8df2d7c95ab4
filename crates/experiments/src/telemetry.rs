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
use tactic_telemetry::{ProtocolRecorder, Registry, RunManifest};

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::plane::{run_job, run_ordered, PlaneId};
use crate::runner::{scenario_id, shaped_scenario, GridJob};

/// Folds the transport's per-reason drop totals into the decision-metric
/// registry so the exported JSONL carries them alongside Protocol 1–4
/// counters (all zero on lossless runs, but a key per reason is always
/// present).
fn inject_drop_metrics(registry: &mut Registry, drops: DropTotals) {
    for (metric, dropped) in DropTotals::SCHEMA.iter().zip(drops.values()) {
        registry.add(&format!("net.drop.{}", metric.name), dropped);
    }
}

/// Runs `--seeds` recorded replicas of one plane fanned out over
/// `--threads` workers, then folds the per-run registries (decision metrics +
/// lifecycle + drop totals) **in job order** — the fold is what makes
/// the exported JSONL byte-identical for any thread count; merging each
/// run's per-shard recorders in shard order is what makes it
/// byte-identical for any shard count. Returns the folded registry and
/// one manifest per run.
pub fn folded_plane_registry(
    plane: PlaneId,
    topology: u32,
    scenario: &Scenario,
    opts: &RunOpts,
) -> (Registry, Vec<RunManifest>) {
    let seeds = opts.seed_count(2);
    let runs = run_ordered(seeds, opts.thread_count(), |i| {
        let job = GridJob {
            label: format!("telemetry {}", plane.name()),
            topology,
            scenario_id: scenario_id("telemetry", &[plane.index()]),
            run_idx: i as u64,
            scenario,
        };
        let run = run_job(
            plane,
            &job,
            job.seed(),
            (i, seeds),
            opts,
            |_| NoopObserver,
            |_| ProtocolRecorder::default(),
        );
        let mut recorder = ProtocolRecorder::default();
        for shard in &run.protos {
            recorder.merge(shard);
        }
        let mut registry = recorder.export_registry();
        inject_drop_metrics(&mut registry, run.manifest.drops);
        (registry, run.manifest)
    });
    let mut folded = Registry::new();
    let mut manifests = Vec::with_capacity(seeds);
    for (registry, manifest) in runs {
        folded.merge(&registry);
        manifests.push(manifest);
    }
    (folded, manifests)
}

/// Protocol-decision telemetry across all four planes: per-plane decision
/// counters, lifecycle histograms, a combined JSONL metrics export, and
/// per-run manifests.
pub fn telemetry(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 30);
    let seeds = opts.seed_count(2);

    let mut report = format!("Protocol telemetry ({topo}, {seeds} seeds)\n\n");
    let mut table = TextTable::new(vec![
        "plane",
        "bf lookups",
        "sig verifies",
        "revalidations",
        "nacks",
        "cache hits",
        "data",
        "timeouts",
        "mean hops",
    ]);
    let mut combined = Registry::new();
    let mut manifests = Vec::new();
    for plane in PlaneId::ALL {
        let (registry, runs) = folded_plane_registry(plane, topo.index() as u32, &scenario, opts);
        table.row(vec![
            plane.name().to_string(),
            registry.counter_prefix_sum("tactic.bf_lookup.").to_string(),
            registry
                .counter_prefix_sum("tactic.sig_verify.")
                .to_string(),
            registry
                .counter_prefix_sum("tactic.revalidation.")
                .to_string(),
            registry.counter_prefix_sum("tactic.nack.").to_string(),
            registry.counter_prefix_sum("tactic.cache_hit.").to_string(),
            registry
                .counter("tactic.lifecycle.completed.data")
                .to_string(),
            registry
                .counter("tactic.lifecycle.completed.timeout")
                .to_string(),
            fmt_f(
                registry
                    .histogram("tactic.lifecycle.hops")
                    .map_or(0.0, |h| h.mean()),
            ),
        ]);
        combined.merge(&registry.with_key_prefix(&format!("{}/", plane.name())));
        manifests.extend(runs);
    }

    write_file(
        &opts.out_dir,
        "telemetry_metrics.jsonl",
        &combined.to_jsonl(),
    )?;
    write_manifests(&opts.out_dir, "telemetry_metrics", &manifests)?;
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
        let fold = |threads: usize, shards: &[usize]| {
            let opts = RunOpts {
                seeds: Some(4),
                threads: Some(threads),
                shards: shards.to_vec(),
                ..opts.clone()
            };
            folded_plane_registry(PlaneId::Tactic, topo.index() as u32, &scenario, &opts)
        };
        let (serial, _) = fold(1, &[1]);
        let (parallel, _) = fold(8, &[1]);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert!(!serial.is_empty());

        // The intra-run axis: space-partitioning each replica across 2
        // shards must not change a byte of the folded export either.
        let (sharded, manifests) = fold(1, &[2]);
        assert_eq!(serial.to_jsonl(), sharded.to_jsonl());
        assert!(manifests.iter().all(|m| m.shards == 2));
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
