//! The observability experiment: deterministic sim-time sampling plus
//! wall-clock span profiling, exported as the three in-flight artifacts.
//!
//! One run per plane (TACTIC and the no-access-control baseline) with
//! the sampler and profiler forced on:
//!
//! * `profile.timeseries.jsonl` — the sim-time sampler's counter rows
//!   (queue depth, PIT, CS, BF occupancy/FPP, drop deltas). Golden:
//!   byte-identical for any `--threads`/`--shards` value — like every
//!   sampled run, each `--shards` entry's rows are compared against the
//!   first's by [`run_job`](crate::plane::run_job).
//! * `profile.profile.jsonl` — wall-clock span totals per handler class
//!   and per shard epoch. Nondeterministic, never golden.
//! * `profile.trace.json` — a Chrome/Perfetto trace of the last TACTIC
//!   run: one lane per shard (epochs + barrier waits) plus sampled
//!   counter tracks. Load it in `ui.perfetto.dev`. Never golden.

use tactic_baselines::mechanism::Mechanism;
use tactic_sim::time::SimDuration;
use tactic_telemetry::{profile_to_jsonl, run_trace_json, timeseries_to_jsonl, SpanProfiler};

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, write_manifests, Column, Sheet};
use crate::plane::{manifests, sweep, Cell, PlaneId};
use crate::runner::{scenario_id, shaped_scenario};

/// Sampling cadence when `--sample-every` is not given: one simulated
/// second per tick.
pub const DEFAULT_SAMPLE_SECS: f64 = 1.0;

const PLANES: [PlaneId; 2] = [
    PlaneId::Tactic,
    PlaneId::Baseline(Mechanism::NoAccessControl),
];

/// The in-flight observability experiment: samples both planes and
/// writes `profile.timeseries.jsonl`, `profile.profile.jsonl`, and
/// `profile.trace.json` (+ manifests).
///
/// # Errors
///
/// Propagates I/O errors from writing the artifacts.
pub fn profile(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let mut scenario = shaped_scenario(topo, opts, 20);
    if scenario.sample_every.is_none() {
        scenario.sample_every = Some(SimDuration::from_secs_f64(DEFAULT_SAMPLE_SECS));
    }
    scenario.profile = true;

    let mut report = format!(
        "In-flight observability ({topo}, sample every {:.3} s)\n\n",
        scenario.sample_every.expect("forced on").as_secs_f64(),
    );
    let cells = PLANES.map(|plane| Cell {
        plane,
        topology: topo.index() as u32,
        scenario_id: scenario_id("profile", &[plane.index()]),
        knobs: (),
    });
    // One run per plane, whatever `--seeds` says.
    let one_seed = RunOpts {
        seeds: Some(1),
        ..opts.clone()
    };
    let runs = sweep(&cells, &one_seed, |cell, _seed| {
        (cell.plane.name().to_string(), scenario.clone())
    });
    let mut table = Sheet::new(
        [
            "plane",
            "events",
            "samples",
            "final PIT",
            "final CS",
            "BF occupancy",
            "busiest span",
            "span total (ms)",
        ]
        .map(Column::table),
    );
    let mut timeseries = String::new();
    let mut profiles = String::new();
    let mut trace = String::new();
    for (cell, run) in cells.iter().zip(runs.iter().flatten()) {
        let name = cell.plane.name();
        let samples = run.report.samples();
        let idle = SpanProfiler::default();
        let profiler = run.report.profile().unwrap_or(&idle);
        let epochs = &run.stats.epoch_spans;
        let last = samples.last().cloned().unwrap_or_default();
        let busiest = profiler
            .spans()
            .max_by_key(|(_, s)| s.total_ns)
            .map_or(("-", 0u64), |(n, s)| (n, s.total_ns));
        let span_total: u64 = profiler.spans().map(|(_, s)| s.total_ns).sum();
        table.row([
            name.into(),
            run.manifest.sim_events.to_string().into(),
            samples.len().to_string().into(),
            last.pit_records.to_string().into(),
            last.cs_entries.to_string().into(),
            fmt_f(last.bf_occupancy()).into(),
            busiest.0.into(),
            fmt_f(span_total as f64 / 1e6).into(),
        ]);
        timeseries.push_str(&timeseries_to_jsonl(name, samples));
        profiles.push_str(&profile_to_jsonl(name, profiler, epochs));
        if cell.plane == PlaneId::Tactic {
            trace = run_trace_json(name, epochs, samples);
        }
    }

    write_file(&opts.out_dir, "profile.timeseries.jsonl", &timeseries)?;
    write_file(&opts.out_dir, "profile.profile.jsonl", &profiles)?;
    write_file(&opts.out_dir, "profile.trace.json", &trace)?;
    write_manifests(&opts.out_dir, "profile", manifests(&runs))?;
    report.push_str(&table.render());
    report.push_str(
        "\nThe time series is golden (byte-identical for any --threads/\n\
         --shards value; re-checked above); the span profile and trace are\n\
         wall-clock and therefore never compared. Open profile.trace.json\n\
         in ui.perfetto.dev: one lane per shard, counters underneath.\n",
    );
    report.push_str(
        "\nWritten to profile.timeseries.jsonl, profile.profile.jsonl, profile.trace.json\n",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_telemetry::TIMESERIES_KEYS;
    use tactic_topology::paper::PaperTopology;

    fn tiny_opts(out: &str, shards: Vec<usize>) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            topologies: vec![PaperTopology::Topo1],
            out_dir: std::env::temp_dir().join(out),
            shards,
            verbosity: crate::opts::Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// The ISSUE's acceptance case: the binary emits all three artifacts,
    /// the time series carries the full schema, the span profile names
    /// the hot paths, and the trace parses as Chrome-trace JSON with the
    /// required Perfetto event fields.
    #[test]
    fn profile_writes_all_three_artifacts() {
        let opts = tiny_opts("tactic-profile-artifacts", vec![1, 2]);
        let report = profile(&opts).expect("runs");
        assert!(report.contains("tactic"));
        assert!(report.contains("no-access-control"));

        let ts = std::fs::read_to_string(opts.out_dir.join("profile.timeseries.jsonl"))
            .expect("timeseries");
        assert!(!ts.is_empty());
        for key in TIMESERIES_KEYS.iter() {
            assert!(
                ts.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "every timeseries row must carry {key}"
            );
        }
        for plane in PLANES.map(PlaneId::name) {
            assert!(ts.contains(&format!("\"label\":\"{plane}\"")));
        }

        let prof =
            std::fs::read_to_string(opts.out_dir.join("profile.profile.jsonl")).expect("profile");
        for span in [
            "precheck",
            "bf_lookup",
            "sig_verify",
            "pit_ops",
            "link.transit",
            "calendar.pop",
        ] {
            assert!(
                prof.contains(&format!("\"span\":\"{span}\"")),
                "span profile must name {span}:\n{prof}"
            );
        }
        assert!(
            prof.contains("\"kind\":\"epoch\""),
            "sharded epochs missing"
        );

        let trace =
            std::fs::read_to_string(opts.out_dir.join("profile.trace.json")).expect("trace");
        assert!(trace.starts_with("{\"traceEvents\":["));
        // One event per line: each names its phase, process and track, and
        // every non-metadata event is timestamped.
        let events: Vec<&str> = trace
            .lines()
            .filter(|l| l.starts_with("{\"ph\":"))
            .collect();
        assert!(!events.is_empty(), "empty trace");
        for event in events {
            assert!(
                event.contains("\"pid\":") && event.contains("\"name\":"),
                "{event}"
            );
            assert!(
                event.contains("\"ph\":\"M\"") || event.contains("\"ts\":"),
                "{event}"
            );
        }
        assert!(
            trace.contains("{\"ph\":\"C\",\"name\":\"bf_occupancy\""),
            "trace must carry a BF-occupancy counter track"
        );
        assert!(
            trace.contains("\"name\":\"epoch\""),
            "trace must render epoch slices"
        );
        assert!(
            trace.contains("\"name\":\"shard 0\"") && trace.contains("\"name\":\"shard 1\""),
            "trace must name one lane per shard"
        );
    }

    /// `--sample-every` overrides the forced-on default cadence.
    #[test]
    fn sample_every_flag_changes_cadence() {
        let mut opts = tiny_opts("tactic-profile-cadence", vec![1]);
        opts.sample_every_secs = Some(2.5);
        let report = profile(&opts).expect("runs");
        assert!(report.contains("sample every 2.500 s"), "{report}");
    }
}
