//! The front door, end to end: every row of the registry runs at toy
//! scale, says what it must and leaves exactly its artifacts; the
//! binary's exit statuses; and `--shards` meaning one thing everywhere.
//! (CHANGES.md, PR 20, tables each assertion CI's Python used to make
//! against the Rust test that holds it now.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tactic_experiments::opts::Verbosity;
use tactic_experiments::{RunOpts, REGISTRY};
use tactic_telemetry::RunManifest;
use tactic_topology::paper::PaperTopology;

/// Per experiment, in [`REGISTRY`] order: the artifacts it writes besides
/// `<stem>.manifest.jsonl` (which every entry that simulates must add),
/// what its report has to say, and how many runs — manifest lines — its
/// toy-scale grid has.
const EXPECT: &[(&str, &str, &[&str], usize)] = &[
    ("table2", "table2_comparison.txt", &["TACTIC", "Mangili"], 0),
    ("table3", "table3_topologies.csv", &["80", "true"], 0),
    ("table4", "table4_delivery.csv", &["Topo. 1"], 1),
    ("fig5", "fig5_topo1.csv", &["Part B"], 3 + 3),
    ("fig6", "fig6_tag_rates.csv", &["Topo. 1", "(inset)"], 2),
    ("fig7", "fig7_router_ops.csv", &["edge", "core"], 1),
    ("fig8", "fig8_bf_resets.csv", &["threshold FPP"], 3 * 2),
    ("table5", "table5_bf_sizing.csv", &["improvement"], 2 * 2),
    (
        "sweep",
        "sweep_summary.csv",
        &["1 topologies × 1 seeds = 1 runs", "Topo. 1"],
        1,
    ),
    (
        "ablations",
        "ablations.csv",
        &["flag F disabled", "shared-tag attackers, AP check ON"],
        5,
    ),
    (
        "baselines",
        "baseline_comparison.csv",
        &["TACTIC", "provider-auth-ac"],
        4,
    ),
    (
        "transport",
        "transport.csv",
        &["Half the clients mobile"],
        2 * 4,
    ),
    ("telemetry", "telemetry_metrics.jsonl", &["mean hops"], 4),
    ("resilience", "resilience.csv", &["heavy"], 4 * 3 * 2 * 2),
    ("attacks", "attacks.csv", &["flood@500"], 4 * 10 * 2),
    (
        "profile",
        "profile.timeseries.jsonl profile.profile.jsonl profile.trace.json",
        &["no-access-control"],
        2,
    ),
    (
        "tagscale",
        "tagscale.csv",
        &["8 cells × 1 seeds = 8 runs", "gen8x2", "churn"],
        2 * 4,
    ),
    ("scale", "scale.csv", &["events_per_sec"], 2),
];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tactic-registry").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The smallest options that still exercise every entry.
fn toy_opts(out_dir: PathBuf) -> RunOpts {
    RunOpts {
        duration_secs: Some(1),
        seeds: Some(1),
        topologies: vec![PaperTopology::Topo1],
        out_dir,
        threads: Some(1),
        ramp: Some(vec![16, 48]),
        verbosity: Verbosity::Quiet,
        ..RunOpts::default()
    }
}

fn manifest_lines(dir: &Path, stem: &str) -> Vec<String> {
    let body = std::fs::read_to_string(dir.join(format!("{stem}.manifest.jsonl")))
        .unwrap_or_else(|e| panic!("{stem}.manifest.jsonl: {e}"));
    body.lines().map(str::to_string).collect()
}

/// What a manifest line may differ in between two `--threads`/`--shards`
/// settings: the wall clock and the shard provenance (the queue
/// high-water mark is a per-engine quantity and so provenance too).
const PROVENANCE: [&str; 9] = [
    "peak_queue_depth",
    "wall_ms",
    "shards",
    "edge_cut",
    "epochs",
    "per_shard_events",
    "per_shard_peak_queue",
    "per_shard_peak_pit",
    "per_shard_peak_cs",
];

/// A manifest line without its [`PROVENANCE`] fields (each a number or an
/// array of numbers, so it ends where the next key's quote opens).
fn without_provenance(line: &str) -> String {
    let mut out = line.to_string();
    for key in PROVENANCE {
        let key = format!("\"{key}\":");
        let at = out.find(&key).unwrap_or_else(|| panic!("{key} in {line}"));
        let value = out[at + key.len()..].find(['"', '}']).expect("a next key");
        out.replace_range(at..at + key.len() + value, "");
    }
    out
}

/// Every row of the registry, at `--threads 1 --shards 1` and at
/// `--threads 3 --shards 1,2`: it says its piece, leaves exactly its
/// artifacts with one manifest line per run, prints one trailer naming
/// exactly those files, and neither the report nor a byte of an artifact
/// depends on the thread or shard count.
#[test]
fn every_experiment_says_its_piece_and_leaves_exactly_its_artifacts_at_any_thread_and_shard_count()
{
    let expected: Vec<&str> = EXPECT.iter().map(|(name, ..)| *name).collect();
    let registered: Vec<&str> = REGISTRY.iter().map(|(name, ..)| *name).collect();
    assert_eq!(expected, registered, "EXPECT lists the registry in order");
    for ((name, _, run), (_, artifacts, says, runs)) in REGISTRY.iter().zip(EXPECT) {
        let opts = toy_opts(fresh_dir(name));
        let report = run(&opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        for phrase in *says {
            assert!(
                report.contains(phrase),
                "{name} must say {phrase}:\n{report}"
            );
        }

        let mut written: Vec<String> = std::fs::read_dir(&opts.out_dir)
            .unwrap_or_else(|e| panic!("{name} wrote nothing: {e}"))
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        for file in &written {
            let len = std::fs::metadata(opts.out_dir.join(file)).unwrap().len();
            assert!(len > 0, "{name}: {file} is empty");
        }
        // One trailer, naming exactly the files left.
        let trailers: Vec<&str> = (report.lines())
            .filter_map(|line| line.strip_prefix("Written to "))
            .collect();
        assert_eq!(trailers.len(), 1, "{name}: one trailer:\n{report}");
        let mut named: Vec<&str> = trailers[0].split(", ").collect();
        let mut left: Vec<&str> = written.iter().map(String::as_str).collect();
        named.sort_unstable();
        left.sort_unstable();
        assert_eq!(named, left, "{name}: the trailer names the files left");
        let manifest = written.iter().position(|f| f.ends_with(".manifest.jsonl"));
        assert_eq!(manifest.is_some(), *runs > 0, "{name}: {written:?}");
        let manifest = manifest.map(|at| written.remove(at));
        let stem = manifest
            .as_deref()
            .map(|f| f.trim_end_matches(".manifest.jsonl"));
        if let Some(stem) = stem {
            let lines = manifest_lines(&opts.out_dir, stem);
            assert_eq!(lines.len(), *runs, "{name}: one manifest line per run");
            for key in RunManifest::required_keys() {
                assert!(
                    lines.iter().all(|l| l.contains(&format!("\"{key}\":"))),
                    "{name}: manifest lines must carry {key}"
                );
            }
        }
        written.sort();
        let mut artifacts: Vec<&str> = artifacts.split(' ').collect();
        artifacts.sort_unstable();
        assert_eq!(written, artifacts, "{name}");

        let sharded = RunOpts {
            threads: Some(3),
            shards: vec![1, 2],
            ..toy_opts(fresh_dir(&format!("{name}-sharded")))
        };
        let sharded_report = run(&sharded).unwrap_or_else(|e| panic!("{name}: {e}"));
        // `profile` and `scale` print wall-clock columns, and two of
        // `profile`'s artifacts are wall-clock profiles.
        if !matches!(*name, "profile" | "scale") {
            assert_eq!(report, sharded_report, "{name}: the report moved");
        }
        for file in written {
            if matches!(&*file, "profile.profile.jsonl" | "profile.trace.json") {
                continue;
            }
            let bytes = |dir: &Path| std::fs::read(dir.join(&file)).unwrap();
            let same = bytes(&opts.out_dir) == bytes(&sharded.out_dir);
            assert!(same, "{name}: {file} moved");
        }
        if let Some(stem) = stem {
            let lines = |dir: &Path| -> Vec<String> {
                let lines = manifest_lines(dir, stem);
                // `scale` takes the shard list as a grid axis, one pass
                // per count: its first pass is the comparable one.
                let lines = lines.iter().take(*runs);
                lines.map(|l| without_provenance(l)).collect()
            };
            let (flat, split) = (lines(&opts.out_dir), lines(&sharded.out_dir));
            assert_eq!(flat, split, "{name}: a manifest moved");
        }
    }
}

#[test]
fn scale_simulates_the_same_run_at_one_and_two_shards() {
    let opts = RunOpts {
        ramp: Some(vec![48]),
        shards: vec![1, 2],
        ..toy_opts(fresh_dir("scale-shards"))
    };
    tactic_experiments::scale::scale(&opts).expect("runs");
    let field = |line: &str, key: &str| -> u64 {
        let rest = line.split_once(&format!("\"{key}\":")).expect(key).1;
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
        rest[..end].parse().unwrap()
    };
    let cells = manifest_lines(&opts.out_dir, "scale");
    let shards: Vec<u64> = cells.iter().map(|l| field(l, "shards")).collect();
    assert_eq!(shards, [1, 2], "one cell per listed count");
    let events = field(&cells[0], "sim_events");
    assert!(events > 0);
    assert_eq!(field(&cells[1], "sim_events"), events);

    // A point below the fleet floor is a bad argument, not a panic.
    let small = RunOpts {
        ramp: Some(vec![48, 15]),
        ..opts
    };
    let err = tactic_experiments::scale::scale(&small).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(
        err.to_string(),
        "--ramp 15: a fleet needs at least 16 nodes"
    );
}

#[test]
fn every_subcommand_is_documented() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let commands = REGISTRY.iter().map(|(name, ..)| *name);
    for name in commands.chain(["all", "simulate"]) {
        assert!(
            doc.contains(&format!("`{name}`")),
            "EXPERIMENTS.md does not mention `{name}`"
        );
    }
}

fn front_door(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tactic-experiments"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// What only the process can show: help goes to stdout with status 0, a
/// bad argument — judged by the parser or by the experiment — to stderr
/// with status 2.
#[test]
fn help_exits_0_on_stdout_and_bad_arguments_exit_2_on_stderr() {
    for args in [&[][..], &["fig5", "--help"]] {
        let out = front_door(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: tactic-experiments"));
    }
    for (args, says) in [
        (&["fig9"][..], "unknown experiment `fig9`; one of: table2"),
        (
            &["scale", "--ramp", "8"],
            "--ramp 8: a fleet needs at least 16 nodes",
        ),
        (
            &["tagscale", "--duration", "0"],
            "--duration must be at least 1",
        ),
    ] {
        let out = front_door(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says) && out.stdout.is_empty(), "{stderr}");
    }
}

/// `--shards K1,K2` means one thing: every listed count executes. A first
/// entry that cannot split Topo1's routers is therefore fatal everywhere,
/// including the four experiments that used to run only the last entry.
#[test]
fn every_listed_shard_count_is_executed_not_only_the_last() {
    for name in ["attacks", "resilience", "telemetry", "transport"] {
        let dir = fresh_dir(&format!("shards-{name}"));
        let flags = "--shards 10000,1 --duration 1 --seeds 1 --topo 1 --quiet --out";
        let mut args = vec![name];
        args.extend(flags.split(' '));
        args.push(dir.to_str().unwrap());
        let out = front_door(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("--shards 10000: "), "{name}: {stderr}");
    }
}
