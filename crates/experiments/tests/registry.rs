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
/// `<stem>.manifest.jsonl` (which every entry but the two that do not
/// simulate must add) and what its report has to say.
const EXPECT: &[(&str, &str, &[&str])] = &[
    ("table2", "table2_comparison.txt", &["TACTIC", "Mangili"]),
    ("table3", "table3_topologies.csv", &["80", "true"]),
    ("table4", "table4_delivery.csv", &["Topo. 1"]),
    ("fig5", "fig5_topo1.csv", &["Part B"]),
    ("fig6", "fig6_tag_rates.csv", &["Topo. 1", "(inset)"]),
    ("fig7", "fig7_router_ops.csv", &["edge", "core"]),
    ("fig8", "fig8_bf_resets.csv", &["threshold FPP"]),
    ("table5", "table5_bf_sizing.csv", &["improvement"]),
    ("sweep", "sweep_summary.csv", &["1 topologies × 1 seeds"]),
    (
        "ablations",
        "ablations.csv",
        &["flag F disabled", "shared-tag attackers, AP check ON"],
    ),
    (
        "baselines",
        "baseline_comparison.csv",
        &["TACTIC", "provider-auth-ac"],
    ),
    ("transport", "transport.csv", &["Half the clients mobile"]),
    ("telemetry", "telemetry_metrics.jsonl", &["mean hops"]),
    ("resilience", "resilience.csv", &["heavy"]),
    ("attacks", "attacks.csv", &["flood@500"]),
    (
        "profile",
        "profile.timeseries.jsonl profile.profile.jsonl profile.trace.json",
        &["no-access-control"],
    ),
    ("tagscale", "tagscale.csv", &["gen8x2", "churn"]),
    ("scale", "scale.csv", &["events_per_sec"]),
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
        threads: Some(2),
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

#[test]
fn every_experiment_runs_says_its_piece_and_leaves_exactly_its_artifacts() {
    let expected: Vec<&str> = EXPECT.iter().map(|(name, ..)| *name).collect();
    let registered: Vec<&str> = REGISTRY.iter().map(|(name, ..)| *name).collect();
    assert_eq!(expected, registered, "EXPECT lists the registry in order");
    for ((name, _, run), (_, artifacts, says)) in REGISTRY.iter().zip(EXPECT) {
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
        let simulates = !matches!(*name, "table2" | "table3");
        let manifest = written.iter().position(|f| f.ends_with(".manifest.jsonl"));
        assert_eq!(manifest.is_some(), simulates, "{name}: {written:?}");
        if let Some(at) = manifest {
            let file = written.remove(at);
            let lines = manifest_lines(&opts.out_dir, file.trim_end_matches(".manifest.jsonl"));
            assert!(!lines.is_empty(), "{name}: no manifest lines");
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
