//! Runs the real binary with `--smoke` (horizons / 20, fleets / 10, one
//! repetition) and validates the shape of everything it prints and
//! writes against `BENCHMARK.json`. The numbers of a smoke run measure
//! nothing; only the schema is checked.

use std::path::{Path, PathBuf};
use std::process::Command;

use tactic_benchmark::json::{self, Value};
use tactic_benchmark::schema::{Workload, DRIVERS, END_TO_END, TRACED};

const EXE: &str = env!("CARGO_BIN_EXE_tactic-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn names(rows: &Value) -> Vec<String> {
    rows.as_arr()
        .unwrap()
        .iter()
        .map(|r| r.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn keys(obj: &Value) -> Vec<String> {
    obj.as_obj()
        .unwrap_or_else(|| panic!("not an object: {obj:?}"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// The contract's form: one workload, one JSON object on the last line.
#[test]
fn one_workload_prints_the_contract_line() {
    let manifest =
        json::parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap()).unwrap();
    for (trace, listed) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(EXE)
            .args([
                "--workload",
                "edge_storm",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert!(last.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = last.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            names(manifest.get(listed).unwrap()),
            "--trace {trace}"
        );
        for (row, (name, m)) in manifest
            .get(listed)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(metrics.as_obj().unwrap())
        {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert_eq!(m.get("unit"), row.get("unit"), "{name}");
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
    }
}

/// The suite: every workload in its own process, `result.json` written.
#[test]
fn the_suite_writes_a_result_that_matches_the_schema() {
    let out_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let started = std::time::Instant::now();
    let out = Command::new(EXE)
        .args([
            "--smoke",
            "--seed",
            "3",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .current_dir(repo_root())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 20,
        "a smoke run finishes in under 20 s"
    );

    let result = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(result.get("schema").and_then(Value::as_u64), Some(1));
    assert_eq!(result.get("smoke").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("ops_failed").and_then(Value::as_u64), Some(0));
    assert_eq!(
        keys(result.get("header").unwrap()),
        ["nproc", "cpu", "rustc", "commit", "dirty", "seed", "seconds", "date"]
    );
    assert_eq!(
        result
            .get("header")
            .and_then(|h| h.get("seed"))
            .and_then(Value::as_u64),
        Some(3)
    );

    let workloads = result.get("workloads").unwrap();
    assert_eq!(keys(workloads), Workload::ALL.map(|w| w.name()));
    let summary_keys = ["unit", "median", "q1", "q3", "min", "max", "n", "samples"];
    for w in Workload::ALL {
        let entry = workloads.get(w.name()).unwrap();
        assert_eq!(
            entry.get("ops_failed").and_then(Value::as_u64),
            Some(0),
            "{}",
            w.name()
        );
        let e2e = entry.get("end_to_end").unwrap();
        assert_eq!(keys(e2e), END_TO_END.map(|m| m.name), "{}", w.name());
        for (name, summary) in e2e.as_obj().unwrap() {
            let with_processes = summary_keys.iter().copied().chain(["processes"]);
            assert_eq!(keys(summary), with_processes.collect::<Vec<_>>(), "{name}");
            assert!(
                summary.get("median").and_then(Value::as_f64).unwrap() > 0.0,
                "{name} is never 0"
            );
        }
        assert_eq!(
            keys(entry.get("per_layer").unwrap()),
            TRACED.map(|l| l.name),
            "{}",
            w.name()
        );
        let spans = entry.get("spans").and_then(Value::as_arr).unwrap();
        for wanted in ["run", "report", "layer.ndn.fib.lpm_ns"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(wanted)),
                "{wanted}"
            );
        }
        assert!(stdout.contains(&format!("== {}", w.name())));
    }
    // The byte-identity gate, visible in the file too.
    let digest = |w: &str| {
        workloads
            .get(w)
            .unwrap()
            .get("outcome")
            .unwrap()
            .get("digest")
            .cloned()
    };
    assert_eq!(digest("fleet_seq"), digest("fleet_sharded"));
    // Sharding counters are non-zero on the sharded workload only.
    let epochs = |w: &str| {
        let m = workloads
            .get(w)
            .unwrap()
            .get("per_layer")
            .unwrap()
            .get("net.sharded.epochs")
            .unwrap();
        m.get("value").and_then(Value::as_f64).unwrap()
    };
    assert!(epochs("fleet_sharded") > 0.0);
    assert_eq!(epochs("fleet_seq"), 0.0);

    let layers = result.get("layers").unwrap();
    assert_eq!(keys(layers), DRIVERS.map(|l| l.name));
    for (name, summary) in layers.as_obj().unwrap() {
        assert_eq!(keys(summary), summary_keys, "{name}");
        assert_eq!(
            summary.get("n").and_then(Value::as_u64),
            Some(4),
            "{name}: one sample per traced process"
        );
    }
    // Every metric is printed by name.
    for name in (END_TO_END.iter().map(|m| m.name))
        .chain(TRACED.iter().map(|l| l.name))
        .chain(DRIVERS.iter().map(|l| l.name))
    {
        assert!(stdout.contains(name), "{name} is not printed");
    }

    // A smoke result validates the schema and nothing else.
    let refused = Command::new(EXE)
        .args([
            "--compare",
            out_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--smoke"));
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let out = Command::new(EXE)
        .args(["--workload", "nope", "--trace", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload `nope`") && stderr.contains("usage"));
}
