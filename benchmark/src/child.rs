//! Child-process isolation, done once: every measurement that wants a
//! process of its own — a workload of the suite, a measuring process of
//! one workload — goes through [`run`]. Seed and workload travel on the
//! command line; one JSON line comes back.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};

/// Marks the line of a child's stdout that carries its detail object.
pub const DETAIL_PREFIX: &str = "DETAIL ";

/// The running benchmark binary, which children are started from.
pub fn this_executable() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))
}

/// Runs `program` (the benchmark itself, see [`this_executable`]) with
/// `args` and returns the detail object the child printed.
///
/// # Errors
///
/// A description when the child cannot start, exceeds `timeout` (it is
/// killed and reaped), exits non-zero or prints no detail line. Callers
/// book that as a failed operation, not as a crash of the benchmark.
pub fn run(program: &Path, args: &[String], timeout: Duration) -> Result<Value, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    // Drained on a thread: a child blocked on a full pipe would never exit.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Ok(None) => {
                // Killing closes the pipe, which ends the reader.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {} s", timeout.as_secs()));
            }
            Err(e) => break Err(format!("cannot wait for the child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "the stdout reader panicked".to_string())?;
    let status = status?;
    let text = text.map_err(|e| format!("cannot read the child's output: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("printed no detail line")?;
    json::parse(line)
}

/// The command line of one workload run.
pub fn workload_args(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: u64,
    smoke: bool,
) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec();
    args.extend([
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ]);
    if smoke {
        args.push("--smoke".to_string());
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout_ms: u64) -> Result<Value, String> {
        let args = ["-c".to_string(), script.to_string()];
        run(
            Path::new("/bin/sh"),
            &args,
            Duration::from_millis(timeout_ms),
        )
    }

    #[test]
    fn a_child_that_dies_hangs_or_says_nothing_is_an_error_not_a_crash() {
        let ok = sh(
            "echo noise; echo 'DETAIL {\"ops_failed\": 0}'; echo '{}'",
            5_000,
        )
        .unwrap();
        assert_eq!(ok.get("ops_failed").and_then(Value::as_u64), Some(0));
        assert!(sh("echo 'DETAIL {}'; exit 3", 5_000)
            .unwrap_err()
            .contains("exit"));
        assert!(sh("kill -9 $$", 5_000).unwrap_err().contains("signal"));
        assert!(sh("echo hello", 5_000)
            .unwrap_err()
            .contains("no detail line"));
        assert!(sh("echo 'DETAIL {not json'", 5_000)
            .unwrap_err()
            .contains("JSON"));
        // Killed and reaped, long before the sleep would end.
        let started = Instant::now();
        assert!(sh("exec sleep 30", 100).unwrap_err().contains("timed out"));
        assert!(started.elapsed() < Duration::from_secs(5));
        let missing = run(
            Path::new("/nonexistent/benchmark"),
            &[],
            Duration::from_secs(1),
        );
        assert!(missing.unwrap_err().contains("cannot start"));
    }

    #[test]
    fn the_command_line_carries_seed_and_workload() {
        assert_eq!(
            workload_args("fleet_seq", true, 9, 4, true).join(" "),
            "--workload fleet_seq --trace 1 --seed 9 --seconds 4 --smoke"
        );
        assert_eq!(
            workload_args("edge_storm", false, 1, 15, false).join(" "),
            "--workload edge_storm --trace 0 --seed 1 --seconds 15"
        );
    }
}
