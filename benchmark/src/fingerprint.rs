//! The result header: which hardware, toolchain and commit produced the
//! numbers. Host-time numbers mean nothing without it.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Value;

/// First line of a command's stdout, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `YYYY-MM-DD` (UTC) of `secs` since the Unix epoch — the civil-from-days
/// algorithm, so that no date crate is needed.
fn utc_date(secs: u64) -> String {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// nproc, CPU model, rustc, commit and dirty flag, seed, window, date.
/// Anything the host cannot tell (no git, no `/proc`) reads `unknown`.
pub fn header(seed: u64, seconds: u64) -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dirty = first_line("git", &["status", "--porcelain"]).map(|l| !l.is_empty());
    let commit = first_line("git", &["rev-parse", "HEAD"]);
    // `git status` prints nothing on a clean tree, so "no first line"
    // with a known commit means clean.
    let dirty = match (&commit, dirty) {
        (Some(_), d) => Value::Bool(d.unwrap_or(false)),
        (None, _) => Value::Null,
    };
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Value::Str(first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("commit", Value::Str(commit.unwrap_or_else(unknown))),
        ("dirty", dirty),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("date", Value::Str(utc_date(now))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_553_600), "2026-09-28");
        assert_eq!(utc_date(1_798_761_599), "2026-12-31");
    }

    #[test]
    fn header_carries_every_field() {
        let h = header(5, 15);
        let keys: Vec<&str> = h
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["nproc", "cpu", "rustc", "commit", "dirty", "seed", "seconds", "date"]
        );
        assert_eq!(h.get("seed").and_then(Value::as_u64), Some(5));
        assert!(h.to_line().is_ok());
    }
}
