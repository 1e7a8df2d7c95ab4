//! `--compare A.json B.json`: judges result file B against A, one row per
//! workload and end-to-end metric, by the bounds the benchmark fixed.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::schema::{Better, Workload, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the metric's value and the runs behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The reported value: the median over every pooled sample.
    pub median: f64,
    /// One value per measuring process — the nearest a single result
    /// comes to independent runs. (The pooled samples would not do: they
    /// also spread with their seeds, which both sides share.)
    pub runs: Summary,
}

impl Side {
    fn from_json(v: &Value) -> Option<Side> {
        let runs: Option<Vec<f64>> = v
            .get("processes")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect();
        Some(Side {
            median: v.get("median")?.as_f64()?,
            runs: Summary::of(&runs?)?,
        })
    }
}

/// The rule of the `choosing-metrics` guide: B's median may be worse than
/// A's by at most `bound` (a share of A's median). Where the run-to-run
/// spread — the wider interquartile distance of the two, as a share of
/// A's median — exceeds the bound, the medians cannot say; the pair is
/// unresolved unless every run of one side beats every run of the other.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    // Oriented so that larger is worse.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let scale = a.median.abs();
    let worse_by = sign * (b.median - a.median) / scale;
    let spread = a.runs.iqr().max(b.runs.iqr()) / scale;
    let (a, b) = (&a.runs, &b.runs);
    let separated = match better {
        Better::Lower => b.max < a.min || a.max < b.min,
        Better::Higher => b.min > a.max || a.min > b.max,
    };
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_u64) != Some(1) {
        return Err(format!("{path}: not a result file of this benchmark"));
    }
    // A smoke run validates the schema; its numbers measure nothing.
    if doc.get("smoke").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{path}: a --smoke result cannot be compared"));
    }
    Ok(doc)
}

fn failure_rate(doc: &Value) -> Option<f64> {
    let attempted = doc.get("ops_attempted")?.as_f64()?;
    Some(doc.get("ops_failed")?.as_f64()? / attempted.max(1.0))
}

/// Compares the files; `Ok(true)` when nothing regressed.
fn compare(base: &str, new: &str) -> Result<bool, String> {
    let (a, b) = (load(base)?, load(new)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "# {label} {}",
            doc.get("header")
                .and_then(|h| h.to_line().ok())
                .unwrap_or_default()
        );
    }
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let side = |doc: &Value| {
                Side::from_json(
                    doc.get("workloads")?
                        .get(w.name())?
                        .get("end_to_end")?
                        .get(m.name)?,
                )
            };
            let (Some(sa), Some(sb)) = (side(&a), side(&b)) else {
                println!(
                    "{:<14} {:<20} missing from one of the files",
                    w.name(),
                    m.name
                );
                ok = false;
                continue;
            };
            let v = verdict(&sa, &sb, m.better, m.bound);
            ok &= v != Verdict::Regressed;
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>8.4}x {:>5.0}%  {} ({}, base A, {}/{} processes)",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.bound * 100.0,
                v.as_str(),
                m.unit,
                sa.runs.n(),
                sb.runs.n()
            );
        }
        let digest = |doc: &Value| {
            Some(
                doc.get("workloads")?
                    .get(w.name())?
                    .get("outcome")?
                    .get("digest")?
                    .as_str()?
                    .to_string(),
            )
        };
        if digest(&a) != digest(&b) {
            // Expected across seeds or across a change to the simulation;
            // on one commit and seed it would mean lost determinism.
            println!(
                "{:<14} simulated output differs: digest {:?} vs {:?}",
                w.name(),
                digest(&a),
                digest(&b)
            );
        }
    }
    match (failure_rate(&a), failure_rate(&b)) {
        (Some(fa), Some(fb)) => {
            println!(
                "failed operations: A {:.4} %, B {:.4} % of attempted",
                fa * 100.0,
                fb * 100.0
            );
            if fb > fa {
                println!("B fails more operations than A");
                ok = false;
            }
        }
        _ => return Err("a file lacks its operation counts".into()),
    }
    Ok(ok)
}

/// Exit code 0 when nothing regressed, 1 on a regression or a higher
/// share of failed operations, 2 when a file cannot be compared.
pub fn run(base: &str, new: &str) -> ExitCode {
    match compare(base, new) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Side {
        let runs = Summary::of(v).unwrap();
        Side {
            median: runs.median,
            runs,
        }
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            verdict(&a, &s(&[1.05, 1.06, 1.04, 1.05, 1.05]), Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &s(&[1.15, 1.16, 1.14, 1.15, 1.15]), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &s(&[0.50, 0.51, 0.49, 0.50, 0.50]), Better::Lower, 0.10),
            Verdict::WithinBound
        );
        // The same numbers read the other way round when higher is better.
        assert_eq!(
            verdict(
                &a,
                &s(&[0.85, 0.86, 0.84, 0.85, 0.85]),
                Better::Higher,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(
                &a,
                &s(&[1.50, 1.51, 1.49, 1.50, 1.50]),
                Better::Higher,
                0.10
            ),
            Verdict::WithinBound
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_one_side_wins_every_run() {
        let noisy = s(&[1.0, 1.3, 0.8, 1.2, 0.9]);
        // Overlapping: the medians cannot say.
        assert_eq!(
            verdict(&noisy, &s(&[1.1, 1.4, 0.9, 1.3, 1.0]), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B is slower than every run of A.
        assert_eq!(
            verdict(&noisy, &s(&[2.0, 2.3, 1.8, 2.2, 1.9]), Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Every run of B is faster than every run of A.
        assert_eq!(
            verdict(&noisy, &s(&[0.5, 0.7, 0.4, 0.6, 0.45]), Better::Lower, 0.10),
            Verdict::WithinBound
        );
    }

    #[test]
    fn single_samples_compare_directly() {
        assert_eq!(
            verdict(&s(&[300.0]), &s(&[310.0]), Better::Lower, 0.05),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&s(&[300.0]), &s(&[320.0]), Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn smoke_and_foreign_files_are_refused() {
        // Under the package's own ignored output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let smoke = write("smoke.json", r#"{"schema": 1, "smoke": true}"#);
        assert!(load(&smoke).unwrap_err().contains("--smoke"));
        let foreign = write("foreign.json", r#"{"bench": "scale"}"#);
        assert!(load(&foreign).unwrap_err().contains("not a result file"));
        let full = write("full.json", r#"{"schema": 1, "smoke": false}"#);
        assert!(load(&full).is_ok());
        assert!(load(&dir.join("absent.json").to_string_lossy()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
