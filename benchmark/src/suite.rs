//! The whole suite: every workload untraced and traced, each run in a
//! process of its own exactly as `BENCHMARK.json` names it, then the
//! checks that need more than one workload, the printed tables and
//! `result.json`.

use std::process::ExitCode;
use std::time::Duration;

use crate::child;
use crate::fingerprint;
use crate::json::Value;
use crate::ops::Ops;
use crate::schema::{Workload, DRIVERS, END_TO_END, TRACED};
use crate::stats::Summary;

/// Family D is workload-independent but every traced run measures it
/// (the contract prints every per-layer metric on every workload); the
/// suite reports each driver's median over those processes.
fn merge_drivers(traced: &[Value]) -> Vec<(String, Value)> {
    DRIVERS
        .iter()
        .filter_map(|layer| {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|d| d.get("metrics")?.get(layer.name)?.get("value")?.as_f64())
                .collect();
            Some((
                layer.name.to_string(),
                Summary::of(&samples)?.to_json(layer.unit),
            ))
        })
        .collect()
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

/// Runs everything. Exit code 0 only when every operation passed.
pub fn run(seed: u64, seconds: u64, smoke: bool, out_path: &str) -> ExitCode {
    // A run gets its window, warm-ups and set-up in each of its measuring
    // processes, and slack for a slow host; past that it is hung.
    let timeout = Duration::from_secs(if smoke { 60 } else { seconds * 6 + 180 });
    let mut total = Ops::default();
    let mut workloads: Vec<(String, Value)> = Vec::new();
    let mut traced_details: Vec<Value> = Vec::new();

    for workload in Workload::ALL {
        let mut entry: Vec<(&str, Value)> = Vec::new();
        let mut ops = Ops::default();
        let mut untraced_outcome = None;
        for trace in [false, true] {
            let what = if trace {
                "traced run and layer drivers"
            } else {
                "end to end"
            };
            eprintln!("[{}] {what}", workload.name());
            let args = child::workload_args(workload.name(), trace, seed, seconds, smoke);
            // A dead child is that workload's failed operation, not the
            // end of the benchmark.
            let Some(d) = ops.run(what, || {
                child::run(&child::this_executable()?, &args, timeout)
            }) else {
                continue;
            };
            ops.absorb(&d, what);
            let part = |key: &str| d.get(key).cloned().unwrap_or(Value::Null);
            if trace {
                // The traced run repeats the first measuring process's
                // seed in a process of its own: the same simulation, or
                // something depends on the process (a hasher's random
                // state, say).
                ops.run(
                    "the same simulation in another process",
                    || match &untraced_outcome {
                        Some(o) if *o != part("outcome") => Err(format!(
                            "traced process simulated {:?}, first measuring process {o:?}",
                            part("outcome")
                        )),
                        _ => Ok(()),
                    },
                );
                // Family T only; family D is reported once, merged.
                let all = part("metrics");
                let own = all.as_obj().unwrap_or(&[]).iter();
                let own = own.filter(|(name, _)| TRACED.iter().any(|l| l.name == name));
                entry.push(("per_layer", Value::Obj(own.cloned().collect())));
                entry.push(("spans", part("spans")));
                traced_details.push(d);
            } else {
                untraced_outcome = Some(part("outcome"));
                entry.push(("outcome", part("outcome")));
                entry.push(("end_to_end", part("metrics")));
            }
        }
        let head = [("why", Value::str(workload.why()))];
        let full = head.into_iter().chain(ops.to_json()).chain(entry);
        workloads.push((workload.name().to_string(), Value::obj(full)));
        total.absorb(&Value::obj(ops.to_json()), workload.name());
    }
    let workloads = Value::Obj(workloads);

    // The byte-identity gate once more, across processes: on the same
    // seed the sharded fleet reports exactly what the sequential one does.
    total.run("fleet_sharded against fleet_seq", || {
        let digest = |w: Workload| {
            field(&workloads, &[w.name(), "outcome", "digest"]).and_then(Value::as_str)
        };
        match (digest(Workload::FleetSeq), digest(Workload::FleetSharded)) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (a, b) => Err(format!("digest {b:?} differs from digest {a:?}")),
        }
    });

    let result = Value::obj([
        ("schema", Value::Num(1.0)),
        ("smoke", Value::Bool(smoke)),
        ("header", fingerprint::header(seed, seconds)),
        ("ops_attempted", Value::Num(total.attempted as f64)),
        ("ops_failed", Value::Num(total.failed as f64)),
        ("workloads", workloads),
        ("layers", Value::Obj(merge_drivers(&traced_details))),
    ]);
    print_tables(&result);
    for f in &total.failures {
        println!("FAILED {f}");
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        total.attempted, total.failed
    );

    let written = result
        .to_pretty()
        .map_err(|e| e.to_string())
        .and_then(|text| {
            if let Some(dir) = std::path::Path::new(out_path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(out_path, text).map_err(|e| format!("{out_path}: {e}"))
        });
    match written {
        Ok(()) => println!("wrote {out_path}"),
        Err(why) => {
            eprintln!("cannot write the result: {why}");
            return ExitCode::FAILURE;
        }
    }
    if total.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every metric by name with its unit.
fn print_tables(result: &Value) {
    let num = |v: Option<&Value>| {
        v.and_then(Value::as_f64)
            .map_or("-".to_string(), |n| format!("{n:.6}"))
    };
    let summary_row = |name: &str, unit: &str, s: Option<&Value>| {
        let get = |k: &str| num(s.and_then(|s| s.get(k)));
        let n = s
            .and_then(|s| s.get("n"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        println!(
            "   {name:<34} {:>14} {:>14} {:>14} {n:>4}  {unit}",
            get("median"),
            get("q1"),
            get("q3")
        );
    };
    let summary_head = |what: &str| {
        println!(
            "   {what:<34} {:>14} {:>14} {:>14} {:>4}  unit",
            "median", "q1", "q3", "n"
        )
    };
    if let Some(h) = result.get("header") {
        println!("# header {}", h.to_line().unwrap_or_default());
    }
    for (name, w) in result
        .get("workloads")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
    {
        println!("\n== {name}");
        if let Some(o) = w.get("outcome") {
            println!("   outcome {}", o.to_line().unwrap_or_default());
        }
        summary_head("end to end");
        for m in &END_TO_END {
            summary_row(m.name, m.unit, field(w, &["end_to_end", m.name]));
        }
        println!("   {:<34} {:>14}  unit", "traced run", "value");
        for l in &TRACED {
            println!(
                "   {:<34} {:>14}  {}",
                l.name,
                num(field(w, &["per_layer", l.name, "value"])),
                l.unit
            );
        }
    }
    println!("\n== layer drivers (median over the traced processes)");
    summary_head("driver");
    for l in &DRIVERS {
        summary_row(l.name, l.unit, field(result, &["layers", l.name]));
    }
    // Replicated worlds: what sharding costs in memory today.
    let rss = |w: &str| {
        field(
            result,
            &["workloads", w, "end_to_end", "peak_rss_mb", "median"],
        )
        .and_then(Value::as_f64)
    };
    if let (Some(seq), Some(sharded)) = (rss("fleet_seq"), rss("fleet_sharded")) {
        println!(
            "\npeak_rss_mb fleet_sharded / fleet_seq = {sharded:.1} / {seq:.1} MiB = {:.2}x",
            sharded / seq
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_merge_to_the_median_over_processes() {
        let child = |v: f64| {
            Value::obj([(
                "metrics",
                Value::obj([
                    (
                        "ndn.fib.lpm_ns",
                        Value::obj([("unit", Value::str("ns")), ("value", Value::Num(v))]),
                    ),
                    (
                        "sim.events",
                        Value::obj([("unit", Value::str("count")), ("value", Value::Num(9.0))]),
                    ),
                ]),
            )])
        };
        let merged = merge_drivers(&[child(30.0), child(10.0), child(20.0)]);
        // Only drivers, and only the ones some child reported.
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].0, "ndn.fib.lpm_ns");
        assert_eq!(
            merged[0].1.get("median").and_then(Value::as_f64),
            Some(20.0)
        );
        assert_eq!(merged[0].1.get("n").and_then(Value::as_u64), Some(3));
    }
}
