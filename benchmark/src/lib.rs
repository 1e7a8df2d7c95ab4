//! The repo benchmark. Three ways to run it, all from the repo root:
//!
//! * `-- --workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload: the end-to-end metrics (`--trace 0`, measured in several
//!   processes of their own) or every per-layer metric (`--trace 1`), one
//!   JSON object on the last line of stdout. This is the form
//!   `BENCHMARK.json` names.
//! * `-- [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]` — the
//!   whole suite: runs the form above for every workload and trace mode,
//!   checks across workloads, prints every metric and writes
//!   `benchmark/out/result.json`.
//! * `-- --compare A.json B.json` — judges two result files by the
//!   benchmark's own bounds.
//!
//! Everything is measured from outside, through public functions and the
//! public `RunReport` / `ShardedStats` / `SpanProfiler` results. Host time
//! and host memory are the metrics; simulated statistics are exact and
//! checked for identity.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc;
mod child;
mod compare;
mod fingerprint;
pub mod json;
mod layers;
mod ops;
pub mod schema;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use schema::{Workload, END_TO_END};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The measurement window of one run; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;

const USAGE: &str = "\
usage, from the repo root (cargo run --release --manifest-path benchmark/Cargo.toml -- ...):
  --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]   one workload, one JSON line
  [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]                  the whole suite
  --compare <A.json> <B.json>                                            judge B against A
workloads: paper_topo1 fleet_seq fleet_sharded edge_storm";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    One {
        workload: Workload,
        trace: bool,
        /// Set by the benchmark itself on the measuring processes of a
        /// `--trace 0` run: measure here, as process number `leaf`.
        leaf: Option<u64>,
    },
    Suite {
        out: String,
    },
    Compare {
        base: String,
        new: String,
    },
    Help,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = None;
    let mut leaf = None;
    let mut out = None;
    let mut compare = None;
    let mut parsed = Args {
        mode: Mode::Help,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => {
                parsed.seconds = number(value()?)?;
                if !(1..=600).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--leaf" => leaf = Some(number(value()?)?),
            "--smoke" => parsed.smoke = true,
            "--out" => out = Some(value()?.clone()),
            "--compare" => compare = Some((value()?.clone(), value()?.clone())),
            "--help" | "-h" => return Ok(parsed),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.mode = match (compare, workload, trace) {
        (Some((base, new)), None, None) if out.is_none() => Mode::Compare { base, new },
        (Some(_), ..) => return Err("--compare takes two files and nothing else".into()),
        (None, Some(_), Some(true)) if leaf.is_some() => {
            return Err("--leaf belongs to --trace 0".into())
        }
        (None, Some(workload), Some(trace)) if out.is_none() => Mode::One {
            workload,
            trace,
            leaf,
        },
        (None, Some(_), Some(_)) => {
            return Err("--out belongs to the suite, not to one workload".into())
        }
        (None, Some(_), None) | (None, None, Some(_)) => {
            return Err("--workload and --trace go together".into());
        }
        (None, None, None) if leaf.is_some() => return Err("--leaf belongs to one workload".into()),
        (None, None, None) => Mode::Suite {
            out: out.unwrap_or_else(|| "benchmark/out/result.json".into()),
        },
    };
    Ok(parsed)
}

/// One metric of a workload run: the contract's value and unit, and the
/// form the result file keeps.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    form: Value,
}

/// One workload. Prints the metrics, then the detail line the suite and
/// the parent of a measuring process read back, then — last — the
/// contract's JSON object.
fn run_one(
    workload: Workload,
    trace: bool,
    leaf: Option<u64>,
    args: &Args,
    origin: Instant,
) -> ExitCode {
    println!(
        "# {} seed {} trace {} window {} s{}{}",
        workload.name(),
        args.seed,
        u8::from(trace),
        args.seconds,
        if args.smoke { " (smoke)" } else { "" },
        leaf.map_or(String::new(), |p| format!(" (measuring process {p})")),
    );
    let seconds = args.seconds as f64;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut missing: Vec<&'static str> = Vec::new();
    let mut spans = trace::Spans::new(origin);
    let (ops, outcome) = if trace {
        let mut ops = ops::Ops::default();
        let seed = workloads::process_seed(args.seed, 0);
        let traced = trace::trace(workload, seed, seconds, args.smoke, &mut ops, &mut spans);
        let drivers = layers::run(seconds, args.smoke, args.seed, &mut ops, &mut spans);
        let values: Vec<(&str, f64)> = drivers.into_iter().chain(traced.values).collect();
        for layer in schema::per_layer() {
            match values.iter().find(|(n, _)| *n == layer.name) {
                Some(&(_, value)) => metrics.push(Metric {
                    name: layer.name,
                    value,
                    unit: layer.unit,
                    form: Value::obj([
                        ("unit", Value::str(layer.unit)),
                        ("value", Value::Num(value)),
                    ]),
                }),
                None => missing.push(layer.name),
            }
        }
        (ops, traced.outcome)
    } else {
        let m = match leaf {
            Some(p) => workloads::measure(workload, args.seed, seconds, args.smoke, p == 0),
            None => workloads::measure_in_processes(workload, args.seed, args.seconds, args.smoke),
        };
        for ((metric, summary), processes) in END_TO_END.iter().zip(&m.end_to_end).zip(&m.processes)
        {
            let Some(s) = summary else {
                missing.push(metric.name);
                continue;
            };
            let mut form = s.to_json(metric.unit);
            if let Value::Obj(fields) = &mut form {
                let medians = processes.iter().map(|&v| Value::Num(v)).collect();
                fields.push(("processes".to_string(), Value::Arr(medians)));
            }
            metrics.push(Metric {
                name: metric.name,
                value: s.median,
                unit: metric.unit,
                form,
            });
        }
        (m.ops, m.outcome)
    };

    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(o) = &outcome {
        println!(
            "digest {:016x}  sim.events {}  interests {}  client_ratio {:.4}  attacker_ratio {:.6}  invalid-tag deliveries {}/{}",
            o.digest, o.events, o.interests, o.client_ratio, o.attacker_ratio, o.invalid_tag_received, o.invalid_tag_requested
        );
    }
    println!("ops_attempted {}  ops_failed {}", ops.attempted, ops.failed);
    for f in &ops.failures {
        eprintln!("FAILED {f}");
    }
    if !missing.is_empty() {
        eprintln!("no value for: {}", missing.join(" "));
        return ExitCode::FAILURE;
    }

    let contract = Value::obj([
        ("correct", Value::Bool(ops.all_passed())),
        ("attempted", Value::Num(ops.attempted as f64)),
        ("failed", Value::Num(ops.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                )
            })),
        ),
    ]);
    let span = |s: &trace::Span| {
        Value::obj([
            ("name", Value::str(&s.name)),
            ("start_s", Value::Num(s.start_s)),
            ("end_s", Value::Num(s.end_s)),
        ])
    };
    let outcome = outcome
        .as_ref()
        .map_or(Value::Null, workloads::Outcome::to_json);
    let detail = Value::obj(ops.to_json().into_iter().chain([
        ("outcome", outcome),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|m| (m.name, m.form))),
        ),
        ("spans", Value::Arr(spans.spans.iter().map(span).collect())),
    ]));
    match (detail.to_line(), contract.to_line()) {
        (Ok(detail), Ok(contract)) => {
            println!("{}{detail}", child::DETAIL_PREFIX);
            println!("{contract}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("a measurement is not a finite number");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark's `main`: `argv` without the program name.
pub fn run(argv: Vec<String>) -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Mode::One {
            workload,
            trace,
            leaf,
        } => run_one(*workload, *trace, *leaf, &args, origin),
        Mode::Suite { out } => suite::run(args.seed, args.seconds, args.smoke, out),
        Mode::Compare { base, new } => compare::run(base, new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_contract_command_line_selects_one_workload() {
        let a = parse("--workload fleet_seq --seed 42 --seconds 7 --trace 1").unwrap();
        let mode = Mode::One {
            workload: Workload::FleetSeq,
            trace: true,
            leaf: None,
        };
        assert_eq!((a.mode, a.seed, a.seconds, a.smoke), (mode, 42, 7, false));
        let a = parse("--workload edge_storm --trace 0 --leaf 2 --smoke").unwrap();
        let mode = Mode::One {
            workload: Workload::EdgeStorm,
            trace: false,
            leaf: Some(2),
        };
        assert_eq!(
            (a.mode, a.seed, a.seconds, a.smoke),
            (mode, 1, DEFAULT_SECONDS, true)
        );
    }

    #[test]
    fn no_workload_means_the_suite_with_defaults() {
        let a = parse("").unwrap();
        assert_eq!((a.seed, a.seconds, a.smoke), (1, DEFAULT_SECONDS, false));
        assert_eq!(
            a.mode,
            Mode::Suite {
                out: "benchmark/out/result.json".into()
            }
        );
        let a = parse("--smoke --seed 3 --out x.json").unwrap();
        assert_eq!((a.seed, a.smoke), (3, true));
        assert_eq!(
            a.mode,
            Mode::Suite {
                out: "x.json".into()
            }
        );
        assert_eq!(
            parse("--compare a.json b.json").unwrap().mode,
            Mode::Compare {
                base: "a.json".into(),
                new: "b.json".into()
            }
        );
        assert_eq!(parse("--help").unwrap().mode, Mode::Help);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--workload fleet_seq",
            "--trace 1",
            "--trace 2 --workload fleet_seq",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--frobnicate",
            "--leaf 0",
            "--workload fleet_seq --trace 1 --leaf 0",
            "--compare a.json",
            "--compare a.json b.json --seed 1 --workload fleet_seq --trace 0",
            "--workload fleet_seq --trace 0 --out x.json",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
