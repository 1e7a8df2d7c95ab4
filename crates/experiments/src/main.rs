//! The one front door: `tactic-experiments <experiment> [flags]` (see
//! `tactic-experiments list`, or [`tactic_experiments::REGISTRY`]).

use std::io::ErrorKind;
use std::time::Instant;

use tactic_experiments::scenario_args::simulate;
use tactic_experiments::{parse_invocation, Invocation};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_invocation(&args) {
        Ok(Invocation::Help(text)) => print!("{text}"),
        Ok(Invocation::Simulate(args)) => print!("{}", simulate(&args)),
        Ok(Invocation::Run(experiments, opts)) => {
            for (name, _, run) in experiments {
                let started = Instant::now();
                match run(&opts) {
                    Ok(report) => {
                        if experiments.len() > 1 {
                            println!("================ {name} ================");
                        }
                        println!("{report}");
                        eprintln!("[{name}] completed in {:.1?}", started.elapsed());
                    }
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        // Invalid input is a bad argument only the
                        // experiment could judge; anything else is I/O.
                        let bad_argument = e.kind() == ErrorKind::InvalidInput;
                        std::process::exit(if bad_argument { 2 } else { 1 });
                    }
                }
            }
        }
        Err(msg) => {
            eprintln!("tactic-experiments: {msg}");
            std::process::exit(2);
        }
    }
}
