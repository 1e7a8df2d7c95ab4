//! # tactic-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! TACTIC paper's evaluation (§7–§8), plus the ablations and quantified
//! baseline comparisons DESIGN.md calls out.
//!
//! Each experiment is a library function (so the bench crate and tests can
//! invoke scaled versions) with a thin binary wrapper in `src/bin/`:
//!
//! | binary     | regenerates |
//! |------------|-------------|
//! | `table2`   | Table II (mechanism comparison) |
//! | `table3`   | Table III (topologies) |
//! | `fig5`     | Fig. 5 (latency vs BF size) |
//! | `table4`   | Table IV (delivery ratios) |
//! | `fig6`     | Fig. 6 (tag Q/R rates) |
//! | `fig7`     | Fig. 7 (router L/I/V ops) |
//! | `fig8`     | Fig. 8 (requests per BF reset) |
//! | `table5`   | Table V (resets vs size/FPP) |
//! | `sweep`    | full (topology × seed) grid in one parallel batch |
//! | `ablations`| flag-F / access-path / content-NACK ablations |
//! | `baselines`| TACTIC vs no-AC / client-side / provider-auth |
//! | `transport`| link load + drop accounting from the transport observer |
//! | `telemetry`| protocol decision metrics, lifecycle histograms, manifests |
//! | `resilience`| graceful degradation under loss, failures, retransmission |
//! | `attacks`  | adversarial degradation curves: attack × intensity × defense |
//! | `profile`  | in-flight sampler + span profiler + Perfetto trace |
//! | `tagscale` | tag lifecycle at fleet scale: clients ramp × expiry × cache policy |
//! | `all`      | everything above in sequence |
//!
//! All binaries run at a reduced scale by default (60–120 simulated
//! seconds, 2 seeds) and accept `--paper` for the full 2000 s × 5-seed
//! configuration; see [`opts::RunOpts`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod chart;
pub mod extras;
pub mod figures;
pub mod opts;
pub mod output;
pub mod plane;
pub mod profile;
pub mod resilience;
pub mod runner;
pub mod scenario_args;
pub mod sweep;
pub mod tables;
pub mod tagscale;
pub mod telemetry;
pub mod transport;

pub use opts::RunOpts;

/// Runs one experiment binary's body: parse options, run, print.
///
/// Exits the process with an error message on bad arguments or I/O
/// failure (binary-wrapper convenience).
pub fn binary_main(name: &str, f: fn(&RunOpts) -> std::io::Result<String>) {
    let opts = match RunOpts::from_env() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{name}: {msg}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    match f(&opts) {
        Ok(report) => {
            println!("{report}");
            eprintln!("[{name}] completed in {:.1?}", started.elapsed());
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
    }
}
