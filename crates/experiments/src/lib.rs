//! # tactic-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! TACTIC paper's evaluation (§7–§8), plus design-choice ablations and
//! quantified baseline comparisons.
//!
//! One binary is the front door:
//!
//! ```text
//! cargo run --release -p tactic-experiments -- <experiment> [flags]
//! ```
//!
//! Each experiment is a library function (so tests can invoke scaled
//! versions) listed once, in [`REGISTRY`] — the table that dispatch,
//! `all` (the whole table in order), `list`/`--help` and the
//! documentation there all derive from.
//! Every simulation any of them performs is one call of
//! [`plane::run_job`], and every experiment is written the same way
//! (see [`plane`]): cells, a shape, and a fold that [`plane::sweep`] runs
//! as each cell's last seed finishes, so no grid of runs is ever held;
//! every file it leaves goes through [`output::output`], whose one
//! trailer names exactly those files.
//!
//! All experiments run at a reduced scale by default (60–120 simulated
//! seconds, 2 seeds) and accept `--paper` for the full 2000 s × 5-seed
//! configuration; see [`opts::RunOpts`].
//!
//! # Per-experiment index
//!
//! Every paper table and figure, the runner that regenerates it and the
//! modules that implement its pieces. The paper's workload throughout is
//! Zipf(0.7), window-5 clients, 10 s tag expiry and BF capacity 500
//! unless a row sweeps it.
//!
//! | Paper | What it reports | Runner | Pieces |
//! |---|---|---|---|
//! | Table I | notation (no data) | — | [`tactic::tag`] |
//! | Table II | qualitative comparison with 10 prior mechanisms | [`tables::table2`] | [`tactic_baselines::comparison`] |
//! | Table III | the four topologies' role counts (Topo1 80/20/10/35/15 … Topo4 560/40/10/213/87) | [`tables::table3`] | [`tactic_topology::paper`] |
//! | Fig. 5 | per-second retrieval latency for BF capacities 500/2500/10000 | [`figures::fig5`] | [`tactic::scenario`], [`tactic_sim::stats::TimeSeries`] |
//! | Table IV | requested/received chunks and delivery ratio, clients vs attackers | [`tables::table4`] | [`tactic::metrics::DeliveryStats`], [`tactic::adversary`] |
//! | Fig. 6 | tag-request and tag-receive rates; 10 s vs 100 s expiry | [`figures::fig6`] | [`tactic::consumer`], [`RunReport::tag_requests`](tactic::RunReport::tag_requests) |
//! | Fig. 7 | BF lookups, insertions and signature verifications, edge vs core | [`figures::fig7`] | [`tactic::router::OpCounters`] |
//! | Fig. 8 | requests absorbed per BF reset vs FPP × expiry (Topo1) | [`figures::fig8`] | [`tactic_bloom::ValidationCache`], [`OpCounters::reset_requests`](tactic::router::OpCounters::reset_requests) |
//! | Table V | BF resets for size × FPP at 10 s expiry, and the improvement | [`tables::table5`] | as Fig. 8 |
//! | §8.A | benchmarked op-latency distributions | the `benchmark/` package | [`tactic_sim::cost`] |
//! | §4–6 design choices | flag `F` on/off, access-path authentication on/off, content-NACK vs drop (Topo1) | [`extras::ablations`] | [`tactic::scenario::Scenario`] toggles |
//! | §1 motivation | wasted bandwidth and provider load: TACTIC vs client-side vs provider-auth AC | [`extras::baselines`] | [`tactic_baselines`] |
//! | §9 future work | traitor tracing from edge sightings | `examples/traitor_hunt.rs` | [`tactic::traitor`] |
//! | §9 future work | client mobility with re-registration after handover | `examples/mobile_handover.rs` | [`tactic::scenario::MobilityConfig`] |
//!
//! The rest of [`REGISTRY`] goes beyond the paper: [`sweep`], [`transport`],
//! [`telemetry`], [`resilience`], [`attacks`], [`profile`], [`tagscale`]
//! and [`scale`].
//!
//! Expected *shape*, not absolute numbers (the substrate is a fresh
//! discrete-event simulator, not the authors' machine): bigger filters
//! mean fewer resets and lower latency (Fig. 5); attacker delivery near
//! 0 against clients near 1, the only attacker successes being filter
//! false positives (Table IV); tag rates linear in the client count and
//! about ¼ when expiry goes 10 s → 100 s (Fig. 6); edge operations far
//! above core ones, lookups far above verifications (Fig. 7);
//! requests per reset growing strongly with FPP and weakly with expiry
//! (Fig. 8); 500 → 5000 items removing ≈95–99 % of resets (Table V).
//! EXPERIMENTS.md holds the measured results.

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
pub mod scale;
pub mod scenario_args;
pub mod sweep;
pub mod tables;
pub mod tagscale;
pub mod telemetry;
pub mod transport;

use std::io;

pub use opts::RunOpts;
use scenario_args::{parse_simulate_args, SimulateArgs, SIMULATE_USAGE};

/// One experiment: its subcommand, what it regenerates, its body.
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&RunOpts) -> io::Result<String>,
);

/// Declares [`REGISTRY`] and its documentation from one list.
macro_rules! registry {
    ($(($name:literal, $about:literal, $run:path),)*) => {
        /// Every experiment, in the order `all` runs them.
        ///
        /// | subcommand | regenerates |
        /// |------------|-------------|
        $(#[doc = concat!("| `", $name, "` | ", $about, " |")])*
        ///
        /// Beside the table: `all` runs every row in sequence, and
        /// `simulate` is one TACTIC run with every scenario knob as a flag
        /// (its own flag surface, see [`scenario_args`]).
        pub const REGISTRY: &[Experiment] = &[$(($name, $about, $run),)*];
    };
}

registry! {
    ("table2", "Table II (mechanism comparison)", tables::table2),
    ("table3", "Table III (topologies)", tables::table3),
    ("table4", "Table IV (delivery ratios)", tables::table4),
    ("fig5", "Fig. 5 (latency vs BF size)", figures::fig5),
    ("fig6", "Fig. 6 (tag Q/R rates)", figures::fig6),
    ("fig7", "Fig. 7 (router L/I/V ops)", figures::fig7),
    ("fig8", "Fig. 8 (requests per BF reset)", figures::fig8),
    ("table5", "Table V (resets vs size/FPP)", tables::table5),
    ("sweep", "full (topology × seed) grid in one parallel batch", sweep::sweep),
    ("ablations", "flag-F / access-path / content-NACK ablations", extras::ablations),
    ("baselines", "TACTIC vs no-AC / client-side / provider-auth", extras::baselines),
    ("transport", "link load + drop accounting from the transport observer", transport::transport),
    ("telemetry", "protocol decision metrics, lifecycle histograms", telemetry::telemetry),
    ("resilience", "graceful degradation under loss, failures, retransmission", resilience::resilience),
    ("attacks", "adversarial degradation curves: attack × intensity × defense", attacks::attacks),
    ("profile", "in-flight sampler + span profiler + Perfetto trace", profile::profile),
    ("tagscale", "tag lifecycle at fleet scale: clients ramp × expiry × cache policy", tagscale::tagscale),
    ("scale", "engine events/s on 10³–10⁵-node fleets: node count × shard count", scale::scale),
}

/// What `help`, `--help` and a bare invocation print: the usage line,
/// the registry, the shared flags.
pub fn usage() -> String {
    let mut out = String::from("usage: tactic-experiments <experiment> [flags]\n\nexperiments:\n");
    for (name, about, _) in REGISTRY {
        out.push_str(&format!("  {name:<11} {about}\n"));
    }
    out.push_str("  all         everything above in sequence\n");
    out.push_str("  simulate    one TACTIC run, every scenario knob a flag (simulate --help)\n");
    out.push_str(&format!("\nflags: {}\n", opts::FLAGS));
    out
}

/// A parsed command line.
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Invocation {
    /// `help`, `list`, `--help` or no subcommand: print this and exit 0.
    Help(String),
    /// One experiment of [`REGISTRY`] — or, for `all`, every one in
    /// order — under its options.
    Run(&'static [Experiment], RunOpts),
    /// The `simulate` subcommand.
    Simulate(SimulateArgs),
}

/// Parses the process arguments (minus `argv[0]`).
///
/// # Errors
///
/// A message naming the valid subcommands or flags; exit status 2.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, String> {
    let Some((command, flags)) = args.split_first() else {
        return Ok(Invocation::Help(usage()));
    };
    match command.as_str() {
        "help" | "list" | "--help" | "-h" => Ok(Invocation::Help(usage())),
        "simulate" => match parse_simulate_args(flags.iter().cloned()) {
            Err(msg) if msg == SIMULATE_USAGE => Ok(Invocation::Help(msg)),
            parsed => parsed.map(Invocation::Simulate),
        },
        _ if flags.iter().any(|a| a == "--help" || a == "-h") => Ok(Invocation::Help(usage())),
        name => {
            let experiments = match REGISTRY.iter().position(|(n, ..)| *n == name) {
                Some(at) => &REGISTRY[at..=at],
                None if name == "all" => REGISTRY,
                None => {
                    let names: Vec<&str> = REGISTRY.iter().map(|(n, ..)| *n).collect();
                    return Err(format!(
                        "unknown experiment `{name}`; one of: {} all simulate",
                        names.join(" ")
                    ));
                }
            };
            let opts = RunOpts::parse(flags.iter().cloned())?;
            Ok(Invocation::Run(experiments, opts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        parse_invocation(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_in_any_position_prints_usage_and_the_registry() {
        for args in [
            &[][..],
            &["help"],
            &["list"],
            &["--help"],
            &["-h"],
            &["fig5", "--help"],
            &["fig5", "--seeds", "2", "-h"],
        ] {
            let Ok(Invocation::Help(text)) = parse(args) else {
                panic!("{args:?} must ask for help");
            };
            assert!(text.starts_with("usage: tactic-experiments <experiment>"));
            for (name, about, _) in REGISTRY {
                assert!(text.contains(&format!("  {name:<11} {about}\n")), "{name}");
            }
            assert!(text.contains("  all ") && text.contains("  simulate "));
            assert!(text.contains("--ramp N1,N2"));
        }
        let Ok(Invocation::Help(text)) = parse(&["simulate", "--help"]) else {
            panic!("simulate --help must ask for help");
        };
        assert_eq!(text, SIMULATE_USAGE);
    }

    #[test]
    fn unknown_subcommands_and_flags_name_the_valid_ones() {
        let Err(msg) = parse(&["fig9"]) else {
            panic!("fig9 is not an experiment");
        };
        assert!(msg.starts_with("unknown experiment `fig9`; one of: table2 table3"));
        assert!(msg.ends_with("scale all simulate"));
        let Err(msg) = parse(&["fig5", "--bogus"]) else {
            panic!("--bogus is not a flag");
        };
        assert!(msg.starts_with("unknown argument `--bogus`; flags: [--paper]"));
        assert!(parse(&["simulate", "--bogus"]).is_err());
    }

    #[test]
    fn subcommands_dispatch_with_their_options() {
        let Ok(Invocation::Run([(name, ..)], opts)) = parse(&["sweep", "--seeds", "3"]) else {
            panic!("sweep is one experiment");
        };
        assert_eq!((*name, opts.seeds), ("sweep", Some(3)));
        let Ok(Invocation::Run(every, _)) = parse(&["all"]) else {
            panic!("all is a subcommand");
        };
        assert_eq!(every.len(), REGISTRY.len());
        let Ok(Invocation::Simulate(args)) = parse(&["simulate", "--seed", "9"]) else {
            panic!("simulate is a subcommand");
        };
        assert_eq!(args.seed, 9);
    }
}
