//! The `simulate` subcommand: command-line construction of a full
//! [`Scenario`] — a flag surface exposing every knob of the simulation —
//! and the rendering of its run.

use tactic::access::AccessLevel;
use tactic::consumer::AttackerStrategy;
use tactic::scenario::{MobilityConfig, Scenario, TopologyChoice};
use tactic_sim::cost::CostModel;
use tactic_sim::time::SimDuration;
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::TopologySpec;

use crate::opts::{RunOpts, Verbosity};
use crate::plane::{run_job, PlaneId};
use crate::runner::{scenario_id, GridJob};

/// Usage text for the `simulate` subcommand. Every `(default …)` is
/// checked against the parser's no-flag scenario by a unit test.
pub const SIMULATE_USAGE: &str = "\
usage: tactic-experiments simulate [flags]
  --topo N                  paper topology 1-4 (default 1)
  --custom C,E,P,CL,AT      custom topology: core,edge,providers,clients,attackers
  --duration SECS           simulated seconds (default 60)
  --seed N                  RNG seed (default 1)
  --bf-capacity N           Bloom-filter capacity in tags (default 500)
  --bf-hashes K             Bloom-filter hash count (default 5)
  --bf-max-fpp P            reset-threshold FPP (default 1e-4)
  --tag-validity SECS       tag validity period (default 10)
  --objects N               objects per provider (default 50)
  --chunks N                chunks per object (default 50)
  --chunk-size BYTES        payload bytes per chunk (default 8192)
  --zipf ALPHA              popularity exponent (default 0.7)
  --window N                outstanding-request window (default 5)
  --timeout-ms MS           request expiry (default 1000)
  --cs-capacity N           content-store packets per router (default 300)
  --levels L1,L2,...        content access levels, 0=public (default 2)
  --attackers A,B,...       mix: no-tag fake expired insufficient shared
  --access-path             enforce access-path authentication
  --no-flag-f               disable the cooperation flag F
  --no-content-nack         disable content+NACK replies
  --sightings               record sightings for traitor tracing
  --mobility DWELL,FRAC     mobile clients: mean dwell secs, fraction
  --cost paper|printed|free computation-cost model (default paper)
";

/// Parsed `simulate` invocation: the scenario plus the run seed.
#[derive(Debug, Clone)]
pub struct SimulateArgs {
    /// The fully-built scenario.
    pub scenario: Scenario,
    /// The run seed.
    pub seed: u64,
}

/// Parses `simulate` flags (argv minus the program name).
///
/// # Errors
///
/// Returns a message (or the usage text for `--help`) on malformed input.
pub fn parse_simulate_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<SimulateArgs, String> {
    let mut scenario = Scenario::paper(PaperTopology::Topo1);
    scenario.duration = SimDuration::from_secs(60);
    let mut seed = 1u64;
    let mut it = args.into_iter();

    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or(format!("{flag} needs a value"))
    }
    fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
    }

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--topo" => {
                let v = value(&mut it, "--topo")?;
                let idx: usize = num(&v, "--topo")?;
                let topo = PaperTopology::ALL
                    .get(idx.wrapping_sub(1))
                    .ok_or(format!("topology {idx} out of range 1-4"))?;
                scenario.topology = TopologyChoice::Paper(*topo);
            }
            "--custom" => {
                let v = value(&mut it, "--custom")?;
                let parts: Vec<usize> = v
                    .split(',')
                    .map(|p| num(p.trim(), "--custom"))
                    .collect::<Result<_, _>>()?;
                let [core, edge, prov, clients, attackers]: [usize; 5] = parts
                    .try_into()
                    .map_err(|_| "--custom needs exactly 5 counts: C,E,P,CL,AT".to_string())?;
                scenario.topology = TopologyChoice::Custom(TopologySpec {
                    core_routers: core,
                    edge_routers: edge,
                    providers: prov,
                    clients,
                    attackers,
                });
            }
            "--duration" => {
                scenario.duration =
                    SimDuration::from_secs(num(&value(&mut it, "--duration")?, "--duration")?);
            }
            "--seed" => seed = num(&value(&mut it, "--seed")?, "--seed")?,
            "--bf-capacity" => {
                scenario.bf_capacity = num(&value(&mut it, "--bf-capacity")?, "--bf-capacity")?;
            }
            "--bf-hashes" => {
                scenario.bf_hashes = num(&value(&mut it, "--bf-hashes")?, "--bf-hashes")?;
            }
            "--bf-max-fpp" => {
                scenario.bf_max_fpp = num(&value(&mut it, "--bf-max-fpp")?, "--bf-max-fpp")?;
            }
            "--tag-validity" => {
                scenario.tag_validity = SimDuration::from_secs(num(
                    &value(&mut it, "--tag-validity")?,
                    "--tag-validity",
                )?);
            }
            "--objects" => {
                scenario.objects_per_provider = num(&value(&mut it, "--objects")?, "--objects")?;
            }
            "--chunks" => {
                scenario.chunks_per_object = num(&value(&mut it, "--chunks")?, "--chunks")?;
            }
            "--chunk-size" => {
                scenario.chunk_size = num(&value(&mut it, "--chunk-size")?, "--chunk-size")?;
            }
            "--zipf" => scenario.zipf_alpha = num(&value(&mut it, "--zipf")?, "--zipf")?,
            "--window" => scenario.window = num(&value(&mut it, "--window")?, "--window")?,
            "--timeout-ms" => {
                scenario.request_timeout = SimDuration::from_millis(num(
                    &value(&mut it, "--timeout-ms")?,
                    "--timeout-ms",
                )?);
            }
            "--cs-capacity" => {
                scenario.cs_capacity = num(&value(&mut it, "--cs-capacity")?, "--cs-capacity")?;
            }
            "--levels" => {
                let v = value(&mut it, "--levels")?;
                let mut levels = Vec::new();
                for p in v.split(',') {
                    let n: u8 = num(p.trim(), "--levels")?;
                    levels.push(if n == 0 {
                        AccessLevel::Public
                    } else {
                        AccessLevel::Level(n - 1)
                    });
                }
                if levels.is_empty() {
                    return Err("--levels needs at least one level".into());
                }
                scenario.content_levels = levels;
            }
            "--attackers" => {
                let v = value(&mut it, "--attackers")?;
                let mut mix = Vec::new();
                for p in v.split(',') {
                    mix.push(match p.trim() {
                        "no-tag" => AttackerStrategy::NoTag,
                        "fake" => AttackerStrategy::FakeTag,
                        "expired" => AttackerStrategy::ExpiredTag,
                        "insufficient" => AttackerStrategy::InsufficientLevel,
                        "shared" => AttackerStrategy::SharedTag,
                        other => return Err(format!("unknown attacker strategy `{other}`")),
                    });
                }
                scenario.attacker_mix = mix;
            }
            "--access-path" => scenario.access_path_enabled = true,
            "--no-flag-f" => scenario.flag_f_enabled = false,
            "--no-content-nack" => scenario.content_nack_enabled = false,
            "--sightings" => scenario.record_sightings = true,
            "--mobility" => {
                let v = value(&mut it, "--mobility")?;
                let (dwell, frac) = v
                    .split_once(',')
                    .ok_or("--mobility needs DWELL_SECS,FRACTION".to_string())?;
                scenario.mobility = Some(MobilityConfig {
                    mean_dwell: SimDuration::from_secs(num(dwell.trim(), "--mobility")?),
                    mobile_fraction: num(frac.trim(), "--mobility")?,
                });
            }
            "--cost" => {
                scenario.cost_model = match value(&mut it, "--cost")?.as_str() {
                    "paper" => CostModel::paper(),
                    "printed" => CostModel::paper_printed(),
                    "free" => CostModel::free(),
                    other => return Err(format!("unknown cost model `{other}`")),
                };
            }
            "--help" | "-h" => return Err(SIMULATE_USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    // A window wider than the catalog never fills: every chunk in flight,
    // the user keeps drawing for a free one.
    let chunks = (scenario.topology.spec().providers)
        .saturating_mul(scenario.objects_per_provider)
        .saturating_mul(scenario.chunks_per_object);
    if !(1..=chunks).contains(&scenario.window) {
        return Err(format!(
            "--window {} must be between 1 and the catalog's {chunks} chunks \
             (providers x objects x chunks)",
            scenario.window
        ));
    }
    Ok(SimulateArgs { scenario, seed })
}

/// Runs the parsed scenario once on the TACTIC plane from its `--seed`
/// and renders the full report.
pub fn simulate(args: &SimulateArgs) -> String {
    let spec = args.scenario.topology.spec();
    let mut out = format!(
        "TACTIC simulation: {} core + {} edge routers, {} providers, {} clients, {} attackers, {}\n",
        spec.core_routers,
        spec.edge_routers,
        spec.providers,
        spec.clients,
        spec.attackers,
        args.scenario.duration
    );
    let job = GridJob {
        label: "simulate".into(),
        // Grid coordinates are provenance only here: the seed is the user's.
        topology: 0,
        scenario_id: scenario_id("simulate", &[]),
        run_idx: 0,
        scenario: &args.scenario,
    };
    let quiet = RunOpts {
        verbosity: Verbosity::Quiet,
        ..RunOpts::default()
    };
    let run = run_job(
        PlaneId::Tactic,
        &job,
        args.seed,
        (0, 1),
        &quiet,
        |_| tactic_net::NoopObserver,
        |_| tactic_telemetry::NoopProtocolObserver,
    );
    eprintln!(
        "[simulate] {} events in {} ms",
        run.manifest.sim_events, run.manifest.wall_ms
    );
    let r = run.report.into_tactic();

    out.push_str(&format!(
        "\n-- delivery --\n\
         clients   : {:>9} requested  {:>9} received  ratio {:.4}\n\
         attackers : {:>9} requested  {:>9} received  ratio {:.4}\n",
        r.delivery.client_requested,
        r.delivery.client_received,
        r.delivery.client_ratio(),
        r.delivery.attacker_requested,
        r.delivery.attacker_received,
        r.delivery.attacker_ratio()
    ));
    out.push_str(&format!(
        "\n-- latency --\nmean client retrieval latency: {:.2} ms\n",
        r.mean_latency() * 1e3
    ));
    out.push_str(&format!(
        "\n-- tags --\nQ = {:.2}/s ({} requests), R = {:.2}/s ({} received)\n",
        r.tag_request_rate(),
        r.tag_requests,
        r.tag_receive_rate(),
        r.tags_received
    ));
    out.push_str("\n-- router operations --\n");
    for (tier, ops, resets) in [
        ("edge", r.edge_ops, r.edge_requests_per_reset()),
        ("core", r.core_ops, r.core_requests_per_reset()),
    ] {
        out.push_str(&format!(
            "{tier}: L={} I={} V={} resets={} (req/reset {:.0}) precheck-drops={} ap-drops={} nacks={}\n",
            ops.bf_lookups,
            ops.bf_insertions,
            ops.sig_verifications,
            ops.bf_resets,
            resets,
            ops.precheck_rejections,
            ops.ap_rejections,
            ops.nacks
        ));
    }
    out.push_str(&format!(
        "\n-- providers --\n\
         tags issued {} | registrations denied {} | chunks served {} | nacks {}\n",
        r.providers.tags_issued,
        r.providers.registrations_denied,
        r.providers.chunks_served,
        r.providers.nacks
    ));
    if r.moves > 0 {
        out.push_str(&format!("\n-- mobility --\nhandovers: {}\n", r.moves));
    }
    if !r.sightings.is_empty() {
        out.push_str(&format!(
            "\n-- sightings --\n{} recorded (feed to tactic::traitor::TraitorTracer)\n",
            r.sightings.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SimulateArgs, String> {
        parse_simulate_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_paper_topo1_at_60s() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scenario.duration, SimDuration::from_secs(60));
        assert_eq!(a.seed, 1);
        assert!(matches!(
            a.scenario.topology,
            TopologyChoice::Paper(PaperTopology::Topo1)
        ));
    }

    /// The usage cannot document a default that is not the default: for
    /// every flag whose line says `(default X)`, passing `X` changes
    /// nothing.
    #[test]
    fn every_documented_default_is_the_default() {
        let unflagged = format!("{:?}", parse(&[]).unwrap());
        let mut documented = 0;
        for line in SIMULATE_USAGE.lines() {
            let Some((_, rest)) = line.split_once("(default ") else {
                continue;
            };
            let flag = line.split_whitespace().next().expect("a flag");
            let default = rest.trim_end_matches(')');
            let flagged = parse(&[flag, default]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_eq!(format!("{flagged:?}"), unflagged, "{flag} {default}");
            documented += 1;
        }
        assert_eq!(documented, 16);
    }

    #[test]
    fn full_flag_surface_parses() {
        let a = parse(&[
            "--custom",
            "10,3,2,6,3",
            "--duration",
            "30",
            "--seed",
            "9",
            "--bf-capacity",
            "100",
            "--bf-hashes",
            "7",
            "--bf-max-fpp",
            "0.01",
            "--tag-validity",
            "5",
            "--objects",
            "20",
            "--chunks",
            "8",
            "--chunk-size",
            "4096",
            "--zipf",
            "1.1",
            "--window",
            "3",
            "--timeout-ms",
            "500",
            "--cs-capacity",
            "50",
            "--levels",
            "0,2",
            "--attackers",
            "fake,shared",
            "--access-path",
            "--no-flag-f",
            "--no-content-nack",
            "--sightings",
            "--mobility",
            "7,0.5",
            "--cost",
            "printed",
        ])
        .unwrap();
        let s = &a.scenario;
        assert_eq!(a.seed, 9);
        assert_eq!(s.topology.spec().clients, 6);
        assert_eq!(s.bf_capacity, 100);
        assert_eq!(s.bf_hashes, 7);
        assert_eq!(s.bf_max_fpp, 0.01);
        assert_eq!(s.tag_validity, SimDuration::from_secs(5));
        assert_eq!(s.objects_per_provider, 20);
        assert_eq!(s.chunks_per_object, 8);
        assert_eq!(s.chunk_size, 4096);
        assert_eq!(s.zipf_alpha, 1.1);
        assert_eq!(s.window, 3);
        assert_eq!(s.request_timeout, SimDuration::from_millis(500));
        assert_eq!(s.cs_capacity, 50);
        assert_eq!(
            s.content_levels,
            vec![AccessLevel::Public, AccessLevel::Level(1)]
        );
        assert_eq!(
            s.attacker_mix,
            vec![AttackerStrategy::FakeTag, AttackerStrategy::SharedTag]
        );
        assert!(s.access_path_enabled);
        assert!(!s.flag_f_enabled);
        assert!(!s.content_nack_enabled);
        assert!(s.record_sightings);
        let m = s.mobility.unwrap();
        assert_eq!(m.mean_dwell, SimDuration::from_secs(7));
        assert_eq!(m.mobile_fraction, 0.5);
        assert_eq!(s.cost_model, CostModel::paper_printed());
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&["--topo", "9"])
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&["--custom", "1,2,3"])
            .unwrap_err()
            .contains("exactly 5"));
        assert!(parse(&["--attackers", "ninja"])
            .unwrap_err()
            .contains("ninja"));
        assert!(parse(&["--mobility", "5"]).unwrap_err().contains("DWELL"));
        assert!(parse(&["--cost", "wrong"]).unwrap_err().contains("wrong"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("--help"));
        assert!(parse(&["--help"]).unwrap_err().contains("usage"));
    }

    #[test]
    fn a_window_must_fit_the_catalog() {
        let catalog = ["--custom", "2,1,1,1,0", "--objects", "1", "--chunks", "2"];
        let with = |window: &str| parse(&[&catalog[..], &["--window", window]].concat());
        assert!(with("0")
            .unwrap_err()
            .contains("between 1 and the catalog's 2 chunks"));
        assert!(with("3")
            .unwrap_err()
            .contains("between 1 and the catalog's 2 chunks"));
        assert_eq!(with("2").unwrap().scenario.window, 2);
        // The default window of 5 against the same two chunks.
        let err = parse(&catalog).unwrap_err();
        assert!(err.starts_with("--window 5 must be"), "{err}");
    }

    #[test]
    fn parsed_scenario_actually_runs() {
        let a = parse(&[
            "--custom",
            "8,2,1,3,1",
            "--duration",
            "5",
            "--objects",
            "5",
            "--chunks",
            "4",
        ])
        .unwrap();
        let report = simulate(&a);
        assert!(report.starts_with("TACTIC simulation: 8 core + 2 edge routers"));
        assert!(report.contains("-- delivery --") && report.contains("-- providers --"));
        let same = tactic::net::run_scenario(&a.scenario, a.seed);
        assert!(same.delivery.client_requested > 0);
        assert!(report.contains(&format!(
            "clients   : {:>9} requested",
            same.delivery.client_requested
        )));
    }
}
