//! The four workloads and the untraced measurement (`--trace 0`): the
//! end-to-end metrics, measured from outside through `Network::build`,
//! `Network::run` and `run_scenario_sharded`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tactic::consumer::{AttackerStrategy, ConsumerKind};
use tactic::metrics::RunReport;
use tactic::net::{run_scenario_sharded, Network};
use tactic::scenario::{
    AttackClass, AttackPlan, FaultPlan, RetransmitPolicy, Scenario, TagLifetimePolicy,
    TopologyChoice,
};
use tactic_bloom::CachePolicy;
use tactic_crypto::hash::Hasher64;
use tactic_net::ShardedStats;
use tactic_sim::rng::derive_seed;
use tactic_sim::time::SimDuration;
use tactic_topology::fleet::FleetSpec;
use tactic_topology::paper::PaperTopology;

use crate::alloc::counted;
use crate::child;
use crate::json::Value;
use crate::ops::Ops;
use crate::schema::{Workload, END_TO_END};
use crate::stats::Summary;

/// Fleet size of `fleet_seq` / `fleet_sharded`. ~0.2 GB resident, far
/// beyond the caches (ns/event is twice the paper preset's), and small
/// enough that a run of the benchmark fits a dozen repetitions into its
/// window on a 2-core host. At 10^5 nodes, the size ROADMAP quotes, one
/// repetition takes ~10 s there and a run would hold two.
pub const FLEET_NODES: usize = 30_000;

/// Shard count of `fleet_sharded`. Fixed, not `nproc`, so numbers
/// compare across hosts; the load never exceeds two worker threads.
pub const SHARDS: usize = 2;

/// Timed repetitions per measuring process are at least this many,
/// however slow the host.
const MIN_REPS: usize = 2;

/// Build-only samples taken up front where a build is cheap (a Topo1
/// build is ~2 ms; 25 samples hold its median within a few percent). On
/// the fleets every repetition needs a fresh build anyway and supplies
/// one sample.
const CHEAP_BUILD_SAMPLES: usize = 25;

impl Workload {
    pub fn sharded(self) -> bool {
        self == Workload::FleetSharded
    }

    /// The scenario; `smoke` divides horizons by 20 and fleets by 10.
    pub fn scenario(self, smoke: bool) -> Scenario {
        let shrink = if smoke { 20 } else { 1 };
        match self {
            Workload::PaperTopo1 => {
                let mut s = Scenario::paper(PaperTopology::Topo1);
                s.duration = SimDuration::from_millis(20_000 / shrink);
                s
            }
            Workload::FleetSeq | Workload::FleetSharded => {
                let nodes = if smoke { FLEET_NODES / 10 } else { FLEET_NODES };
                let mut s = Scenario::small();
                s.topology = TopologyChoice::Custom(FleetSpec::sized(nodes).to_table_spec());
                s.duration = SimDuration::from_millis(300 / shrink);
                s.objects_per_provider = 10;
                s.chunks_per_object = 10;
                s
            }
            Workload::EdgeStorm => {
                let mut s = Scenario::paper(PaperTopology::Topo1);
                s.duration = SimDuration::from_millis(4_000 / shrink);
                s.attack = AttackPlan {
                    class: Some(AttackClass::ForgeTags),
                    intensity: 1_000,
                };
                s.faults = FaultPlan::uniform_loss(0.05);
                s.retransmit = Some(RetransmitPolicy {
                    max_retries: 3,
                    max_backoff_shift: 3,
                });
                s.lifetime = TagLifetimePolicy::Churn {
                    validity: SimDuration::from_secs(2),
                    lead: SimDuration::from_millis(500),
                    jitter: SimDuration::from_millis(250),
                };
                s.cache_policy = CachePolicy::Generational {
                    generations: 8,
                    partitions: 2,
                };
                s.track_revalidations = true;
                s
            }
        }
    }
}

/// The ceiling on the share of *all* attacker requests that may be
/// delivered — the one `tactic`'s own crate example asserts.
///
/// The paper's claim, no unauthorised delivery beyond the Bloom filter's
/// false-positive bound, is checked where it holds: on attackers without
/// a valid tag ([`Outcome::invalid_tag_received`]). It does not hold for
/// `InsufficientLevel` principals at the commit that introduced this
/// benchmark. They hold genuine low-level tags, so an edge router
/// validates them and sets `F`, and a content router that trusts `F` on
/// an aggregated record skips the access-level pre-check: up to 1.5 % of
/// all attacker requests on the fleets, and 0.3 % on about one Topo1
/// seed in a hundred. That is a finding for a correctness issue, not
/// something for a benchmark to hide or to fail on, so the overall ratio
/// is printed with every result and gated only here.
const MAX_ATTACKER_RATIO: f64 = 0.05;

/// The zero-horizon variant whose sharded "run" is set-up only: builds
/// both replicas, runs no epoch, merges.
fn zero_horizon(scenario: &Scenario) -> Scenario {
    Scenario {
        duration: SimDuration::ZERO,
        ..scenario.clone()
    }
}

/// What one repetition simulated — everything the output checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `Hasher64` of `format!("{report:?}")`, the repo's golden format.
    pub digest: u64,
    pub events: u64,
    /// `delivery.client_requested + delivery.attacker_requested`.
    pub interests: u64,
    pub client_ratio: f64,
    /// Share of all attacker requests that were delivered.
    pub attacker_ratio: f64,
    /// Chunks requested by the attackers that hold no valid tag (none, a
    /// forged one, an expired one) ...
    pub invalid_tag_requested: u64,
    /// ... and delivered to them: what only a Bloom-filter false positive
    /// can let through.
    pub invalid_tag_received: u64,
}

/// Streams `Debug` output into the repo's 64-bit hasher so a fleet report
/// (tens of MB as a string) is never materialised.
struct DebugHash(Hasher64);

impl std::fmt::Write for DebugHash {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

impl Outcome {
    pub fn of(report: &RunReport) -> Outcome {
        let mut h = DebugHash(Hasher64::new());
        write!(h, "{report:?}").expect("hashing cannot fail");
        let (mut requested, mut received) = (0, 0);
        for (kind, stats) in &report.consumers {
            use AttackerStrategy::{ExpiredTag, FakeTag, NoTag};
            if matches!(kind, ConsumerKind::Attacker(NoTag | FakeTag | ExpiredTag)) {
                requested += stats.requested_chunks;
                received += stats.received_chunks;
            }
        }
        Outcome {
            digest: h.0.finish(),
            events: report.events,
            interests: report.delivery.client_requested + report.delivery.attacker_requested,
            client_ratio: report.delivery.client_ratio(),
            attacker_ratio: report.delivery.attacker_ratio(),
            invalid_tag_requested: requested,
            invalid_tag_received: received,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            // A string: 64 bits do not fit a JSON number.
            ("digest", Value::str(format!("{:016x}", self.digest))),
            ("sim_events", Value::Num(self.events as f64)),
            ("interests", Value::Num(self.interests as f64)),
            ("client_ratio", Value::Num(self.client_ratio)),
            ("attacker_ratio", Value::Num(self.attacker_ratio)),
            (
                "invalid_tag_requested",
                Value::Num(self.invalid_tag_requested as f64),
            ),
            (
                "invalid_tag_received",
                Value::Num(self.invalid_tag_received as f64),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Outcome> {
        Some(Outcome {
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            events: v.get("sim_events")?.as_u64()?,
            interests: v.get("interests")?.as_u64()?,
            client_ratio: v.get("client_ratio")?.as_f64()?,
            attacker_ratio: v.get("attacker_ratio")?.as_f64()?,
            invalid_tag_requested: v.get("invalid_tag_requested")?.as_u64()?,
            invalid_tag_received: v.get("invalid_tag_received")?.as_u64()?,
        })
    }
}

/// Interests offered to the network: what consumers requested plus what
/// the attack plan injects at its configured rate. The adversarial
/// drivers are open-loop and the report does not count their Interests,
/// so that term comes from the plan; without it `edge_storm` would divide
/// ~6 M allocations by the ~550 requests its starved clients get out.
fn interests_offered(scenario: &Scenario, outcome: &Outcome) -> f64 {
    let adversarial = if scenario.attack.active() {
        let attackers = scenario.topology.spec().attackers as f64;
        attackers * f64::from(scenario.attack.intensity) * scenario.duration.as_secs_f64()
    } else {
        0.0
    };
    outcome.interests as f64 + adversarial
}

/// One repetition's host-side measurements and its report.
pub struct Rep {
    /// `Network::build` wall-clock; `None` when sharded (the replicas are
    /// built inside the one call, see [`setup_only`]).
    pub setup_s: Option<f64>,
    /// `Network::run` wall-clock, or the whole `run_scenario_sharded` call.
    pub wall_s: f64,
    pub report: RunReport,
    pub sharded: Option<ShardedStats>,
}

/// Builds and runs once. `on_span(name, start, end)` sees the
/// benchmark-side spans around the calls.
pub fn rep(
    workload: Workload,
    scenario: &Scenario,
    seed: u64,
    mut on_span: impl FnMut(&'static str, Instant, Instant),
) -> Rep {
    let t0 = Instant::now();
    if workload.sharded() {
        let (report, stats) =
            run_scenario_sharded(scenario, seed, SHARDS).expect("the fleet outnumbers the shards");
        let t1 = Instant::now();
        on_span("run", t0, t1);
        Rep {
            setup_s: None,
            wall_s: (t1 - t0).as_secs_f64(),
            report,
            sharded: Some(stats),
        }
    } else {
        let net = Network::build(scenario, seed);
        let t1 = Instant::now();
        let report = net.run();
        let t2 = Instant::now();
        on_span("setup", t0, t1);
        on_span("run", t1, t2);
        Rep {
            setup_s: Some((t1 - t0).as_secs_f64()),
            wall_s: (t2 - t1).as_secs_f64(),
            report,
            sharded: None,
        }
    }
}

/// Wall-clock from `Scenario` to a runnable network, then drop.
pub fn setup_only(workload: Workload, scenario: &Scenario, seed: u64) -> f64 {
    let t = Instant::now();
    if workload.sharded() {
        drop(
            run_scenario_sharded(&zero_horizon(scenario), seed, SHARDS)
                .expect("fleet outnumbers shards"),
        );
    } else {
        drop(Network::build(scenario, seed));
    }
    t.elapsed().as_secs_f64()
}

/// The run phase of a sharded call, which builds and runs in one: the
/// call minus a zero-horizon call on the same seed. A smoke horizon is
/// shorter than the noise of that subtraction, so there the result is
/// floored; a full run that comes out non-positive is a failed
/// measurement.
pub fn sharded_run_phase(wall_s: f64, setup_s: f64, smoke: bool) -> f64 {
    let run_s = wall_s - setup_s;
    if smoke {
        run_s.max(1e-6)
    } else {
        run_s
    }
}

/// The output checks every repetition passes. The simulation is
/// deterministic, so a repetition of a seed already run (`reference`)
/// must reproduce it exactly; and on every seed the security and
/// delivery claims must hold.
pub fn check(
    workload: Workload,
    scenario: &Scenario,
    smoke: bool,
    got: &Outcome,
    reference: Option<&Outcome>,
) -> Result<(), String> {
    if let Some(reference) = reference.filter(|r| *r != got) {
        return Err(format!(
            "simulated output changed: {got:?}, first repetition {reference:?}"
        ));
    }
    if got.events == 0 || got.interests == 0 {
        return Err("the run simulated nothing".into());
    }
    // A smoke horizon is too short for the delivery claims: most of the
    // window is still in flight when it ends.
    if smoke {
        return Ok(());
    }
    // The false-positive bound is on an expectation (at most 0.2
    // deliveries at the request counts here), so a count is compared with
    // it plus three: under the bound that many more have a probability
    // below 1e-4, while a broken validation path delivers hundreds.
    let allowed = got.invalid_tag_requested as f64 * scenario.bf_max_fpp + 3.0;
    if got.invalid_tag_received as f64 > allowed {
        return Err(format!(
            "attackers without a valid tag received {} of {} requests; the Bloom filter's false-positive bound {} allows {allowed:.1}",
            got.invalid_tag_received, got.invalid_tag_requested, scenario.bf_max_fpp
        ));
    }
    if got.attacker_ratio > MAX_ATTACKER_RATIO {
        return Err(format!(
            "attackers received {} of their requests, ceiling {MAX_ATTACKER_RATIO}",
            got.attacker_ratio
        ));
    }
    if workload == Workload::PaperTopo1 && got.client_ratio < 0.99 {
        return Err(format!(
            "clients received only {} of their requests",
            got.client_ratio
        ));
    }
    Ok(())
}

/// The sequential run of a sharded workload's scenario: the byte-identity
/// gate.
pub fn check_against_sequential(
    scenario: &Scenario,
    seed: u64,
    reference: &Outcome,
) -> Result<(), String> {
    let sequential = Outcome::of(&Network::build(scenario, seed).run());
    if &sequential == reference {
        Ok(())
    } else {
        Err(format!(
            "sharded {reference:?} differs from sequential {sequential:?}"
        ))
    }
}

/// `VmHWM` of this process in MiB (`None` off Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What `--trace 0` measured.
pub struct Measured {
    pub ops: Ops,
    /// What the first seed simulated.
    pub outcome: Option<Outcome>,
    /// In [`END_TO_END`] order; `None` where every sample failed.
    pub end_to_end: Vec<Option<Summary>>,
    /// In the same order: the median of each measuring process. Their
    /// spread is what `--compare` takes for run-to-run noise — the pooled
    /// samples also spread with their seeds, which two runs share.
    pub processes: Vec<Vec<f64>>,
}

impl Measured {
    fn of(ops: Ops, outcome: Option<Outcome>, end_to_end: Vec<Option<Summary>>) -> Measured {
        let processes = end_to_end
            .iter()
            .map(|s| s.iter().map(|s| s.median).collect())
            .collect();
        Measured {
            ops,
            outcome,
            end_to_end,
            processes,
        }
    }
}

/// The seed of timed repetition `i` in a process seeded `seed`. The first
/// repeats the warm-up's seed, which is the determinism check; every later
/// one runs a seed of its own, because host time depends on the seed (the
/// topology, and on `fleet_sharded` the balance of the partition) by more
/// than the bounds allow, and only a median over many seeds is steady.
fn rep_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        derive_seed(seed, 0, 0, i as u64)
    }
}

/// Measures the end-to-end metrics of `workload` in this process for
/// about `seconds`. `check_sequential`: also run a sharded workload's
/// scenario sequentially and compare (once per run is enough, so only
/// the first measuring process pays for it).
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    check_sequential: bool,
) -> Measured {
    let scenario = workload.scenario(smoke);
    let mut ops = Ops::default();
    let no_span = |_: &'static str, _: Instant, _: Instant| {};

    // Warm-up: first-touch page faults make a process's first repetition
    // markedly slower, so it is never timed. It fixes the reference
    // outcome, it is the one repetition whose allocations are counted,
    // and the process's RSS high-water mark is read right after it:
    // later repetitions only add heap fragmentation, more of it the more
    // of them fit into the window.
    let warm = ops.run("warm-up", || {
        let (report, allocs, rss) = if workload.sharded() {
            let (r, full) = counted(|| rep(workload, &scenario, seed, no_span));
            let rss = peak_rss_mb();
            let (_, build_only) = counted(|| setup_only(workload, &scenario, seed));
            (r.report, full.saturating_sub(build_only), rss)
        } else {
            let net = Network::build(&scenario, seed);
            let (report, allocs) = counted(|| net.run());
            (report, allocs, peak_rss_mb())
        };
        let outcome = Outcome::of(&report);
        check(workload, &scenario, smoke, &outcome, None)?;
        Ok((outcome, allocs, rss))
    });
    let Some((reference, allocs, rss)) = warm else {
        return Measured::of(ops, None, vec![None; END_TO_END.len()]);
    };
    if workload.sharded() && check_sequential {
        ops.run("sequential reference", || {
            check_against_sequential(&scenario, seed, &reference)
        });
    }

    let window = Instant::now();
    let mut setup = Vec::new();
    let mut run = Vec::new();
    let cheap_builds = match workload {
        Workload::PaperTopo1 | Workload::EdgeStorm => CHEAP_BUILD_SAMPLES,
        Workload::FleetSeq | Workload::FleetSharded => 0,
    };
    for _ in 0..if smoke { 1 } else { cheap_builds } {
        setup.extend(ops.run("build only", || Ok(setup_only(workload, &scenario, seed))));
    }
    let min_reps = if smoke { 1 } else { MIN_REPS };
    let mut i = 0;
    while run.len() < min_reps || (!smoke && window.elapsed().as_secs_f64() < seconds) {
        if ops.failed > min_reps as u64 {
            break; // broken, not slow: do not burn the window
        }
        let seed = rep_seed(seed, i);
        let timed = ops.run("timed repetition", || {
            let r = rep(workload, &scenario, seed, no_span);
            check(
                workload,
                &scenario,
                smoke,
                &Outcome::of(&r.report),
                (i == 0).then_some(&reference),
            )?;
            Ok((r.setup_s, r.wall_s))
        });
        i += 1;
        let Some((setup_s, wall_s)) = timed else {
            continue;
        };
        if workload.sharded() {
            // The one call builds and runs: its set-up is the zero-horizon
            // call on the same seed, its run phase the difference.
            if let Some(s) = ops.run("build only", || Ok(setup_only(workload, &scenario, seed))) {
                setup.push(s);
                run.push(sharded_run_phase(wall_s, s, smoke));
            }
        } else {
            setup.extend(setup_s);
            run.push(wall_s);
        }
    }

    let offered = interests_offered(&scenario, &reference);
    Measured::of(
        ops,
        Some(reference),
        vec![
            Summary::of(&run).filter(|r| r.min > 0.0),
            Summary::of(&setup),
            rss.and_then(|v| Summary::of(&[v])),
            Summary::of(&[allocs as f64 / offered]),
        ],
    )
}

/// The seed of measuring process `p` of a run seeded `seed`. The traced
/// run uses process 0's, so that both report on the same simulation.
pub fn process_seed(seed: u64, p: u64) -> u64 {
    derive_seed(seed, 0, 1, p)
}

/// Measuring processes per run of a workload.
///
/// One process is one heap and stack layout, and host time differs by a
/// few percent from layout to layout whatever the code (5 % on
/// `fleet_sharded`, where thread placement joins in); `VmHWM` needs a
/// process of its own anyway. So a run measures in several processes,
/// each with a seed of its own, and pools their samples.
const PROCESSES: u64 = 4;

/// Measures `workload` in [`PROCESSES`] child processes, one after the
/// other, each for its share of `seconds`, and pools what they report:
/// every timed repetition and build of every process for `run_s` and
/// `setup_s`, one sample per process for `peak_rss_mb` and
/// `allocs_per_interest`. A child that dies or hangs is a failed
/// operation.
pub fn measure_in_processes(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Measured {
    let mut ops = Ops::default();
    let mut outcome = None;
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut medians = samples.clone();
    let processes = if smoke { 1 } else { PROCESSES };
    let share = (seconds / processes).max(1);
    // Warm-up, checks and the last repetition's overshoot come on top of
    // the window; past this the child is hung.
    let timeout = Duration::from_secs(share * 4 + 60);
    for p in 0..processes {
        let mut args =
            child::workload_args(workload.name(), false, process_seed(seed, p), share, smoke);
        args.extend(["--leaf".to_string(), p.to_string()]);
        let detail = ops.run("measuring process", || {
            child::run(&child::this_executable()?, &args, timeout)
        });
        let Some(detail) = detail else {
            continue;
        };
        ops.absorb(&detail, &format!("process {p}"));
        if outcome.is_none() {
            outcome = detail.get("outcome").and_then(Outcome::from_json);
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let summary = detail
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(Summary::from_json);
            if let Some(s) = summary {
                medians[i].push(s.median);
                samples[i].extend(s.samples);
            }
        }
    }
    Measured {
        ops,
        outcome,
        end_to_end: samples.iter().map(|s| Summary::of(s)).collect(),
        processes: medians,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenarios_shrink_horizon_and_fleet() {
        for w in Workload::ALL {
            let (full, smoke) = (w.scenario(false), w.scenario(true));
            assert_eq!(
                full.duration.as_nanos(),
                smoke.duration.as_nanos() * 20,
                "{}",
                w.name()
            );
        }
        let nodes = |s: &Scenario| {
            let t = s.topology.spec();
            t.routers() + t.edge_routers + t.providers + t.users()
        };
        assert_eq!(nodes(&Workload::FleetSeq.scenario(false)), FLEET_NODES);
        assert_eq!(
            nodes(&Workload::FleetSharded.scenario(true)),
            FLEET_NODES / 10
        );
    }

    #[test]
    fn edge_storm_leaves_the_fast_path_everywhere_the_issue_lists() {
        let s = Workload::EdgeStorm.scenario(false);
        assert!(s.attack.active() && !s.faults.is_none() && s.retransmit.is_some());
        assert!(s.lifetime.is_churn() && s.track_revalidations && !s.defense.active());
        assert_eq!(s.cache_policy.summary(), "gen8x2");
        let p = Workload::PaperTopo1.scenario(false);
        assert!(!p.attack.active() && p.faults.is_none() && p.retransmit.is_none());
    }

    fn outcome() -> Outcome {
        Outcome {
            digest: 7,
            events: 100,
            interests: 50,
            client_ratio: 0.997,
            attacker_ratio: 0.0,
            invalid_tag_requested: 1_200,
            invalid_tag_received: 0,
        }
    }

    #[test]
    fn offered_load_adds_the_attack_plan_rate() {
        let o = Outcome {
            interests: 500,
            ..outcome()
        };
        let storm = Workload::EdgeStorm.scenario(false);
        // 15 attackers x 1000/s x 4 s on top of the 500 requested.
        assert_eq!(interests_offered(&storm, &o), 60_500.0);
        let paper = Workload::PaperTopo1.scenario(false);
        assert_eq!(interests_offered(&paper, &o), 500.0);
    }

    #[test]
    fn checks_catch_a_changed_simulation_and_a_broken_claim() {
        let s = Workload::PaperTopo1.scenario(false);
        let paper = |got: &Outcome, reference: Option<&Outcome>| {
            check(Workload::PaperTopo1, &s, false, got, reference)
        };
        let good = outcome();
        assert_eq!(paper(&good, Some(&good)), Ok(()));
        let moved = Outcome {
            digest: 8,
            ..good.clone()
        };
        assert!(paper(&moved, Some(&good)).unwrap_err().contains("changed"));
        // A seed of its own has nothing to be compared with.
        assert_eq!(paper(&moved, None), Ok(()));

        // 1200 requests under a 1e-4 bound: 0.12 expected, 3 tolerated.
        let unlucky = Outcome {
            invalid_tag_received: 3,
            ..good.clone()
        };
        assert_eq!(paper(&unlucky, None), Ok(()));
        let forged = Outcome {
            invalid_tag_received: 4,
            ..good.clone()
        };
        assert!(paper(&forged, None)
            .unwrap_err()
            .contains("false-positive bound"));
        // The known low-level-tag leak passes; a wide-open network does not.
        let leaky = Outcome {
            attacker_ratio: 0.015,
            ..good.clone()
        };
        assert_eq!(paper(&leaky, None), Ok(()));
        let open = Outcome {
            attacker_ratio: 0.06,
            ..good.clone()
        };
        assert!(paper(&open, None).unwrap_err().contains("ceiling"));

        let starved = Outcome {
            client_ratio: 0.9,
            ..good.clone()
        };
        assert!(paper(&starved, None)
            .unwrap_err()
            .contains("clients received only"));
        assert_eq!(
            check(Workload::EdgeStorm, &s, false, &starved, None),
            Ok(())
        );
        assert_eq!(
            check(Workload::PaperTopo1, &s, true, &starved, None),
            Ok(())
        );
        let empty = Outcome { events: 0, ..good };
        assert!(check(Workload::PaperTopo1, &s, true, &empty, None).is_err());
    }

    #[test]
    fn outcomes_survive_the_trip_through_a_child_process() {
        let o = Outcome {
            digest: 0xFEDC_BA98_7654_3210,
            attacker_ratio: 0.005,
            ..outcome()
        };
        assert_eq!(Outcome::from_json(&o.to_json()), Some(o.clone()));
        let line = o.to_json().to_line().unwrap();
        assert!(line.contains("\"digest\":\"fedcba9876543210\""), "{line}");
        assert_eq!(Outcome::from_json(&Value::Null), None);
    }

    #[test]
    fn repetitions_after_the_first_run_seeds_of_their_own() {
        assert_eq!(rep_seed(42, 0), 42);
        let later: std::collections::BTreeSet<u64> = (0..100).map(|i| rep_seed(42, i)).collect();
        assert_eq!(later.len(), 100);
        assert_ne!(rep_seed(42, 1), rep_seed(43, 1));
    }

    #[test]
    fn the_digest_hashes_the_debug_form() {
        let report = RunReport::default();
        let mut h = Hasher64::new();
        h.update(format!("{report:?}").as_bytes());
        assert_eq!(Outcome::of(&report).digest, h.finish());
        let other = RunReport {
            events: 1,
            ..RunReport::default()
        };
        assert_ne!(Outcome::of(&other).digest, h.finish());
    }
}
