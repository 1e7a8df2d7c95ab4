//! ISSUE 8's observability guarantees, end to end:
//!
//! * the sim-time sampler's `timeseries.jsonl` bytes are identical
//!   across `--threads {1,8}` × `--shards {1,4}` on both planes — the
//!   time series is a golden artifact like every report field — and
//!   every line of it carries exactly `TIMESERIES_KEYS`, in order;
//! * a *disabled* sampler (the default) leaves the checked-in golden
//!   report snapshot untouched — the observability layer is zero-cost
//!   and zero-effect when off;
//! * an *enabled* sampler never perturbs the simulation trajectory —
//!   deliveries, drops, and PIT peaks match the unsampled run exactly,
//!   only `samples` (excluded from the `Debug` dump) is new.

use tactic::net::{run_scenario, run_scenario_sharded};
use tactic::scenario::Scenario;
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_experiments::opts::{RunOpts, Verbosity};
use tactic_experiments::plane::{sweep, Cell};
use tactic_experiments::runner::scenario_id;
use tactic_sim::time::SimDuration;
use tactic_telemetry::{timeseries_to_jsonl, TIMESERIES_KEYS};
use tactic_topology::paper::PaperTopology;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

fn sampled(secs: u64) -> Scenario {
    let mut s = small(secs);
    s.sample_every = Some(SimDuration::from_secs(1));
    s
}

/// Every line of an emitted `timeseries.jsonl` carries exactly
/// [`TIMESERIES_KEYS`], in that order.
fn assert_lines_carry_the_declared_keys(jsonl: &str) {
    assert!(!jsonl.is_empty(), "sampler produced no rows");
    for line in jsonl.lines() {
        // A key is what sits between a `"` and the `":` that follows it.
        let mut pieces: Vec<&str> = line.split("\":").collect();
        pieces.pop();
        let keys: Vec<&str> = pieces
            .iter()
            .map(|piece| piece.rsplit('"').next().expect("split yields a piece"))
            .collect();
        assert_eq!(keys, *TIMESERIES_KEYS, "{line}");
    }
}

/// The tactic plane across the full `--threads {1,8}` × `--shards
/// {1,4}` matrix: every cell's per-replica time series must be
/// byte-identical to the sequential reference.
#[test]
fn tactic_timeseries_is_byte_identical_across_threads_and_shards() {
    let scenario = sampled(8);
    let sid = scenario_id("observability", &[]);
    let dump = |threads: usize, shards: usize| -> Vec<String> {
        let opts = RunOpts {
            seeds: Some(2),
            threads: Some(threads),
            shards: vec![shards],
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        };
        let cells = [Cell::tactic(PaperTopology::Topo1, sid, ())];
        sweep(&cells, &opts, |_, _| ("obs".into(), scenario.clone()))
            .iter()
            .flatten()
            .map(|run| timeseries_to_jsonl("tactic", run.report.samples()))
            .collect()
    };
    let reference = dump(1, 1);
    for replica in &reference {
        assert_lines_carry_the_declared_keys(replica);
    }
    for (threads, shards) in [(8, 1), (1, 4), (8, 4)] {
        assert_eq!(
            reference,
            dump(threads, shards),
            "--threads {threads} --shards {shards} changed the timeseries bytes"
        );
    }
}

/// The baseline plane across the same matrix: sequential vs. 4-sharded,
/// each re-run under 8 concurrent worker threads.
#[test]
fn baseline_timeseries_is_byte_identical_across_threads_and_shards() {
    let scenario = sampled(8);
    let mechanism = Mechanism::NoAccessControl;
    let reference = timeseries_to_jsonl(
        "no-access-control",
        &run_baseline(&scenario, mechanism, 42).samples,
    );
    assert_lines_carry_the_declared_keys(&reference);
    let (sharded, _) =
        run_baseline_sharded(&scenario, mechanism, 42, 4).expect("small topology fits 4 shards");
    assert_eq!(
        reference,
        timeseries_to_jsonl("no-access-control", &sharded.samples),
        "--shards 4 changed the baseline timeseries bytes"
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let scenario = &scenario;
                scope.spawn(move || {
                    let samples = if i % 2 == 0 {
                        run_baseline(scenario, mechanism, 42).samples
                    } else {
                        run_baseline_sharded(scenario, mechanism, 42, 4)
                            .expect("fits")
                            .0
                            .samples
                    };
                    timeseries_to_jsonl("no-access-control", &samples)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                reference,
                h.join().expect("worker"),
                "8 concurrent workers changed the baseline timeseries bytes"
            );
        }
    });
}

/// An attacked-and-defended run's time series carries the defense drop
/// counters (cumulative and per-interval deltas), reaches a nonzero
/// rate-limited count by the end of the run, and stays byte-identical
/// across shard counts.
#[test]
fn attacked_timeseries_carries_defense_drops_and_stays_byte_identical() {
    use tactic::scenario::{AttackClass, AttackPlan};
    let mut scenario = sampled(8);
    scenario.attack = AttackPlan {
        class: Some(AttackClass::Flood),
        intensity: 500,
    };
    scenario.defense = tactic_experiments::attacks::armed_defense();
    let reference = run_scenario(&scenario, 42);
    assert!(
        reference.drops.rate_limited > 0,
        "flood at 500/s must trip the 150/s token bucket"
    );
    let jsonl = timeseries_to_jsonl("tactic", &reference.samples);
    assert_lines_carry_the_declared_keys(&jsonl);
    for key in ["drops_rate_limited", "drops_face_capped", "drops_pit_full"] {
        assert!(
            TIMESERIES_KEYS.iter().any(|k| k == key)
                && TIMESERIES_KEYS.iter().any(|k| *k == format!("d_{key}")),
            "every timeseries row must carry {key} and d_{key}"
        );
    }
    let last = jsonl.lines().last().expect("sampler produced rows");
    let cumulative: u64 = last
        .split("\"drops_rate_limited\":")
        .nth(1)
        .expect("key present")
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .expect("digits")
        .parse()
        .expect("number");
    assert!(
        cumulative > 0,
        "final sample must have accumulated rate-limited drops: {last}"
    );
    let (sharded, _) =
        run_scenario_sharded(&scenario, 42, 4).expect("small topology fits 4 shards");
    assert_eq!(
        jsonl,
        timeseries_to_jsonl("tactic", &sharded.samples),
        "--shards 4 changed the attacked timeseries bytes"
    );
}

/// The regression ISSUE 8 demands: with the sampler off (the default),
/// the report still reproduces the *checked-in* golden snapshot byte
/// for byte — the observability layer added nothing to the dump and
/// perturbed nothing in the run.
#[test]
fn disabled_sampler_leaves_golden_snapshot_untouched() {
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/tactic_small_seed42.txt");
    let want = std::fs::read_to_string(&golden).expect("golden snapshot present");
    let report = run_scenario(&small(5), 42);
    assert!(
        report.samples.is_empty() && report.profile.is_none(),
        "disabled sampler/profiler must collect nothing"
    );
    assert_eq!(
        want,
        format!("{report:#?}\n"),
        "a disabled sampler perturbed the golden report snapshot"
    );
}

/// An enabled sampler adds `SampleTick` engine events but must not move
/// a single packet: deliveries, drops, and table peaks are unchanged on
/// both planes, sequentially and sharded.
#[test]
fn enabled_sampler_never_perturbs_the_run() {
    let plain = run_scenario(&small(8), 42);
    let watched = run_scenario(&sampled(8), 42);
    assert!(!watched.samples.is_empty());
    assert_eq!(
        format!("{:?}", plain.delivery),
        format!("{:?}", watched.delivery)
    );
    assert_eq!(format!("{:?}", plain.drops), format!("{:?}", watched.drops));
    assert_eq!(plain.peak_pit_records, watched.peak_pit_records);
    assert_eq!(plain.peak_cs_entries, watched.peak_cs_entries);
    assert_eq!(plain.client_timeouts, watched.client_timeouts);

    let (watched_sharded, _) =
        run_scenario_sharded(&sampled(8), 42, 4).expect("small topology fits 4 shards");
    assert_eq!(
        timeseries_to_jsonl("tactic", &watched.samples),
        timeseries_to_jsonl("tactic", &watched_sharded.samples),
    );

    let plain = run_baseline(&small(8), Mechanism::ClientSideAc, 42);
    let watched = run_baseline(&sampled(8), Mechanism::ClientSideAc, 42);
    assert!(!watched.samples.is_empty());
    assert_eq!(plain.client_received, watched.client_received);
    assert_eq!(plain.client_timeouts, watched.client_timeouts);
    assert_eq!(plain.peak_pit_records, watched.peak_pit_records);
    assert_eq!(plain.peak_cs_entries, watched.peak_cs_entries);
}
