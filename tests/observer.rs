//! The observer layer must be free: runs built with the no-op observer
//! produce reports byte-identical to observer-free runs, on both planes,
//! and the parallel grid runner (any `--threads` value) agrees with
//! individually built no-op-observed runs seed for seed.

use tactic::metrics::RunReport;
use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_baselines::net::{run_baseline, BaselineSpec};
use tactic_baselines::Mechanism;
use tactic_experiments::opts::{RunOpts, Verbosity};
use tactic_experiments::plane::{sweep, Cell, PlaneRun};
use tactic_experiments::runner::{scenario_id, BASE_SEED};
use tactic_net::{harness, NoopObserver};
use tactic_sim::rng::derive_seed;
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;
use tactic_topology::paper::PaperTopology;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

/// The general form with explicit no-op observers.
fn noop_observed(s: &Scenario, seed: u64) -> RunReport {
    harness::run(s, seed, 1, |_| NoopObserver, |_| NoopProtocolObserver)
        .expect("one shard always fits")
        .0
}

#[test]
fn noop_observer_leaves_tactic_reports_byte_identical() {
    let s = small(5);
    let plain = run_scenario(&s, 42);
    let observed = noop_observed(&s, 42);
    assert_eq!(format!("{plain:#?}"), format!("{observed:#?}"));
}

#[test]
fn noop_observer_leaves_baseline_reports_byte_identical() {
    let s = small(5);
    for mechanism in Mechanism::ALL {
        let plain = run_baseline(&s, mechanism, 42);
        let spec = BaselineSpec::new(&s, mechanism);
        let (observed, ..) = harness::run(&spec, 42, 1, |_| NoopObserver, |_| NoopProtocolObserver)
            .expect("one shard always fits");
        assert_eq!(
            format!("{plain:#?}"),
            format!("{observed:#?}"),
            "{mechanism}"
        );
    }
}

#[test]
fn grid_thread_counts_and_noop_observed_runs_all_agree() {
    let s = small(5);
    let sid = scenario_id("observer-noop", &[]);
    let replicas = |threads: usize| {
        let opts = RunOpts {
            seeds: Some(3),
            threads: Some(threads),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        };
        let cells = [Cell::tactic(PaperTopology::Topo1, sid, ())];
        let shape = |_: &Cell<()>, _| ("obs".into(), s.clone());
        sweep(&cells, &opts, shape, |_, runs| runs).0.remove(0)
    };
    let (serial, parallel) = (replicas(1), replicas(4));
    for i in 0..serial.len() {
        let seed = derive_seed(
            BASE_SEED,
            PaperTopology::Topo1.index() as u32,
            sid,
            i as u64,
        );
        let want = format!("{:#?}", noop_observed(&s, seed));
        let got = |runs: &[PlaneRun]| format!("{:#?}", runs[i].report.tactic());
        assert_eq!(got(&serial), want, "run {i}, --threads 1");
        assert_eq!(got(&parallel), want, "run {i}, --threads 4");
    }
}
