//! Golden-report snapshots guarding the shared-transport refactor.
//!
//! The files under `tests/snapshots/` were first generated from the
//! pre-refactor simulation planes (`crates/core/src/net.rs` and
//! `crates/baselines/src/net.rs` before their event loops were unified into
//! `tactic-net`), and last when reports began to print latency as
//! per-second buckets and digests. These tests re-run the same small
//! scenarios and assert the aggregated reports are byte-identical, per
//! plane and per `--threads` count: a refactor must not perturb a single
//! RNG draw, event timestamp, or engine sequence number.
//!
//! Regenerate (only when a *deliberate* behaviour change lands) with:
//!
//! ```sh
//! SNAPSHOT_UPDATE=1 cargo test --test report_snapshots
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::run_baseline;
use tactic_bloom::CachePolicy;
use tactic_experiments::opts::{RunOpts, Verbosity};
use tactic_experiments::plane::{sweep, Cell, PlaneRun};
use tactic_experiments::runner::scenario_id;
use tactic_sim::time::SimDuration;
use tactic_topology::paper::PaperTopology;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("SNAPSHOT_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir");
        std::fs::write(&path, got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {name} ({e}); run with SNAPSHOT_UPDATE=1"));
    if want != got {
        // The files run to megabytes: say where, not what.
        let (mut w, mut g) = (want.split('\n'), got.split('\n'));
        let mut lines = (1..).map(|n| (n, w.next(), g.next()));
        let (line, w, g) = lines.find(|(_, w, g)| w != g).expect("the texts differ");
        let end = "<end of file>";
        panic!(
            "report for {name} diverged from the pre-refactor snapshot at line {line}:\n  \
             want: {}\n  got:  {}",
            w.unwrap_or(end),
            g.unwrap_or(end)
        );
    }
}

fn dump_runs(runs: &[PlaneRun]) -> String {
    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        let r = run.report.tactic();
        writeln!(out, "=== run {i} ===\n{r:#?}").expect("string write");
    }
    out
}

#[test]
fn tactic_plane_small_report_is_byte_identical() {
    let r = run_scenario(&small(5), 42);
    check("tactic_small_seed42.txt", &format!("{r:#?}\n"));
}

/// Turns one of the router's switches on a scenario.
type Ablation = fn(&mut Scenario);

/// The paper defaults leave the ablation switches idle; this golden runs
/// the router's other branches: every request fully validated (`F`
/// ignored), invalid tags dropped instead of content-NACKed, access-path
/// enforcement with traitor-tracing sightings, a bounded PIT over a small
/// generational cache that tracks eviction-forced re-validations, and
/// Protocol 4's check of aggregated requesters.
#[test]
fn tactic_plane_ablation_reports_are_byte_identical() {
    let ablations: [(&str, Ablation); 5] = [
        ("flag_f_disabled", |s| s.flag_f_enabled = false),
        ("content_nack_disabled", |s| s.content_nack_enabled = false),
        ("access_path_with_sightings", |s| {
            s.access_path_enabled = true;
            s.record_sightings = true;
        }),
        // Small enough that the PIT evicts and the filters rotate, and
        // tags verified before a rotation are verified again.
        ("bounded_pit_generational_cache", |s| {
            s.defense.pit_capacity = Some(4);
            s.bf_capacity = 4;
            s.cache_policy = CachePolicy::Generational {
                generations: 2,
                partitions: 2,
            };
            s.track_revalidations = true;
        }),
        // A one-packet store over a two-object catalog: concurrent
        // requests from different clients aggregate at core routers, so
        // the Data path checks each aggregated requester's tag.
        ("aggregation", |s| {
            s.cs_capacity = 1;
            s.objects_per_provider = 2;
        }),
    ];
    let mut out = String::new();
    for (label, ablate) in ablations {
        let mut s = small(5);
        ablate(&mut s);
        let r = run_scenario(&s, 42);
        writeln!(out, "=== {label} ===\n{r:#?}").expect("string write");
    }
    check("tactic_ablations_seed42.txt", &out);
}

#[test]
fn baseline_planes_small_reports_are_byte_identical() {
    let r = run_baseline(&small(5), Mechanism::ClientSideAc, 42);
    check("baseline_client_side_seed42.txt", &format!("{r:#?}\n"));
    let r = run_baseline(&small(5), Mechanism::ProviderAuthAc, 42);
    check("baseline_provider_auth_seed42.txt", &format!("{r:#?}\n"));
}

#[test]
fn grid_reports_are_byte_identical_across_thread_counts() {
    let s = small(5);
    let sid = scenario_id("refactor-snapshot", &[]);
    let replicas = |threads: usize| {
        let opts = RunOpts {
            seeds: Some(2),
            threads: Some(threads),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        };
        let cells = [Cell::tactic(PaperTopology::Topo1, sid, ())];
        let shape = |_: &Cell<()>, _| ("snap".into(), s.clone());
        sweep(&cells, &opts, shape, |_, runs| runs).0.remove(0)
    };
    let serial = replicas(1);
    let serial_dump = dump_runs(&serial);
    for threads in [4, 8] {
        let parallel = replicas(threads);
        assert_eq!(
            serial_dump,
            dump_runs(&parallel),
            "--threads 1 vs {threads} must not change any report byte"
        );
    }
    check("grid_small_2seeds.txt", &serial_dump);
}

/// Guards the snapshot *files themselves* against churn: an accidental
/// `SNAPSHOT_UPDATE=1` regeneration that changes anything fails this
/// test even though the behavioural tests above would then trivially
/// pass. Re-pinned when run state became folds: reports print per-second
/// latency buckets and digests instead of every delivery, and every
/// counter, so all five files moved at once and together stay under a
/// megabyte.
#[test]
fn checked_in_snapshots_are_unchanged_from_seed() {
    use tactic_crypto::hash::Hasher64;
    let pinned: &[(&str, u64, usize)] = &[
        (
            "baseline_client_side_seed42.txt",
            0x407D_C0DC_0EA2_00B3,
            1_302,
        ),
        (
            "baseline_provider_auth_seed42.txt",
            0x6E62_9232_B4E7_B787,
            1_297,
        ),
        ("grid_small_2seeds.txt", 0x6BF4_D562_8CA7_BFC4, 12_672),
        (
            "tactic_ablations_seed42.txt",
            0x3DAF_E42E_D1EE_C532,
            558_589,
        ),
        ("tactic_small_seed42.txt", 0xC21B_834D_43DE_859E, 6_320),
    ];
    let mut total = 0;
    for &(name, digest, len) in pinned {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(name);
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing snapshot {name} ({e})"));
        let mut h = Hasher64::new();
        h.update(&bytes);
        assert_eq!(
            bytes.len(),
            len,
            "{name} changed size since the seed commit"
        );
        assert_eq!(
            h.finish(),
            digest,
            "{name} diverged from the seed commit's bytes"
        );
        total += len;
    }
    assert!(total <= 1_000_000, "the goldens hold {total} B");
}
