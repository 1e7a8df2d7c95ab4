//! ISSUE 9's adversarial-workload guarantees, end to end:
//!
//! * an **inactive** attack plan (no class, or intensity 0) and an armed
//!   but non-binding defense both reproduce the checked-in golden
//!   snapshots byte for byte — the adversarial machinery is zero-cost
//!   and zero-effect until it actually fires;
//! * under **every** attack class and intensity, arming the edge
//!   defenses never loses client goodput on either plane — the
//!   degradation curve with defenses on dominates the one without;
//! * attacked-and-defended runs stay **byte-identical** across shard
//!   counts and concurrent worker threads, churn included (churn
//!   re-points radio links mid-run, which exercises the mobile
//!   lookahead bound without `Scenario::mobility` being set);
//! * a transport observer hears of **every** drop the run's ledger
//!   counts — bounded-PIT evictions, which happen inside the planes,
//!   included.

use tactic::net::{run_scenario, run_scenario_sharded};
use tactic::scenario::{AttackClass, AttackPlan, DefenseConfig, Scenario};
use tactic_baselines::net::BaselineSpec;
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_experiments::attacks::armed_defense;
use tactic_net::harness::{self, Plane};
use tactic_net::{DropTotals, NetCounters};
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

fn attacked(secs: u64, class: AttackClass, intensity: u32, defense: DefenseConfig) -> Scenario {
    let mut s = small(secs);
    s.attack = AttackPlan {
        class: Some(class),
        intensity,
    };
    s.defense = defense;
    s
}

/// Goodput of a tactic run: client received / requested.
fn tactic_goodput(s: &Scenario, seed: u64) -> (f64, u64) {
    let r = run_scenario(s, seed);
    (
        r.delivery.client_received as f64 / r.delivery.client_requested as f64,
        r.drops.rate_limited,
    )
}

fn baseline_goodput(s: &Scenario, mechanism: Mechanism, seed: u64) -> (f64, u64) {
    let r = run_baseline(s, mechanism, seed);
    (
        r.client_received as f64 / r.client_requested as f64,
        r.drops.rate_limited,
    )
}

/// A named-but-zero-intensity plan and an armed-but-non-binding defense
/// must both reproduce the checked-in golden snapshots byte for byte, on
/// both planes. This is the "attacks off = before this subsystem
/// existed" regression the ISSUE demands.
#[test]
fn inactive_plans_and_idle_defenses_leave_golden_snapshots_untouched() {
    let golden = |name: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(name);
        std::fs::read_to_string(&path).expect("golden snapshot present")
    };

    // Class named, intensity zero: the plan is inert.
    let mut zeroed = small(5);
    zeroed.attack = AttackPlan {
        class: Some(AttackClass::Flood),
        intensity: 0,
    };
    assert!(!zeroed.attack.active());
    let r = run_scenario(&zeroed, 42);
    assert_eq!(
        golden("tactic_small_seed42.txt"),
        format!("{r:#?}\n"),
        "a zero-intensity attack plan perturbed the golden tactic run"
    );

    // Defenses armed but never binding: the GCRA admits every packet
    // without an RNG draw, so the event stream is untouched.
    let mut defended = small(5);
    defended.defense = armed_defense();
    let r = run_scenario(&defended, 42);
    assert_eq!(
        golden("tactic_small_seed42.txt"),
        format!("{r:#?}\n"),
        "an idle armed defense perturbed the golden tactic run"
    );

    let r = run_baseline(&defended, Mechanism::ClientSideAc, 42);
    assert_eq!(
        golden("baseline_client_side_seed42.txt"),
        format!("{r:#?}\n"),
        "an idle armed defense perturbed the golden client-side-AC run"
    );
    let mut zeroed = small(5);
    zeroed.attack = AttackPlan {
        class: Some(AttackClass::ReplayExpired),
        intensity: 0,
    };
    let r = run_baseline(&zeroed, Mechanism::ProviderAuthAc, 42);
    assert_eq!(
        golden("baseline_provider_auth_seed42.txt"),
        format!("{r:#?}\n"),
        "a zero-intensity attack plan perturbed the golden provider-auth run"
    );
}

/// The dominance invariant: for every attack class and swept intensity,
/// arming the defenses never loses client goodput, on the TACTIC plane
/// and on every baseline mechanism. Equality is allowed — an attack the
/// edge already rejects cheaply leaves nothing for the defenses to buy
/// back — and so is a sub-packet boundary wobble: dropping fleet
/// traffic at the radio re-times every queue, which can shift a single
/// in-flight delivery across the end-of-run cutoff. `EPSILON` is a
/// fraction of one delivery out of the few thousand each run requests;
/// any *real* goodput regression is orders of magnitude larger. (The
/// strict defended-dominates-under-flood case, with percentage-point
/// margins, is asserted at Topo1 scale in
/// `tactic_experiments::attacks`.)
#[test]
fn defenses_never_lose_goodput_under_any_attack() {
    const EPSILON: f64 = 2e-3;
    let mut bucket_fired = false;
    for class in AttackClass::ALL {
        for intensity in [500u32, 2000] {
            if class == AttackClass::Churn && intensity != 500 {
                continue; // churn ignores intensity; one point suffices
            }
            let off = attacked(8, class, intensity, DefenseConfig::none());
            let on = attacked(8, class, intensity, armed_defense());

            let (g_off, _) = tactic_goodput(&off, 42);
            let (g_on, limited) = tactic_goodput(&on, 42);
            bucket_fired |= limited > 0;
            assert!(
                g_on >= g_off - EPSILON,
                "tactic {class}@{intensity}: defended goodput {g_on} < undefended {g_off}"
            );

            for mechanism in [
                Mechanism::NoAccessControl,
                Mechanism::ClientSideAc,
                Mechanism::ProviderAuthAc,
            ] {
                let (g_off, _) = baseline_goodput(&off, mechanism, 42);
                let (g_on, limited) = baseline_goodput(&on, mechanism, 42);
                bucket_fired |= limited > 0;
                assert!(
                    g_on >= g_off - EPSILON,
                    "{mechanism:?} {class}@{intensity}: defended goodput {g_on} < \
                     undefended {g_off}"
                );
            }
        }
    }
    assert!(
        bucket_fired,
        "no attacked-and-defended run ever tripped the token bucket"
    );
}

/// Acceptance (c): attacked-and-defended runs are byte-identical across
/// shard counts on both planes, for every attack class — including
/// churn, whose handovers cross shard boundaries without
/// `Scenario::mobility` being set.
#[test]
fn attacked_defended_runs_are_byte_identical_across_shard_counts() {
    for class in AttackClass::ALL {
        let scenario = attacked(8, class, 500, armed_defense());
        let sequential = format!("{:#?}", run_scenario(&scenario, 42));
        for k in [2usize, 4] {
            let (report, _) =
                run_scenario_sharded(&scenario, 42, k).expect("small topology fits 4 shards");
            assert_eq!(
                sequential,
                format!("{report:#?}"),
                "K={k} sharded {class} run diverged from sequential"
            );
        }
        let mechanism = Mechanism::ProviderAuthAc;
        let sequential = format!("{:#?}", run_baseline(&scenario, mechanism, 42));
        for k in [2usize, 4] {
            let (report, _) = run_baseline_sharded(&scenario, mechanism, 42, k)
                .expect("small topology fits 4 shards");
            assert_eq!(
                sequential,
                format!("{report:#?}"),
                "K={k} sharded baseline {class} run diverged from sequential"
            );
        }
    }
}

/// The same attacked run re-executed under 8 concurrent worker threads
/// (mixing sequential and sharded executions) never changes a byte —
/// the fleet's RNG streams are fully private to the run.
#[test]
fn attacked_runs_are_byte_identical_under_concurrent_workers() {
    let scenario = attacked(6, AttackClass::Flood, 500, armed_defense());
    let reference = format!("{:#?}", run_scenario(&scenario, 7));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let scenario = &scenario;
                scope.spawn(move || {
                    if i % 2 == 0 {
                        format!("{:#?}", run_scenario(scenario, 7))
                    } else {
                        let (r, _) = run_scenario_sharded(scenario, 7, 4).expect("fits");
                        format!("{r:#?}")
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(reference, h.join().expect("worker"));
        }
    });
}

/// What the per-shard [`NetCounters`] observers of one run heard through
/// `on_drop`, folded, next to the run's report.
fn heard<P: Plane>(plane: &P, shards: usize) -> (NetCounters, P::Report) {
    let (report, observers, ..) = harness::run(
        plane,
        42,
        shards,
        |_| NetCounters::default(),
        |_| NoopProtocolObserver,
    )
    .expect("small topology fits 2 shards");
    let mut all = NetCounters::default();
    for shard in &observers {
        all.merge(shard);
    }
    (all, report)
}

/// On a flood cell whose only defense is a small bounded PIT, what the
/// observers heard is the run's drop ledger, reason for reason — on both
/// planes, sequentially and across two shards.
#[test]
fn observers_hear_of_every_drop_the_ledger_counts() {
    let defense = DefenseConfig {
        pit_capacity: Some(16),
        ..DefenseConfig::none()
    };
    let scenario = attacked(6, AttackClass::Flood, 500, defense);
    let check = |heard: NetCounters, ledger: DropTotals, run: String| {
        assert!(ledger.pit_full > 0, "{run}: the PIT never filled");
        assert_eq!(heard.drops, ledger, "{run}");
        assert_eq!(heard.dropped(), ledger.total(), "{run}");
    };
    for shards in [1, 2] {
        let (counters, report) = heard(&scenario, shards);
        check(counters, report.drops, format!("tactic, K={shards}"));
        let spec = BaselineSpec::new(&scenario, Mechanism::NoAccessControl);
        let (counters, report) = heard(&spec, shards);
        check(counters, report.drops, format!("baseline, K={shards}"));
    }
}
