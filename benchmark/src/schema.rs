//! What the benchmark measures: the workloads and every metric name with
//! its unit and direction. `BENCHMARK.json` at the repo root lists the
//! same tables; a unit test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A metric a user of the simulator sees, gated by `bound`: the share of
/// the baseline median by which it may worsen before that is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Measured with tracing off, per workload. All host-side: simulated
/// statistics are exact and checked for identity instead.
///
/// Each bound is three times the widest spread (interquartile distance
/// over median) seen between ten runs on ten seeds on the 2-core VM this
/// was sized on, rounded up and capped at the 25 % a bound may be: 8.3 %
/// for `peak_rss_mb` and 3.3 % for `allocs_per_interest` (both on
/// `edge_storm`, where the seed moves them; on the fleets both stay near
/// 1 %), and 16.6 % for `run_s` — set by the host, not the code: it ran
/// 17 % slower, build and run phase alike, for the second five of ten
/// `fleet_seq` runs. Between such episodes `run_s` spreads by 4–8 %.
/// README.md has the tables.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // No other bound is larger: a Topo1 build is ~2 ms, so scheduler
    // noise is a larger share of it than of any other metric.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_interest",
        unit: "count",
        better: Lower,
        bound: 0.10,
    },
];

/// A metric of one layer; reported, never gated.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Family D — layer drivers: a timed loop of calls into one public
/// function each, workload-independent.
pub const DRIVERS: [Layer; 46] = [
    // tactic-sim
    layer("sim.engine.hold_1e3_ns", "ns", Lower),
    layer("sim.engine.hold_1e6_ns", "ns", Lower),
    // tactic-ndn
    layer("ndn.name.parse_ns", "ns", Lower),
    layer("ndn.name.hash_lookup_ns", "ns", Lower),
    layer("ndn.name.cmp_ns", "ns", Lower),
    layer("ndn.name.prefix_ns", "ns", Lower),
    layer("ndn.pit.insert_take_ns", "ns", Lower),
    layer("ndn.pit.aggregate_ns", "ns", Lower),
    layer("ndn.pit.purge_per_record_ns", "ns", Lower),
    layer("ndn.cs.insert_evict_ns", "ns", Lower),
    layer("ndn.cs.hit_ns", "ns", Lower),
    layer("ndn.cs.miss_ns", "ns", Lower),
    layer("ndn.fib.lpm_ns", "ns", Lower),
    layer("ndn.wire.size_ns", "ns", Lower),
    layer("ndn.wire.encode_ns", "ns", Lower),
    layer("ndn.wire.decode_ns", "ns", Lower),
    // tactic-bloom
    layer("bloom.mono.hit_ns", "ns", Lower),
    layer("bloom.mono.miss_ns", "ns", Lower),
    layer("bloom.mono.insert_ns", "ns", Lower),
    layer("bloom.gen8x2.hit_ns", "ns", Lower),
    layer("bloom.gen8x2.miss_ns", "ns", Lower),
    layer("bloom.gen8x2.insert_ns", "ns", Lower),
    // tactic-crypto
    layer("crypto.schnorr.sign_ns", "ns", Lower),
    layer("crypto.schnorr.verify_ns", "ns", Lower),
    // tactic (core)
    layer("core.tag.encode_ns", "ns", Lower),
    layer("core.tag.decode_ns", "ns", Lower),
    layer("core.ext.interest_tag_ns", "ns", Lower),
    layer("core.p1.precheck_edge_ns", "ns", Lower),
    layer("core.p1.precheck_content_ns", "ns", Lower),
    layer("core.p2.edge_bf_hit_ns", "ns", Lower),
    layer("core.p2.edge_bf_miss_ns", "ns", Lower),
    layer("core.p3.serve_bf_hit_ns", "ns", Lower),
    layer("core.p3.serve_verify_ns", "ns", Lower),
    layer("core.p4.aggregate_fanout_ns", "ns", Lower),
    layer("core.provider.issue_tag_ns", "ns", Lower),
    // tactic-net
    layer("net.transport.pingpong_ns", "ns", Lower),
    layer("net.sharded.empty_epoch_ns", "ns", Lower),
    layer("net.defense.admit_ns", "ns", Lower),
    // tactic-topology, at the fleet workloads' node count
    layer("topology.build_fleet_s", "s", Lower),
    layer("topology.links_fleet_s", "s", Lower),
    layer("topology.fib_routes_fleet_s", "s", Lower),
    layer("topology.partition_fleet_s", "s", Lower),
    // tactic-baselines
    layer("baselines.no_ac.run_s", "s", Lower),
    layer("baselines.client_side.run_s", "s", Lower),
    layer("baselines.provider_auth.run_s", "s", Lower),
    // tactic-experiments
    layer("experiments.grid.speedup_x", "x", Higher),
];

/// Family T — the traced run, per workload.
pub const TRACED: [Layer; 52] = [
    // the run itself
    layer("trace.run_s", "s", Lower),
    layer("telemetry.traced.overhead_pct", "%", Lower),
    layer("trace.attributed_share", "ratio", Higher),
    // tactic-sim
    layer("sim.events", "count", Lower),
    layer("sim.events_per_sec", "1/s", Higher),
    layer("sim.queue.peak_depth", "count", Lower),
    layer("sim.calendar.pop.busy_s", "s", Lower),
    layer("sim.calendar.pop.count", "count", Lower),
    // tactic-net
    layer("net.dispatch.deliver.busy_s", "s", Lower),
    layer("net.dispatch.deliver.count", "count", Lower),
    layer("net.dispatch.deliver.self_s", "s", Lower),
    layer("net.dispatch.timeout.busy_s", "s", Lower),
    layer("net.dispatch.timeout.count", "count", Lower),
    layer("net.dispatch.purge.busy_s", "s", Lower),
    layer("net.dispatch.purge.count", "count", Lower),
    layer("net.dispatch.other.busy_s", "s", Lower),
    layer("net.link.transit.busy_s", "s", Lower),
    layer("net.link.transit.count", "count", Lower),
    layer("net.drops.count", "count", Lower),
    layer("net.retransmissions.count", "count", Lower),
    layer("net.timeouts.count", "count", Lower),
    layer("net.sharded.epochs", "count", Lower),
    layer("net.sharded.cross_events", "count", Lower),
    layer("net.sharded.edge_cut", "count", Lower),
    layer("net.sharded.work_s", "s", Lower),
    layer("net.sharded.wait_s", "s", Lower),
    layer("net.sharded.barrier_wait_share", "ratio", Lower),
    layer("net.sharded.imbalance_x", "x", Lower),
    // tactic-telemetry
    layer("telemetry.sampler.busy_s", "s", Lower),
    layer("telemetry.sampler.count", "count", Lower),
    // tactic (core)
    layer("core.precheck.busy_s", "s", Lower),
    layer("core.precheck.count", "count", Lower),
    layer("core.interests.count", "count", Lower),
    layer("core.client_ratio", "ratio", Higher),
    layer("core.attacker_ratio", "ratio", Lower),
    layer("core.mean_latency_s", "s", Lower),
    layer("core.nacks.count", "count", Lower),
    layer("core.revalidations.count", "count", Lower),
    layer("core.tags_renewed.count", "count", Lower),
    // tactic-bloom
    layer("bloom.lookup.busy_s", "s", Lower),
    layer("bloom.lookup.count", "count", Lower),
    layer("bloom.insert.busy_s", "s", Lower),
    layer("bloom.insert.count", "count", Lower),
    layer("bloom.resets.count", "count", Lower),
    layer("bloom.rotations.count", "count", Lower),
    // tactic-crypto
    layer("crypto.sig_verify.busy_s", "s", Lower),
    layer("crypto.sig_verify.count", "count", Lower),
    // tactic-ndn
    layer("ndn.pit_ops.busy_s", "s", Lower),
    layer("ndn.pit_ops.count", "count", Lower),
    layer("ndn.pit.peak_records", "count", Lower),
    layer("ndn.cs.peak_entries", "count", Lower),
    layer("ndn.cs.hit_ratio", "ratio", Higher),
];

/// Every per-layer metric, drivers first.
pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    DRIVERS.iter().chain(TRACED.iter())
}

/// The four workloads. All run the TACTIC plane closed-loop (window-5
/// consumers); K and the thread count are fixed, not derived from the
/// host, so numbers compare across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTopo1,
    FleetSeq,
    FleetSharded,
    EdgeStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTopo1,
        Workload::FleetSeq,
        Workload::FleetSharded,
        Workload::EdgeStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTopo1 => "paper_topo1",
            Workload::FleetSeq => "fleet_seq",
            Workload::FleetSharded => "fleet_sharded",
            Workload::EdgeStorm => "edge_storm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — one line, repeated in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperTopo1 => {
                "Paper preset (160 nodes, cache-resident): per-packet cost of Protocols 1-4, NDN tables and Bloom lookups is the whole run; engine-scale, memory and sharding work should not move it."
            }
            Workload::FleetSeq => {
                "30000-node fleet, sequential: same code at 2-3x the ns/event because state no longer fits in cache; the only workload where setup_s and peak_rss_mb mean something."
            }
            Workload::FleetSharded => {
                "The same fleet and seed through run_scenario_sharded(K=2): replicated builds, epochs, mailboxes and the barrier; its report must equal the sequential one byte for byte."
            }
            Workload::EdgeStorm => {
                "Topo1 under a forged-tag storm, 5% loss, retransmission, tag churn and generational caches: the slow paths and the write side of the caches whose read side paper_topo1 measures."
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    /// A metric or workload name as the contract allows it: starts with a
    /// letter or digit, then letters, digits, `_`, `.`, `-`; at most 64.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit as the contract allows it: letters, digits, `_ / % . -`; 1..=16.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_charsets() {
        for good in ["run_s", "sim.engine.hold_1e3_ns", "a-b", "9lives", "x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "tab\t",
            "é",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["s", "ms", "1/s", "%", "MiB", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "seventeen_letters_"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        let mut seen = BTreeSet::new();
        let names = (Workload::ALL.iter().map(|w| w.name()))
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(per_layer().map(|l| l.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in (END_TO_END.iter().map(|m| m.unit)).chain(per_layer().map(|l| l.unit)) {
            assert!(valid_unit(unit), "{unit}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |key: &str| -> Vec<&str> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap())
                .collect()
        };
        assert_eq!(strs("paths"), ["benchmark"]);
        assert!(strs("command").contains(&"benchmark/Cargo.toml"));
        let secs = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert_eq!(secs, crate::DEFAULT_SECONDS);
        assert!((1..=60).contains(&secs));

        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let rows = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .map(|l| (l.name.into(), l.unit.into(), l.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
    }
}
