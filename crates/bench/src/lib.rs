//! # tactic-bench
//!
//! What is left of the pre-`benchmark/` bench stack: the `scale` bench
//! (10³/10⁴/10⁵-node fleets, sharding and the sampler/defense/tag-churn
//! overhead probes → `BENCH_scale.json`) and the scenario it shares with
//! nothing else. It stays until `benchmark/` carries the scale ladder;
//! per-operation and whole-run costs are `benchmark/`'s metrics
//! (`bloom.*`, `crypto.schnorr.*`, `core.*`, `ndn.*`, `baselines.*`,
//! `experiments.grid.speedup_x`, `allocs_per_interest`).
//!
//! Run with `cargo bench -p tactic-bench --bench scale`.

#![forbid(unsafe_code)]

use tactic::scenario::Scenario;
use tactic_sim::time::SimDuration;
use tactic_topology::roles::TopologySpec;

/// A tiny scenario sized for benchmarking (a few wall-clock hundred ms per
/// run in release mode).
pub fn bench_scenario(sim_secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.topology = tactic::scenario::TopologyChoice::Custom(TopologySpec {
        core_routers: 10,
        edge_routers: 3,
        providers: 2,
        clients: 5,
        attackers: 2,
    });
    s.duration = SimDuration::from_secs(sim_secs);
    s.objects_per_provider = 10;
    s.chunks_per_object = 10;
    s
}
