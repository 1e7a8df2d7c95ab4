//! Scale benchmark: event-engine throughput and peak memory as the
//! topology grows from 10³ to 10⁵ nodes.
//!
//! The paper's Table III presets top out at a few hundred nodes; this
//! bench drives the calendar-queue engine and the flat `Vec` plane
//! storage across fleet-scale networks built by
//! [`tactic_topology::fleet::build_fleet`]-shaped specs and reports, per
//! node count:
//!
//! * `events_per_sec` — engine throughput over the simulated run
//!   (wall-clock, machine-relative);
//! * `peak_rss_kb` — the process high-water mark (`VmHWM` from
//!   `/proc/self/status`), measured in a *child process per point* so one
//!   point's allocations cannot inflate the next point's number.
//!
//! Modes:
//!
//! * `cargo bench -p tactic-bench --bench scale` — run every point in
//!   `BENCH_SCALE_POINTS` (default `1000,10000,100000`) and print a
//!   summary table.
//! * With `BENCH_SCALE_JSON=<path>` also write `BENCH_scale.json`,
//!   including a paper-preset throughput check against the data-path
//!   baseline recorded below — the scale refactor
//!   must not cost the small runs anything — a `"sampler"` point
//!   measuring the sim-time sampler disabled vs. enabled at the largest
//!   node count (ISSUE 8 budget: ≤ 5% events/s overhead at 10⁵ nodes),
//!   a `"defense"` point measuring the edge defenses disabled vs.
//!   armed-unattacked there too (ISSUE 9 budget: ≤ 5%; disabled builds
//!   no defense state at all and is the pre-feature code path), and a
//!   `"tag_churn"` point measuring the default reactive tag lifecycle
//!   vs. proactive renewal churn on both validation-cache policies
//!   (the inactive lifecycle layer must leave the default run
//!   `Debug`-identical, not merely fast).
//! * `BENCH_SCALE_CHILD=<nodes>:<sim_ms>` (internal) — run one point and
//!   print its JSON on stdout; the parent sets this when re-executing
//!   itself.

use std::process::Command;
use std::time::Instant;

use tactic::net::{run_scenario_sharded, Network};
use tactic::scenario::{Scenario, TopologyChoice};
use tactic_bench::bench_scenario;
use tactic_sim::time::SimDuration;
use tactic_topology::fleet::FleetSpec;

const DEFAULT_SHARD_COUNTS: &str = "1,2,4,8";

/// Paper-preset throughput recorded by the since-retired `datapath` bench
/// when the zero-copy packet path landed; the scale engine must stay at or
/// above this on the same machine.
const DATAPATH_TACTIC_EVENTS_PER_SEC: f64 = 824_987.0;

const DEFAULT_POINTS: &str = "1000,10000,100000";

/// Simulated horizon per point, shrinking with size so the largest run
/// stays minutes-not-hours: 10³ → 5 s, 10⁴ → 1 s, 10⁵ → 300 ms.
fn sim_ms_for(nodes: usize) -> u64 {
    (10_000_000 / nodes as u64).clamp(300, 5_000)
}

/// A fleet-shaped scenario: shares from [`FleetSpec::sized`], small
/// catalogue, short horizon. Deterministic per (nodes, sim_ms).
fn fleet_scenario(nodes: usize, sim_ms: u64) -> Scenario {
    let mut s = Scenario::small();
    s.topology = TopologyChoice::Custom(FleetSpec::sized(nodes).to_table_spec());
    s.duration = SimDuration::from_millis(sim_ms);
    s.objects_per_provider = 10;
    s.chunks_per_object = 10;
    s
}

/// `VmHWM` (peak resident set) of this process, in kB. Linux-only; other
/// platforms report 0 rather than lying.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Point {
    nodes: usize,
    clients: usize,
    sim_ms: u64,
    build_secs: f64,
    run_secs: f64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
}

impl Point {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"nodes\": {}, \"clients\": {}, \"sim_ms\": {}, ",
                "\"build_secs\": {:.2}, \"run_secs\": {:.2}, \"sim_events\": {}, ",
                "\"events_per_sec\": {:.0}, \"peak_rss_kb\": {}}}"
            ),
            self.nodes,
            self.clients,
            self.sim_ms,
            self.build_secs,
            self.run_secs,
            self.events,
            self.events_per_sec,
            self.peak_rss_kb,
        )
    }
}

/// Runs one scale point in-process. Called in the child re-exec so the
/// RSS high-water mark belongs to this point alone.
fn measure_point(nodes: usize, sim_ms: u64) -> Point {
    let s = fleet_scenario(nodes, sim_ms);
    let spec = s.topology.spec();
    let t = Instant::now();
    let net = Network::build(&s, 1);
    let build_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = net.run();
    let run_secs = t.elapsed().as_secs_f64();
    Point {
        nodes,
        clients: spec.clients + spec.attackers,
        sim_ms,
        build_secs,
        run_secs,
        events: report.events,
        events_per_sec: report.events as f64 / run_secs.max(1e-9),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Re-executes this binary for one point and parses the marker line the
/// child prints. Falls back to in-process measurement if the spawn fails
/// (the RSS number then covers the whole run so far).
fn measure_point_isolated(nodes: usize, sim_ms: u64) -> Point {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(_) => return measure_point(nodes, sim_ms),
    };
    let out = Command::new(exe)
        .env("BENCH_SCALE_CHILD", format!("{nodes}:{sim_ms}"))
        .env_remove("BENCH_SCALE_JSON")
        .output();
    let Ok(out) = out else {
        return measure_point(nodes, sim_ms);
    };
    assert!(
        out.status.success(),
        "scale child ({nodes} nodes) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("SCALE_POINT "))
        .expect("child printed no SCALE_POINT line");
    parse_point(line)
}

/// Parses the child's `SCALE_POINT` payload: the eight fields of
/// [`Point::json`] in order. Hand-rolled to keep the bench free of a JSON
/// dependency, like the rest of the harness.
fn parse_point(line: &str) -> Point {
    let field = |key: &str| -> f64 {
        let pat = format!("\"{key}\": ");
        let rest = &line[line.find(&pat).expect("missing field") + pat.len()..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().expect("bad number")
    };
    Point {
        nodes: field("nodes") as usize,
        clients: field("clients") as usize,
        sim_ms: field("sim_ms") as u64,
        build_secs: field("build_secs"),
        run_secs: field("run_secs"),
        events: field("sim_events") as u64,
        events_per_sec: field("events_per_sec"),
        peak_rss_kb: field("peak_rss_kb") as u64,
    }
}

/// One events/s-vs-K measurement of the sharded conservative PDES.
struct ShardPoint {
    nodes: usize,
    k: usize,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    speedup_x: f64,
    epochs: u64,
    edge_cut: u64,
}

impl ShardPoint {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"nodes\": {}, \"shards\": {}, \"wall_secs\": {:.2}, ",
                "\"sim_events\": {}, \"events_per_sec\": {:.0}, ",
                "\"speedup_x\": {:.2}, \"epochs\": {}, \"edge_cut\": {}}}"
            ),
            self.nodes,
            self.k,
            self.wall_secs,
            self.events,
            self.events_per_sec,
            self.speedup_x,
            self.epochs,
            self.edge_cut,
        )
    }
}

/// Runs the fleet scenario space-partitioned across `k` shards and
/// measures end-to-end wall time (the K replicated builds run in
/// parallel inside, so build cost weighs on every K equally). `K = 1`
/// anchors `speedup_x` for its node count.
fn measure_shard_point(nodes: usize, sim_ms: u64, k: usize, base_eps: f64) -> ShardPoint {
    let s = fleet_scenario(nodes, sim_ms);
    let t = Instant::now();
    let (report, stats) = run_scenario_sharded(&s, 1, k).expect("fleet outnumbers shards");
    let wall_secs = t.elapsed().as_secs_f64();
    let events_per_sec = report.events as f64 / wall_secs.max(1e-9);
    ShardPoint {
        nodes,
        k,
        wall_secs,
        events: report.events,
        events_per_sec,
        speedup_x: if base_eps > 0.0 {
            events_per_sec / base_eps
        } else {
            1.0
        },
        epochs: stats.epochs,
        edge_cut: stats.edge_cut,
    }
}

/// One disabled-vs-enabled measurement of the sim-time sampler.
struct SamplerPoint {
    nodes: usize,
    sim_ms: u64,
    samples: u64,
    base_events_per_sec: f64,
    sampled_events_per_sec: f64,
    overhead_pct: f64,
}

impl SamplerPoint {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\": {}, \"sim_ms\": {}, \"samples\": {}, ",
                "\"baseline_events_per_sec\": {:.0}, ",
                "\"sampled_events_per_sec\": {:.0}, \"overhead_pct\": {:.2}}}"
            ),
            self.nodes,
            self.sim_ms,
            self.samples,
            self.base_events_per_sec,
            self.sampled_events_per_sec,
            self.overhead_pct,
        )
    }
}

/// Sampler-overhead probe at one node count: the same fleet run with the
/// sim-time sampler off and then on at one tick per tenth of the
/// horizon. "Off" needs no measurement trick — a disabled sampler is an
/// `Option` that stays `None`, the identical code path as before the
/// feature existed — so the disabled run *is* the baseline, and the
/// enabled run's wall-clock delta is the whole cost (ISSUE 8 budget:
/// ≤ 5% events/s at 10⁵ nodes).
fn measure_sampler_point(nodes: usize, sim_ms: u64) -> SamplerPoint {
    let s = fleet_scenario(nodes, sim_ms);
    let net = Network::build(&s, 1);
    let t = Instant::now();
    let base = net.run();
    let base_secs = t.elapsed().as_secs_f64();

    let mut sampled_scenario = fleet_scenario(nodes, sim_ms);
    sampled_scenario.sample_every = Some(SimDuration::from_millis((sim_ms / 10).max(1)));
    let net = Network::build(&sampled_scenario, 1);
    let t = Instant::now();
    let sampled = net.run();
    let sampled_secs = t.elapsed().as_secs_f64();

    SamplerPoint {
        nodes,
        sim_ms,
        samples: sampled.samples.len() as u64,
        base_events_per_sec: base.events as f64 / base_secs.max(1e-9),
        sampled_events_per_sec: sampled.events as f64 / sampled_secs.max(1e-9),
        overhead_pct: (sampled_secs - base_secs) / base_secs.max(1e-9) * 100.0,
    }
}

/// One disabled-vs-armed measurement of the edge defenses, unattacked.
struct DefensePoint {
    nodes: usize,
    sim_ms: u64,
    base_events_per_sec: f64,
    defended_events_per_sec: f64,
    overhead_pct: f64,
    rate_limited: u64,
}

impl DefensePoint {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\": {}, \"sim_ms\": {}, ",
                "\"baseline_events_per_sec\": {:.0}, ",
                "\"defended_events_per_sec\": {:.0}, \"overhead_pct\": {:.2}, ",
                "\"rate_limited_drops\": {}}}"
            ),
            self.nodes,
            self.sim_ms,
            self.base_events_per_sec,
            self.defended_events_per_sec,
            self.overhead_pct,
            self.rate_limited,
        )
    }
}

/// Edge-defense overhead probe at one node count: the same unattacked
/// fleet run with the defenses off and then fully armed (token bucket,
/// face cap, bounded PIT). "Off" needs no measurement trick — a
/// disabled [`tactic::scenario::DefenseConfig`] builds no `EdgeDefense`
/// at all, the identical code path as before the feature existed — so
/// the disabled run *is* the baseline, and the armed run's wall-clock
/// delta is the whole admission-check cost (ISSUE 9 budget: ≤ 5%
/// events/s at 10⁵ nodes when no attack is underway).
fn measure_defense_point(nodes: usize, sim_ms: u64) -> DefensePoint {
    use tactic::scenario::{DefenseConfig, RateLimit};
    let s = fleet_scenario(nodes, sim_ms);
    let net = Network::build(&s, 1);
    let t = Instant::now();
    let base = net.run();
    let base_secs = t.elapsed().as_secs_f64();

    let mut defended_scenario = fleet_scenario(nodes, sim_ms);
    defended_scenario.defense = DefenseConfig {
        rate_limit: Some(RateLimit {
            per_sec: 150,
            burst: 50,
        }),
        face_cap: Some(400),
        pit_capacity: Some(512),
    };
    let net = Network::build(&defended_scenario, 1);
    let t = Instant::now();
    let defended = net.run();
    let defended_secs = t.elapsed().as_secs_f64();

    DefensePoint {
        nodes,
        sim_ms,
        base_events_per_sec: base.events as f64 / base_secs.max(1e-9),
        defended_events_per_sec: defended.events as f64 / defended_secs.max(1e-9),
        overhead_pct: (defended_secs - base_secs) / base_secs.max(1e-9) * 100.0,
        rate_limited: defended.drops.rate_limited,
    }
}

/// One baseline-vs-churn measurement of the tag lifecycle layer.
struct ChurnPoint {
    nodes: usize,
    sim_ms: u64,
    base_events_per_sec: f64,
    churn_events_per_sec: f64,
    generational_events_per_sec: f64,
    overhead_pct: f64,
    tag_renewals: u64,
    bf_resets: u64,
    bf_rotations: u64,
    default_matches_baseline: bool,
}

impl ChurnPoint {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\": {}, \"sim_ms\": {}, ",
                "\"baseline_events_per_sec\": {:.0}, ",
                "\"churn_events_per_sec\": {:.0}, ",
                "\"generational_events_per_sec\": {:.0}, ",
                "\"overhead_pct\": {:.2}, \"tag_renewals\": {}, ",
                "\"bf_resets\": {}, \"bf_rotations\": {}, ",
                "\"default_matches_baseline\": {}}}"
            ),
            self.nodes,
            self.sim_ms,
            self.base_events_per_sec,
            self.churn_events_per_sec,
            self.generational_events_per_sec,
            self.overhead_pct,
            self.tag_renewals,
            self.bf_resets,
            self.bf_rotations,
            self.default_matches_baseline,
        )
    }
}

/// Tag-churn probe at one node count: the same fleet run under (a) the
/// default lifecycle (`Fixed` expiry, monolithic-reset cache — the
/// pre-feature code path, which draws nothing from the lifecycle RNG
/// stream), (b) proactive renewal churn with a validity of a quarter of
/// the horizon on the monolithic cache, and (c) the same churn on the
/// generational cache. The default run is re-executed with every
/// lifecycle knob set explicitly to its default and the two reports are
/// compared `Debug`-for-`Debug` — the inactive lifecycle layer must be
/// invisible, not merely cheap.
fn measure_churn_point(nodes: usize, sim_ms: u64) -> ChurnPoint {
    use tactic::scenario::TagLifetimePolicy;
    use tactic_bloom::CachePolicy;

    let s = fleet_scenario(nodes, sim_ms);
    let net = Network::build(&s, 1);
    let t = Instant::now();
    let base = net.run();
    let base_secs = t.elapsed().as_secs_f64();

    let mut explicit = fleet_scenario(nodes, sim_ms);
    explicit.lifetime = TagLifetimePolicy::Fixed;
    explicit.cache_policy = CachePolicy::MonolithicReset;
    explicit.track_revalidations = false;
    let default_report = Network::build(&explicit, 1).run();
    let default_matches_baseline = format!("{base:#?}") == format!("{default_report:#?}");

    let churn = TagLifetimePolicy::Churn {
        validity: SimDuration::from_millis((sim_ms / 4).max(4)),
        lead: SimDuration::from_millis((sim_ms / 16).max(1)),
        jitter: SimDuration::from_millis((sim_ms / 32).max(1)),
    };
    let mut churn_scenario = fleet_scenario(nodes, sim_ms);
    churn_scenario.lifetime = churn;
    let net = Network::build(&churn_scenario, 1);
    let t = Instant::now();
    let churned = net.run();
    let churn_secs = t.elapsed().as_secs_f64();

    let mut gen_scenario = fleet_scenario(nodes, sim_ms);
    gen_scenario.lifetime = churn;
    gen_scenario.cache_policy = CachePolicy::Generational {
        generations: 4,
        partitions: 2,
    };
    let net = Network::build(&gen_scenario, 1);
    let t = Instant::now();
    let generational = net.run();
    let gen_secs = t.elapsed().as_secs_f64();

    ChurnPoint {
        nodes,
        sim_ms,
        base_events_per_sec: base.events as f64 / base_secs.max(1e-9),
        churn_events_per_sec: churned.events as f64 / churn_secs.max(1e-9),
        generational_events_per_sec: generational.events as f64 / gen_secs.max(1e-9),
        overhead_pct: (churn_secs - base_secs) / base_secs.max(1e-9) * 100.0,
        tag_renewals: churned.providers.tags_renewed,
        bf_resets: churned.edge_ops.bf_resets + churned.core_ops.bf_resets,
        bf_rotations: generational.edge_ops.bf_rotations + generational.core_ops.bf_rotations,
        default_matches_baseline,
    }
}

/// Paper-preset throughput probe: the same small scenario the datapath
/// bench measured, so the number is directly comparable to
/// [`DATAPATH_TACTIC_EVENTS_PER_SEC`].
fn measure_paper_preset() -> f64 {
    let s = bench_scenario(3);
    let _ = tactic::net::run_scenario(&s, 1); // warm
    let t = Instant::now();
    let report = tactic::net::run_scenario(&s, 1);
    report.events as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    // Child mode: one point, one marker line, exit.
    if let Ok(spec) = std::env::var("BENCH_SCALE_CHILD") {
        let (nodes, sim_ms) = spec.split_once(':').expect("BENCH_SCALE_CHILD=nodes:ms");
        let p = measure_point(
            nodes.parse().expect("nodes"),
            sim_ms.parse().expect("sim_ms"),
        );
        println!("SCALE_POINT {}", p.json().trim_start());
        return;
    }

    let points_env =
        std::env::var("BENCH_SCALE_POINTS").unwrap_or_else(|_| DEFAULT_POINTS.to_string());
    let sizes: Vec<usize> = points_env
        .split(',')
        .map(|p| p.trim().parse().expect("BENCH_SCALE_POINTS: bad size"))
        .collect();

    let mut points = Vec::new();
    for &nodes in &sizes {
        let sim_ms = sim_ms_for(nodes);
        eprintln!("scale: {nodes} nodes, {sim_ms} ms horizon...");
        let p = measure_point_isolated(nodes, sim_ms);
        eprintln!(
            "scale: {} nodes -> {:.0} events/s, peak RSS {} kB (build {:.2} s, run {:.2} s, {} events)",
            p.nodes, p.events_per_sec, p.peak_rss_kb, p.build_secs, p.run_secs, p.events
        );
        points.push(p);
    }

    // Events/s vs shard count on the 10⁴-and-up fleets: the intra-run
    // parallelism story, anchored to K = 1 of the same node count.
    let shard_env =
        std::env::var("BENCH_SCALE_SHARDS").unwrap_or_else(|_| DEFAULT_SHARD_COUNTS.to_string());
    let shard_counts: Vec<usize> = shard_env
        .split(',')
        .map(|p| p.trim().parse().expect("BENCH_SCALE_SHARDS: bad count"))
        .collect();
    let mut shard_points = Vec::new();
    for &nodes in sizes.iter().filter(|&&n| n >= 10_000) {
        let sim_ms = sim_ms_for(nodes);
        let mut base_eps = 0.0;
        for &k in &shard_counts {
            eprintln!("scale: {nodes} nodes, K={k} shards...");
            let p = measure_shard_point(nodes, sim_ms, k, base_eps);
            if k == 1 {
                base_eps = p.events_per_sec;
            }
            eprintln!(
                "scale: {} nodes K={} -> {:.0} events/s (x{:.2} vs K=1, {} epochs, edge cut {})",
                p.nodes, p.k, p.events_per_sec, p.speedup_x, p.epochs, p.edge_cut
            );
            shard_points.push(p);
        }
    }

    // Sampler overhead at the largest point: the enabled run's wall-clock
    // delta against the (structurally identical) disabled baseline.
    let sampler = sizes.iter().max().map(|&nodes| {
        let sim_ms = sim_ms_for(nodes);
        eprintln!("scale: {nodes} nodes, sampler off vs on...");
        let p = measure_sampler_point(nodes, sim_ms);
        eprintln!(
            "scale: {} nodes sampler -> {:.0} events/s off, {:.0} events/s on ({} samples, {:+.2}% wall)",
            p.nodes, p.base_events_per_sec, p.sampled_events_per_sec, p.samples, p.overhead_pct
        );
        p
    });

    // Edge-defense overhead at the largest point: the armed-unattacked
    // run's wall-clock delta against the (defense-free) disabled baseline.
    let defense = sizes.iter().max().map(|&nodes| {
        let sim_ms = sim_ms_for(nodes);
        eprintln!("scale: {nodes} nodes, defenses off vs armed (no attack)...");
        let p = measure_defense_point(nodes, sim_ms);
        eprintln!(
            "scale: {} nodes defense -> {:.0} events/s off, {:.0} events/s armed ({:+.2}% wall, {} rate-limited)",
            p.nodes, p.base_events_per_sec, p.defended_events_per_sec, p.overhead_pct, p.rate_limited
        );
        p
    });

    // Tag-churn cost at the largest point: proactive renewal under a
    // quarter-horizon validity vs the default reactive lifecycle, on both
    // cache policies, plus the inactive-layer invisibility check.
    let tag_churn = sizes.iter().max().map(|&nodes| {
        let sim_ms = sim_ms_for(nodes);
        eprintln!("scale: {nodes} nodes, tag lifecycle default vs churn...");
        let p = measure_churn_point(nodes, sim_ms);
        eprintln!(
            "scale: {} nodes tag churn -> {:.0} events/s default, {:.0} events/s churn, {:.0} events/s generational ({:+.2}% wall, {} renewals, {} resets, {} rotations, default-identical={})",
            p.nodes, p.base_events_per_sec, p.churn_events_per_sec, p.generational_events_per_sec,
            p.overhead_pct, p.tag_renewals, p.bf_resets, p.bf_rotations, p.default_matches_baseline
        );
        p
    });

    let preset_eps = measure_paper_preset();
    let throughput_x = preset_eps / DATAPATH_TACTIC_EVENTS_PER_SEC;
    eprintln!(
        "scale: paper preset {preset_eps:.0} events/s ({throughput_x:.3}x the datapath baseline)"
    );

    if let Ok(path) = std::env::var("BENCH_SCALE_JSON") {
        let body: Vec<String> = points.iter().map(Point::json).collect();
        let shard_body: Vec<String> = shard_points.iter().map(ShardPoint::json).collect();
        let json = format!(
            concat!(
                "{{\n  \"bench\": \"scale\",\n",
                "  \"engine\": \"calendar_queue\",\n",
                "  \"storage\": \"flat_vec\",\n",
                "  \"sync\": \"conservative_epochs\",\n",
                "  \"points\": [\n{}\n  ],\n",
                "  \"shards\": [\n{}\n  ],\n",
                "  \"sampler\": {},\n",
                "  \"defense\": {},\n",
                "  \"tag_churn\": {},\n",
                "  \"paper_preset\": {{\"baseline_events_per_sec\": {:.0}, ",
                "\"events_per_sec\": {:.0}, \"throughput_x\": {:.3}}}\n}}\n"
            ),
            body.join(",\n"),
            shard_body.join(",\n"),
            sampler
                .as_ref()
                .map_or_else(|| "null".to_string(), SamplerPoint::json),
            defense
                .as_ref()
                .map_or_else(|| "null".to_string(), DefensePoint::json),
            tag_churn
                .as_ref()
                .map_or_else(|| "null".to_string(), ChurnPoint::json),
            DATAPATH_TACTIC_EVENTS_PER_SEC,
            preset_eps,
            throughput_x,
        );
        std::fs::write(&path, &json).expect("write BENCH_scale.json");
        println!("wrote {path}");
        print!("{json}");
    }
}
