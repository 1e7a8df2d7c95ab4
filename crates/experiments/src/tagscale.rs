//! Tag lifecycle at fleet scale: the `tagscale` experiment ramps
//! clients-per-router against every (expiry policy × validation-cache
//! policy) combination and measures what issuance/renewal churn costs
//! each cache design.
//!
//! The grid crosses a clients-per-router ramp (10³ → 10⁵ by default,
//! 10⁶ under `--paper`) with both [`TagLifetimePolicy`] arms (the
//! paper's reactive `fixed` clients under the default 10 s validity, and
//! proactive `churn` renewal under a short validity) and both
//! [`CachePolicy`] arms (the paper's monolithic-reset filter and the
//! generational rotation it is compared against). Every cell runs on the
//! same custom fleet topology — the paper topologies fix their client
//! counts, so the ramp needs its own spec — with the validation cache
//! deliberately sized (via [`BloomParams::for_capacity`]) for the *base*
//! ramp point, so higher ramp points overrun it and the two policies'
//! failure modes separate: monolithic resets dump every validated
//! registration at once (the re-validation cliff), generational rotation
//! retires only the oldest generation per partition.
//!
//! Each ramp point runs 2·10⁹ / cpr ms clamped to [2 s, 5 s] — 5 s for
//! every ramp point up to 4·10⁵ clients per router, 2 s at 10⁶ — so the
//! base cells span many churn cycles and only the `--paper` point is cut
//! short; an explicit `--duration` pins every cell to one horizon
//! instead, and `--ramp` (comma-separated clients-per-router values)
//! replaces the ramp entirely — CI and the tests run the full grid shape
//! on a toy fleet through it.
//!
//! Output: `tagscale.csv` with per-cell goodput, re-validation rate,
//! signature load, the sampled FPP trajectory (final/max), and the
//! reset/rotation cliff depth — the largest relative single-interval
//! drop in set bits, which is ~1 for a monolithic reset and ~1/G for a
//! generational rotation.

use tactic::scenario::{Scenario, TagLifetimePolicy, TopologyChoice};
use tactic_bloom::{BloomParams, CachePolicy};
use tactic_sim::time::SimDuration;
use tactic_telemetry::SampleRow;
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::TopologySpec;

use crate::opts::RunOpts;
use crate::output::{fmt_f, Column, Sheet};
use crate::plane::{manifests, sweep, Cell, PlaneId};
use crate::runner::{mean_of, merged_ops, scenario_id, sum_of};

/// Edge routers in the fleet spec — one, so the ramp is literally the
/// clients-per-router load on the access side.
pub const EDGE_ROUTERS: usize = 1;
/// Core routers in the fleet spec — three, so `--shards 4` still has a
/// router per shard.
pub const CORE_ROUTERS: usize = 3;
/// Providers in the fleet spec.
pub const PROVIDERS: usize = 2;

/// The ramp point `--paper` appends to the default ramp
/// ([`crate::opts::DEFAULT_RAMP`]).
pub const PAPER_CPR: usize = 1_000_000;

/// Generations per partition for the generational cells.
pub const GENERATIONS: usize = 8;
/// Prefix partitions for the generational cells.
pub const PARTITIONS: usize = 2;

/// Design FPP the cache is sized for at the base ramp point.
const DESIGN_FPP: f64 = 1e-3;
/// Saturation threshold that triggers a reset / rotation.
const MAX_FPP: f64 = 2e-2;

/// The validation-cache geometry every cell runs: sized by
/// [`BloomParams::for_capacity`] for the *base* ramp point's tag
/// population (`base_cpr` clients × providers per router), so the rest
/// of the ramp overruns it — the validated-tag flux at the top of the
/// ramp is an order of magnitude past capacity and the two policies'
/// eviction behaviour, not filter headroom, decides the re-validation
/// bill. [`tactic_bloom::ValidationCache`] re-derives per-generation
/// geometry from this same capacity for the generational cells.
pub fn cache_params(base_cpr: usize) -> BloomParams {
    let base_tags = base_cpr * PROVIDERS;
    let mut p = BloomParams::for_capacity(base_tags, DESIGN_FPP);
    p.max_fpp = MAX_FPP;
    p
}

/// Per-cell horizon: 2·10⁹ / cpr ms clamped to [2 s, 5 s], i.e. 5 s up
/// to 4·10⁵ clients per router, shrinking from there to the 2 s floor at
/// 10⁶ — the paper topology's request round trip is ~0.5 s, so shorter
/// horizons would measure warm-up, not steady state.
fn horizon_for(cpr: usize) -> SimDuration {
    SimDuration::from_millis((2_000_000_000 / cpr as u64).clamp(2_000, 5_000))
}

/// The proactive-renewal policy used by every `churn` cell: a short
/// validity of half the horizon — long enough that a renewal round trip
/// completes before the old tag expires even on a congested edge —
/// renewal lead of a quarter of the validity, and jitter of half the
/// lead (desynchronising the fleet).
pub fn churn_policy(duration: SimDuration) -> TagLifetimePolicy {
    let validity = SimDuration::from_nanos(duration.as_nanos() / 2);
    TagLifetimePolicy::Churn {
        validity,
        lead: SimDuration::from_nanos(validity.as_nanos() / 4),
        jitter: SimDuration::from_nanos(validity.as_nanos() / 8),
    }
}

/// One cell's scenario: the fleet topology at `cpr` clients per edge
/// router under the given lifecycle and cache policies, with
/// re-validation tracking and the deterministic sampler on (the FPP
/// trajectory and cliff depth come from the samples).
fn cell_scenario(
    cpr: usize,
    lifetime: TagLifetimePolicy,
    cache: CachePolicy,
    p: &BloomParams,
    duration: SimDuration,
    sample_every: SimDuration,
    profile: bool,
) -> Scenario {
    let mut s = Scenario::paper(PaperTopology::Topo1);
    s.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: CORE_ROUTERS,
        edge_routers: EDGE_ROUTERS,
        providers: PROVIDERS,
        clients: cpr * EDGE_ROUTERS,
        attackers: 0,
    });
    s.duration = duration;
    s.objects_per_provider = 10;
    s.chunks_per_object = 10;
    s.bf_capacity = p.capacity;
    s.bf_hashes = p.hashes;
    s.bf_design_fpp = DESIGN_FPP;
    s.bf_max_fpp = p.max_fpp;
    s.lifetime = lifetime;
    s.cache_policy = cache;
    s.track_revalidations = true;
    s.sample_every = Some(sample_every);
    s.profile = profile;
    s
}

/// Mean estimated FPP across the routers a sample covers.
fn sample_fpp(row: &SampleRow) -> f64 {
    if row.bf_routers == 0 {
        return 0.0;
    }
    (row.bf_fpp_fp as f64 / row.bf_routers as f64) / (u64::from(u32::MAX) as f64 + 1.0)
}

/// The cliff depth of a sampled run: the largest relative drop in
/// aggregate set bits between consecutive samples. A monolithic reset of
/// the only saturated router approaches the router's full share; a
/// generational rotation retires only `1/(G·P)` of one router's bits.
fn cliff_depth(samples: &[SampleRow]) -> f64 {
    samples
        .windows(2)
        .map(|w| {
            let (prev, cur) = (w[0].bf_set_bits, w[1].bf_set_bits);
            if prev == 0 || cur >= prev {
                0.0
            } else {
                (prev - cur) as f64 / prev as f64
            }
        })
        .fold(0.0, f64::max)
}

/// The `tagscale` experiment: the clients-per-router ramp (`--ramp`,
/// else the default ramp plus [`PAPER_CPR`] under `--paper`) × {fixed,
/// churn} lifetime × {monolithic, generational} cache grid, rendered and
/// written as `tagscale.csv` (+ manifests).
///
/// # Errors
///
/// Propagates I/O errors from writing `tagscale.csv`.
pub fn tagscale(opts: &RunOpts) -> std::io::Result<String> {
    let mut ramp = opts.ramp();
    if opts.paper && opts.ramp.is_none() {
        ramp.push(PAPER_CPR);
    }
    let params = cache_params(ramp[0]);
    let caches = [
        CachePolicy::MonolithicReset,
        CachePolicy::Generational {
            generations: GENERATIONS,
            partitions: PARTITIONS,
        },
    ];

    // Cells in (ramp, lifetime, cache) order. `--duration` pins every cell
    // to one horizon; otherwise each ramp point gets its budgeted horizon,
    // with the churn validity and sample cadence derived from it so every
    // cell spans the same number of renewal cycles and samples.
    let mut cells = Vec::new();
    for &cpr in &ramp {
        let duration = opts
            .duration_secs
            .map_or_else(|| horizon_for(cpr), SimDuration::from_secs);
        let lifetimes = [TagLifetimePolicy::Fixed, churn_policy(duration)];
        for (li, &lifetime) in lifetimes.iter().enumerate() {
            for (ci, &cache) in caches.iter().enumerate() {
                cells.push(Cell {
                    plane: PlaneId::Tactic,
                    // The fleet spec is not a paper topology; 0 is the
                    // custom-topology coordinate for seed derivation.
                    topology: 0,
                    scenario_id: scenario_id("tagscale", &[cpr as u64, li as u64, ci as u64]),
                    knobs: (cpr, duration, lifetime, cache),
                });
            }
        }
    }
    let runs = sweep(&cells, opts, |cell, _seed| {
        let (cpr, duration, lifetime, cache) = cell.knobs;
        let sample_every = opts.sample_every_secs.map_or_else(
            || SimDuration::from_nanos((duration.as_nanos() / 64).max(1)),
            SimDuration::from_secs_f64,
        );
        let label = format!(
            "tagscale cpr={cpr} {life} {cache}",
            life = lifetime.summary(),
            cache = cache.summary(),
        );
        let profile = opts.profile;
        let scenario = cell_scenario(
            cpr,
            lifetime,
            cache,
            &params,
            duration,
            sample_every,
            profile,
        );
        (label, scenario)
    });

    let keys = [
        "clients_per_router",
        "horizon_s",
        "lifetime",
        "cache",
        "runs",
        "client_ratio",
        "goodput_chunks_per_s",
        "mean_latency_s",
        "sig_verifications_per_s",
        "tag_renewals",
        "revalidations",
        "revalidation_rate",
        "bf_resets",
        "bf_rotations",
        "fpp_final",
        "fpp_max",
        "cliff_depth",
    ];
    let mut sheet = Sheet::new(keys.map(|key| Column::new(key, key)));
    for (cell, runs) in cells.iter().zip(&runs) {
        let (cpr, duration, lifetime, cache) = cell.knobs;
        let n = runs.len() as u64;
        let (edge, core) = merged_ops(runs);
        let sig_total = edge.sig_verifications + core.sig_verifications;
        let reval_total = edge.evicted_revalidations + core.evicted_revalidations;
        let durations = runs.iter().map(|run| run.report.tactic().duration);
        let sim_secs: f64 = durations.map(|d| d.as_secs_f64()).sum();
        sheet.row([
            cpr.to_string().into(),
            fmt_f(duration.as_secs_f64()).into(),
            lifetime.summary().into(),
            cache.summary().into(),
            n.to_string().into(),
            fmt_f(mean_of(runs, |r| r.delivery.client_ratio())).into(),
            fmt_f(mean_of(runs, |r| {
                r.delivery.client_received as f64 / r.duration.as_secs_f64()
            }))
            .into(),
            fmt_f(mean_of(runs, tactic::metrics::RunReport::mean_latency)).into(),
            fmt_f(sig_total as f64 / sim_secs).into(),
            (sum_of(runs, |r| r.providers.tags_renewed) / n)
                .to_string()
                .into(),
            (reval_total / n).to_string().into(),
            fmt_f(reval_total as f64 / sim_secs).into(),
            ((edge.bf_resets + core.bf_resets) / n).to_string().into(),
            ((edge.bf_rotations + core.bf_rotations) / n)
                .to_string()
                .into(),
            fmt_f(mean_of(runs, |r| r.samples.last().map_or(0.0, sample_fpp))).into(),
            fmt_f(mean_of(runs, |r| {
                r.samples.iter().map(sample_fpp).fold(0.0, f64::max)
            }))
            .into(),
            fmt_f(mean_of(runs, |r| cliff_depth(&r.samples))).into(),
        ]);
    }
    let table = sheet.finish(&opts.out_dir, "tagscale", manifests(&runs))?;
    Ok(format!(
        "Tag lifecycle at fleet scale — {cells} cells × {seeds} seeds = {total} runs\n\
         (cache sized for {cap} tags at design FPP {fpp}, reset threshold {max})\n\n{table}",
        cells = cells.len(),
        seeds = opts.seed_count(2),
        total = manifests(&runs).count(),
        cap = params.capacity,
        fpp = DESIGN_FPP,
        max = MAX_FPP,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Verbosity;

    fn tiny_opts(ramp: &[usize], out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(2),
            seeds: Some(1),
            out_dir: std::env::temp_dir().join(out),
            threads: Some(4),
            ramp: Some(ramp.to_vec()),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// CSV/manifest shape: one row per (cpr × lifetime × cache) cell, the
    /// policy tokens present, and the lifecycle provenance keys on every
    /// manifest line.
    #[test]
    fn tagscale_output_shape() {
        let ramp = [4, 6];
        let opts = tiny_opts(&ramp, "tactic-exp-test-tagscale-shape");
        tagscale(&opts).unwrap();
        let csv = std::fs::read_to_string(opts.out_dir.join("tagscale.csv")).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + ramp.len() * 4, "header + one row per cell");
        assert_eq!(lines[0].split(',').count(), 17);
        for (row, line) in lines[1..].iter().enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 17, "ragged row: {line}");
            assert_eq!(cells[0], ramp[row / 4].to_string(), "--ramp is the ramp");
        }
        assert!(csv.contains("fixed"));
        assert!(csv.contains("churn"));
        assert!(csv.contains("monolithic"));
        assert!(csv.contains(&format!("gen{GENERATIONS}x{PARTITIONS}")));
        let manifest =
            std::fs::read_to_string(opts.out_dir.join("tagscale.manifest.jsonl")).unwrap();
        assert_eq!(manifest.lines().count(), ramp.len() * 4, "one line per run");
        for key in ["tag_renewals", "revalidations", "bf_rotations"] {
            assert!(
                manifest.contains(&format!("\"{key}\":")),
                "{key} in manifests"
            );
        }
        // Every cell's scenario summary names its lifecycle knobs.
        assert!(manifest
            .lines()
            .all(|l| l.contains("life=") && l.contains("cache=")));
    }

    /// The churn cells must actually renew (nonzero provider renewals)
    /// and the generational cells must rotate rather than reset.
    #[test]
    fn churn_renews_and_generational_rotates() {
        let opts = tiny_opts(&[12], "tactic-exp-test-tagscale-churn");
        tagscale(&opts).unwrap();
        let csv = std::fs::read_to_string(opts.out_dir.join("tagscale.csv")).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        let (life_c, cache_c) = (col("lifetime"), col("cache"));
        let (renew_c, rot_c) = (col("tag_renewals"), col("bf_rotations"));
        let mut churn_renewals = 0u64;
        let mut gen_rotations = 0u64;
        let mut mono_rotations = 0u64;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells[life_c].starts_with("churn") {
                churn_renewals += cells[renew_c].parse::<u64>().unwrap();
            }
            if cells[cache_c].starts_with("gen") {
                gen_rotations += cells[rot_c].parse::<u64>().unwrap();
            } else {
                mono_rotations += cells[rot_c].parse::<u64>().unwrap();
            }
        }
        assert!(churn_renewals > 0, "churn cells renew before expiry");
        assert!(gen_rotations > 0, "generational cells rotate: {csv}");
        assert_eq!(mono_rotations, 0, "monolithic cells never rotate");
    }

    #[test]
    fn cliff_depth_finds_largest_relative_drop() {
        let mk = |bits: u64| SampleRow {
            bf_set_bits: bits,
            ..SampleRow::default()
        };
        let samples = [mk(100), mk(120), mk(30), mk(60), mk(45)];
        let d = cliff_depth(&samples);
        assert!((d - 0.75).abs() < 1e-12, "120 -> 30 is the cliff: {d}");
        assert_eq!(cliff_depth(&[]), 0.0);
        assert_eq!(cliff_depth(&[mk(0), mk(0)]), 0.0);
    }
}
