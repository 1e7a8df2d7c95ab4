//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use tactic_sim::dist::{Exponential, Normal, TruncatedNormal, Zipf};
use tactic_sim::engine::Engine;
use tactic_sim::records::Records;
use tactic_sim::rng::Rng;
use tactic_sim::stats::TimeSeries;
use tactic_sim::time::{SimDuration, SimTime};

/// The stored-everything model's pop: its minimum `(at, key, payload)`,
/// delivered only if it lies before `end` and within the horizon.
fn model_pop(
    model: &mut Vec<(u64, u64, usize)>,
    now: &mut u64,
    horizon: u64,
    end: u64,
) -> Option<usize> {
    let (slot, &(at, _, _)) = model.iter().enumerate().min_by_key(|(_, e)| **e)?;
    if at >= end || at > horizon {
        return None;
    }
    *now = at;
    Some(model.swap_remove(slot).2)
}

proptest! {
    #[test]
    fn time_addition_is_consistent(secs in 0u64..1_000_000, add_ns in 0u64..10_000_000_000) {
        let t = SimTime::from_secs(secs);
        let d = SimDuration::from_nanos(add_ns);
        let t2 = t + d;
        prop_assert_eq!(t2 - t, d);
        prop_assert!(t2 >= t);
    }

    #[test]
    fn duration_f64_roundtrip_is_close(ns in 0u64..1_000_000_000_000) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_nanos().abs_diff(d.as_nanos());
        // f64 has 52 bits of mantissa; sub-microsecond error at this scale.
        prop_assert!(diff < 1_000, "diff {} ns", diff);
    }

    #[test]
    fn rng_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_fork_streams_do_not_collide(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let root = Rng::seed_from_u64(seed);
        let x = root.fork(a).next_u64();
        let y = root.fork(b).next_u64();
        // Not a guarantee in general, but collisions in the first draw
        // would indicate broken stream separation.
        prop_assert_ne!(x, y);
    }

    #[test]
    fn normal_samples_are_finite(seed in any::<u64>(), mean in -1e6f64..1e6, sd in 0.0f64..1e3) {
        let d = Normal::new(mean, sd);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn truncated_normal_respects_min(seed in any::<u64>(), mean in -10.0f64..10.0, sd in 0.0f64..10.0, min in -5.0f64..5.0) {
        let d = TruncatedNormal::new(mean, sd, min);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) >= min);
        }
    }

    #[test]
    fn exponential_nonnegative(seed in any::<u64>(), mean in 1e-9f64..1e3) {
        let d = Exponential::from_mean(mean);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..200, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range(seed in any::<u64>(), n in 1usize..200, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Keys as the transport assigns them — `(source << 40) | n`, not
    /// monotone in schedule order — and bursts of sources at one instant;
    /// delivery is in `(time, key)` order, whatever the calendar's width.
    #[test]
    fn engine_delivers_everything_in_order(
        events in proptest::collection::vec((0u64..1_000_000u64, 0u64..8, 1usize..5), 1..100),
    ) {
        let mut engine: Engine<(u64, u64)> = Engine::new();
        let mut counters = [0u64; 8];
        let mut expected = Vec::new();
        for &(t, first_src, burst) in &events {
            for src in (first_src..).take(burst).map(|s| s % 8) {
                let key = (src << 40) | counters[src as usize];
                counters[src as usize] += 1;
                engine.schedule_keyed(SimTime::from_nanos(t), key, (t, key));
                expected.push((t, key));
            }
        }
        let mut delivered = Vec::new();
        while let Some(event) = engine.pop() {
            delivered.push(event);
        }
        expected.sort_unstable();
        prop_assert_eq!(delivered, expected);
    }

    /// Under a horizon the engine stores only what it can deliver; a model
    /// that stores everything (and refuses to pop past the horizon) must
    /// see the same deliveries, `pending()` and `peak_pending()` after
    /// every step of a random keyed schedule / `pop` / `pop_before` mix.
    #[test]
    fn a_horizon_engine_matches_a_model_that_stores_everything(
        horizon in 500u64..3_000,
        ops in proptest::collection::vec((0u8..4, 0u64..4_000, 0u64..4), 1..200),
    ) {
        let horizon_at = SimTime::from_nanos(horizon);
        let mut engine: Engine<usize> = Engine::with_horizon(horizon_at);
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let (mut now, mut peak) = (0u64, 0usize);
        for (i, &(kind, t, tie)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    // Unique keys whose order is not schedule order.
                    let key = (tie << 32) | i as u64;
                    engine.schedule_keyed(SimTime::from_nanos(t), key, i);
                    model.push((t.max(now), key, i));
                    peak = peak.max(model.len());
                }
                2 => {
                    let want = model_pop(&mut model, &mut now, horizon, u64::MAX);
                    prop_assert_eq!(engine.pop(), want);
                }
                _ => {
                    let end = now + t;
                    let want = model_pop(&mut model, &mut now, horizon, end);
                    prop_assert_eq!(engine.pop_before(SimTime::from_nanos(end)), want);
                }
            }
            prop_assert_eq!(engine.pending(), model.len());
            prop_assert_eq!(engine.peak_pending(), peak);
            prop_assert_eq!(engine.now(), SimTime::from_nanos(now));
        }
    }

    #[test]
    fn merged_series_are_the_whole_series(
        points in proptest::collection::vec((0u64..100_000_000_000, 0u64..5_000_000_000), 0..200),
        owners in proptest::collection::vec(0usize..4, 200),
    ) {
        let mut points = points;
        points.sort_unstable();
        let mut whole = TimeSeries::new();
        let mut parts = vec![TimeSeries::new(); 4];
        for (&(at, ns), &owner) in points.iter().zip(&owners) {
            let (at, ns) = (SimTime::from_nanos(at), SimDuration::from_nanos(ns));
            whole.record(at, ns);
            parts[owner].record(at, ns);
        }
        let merged = |order: &mut dyn Iterator<Item = &TimeSeries>| {
            let mut ts = TimeSeries::new();
            order.for_each(|part| ts.merge(part));
            ts
        };
        for ts in [merged(&mut parts.iter()), merged(&mut parts.iter().rev())] {
            prop_assert_eq!(ts.per_second_means(), whole.per_second_means());
            prop_assert_eq!(ts.len(), points.len() as u64);
            prop_assert_eq!(ts.overall_mean(), whole.overall_mean());
        }
        let naive = points.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / points.len().max(1) as f64 / 1e9;
        prop_assert!((whole.overall_mean() - naive).abs() < 1e-9);
    }

    /// `Records` is a `Vec` to everything that uses it, whether it holds
    /// its one element inline or has spilled.
    #[test]
    fn records_match_a_vec_model(
        ops in proptest::collection::vec((0u8..5, any::<u8>(), 0usize..6), 0..60)
    ) {
        let mut records: Records<u8> = Records::default();
        let mut model: Vec<u8> = Vec::new();
        for (op, value, at) in ops {
            match op {
                0 => {
                    records.push(value);
                    model.push(value);
                }
                1 => {
                    let at = at.min(model.len());
                    records.insert(at, value);
                    model.insert(at, value);
                }
                2 if !model.is_empty() => {
                    let at = at % model.len();
                    prop_assert_eq!(records.remove(at), model.remove(at));
                }
                3 => {
                    let keep = |x: &u8| x % 3 != value % 3;
                    records.retain(keep);
                    model.retain(keep);
                }
                4 if at == 0 => {
                    records.clear();
                    model.clear();
                }
                _ => {}
            }
            prop_assert_eq!(&*records, &model[..]);
            prop_assert_eq!(records.len(), model.len());
        }
        prop_assert_eq!(records.clone().into_iter().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(records, model.into_iter().fold(Records::default(), |mut r, x| {
            r.push(x);
            r
        }));
    }
}
