//! Measurement primitives: ratios, rates, and the per-second latency
//! series the paper's figures are built from.

use std::collections::BTreeMap;
use std::fmt;

use crate::records::Records;
use crate::rng::splitmix64;
use crate::time::{SimDuration, SimTime};

/// `num / den` as a float ratio, defined as 0 when the denominator is 0 —
/// the convention every delivery/hit ratio in the reports uses.
///
/// # Examples
///
/// ```
/// use tactic_sim::stats::ratio;
///
/// assert_eq!(ratio(999, 1000), 0.999);
/// assert_eq!(ratio(1, 0), 0.0);
/// ```
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `count` events over `duration`, as a per-second rate (0 for a
/// zero-length run).
pub fn rate_per_second(count: u64, duration: SimDuration) -> f64 {
    let secs = duration.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// A latency series folded as it is recorded: per second, the count and
/// the exact sum in nanoseconds of the latencies recorded in it (what the
/// paper's Fig. 5 plots, "averaged per second"), plus an order-sensitive
/// digest of every `(at, latency)` recorded, so that a changed, added or
/// missing observation shows even where the means do not.
///
/// Integer sums make the fold exact and order-free: merging series (the
/// clients of a run) gives the same buckets in any order. The digest is
/// the one part that depends on order, by design.
///
/// # Examples
///
/// ```
/// use tactic_sim::stats::TimeSeries;
/// use tactic_sim::time::{SimDuration, SimTime};
///
/// let ms = SimDuration::from_millis;
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs_f64(0.2), ms(10));
/// ts.record(SimTime::from_secs_f64(0.8), ms(20));
/// ts.record(SimTime::from_secs_f64(1.5), ms(5));
/// assert_eq!(ts.per_second_means(), vec![(0, 0.015), (1, 0.005)]);
/// assert_eq!(ts.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct TimeSeries {
    /// One per second with an observation, ascending. A user whose
    /// deliveries all fall within one second holds its one bucket inline.
    buckets: Records<Bucket>,
    digest: u64,
}

/// `TimeSeries { buckets: [..], digest: .. }`, whichever form holds the
/// buckets.
impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSeries")
            .field("buckets", &&*self.buckets)
            .field("digest", &self.digest)
            .finish()
    }
}

/// The observations of one second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    second: u64,
    count: u64,
    sum_ns: u64,
}

/// Folds `word` into `digest`: a SplitMix64 step over their XOR, so the
/// result depends on the order words arrive in.
fn fold(digest: u64, word: u64) -> u64 {
    let mut state = digest ^ word;
    splitmix64(&mut state)
}

/// `sum_ns / count` in seconds, 0 if `count` is.
fn mean_secs(sum_ns: u128, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1e9
    }
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Records a latency observed at `at`. Observations arrive in time
    /// order, so only the last bucket can be `at`'s.
    pub fn record(&mut self, at: SimTime, latency: SimDuration) {
        let (second, ns) = (at.as_secs(), latency.as_nanos());
        match self.buckets.last_mut() {
            Some(last) if last.second == second => {
                last.count += 1;
                last.sum_ns += ns;
            }
            last => {
                debug_assert!(
                    last.is_none_or(|b| b.second < second),
                    "recorded out of order"
                );
                self.buckets.push(Bucket {
                    second,
                    count: 1,
                    sum_ns: ns,
                });
            }
        }
        self.digest = fold(fold(self.digest, at.as_nanos()), ns);
    }

    /// Adds `other`'s observations into this series, bucket by bucket,
    /// and folds its digest into this one's.
    pub fn merge(&mut self, other: &TimeSeries) {
        for b in other.buckets.iter() {
            match self.buckets.binary_search_by_key(&b.second, |m| m.second) {
                Ok(i) => {
                    self.buckets[i].count += b.count;
                    self.buckets[i].sum_ns += b.sum_ns;
                }
                Err(i) => self.buckets.insert(i, *b),
            }
        }
        self.digest = fold(self.digest, other.digest);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The order-sensitive digest of everything recorded and merged.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `(second, mean latency in seconds)` for every second that has at
    /// least one observation, in ascending order.
    pub fn per_second_means(&self) -> Vec<(u64, f64)> {
        let mean = |b: &Bucket| mean_secs(b.sum_ns.into(), b.count);
        self.buckets.iter().map(|b| (b.second, mean(b))).collect()
    }

    /// Mean latency in seconds over all observations regardless of time.
    pub fn overall_mean(&self) -> f64 {
        let sum: u128 = self.buckets.iter().map(|b| u128::from(b.sum_ns)).sum();
        mean_secs(sum, self.len())
    }
}

/// Element-wise average of several aligned `(x, y)` series (the paper's
/// five-seed averaging). Buckets present in only some series are averaged
/// over the series that contain them.
pub fn average_series(series: &[Vec<(u64, f64)>]) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, (f64, u32)> = BTreeMap::new();
    for &(x, y) in series.iter().flatten() {
        let (sum, n) = acc.entry(x).or_default();
        *sum += y;
        *n += 1;
    }
    acc.into_iter()
        .map(|(x, (sum, n))| (x, sum / f64::from(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(rate_per_second(50, SimDuration::from_secs(10)), 5.0);
        assert_eq!(rate_per_second(50, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn time_series_bucketing() {
        let mut ts = TimeSeries::new();
        ts.record(at(0.1), ms(1));
        ts.record(at(0.9), ms(3));
        ts.record(at(2.5), ms(10));
        assert_eq!(ts.per_second_means(), vec![(0, 0.002), (2, 0.01)]);
        assert_eq!(ts.overall_mean(), 14e6 / 3.0 / 1e9);
        assert_eq!(ts.len(), 3);
        assert_eq!(TimeSeries::new().overall_mean(), 0.0);
    }

    #[test]
    fn merging_adds_buckets_in_any_order() {
        let mut a = TimeSeries::new();
        a.record(at(1.0), ms(2));
        a.record(at(3.0), ms(4));
        let mut b = TimeSeries::new();
        b.record(at(0.5), ms(6));
        b.record(at(1.5), ms(8));
        b.record(at(4.0), ms(1));
        let (mut ab, mut ba) = (TimeSeries::new(), TimeSeries::new());
        ab.merge(&a);
        ab.merge(&b);
        ba.merge(&b);
        ba.merge(&a);
        let means = vec![(0, 0.006), (1, 0.005), (3, 0.004), (4, 0.001)];
        assert_eq!(ab.per_second_means(), means);
        assert_eq!(ba.per_second_means(), means);
        assert_eq!(ab.len(), 5);
        assert_ne!(ab.digest(), ba.digest(), "the digest keeps the order");
    }

    #[test]
    fn the_digest_sees_one_observation_the_means_do_not() {
        let series = |second_latency: SimDuration, second_at: f64| {
            let mut ts = TimeSeries::new();
            ts.record(at(0.1), ms(3));
            ts.record(at(second_at), second_latency);
            ts
        };
        let base = series(ms(5), 0.2);
        // Same means, one observation moved within its second.
        let moved = series(ms(5), 0.3);
        assert_eq!(base.per_second_means(), moved.per_second_means());
        assert_ne!(base.digest(), moved.digest());
        // One nanosecond of latency.
        let shifted = series(ms(5) + SimDuration::from_nanos(1), 0.2);
        assert_ne!(base.digest(), shifted.digest());
        // Recorded in the other order.
        let mut swapped = TimeSeries::new();
        swapped.record(at(0.1), ms(5));
        swapped.record(at(0.2), ms(3));
        assert_eq!(base.per_second_means(), swapped.per_second_means());
        assert_ne!(base.digest(), swapped.digest());
    }

    /// Records two deliveries in each of the seconds `0..buckets`.
    fn per_second(buckets: u64) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for s in 0..buckets {
            let at = SimTime::from_secs(s) + ms(250);
            ts.record(at, ms(s + 1));
            ts.record(at + ms(500), SimDuration::from_micros(7));
        }
        ts
    }

    #[test]
    fn debug_prints_the_buckets_as_a_list_in_either_form() {
        // Captured from the derived `Debug` of the `Vec`-backed series.
        let want: [(u64, &str); 4] = [
            (0, "TimeSeries { buckets: [], digest: 0 }"),
            (
                1,
                "TimeSeries { buckets: [Bucket { second: 0, count: 2, sum_ns: 1007000 }], digest: 433623266826100566 }",
            ),
            (
                2,
                "TimeSeries { buckets: [Bucket { second: 0, count: 2, sum_ns: 1007000 }, \
                Bucket { second: 1, count: 2, sum_ns: 2007000 }], digest: 9658212568363341346 }",
            ),
            (
                40,
                "TimeSeries { buckets: [Bucket { second: 0, count: 2, sum_ns: 1007000 }, \
                Bucket { second: 1, count: 2, sum_ns: 2007000 }, \
                Bucket { second: 2, count: 2, sum_ns: 3007000 }, \
                Bucket { second: 3, count: 2, sum_ns: 4007000 }, \
                Bucket { second: 4, count: 2, sum_ns: 5007000 }, \
                Bucket { second: 5, count: 2, sum_ns: 6007000 }, \
                Bucket { second: 6, count: 2, sum_ns: 7007000 }, \
                Bucket { second: 7, count: 2, sum_ns: 8007000 }, \
                Bucket { second: 8, count: 2, sum_ns: 9007000 }, \
                Bucket { second: 9, count: 2, sum_ns: 10007000 }, \
                Bucket { second: 10, count: 2, sum_ns: 11007000 }, \
                Bucket { second: 11, count: 2, sum_ns: 12007000 }, \
                Bucket { second: 12, count: 2, sum_ns: 13007000 }, \
                Bucket { second: 13, count: 2, sum_ns: 14007000 }, \
                Bucket { second: 14, count: 2, sum_ns: 15007000 }, \
                Bucket { second: 15, count: 2, sum_ns: 16007000 }, \
                Bucket { second: 16, count: 2, sum_ns: 17007000 }, \
                Bucket { second: 17, count: 2, sum_ns: 18007000 }, \
                Bucket { second: 18, count: 2, sum_ns: 19007000 }, \
                Bucket { second: 19, count: 2, sum_ns: 20007000 }, \
                Bucket { second: 20, count: 2, sum_ns: 21007000 }, \
                Bucket { second: 21, count: 2, sum_ns: 22007000 }, \
                Bucket { second: 22, count: 2, sum_ns: 23007000 }, \
                Bucket { second: 23, count: 2, sum_ns: 24007000 }, \
                Bucket { second: 24, count: 2, sum_ns: 25007000 }, \
                Bucket { second: 25, count: 2, sum_ns: 26007000 }, \
                Bucket { second: 26, count: 2, sum_ns: 27007000 }, \
                Bucket { second: 27, count: 2, sum_ns: 28007000 }, \
                Bucket { second: 28, count: 2, sum_ns: 29007000 }, \
                Bucket { second: 29, count: 2, sum_ns: 30007000 }, \
                Bucket { second: 30, count: 2, sum_ns: 31007000 }, \
                Bucket { second: 31, count: 2, sum_ns: 32007000 }, \
                Bucket { second: 32, count: 2, sum_ns: 33007000 }, \
                Bucket { second: 33, count: 2, sum_ns: 34007000 }, \
                Bucket { second: 34, count: 2, sum_ns: 35007000 }, \
                Bucket { second: 35, count: 2, sum_ns: 36007000 }, \
                Bucket { second: 36, count: 2, sum_ns: 37007000 }, \
                Bucket { second: 37, count: 2, sum_ns: 38007000 }, \
                Bucket { second: 38, count: 2, sum_ns: 39007000 }, \
                Bucket { second: 39, count: 2, sum_ns: 40007000 }], digest: 666894746873257634 }",
            ),
        ];
        for (buckets, want) in want {
            assert_eq!(
                format!("{:?}", per_second(buckets)),
                want,
                "{buckets} buckets"
            );
        }
    }

    #[test]
    fn series_averaging_handles_missing_buckets() {
        let a = vec![(0, 1.0), (1, 3.0)];
        let b = vec![(0, 3.0)];
        assert_eq!(average_series(&[a, b]), vec![(0, 2.0), (1, 3.0)]);
    }
}
