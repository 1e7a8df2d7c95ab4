//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance driver uses to
//! judge run-to-run spread; `--compare` must agree with it.

use crate::json::Value;

/// Median, quartiles, extremes and the raw samples of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The samples in measurement order (kept so `--compare` can apply
    /// the "every run of one side beats every run of the other" rule).
    pub samples: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when empty or any sample is not finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            samples: samples.to_vec(),
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Interquartile distance.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The result-file form: every timing carries median, q1, q3, min,
    /// max, n and the samples themselves.
    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj([
            ("unit", Value::str(unit)),
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n() as f64)),
            (
                "samples",
                Value::Arr(self.samples.iter().map(|&v| Value::Num(v)).collect()),
            ),
        ])
    }

    /// Reads back what [`Summary::to_json`] wrote (recomputing the order
    /// statistics from the samples, so a hand-edited file cannot disagree
    /// with itself).
    pub fn from_json(v: &Value) -> Option<Summary> {
        let samples: Option<Vec<f64>> = v
            .get("samples")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect();
        Summary::of(&samples?)
    }
}

/// Median of `samples` (`None` when empty or not finite).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// `(q1, median, q3)` of an ascending non-empty slice, exclusive method.
/// A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // Python: j = i*m // 4 clamped to [1, n-1]; delta = i*m - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.min, s.max, s.n()), (1.0, 16.0, 5));
        assert_eq!(s.iqr(), 10.5);
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    fn empty_and_non_finite_inputs_are_rejected() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(Summary::of(&[f64::INFINITY]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 9.0]), Some(4.0));
    }

    #[test]
    fn json_round_trip_keeps_samples_in_order() {
        let s = Summary::of(&[0.3, 0.1, 0.2]).unwrap();
        let v = s.to_json("s");
        assert_eq!(v.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(Summary::from_json(&v), Some(s));
    }
}
