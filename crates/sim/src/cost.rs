//! Computation-cost injection.
//!
//! ndnSIM does not charge simulated time for computation, so the paper
//! benchmarked the three hot operations on an Intel Core-i7 2.93 GHz machine
//! and injected their latencies as normally-distributed random delays
//! (§8.A):
//!
//! | Operation              | Mean (s)   | Printed 2nd param |
//! |------------------------|------------|-------------------|
//! | Bloom-filter lookup    | 9.14×10⁻⁷  | 6.51×10⁻⁹         |
//! | Bloom-filter insertion | 3.35×10⁻⁷  | 1.73×10⁻³         |
//! | Signature verification | 1.12×10⁻⁵  | 6.49×10⁻³         |
//!
//! The printed second parameters of the last two rows cannot be standard
//! deviations in seconds — they exceed their means by three to four orders
//! of magnitude, which would make most samples negative or absurdly large.
//! We treat them as benchmark-report artifacts: [`CostModel::paper`] keeps
//! the (plausible) lookup σ and substitutes σ = mean/10 for insertion and
//! verification, truncating all samples at zero. The means — which dominate
//! every reported aggregate — are exactly the paper's.

use crate::dist::TruncatedNormal;
use crate::rng::Rng;
use crate::time::SimDuration;

/// The router-side operations whose latency the simulator charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Bloom-filter membership test.
    BfLookup,
    /// Bloom-filter insertion.
    BfInsert,
    /// Tag signature verification (Schnorr verify in our build).
    SigVerify,
    /// Tag signing at the provider.
    SigSign,
    /// The Protocol 1 pre-check (field comparisons; negligible but nonzero).
    PreCheck,
    /// Access-path recomputation/compare at an edge router.
    AccessPathCheck,
}

/// Samples operation latencies from per-operation truncated normals.
///
/// # Examples
///
/// ```
/// use tactic_sim::cost::{CostModel, Op};
/// use tactic_sim::rng::Rng;
///
/// let model = CostModel::paper();
/// let mut rng = Rng::seed_from_u64(1);
/// let d = model.sample(Op::SigVerify, &mut rng);
/// assert!(d.as_secs_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    bf_lookup: TruncatedNormal,
    bf_insert: TruncatedNormal,
    sig_verify: TruncatedNormal,
    sig_sign: TruncatedNormal,
    pre_check: TruncatedNormal,
    access_path: TruncatedNormal,
    enabled: bool,
}

impl CostModel {
    /// The paper's benchmarked model (see module docs for the σ caveat).
    pub fn paper() -> Self {
        CostModel {
            bf_lookup: TruncatedNormal::new(9.14e-7, 6.51e-9, 0.0),
            bf_insert: TruncatedNormal::new(3.35e-7, 3.35e-8, 0.0),
            sig_verify: TruncatedNormal::new(1.12e-5, 1.12e-6, 0.0),
            // Signing is roughly the cost of one modular exponentiation like
            // verification; the paper does not report it (providers are not
            // on the forwarding fast path), so we reuse the verify figure.
            sig_sign: TruncatedNormal::new(1.12e-5, 1.12e-6, 0.0),
            // Field comparisons: tens of nanoseconds.
            pre_check: TruncatedNormal::new(5.0e-8, 5.0e-9, 0.0),
            // One hash + XOR chain over a handful of identities.
            access_path: TruncatedNormal::new(2.0e-7, 2.0e-8, 0.0),
            enabled: true,
        }
    }

    /// The paper's *printed* parameters taken literally: the second
    /// parameters of insert (1.73e-3) and verify (6.49e-3) used as
    /// standard deviations in seconds, truncated at zero.
    ///
    /// Almost certainly a typo in the paper — σ three orders of magnitude
    /// above the mean — but reproducing it explains Fig. 5: under these
    /// σ values a signature verification frequently costs *milliseconds*,
    /// so Bloom-filter resets (which force re-validations) visibly move
    /// client latency. Under the plausible [`CostModel::paper`] means,
    /// µs-scale verifications cannot move ms-scale retrieval latency.
    pub fn paper_printed() -> Self {
        let mut m = Self::paper();
        m.bf_insert = TruncatedNormal::new(3.35e-7, 1.73e-3, 0.0);
        m.sig_verify = TruncatedNormal::new(1.12e-5, 6.49e-3, 0.0);
        m.sig_sign = TruncatedNormal::new(1.12e-5, 6.49e-3, 0.0);
        m
    }

    /// A model that charges zero time for every operation (pure-throughput
    /// experiments and unit tests).
    pub fn free() -> Self {
        let mut m = Self::paper();
        m.enabled = false;
        m
    }

    /// Mean latency of `op` in seconds.
    pub fn mean(&self, op: Op) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.dist(op).mean()
    }

    /// Samples the latency of one `op`.
    pub fn sample(&self, op: Op, rng: &mut Rng) -> SimDuration {
        if !self.enabled {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.dist(op).sample(rng))
    }

    fn dist(&self, op: Op) -> &TruncatedNormal {
        match op {
            Op::BfLookup => &self.bf_lookup,
            Op::BfInsert => &self.bf_insert,
            Op::SigVerify => &self.sig_verify,
            Op::SigSign => &self.sig_sign,
            Op::PreCheck => &self.pre_check,
            Op::AccessPathCheck => &self.access_path,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_orders_ops_correctly() {
        let m = CostModel::paper();
        // Signature verification must dominate, lookups sit between
        // insertions and verification per the paper's benchmark.
        assert!(m.mean(Op::SigVerify) > m.mean(Op::BfLookup));
        assert!(m.mean(Op::BfLookup) > m.mean(Op::BfInsert));
    }

    #[test]
    fn samples_are_nonnegative_and_near_mean() {
        let m = CostModel::paper();
        let mut rng = Rng::seed_from_u64(1);
        let mut total = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let d = m.sample(Op::SigVerify, &mut rng).as_secs_f64();
            assert!(d >= 0.0);
            total += d;
        }
        let mean = total / n as f64;
        assert!((mean - 1.12e-5).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn printed_model_has_millisecond_tails() {
        let m = CostModel::paper_printed();
        let mut rng = Rng::seed_from_u64(3);
        let mut total = 0.0;
        let n = 5_000;
        let mut over_1ms = 0;
        for _ in 0..n {
            let d = m.sample(Op::SigVerify, &mut rng).as_secs_f64();
            total += d;
            if d > 1e-3 {
                over_1ms += 1;
            }
        }
        // With σ = 6.49e-3 truncated at 0, a large fraction of samples are
        // multi-millisecond — the mechanism behind the paper's Fig. 5.
        assert!(over_1ms > n / 4, "only {over_1ms}/{n} samples above 1 ms");
        assert!(total / n as f64 > 1e-3, "mean sample {}", total / n as f64);
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(m.sample(Op::SigVerify, &mut rng), SimDuration::ZERO);
        assert_eq!(m.mean(Op::BfLookup), 0.0);
    }
}
