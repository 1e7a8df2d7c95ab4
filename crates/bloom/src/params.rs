//! Bloom-filter parameter derivation.
//!
//! Standard analysis (Mullin, "A second look at Bloom filters", CACM 1983 —
//! the paper's reference \[18\]): for a filter of `m` bits, `k` hash
//! functions and `n` inserted elements the false-positive probability is
//! `(1 - (1 - 1/m)^(kn))^k ≈ (1 - e^(-kn/m))^k`. The optimal bit count for
//! a target probability `p` at capacity `n` is `m = -n·ln p / (ln 2)²`, and
//! the optimal hash count is `k = (m/n)·ln 2`.

/// Sizing and policy parameters for a [`crate::BloomFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloomParams {
    /// Number of bits `m`.
    pub bits: usize,
    /// Number of hash functions `k`.
    pub hashes: u32,
    /// Design capacity `n` (elements the filter is sized for).
    pub capacity: usize,
    /// FPP threshold at which the filter counts as saturated and is reset.
    pub max_fpp: f64,
}

impl BloomParams {
    /// Derives optimal `m` and `k` for `capacity` elements at `target_fpp`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `target_fpp` is outside `(0, 1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tactic_bloom::BloomParams;
    ///
    /// let p = BloomParams::for_capacity(1000, 0.01);
    /// assert!(p.bits >= 9000 && p.bits <= 10000);
    /// assert_eq!(p.hashes, 7);
    /// ```
    pub fn for_capacity(capacity: usize, target_fpp: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            target_fpp > 0.0 && target_fpp < 1.0,
            "target_fpp must be in (0, 1)"
        );
        let ln2 = std::f64::consts::LN_2;
        let m = (-(capacity as f64) * target_fpp.ln() / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / capacity as f64) * ln2).round().max(1.0) as u32;
        BloomParams {
            bits: m.max(8),
            hashes: k,
            capacity,
            max_fpp: target_fpp,
        }
    }

    /// The paper's configuration: `k = 5` hash functions, maximum FPP
    /// `1e-4`, with the bit count sized for `capacity` tags at that FPP
    /// under `k = 5` (solving `(1 - e^(-kn/m))^k = p` for `m`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn paper(capacity: usize) -> Self {
        Self::with_fixed_hashes(capacity, 5, 1e-4)
    }

    /// Sizes the bit array for `capacity` elements at `max_fpp` with a
    /// *fixed* hash count (the paper pins `k = 5` while sweeping FPP).
    ///
    /// From `(1 - e^(-kn/m))^k = p`: `m = -kn / ln(1 - p^(1/k))`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `hashes == 0`, or `max_fpp` ∉ (0, 1).
    pub fn with_fixed_hashes(capacity: usize, hashes: u32, max_fpp: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(hashes > 0, "need at least one hash function");
        assert!(max_fpp > 0.0 && max_fpp < 1.0, "max_fpp must be in (0, 1)");
        let k = hashes as f64;
        let n = capacity as f64;
        let m = (-k * n / (1.0 - max_fpp.powf(1.0 / k)).ln()).ceil() as usize;
        BloomParams {
            bits: m.max(8),
            hashes,
            capacity,
            max_fpp,
        }
    }

    /// The smallest set-bit count at which the filter counts as
    /// saturated — the integer form of the historical float rule
    /// `fill_ratio^k >= max_fpp`.
    ///
    /// Saturation used to be decided per insert by recomputing the
    /// float estimate; this precomputes the decision boundary once, by
    /// binary search over set-bit counts of the *identical* float
    /// expression (which is monotone in the set-bit count), so the
    /// boundary provably matches the old rule bit for bit while the
    /// per-insert decision becomes a deterministic integer compare.
    pub fn saturation_set_bits(&self) -> usize {
        let saturated =
            |s: usize| (s as f64 / self.bits as f64).powi(self.hashes as i32) >= self.max_fpp;
        if !saturated(self.bits) {
            // max_fpp > 1: the filter can never saturate.
            return self.bits + 1;
        }
        let (mut lo, mut hi) = (0usize, self.bits);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if saturated(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Theoretical FPP after `inserted` elements: `(1 - e^(-k·i/m))^k`.
    pub fn fpp_after(&self, inserted: usize) -> f64 {
        let k = self.hashes as f64;
        let exponent = -k * inserted as f64 / self.bits as f64;
        (1.0 - exponent.exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_sizing_hits_target() {
        let p = BloomParams::for_capacity(500, 1e-4);
        let fpp = p.fpp_after(500);
        assert!(fpp <= 1.2e-4, "fpp at capacity {fpp}");
    }

    #[test]
    fn paper_params_match_stated_config() {
        let p = BloomParams::paper(500);
        assert_eq!(p.hashes, 5);
        assert_eq!(p.max_fpp, 1e-4);
        // At design capacity the theoretical FPP must sit at ~max_fpp.
        let fpp = p.fpp_after(500);
        assert!((0.5e-4..=1.05e-4).contains(&fpp), "fpp {fpp}");
    }

    #[test]
    fn fixed_hash_sizing_monotone_in_capacity() {
        let small = BloomParams::with_fixed_hashes(500, 5, 1e-4);
        let large = BloomParams::with_fixed_hashes(5000, 5, 1e-4);
        assert!(
            large.bits > small.bits * 9,
            "{} vs {}",
            large.bits,
            small.bits
        );
    }

    #[test]
    fn looser_fpp_needs_fewer_bits() {
        let tight = BloomParams::with_fixed_hashes(500, 5, 1e-4);
        let loose = BloomParams::with_fixed_hashes(500, 5, 1e-2);
        assert!(loose.bits < tight.bits);
    }

    #[test]
    fn fpp_after_is_monotone() {
        let p = BloomParams::paper(1000);
        let mut last = 0.0;
        for i in [0, 100, 500, 1000, 2000, 10_000] {
            let f = p.fpp_after(i);
            assert!(f >= last, "fpp decreased at {i}");
            last = f;
        }
        assert_eq!(p.fpp_after(0), 0.0);
    }

    /// The integer saturation boundary must agree with the historical
    /// float predicate `(set_bits/bits)^k >= max_fpp` at **every**
    /// possible set-bit count, for every configuration the goldens and
    /// the paper sweeps exercise — float drift must never flip a reset.
    #[test]
    fn saturation_boundary_matches_float_predicate_exactly() {
        let configs = [
            BloomParams::paper(500),
            BloomParams::paper(100),
            BloomParams::paper(2_500),
            BloomParams::for_capacity(1_000, 0.01),
            BloomParams::for_capacity(50, 1e-6),
            BloomParams::with_fixed_hashes(500, 5, 1e-2),
            BloomParams::with_fixed_hashes(500, 1, 0.5),
        ];
        for p in configs {
            let threshold = p.saturation_set_bits();
            for s in 0..=p.bits {
                let float_rule = (s as f64 / p.bits as f64).powi(p.hashes as i32) >= p.max_fpp;
                assert_eq!(
                    s >= threshold,
                    float_rule,
                    "boundary mismatch at set_bits={s} for {p:?} (threshold {threshold})"
                );
            }
        }
    }

    #[test]
    fn saturation_threshold_unreachable_when_fpp_cap_exceeds_one() {
        let p = BloomParams {
            bits: 64,
            hashes: 2,
            capacity: 8,
            max_fpp: 2.0,
        };
        assert_eq!(p.saturation_set_bits(), p.bits + 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        BloomParams::for_capacity(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "max_fpp")]
    fn bad_fpp_panics() {
        BloomParams::with_fixed_hashes(10, 5, 1.5);
    }
}
