//! The Bloom filter proper, with the saturation test TACTIC's routers
//! reset on (§5, §8).

use tactic_crypto::hash::Hasher64;

use crate::params::BloomParams;

/// A Bloom filter over byte-slice keys with Kirsch–Mitzenmacher double
/// hashing and fill-based FPP estimation.
///
/// TACTIC routers insert *validated tags* and consult the filter instead of
/// re-verifying signatures; when the estimated FPP reaches
/// [`BloomParams::max_fpp`] the filter is saturated and is reset (the
/// paper counts these resets in Fig. 8 / Table V; the router's
/// [`ValidationCache`](crate::ValidationCache) decides and reports them).
///
/// # Examples
///
/// ```
/// use tactic_bloom::{BloomFilter, BloomParams};
///
/// let mut bf = BloomFilter::new(BloomParams::paper(500));
/// bf.insert(b"tag-1");
/// assert!(bf.contains(b"tag-1"));
/// assert!(!bf.contains(b"tag-2"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    params: BloomParams,
    blocks: Vec<u64>,
    set_bits: usize,
    /// Precomputed integer saturation boundary
    /// ([`BloomParams::saturation_set_bits`]), so the per-insert
    /// saturation decision is a deterministic integer compare.
    saturation_bits: usize,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> Self {
        BloomFilter {
            blocks: vec![0u64; params.bits.div_ceil(64)],
            saturation_bits: params.saturation_set_bits(),
            params,
            set_bits: 0,
        }
    }

    /// The filter's parameters.
    pub fn params(&self) -> &BloomParams {
        &self.params
    }

    #[inline]
    fn base_hashes(&self, key: &[u8]) -> (u64, u64) {
        let mut h1 = Hasher64::with_seed(0xB100_F117_E500_0001);
        h1.update(key);
        let mut h2 = Hasher64::with_seed(0xB100_F117_E500_0002);
        h2.update(key);
        // h2 must be odd so the probe sequence spans the table.
        (h1.finish(), h2.finish() | 1)
    }

    #[inline]
    fn bit_index(&self, h1: u64, h2: u64, i: u32) -> usize {
        let combined = h1.wrapping_add((i as u64).wrapping_mul(h2));
        (combined % self.params.bits as u64) as usize
    }

    /// Inserts a key. Returns `true` if at least one bit was newly set
    /// (i.e. the key was definitely not present before).
    pub fn insert(&mut self, key: &[u8]) -> bool {
        let (h1, h2) = self.base_hashes(key);
        let mut fresh = false;
        for i in 0..self.params.hashes {
            let idx = self.bit_index(h1, h2, i);
            let (block, bit) = (idx / 64, idx % 64);
            let mask = 1u64 << bit;
            if self.blocks[block] & mask == 0 {
                self.blocks[block] |= mask;
                self.set_bits += 1;
                fresh = true;
            }
        }
        fresh
    }

    /// Membership test (may yield false positives, never false negatives).
    pub fn contains(&self, key: &[u8]) -> bool {
        let (h1, h2) = self.base_hashes(key);
        (0..self.params.hashes).all(|i| {
            let idx = self.bit_index(h1, h2, i);
            self.blocks[idx / 64] & (1 << (idx % 64)) != 0
        })
    }

    /// Occupancy — the set-bit fraction in `[0, 1]`. This is the
    /// saturation-trajectory signal the in-flight sampler exports per
    /// tick.
    pub fn occupancy(&self) -> f64 {
        self.set_bits as f64 / self.params.bits as f64
    }

    /// Number of bits currently set. Raw integer form of
    /// [`occupancy`](Self::occupancy) for deterministic (non-float)
    /// aggregation across routers and shards.
    pub fn set_bits(&self) -> usize {
        self.set_bits
    }

    /// Total bits in the filter (`params.bits`), the occupancy denominator.
    pub fn bit_count(&self) -> usize {
        self.params.bits
    }

    /// The current false-positive probability, estimated from the actual
    /// occupancy: `fill^k`. This is the value TACTIC edge routers copy
    /// into the flag `F` of forwarded Interests.
    pub fn estimated_fpp(&self) -> f64 {
        self.occupancy().powi(self.params.hashes as i32)
    }

    /// True once the estimated FPP has reached the configured maximum; the
    /// owning cache then [`reset`](Self::reset)s the filter.
    ///
    /// Decided on the deterministic integer set-bit count against the
    /// precomputed [`BloomParams::saturation_set_bits`] boundary — by
    /// construction the same decision the historical float rule
    /// `estimated_fpp() >= max_fpp` makes, without evaluating floats on
    /// the insert path.
    pub fn is_saturated(&self) -> bool {
        self.set_bits >= self.saturation_bits
    }

    /// Clears all bits, keeping the bit array's storage.
    pub fn reset(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
        self.set_bits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("tag-{i}").into_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        for i in 0..500 {
            bf.insert(&key(i));
        }
        for i in 0..500 {
            assert!(bf.contains(&key(i)), "false negative for {i}");
        }
    }

    #[test]
    fn empirical_fpp_matches_design() {
        let mut bf = BloomFilter::new(BloomParams::for_capacity(1000, 0.01));
        for i in 0..1000 {
            bf.insert(&key(i));
        }
        let fp = (1000..101_000).filter(|&i| bf.contains(&key(i))).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.02, "observed fpp {rate}");
        assert!(
            rate > 0.001,
            "suspiciously low fpp {rate} (hashing broken?)"
        );
        // The fill-based estimate should be in the same ballpark.
        let est = bf.estimated_fpp();
        assert!(
            (est / rate < 3.0) && (rate / est < 3.0),
            "estimate {est} vs observed {rate}"
        );
    }

    #[test]
    fn saturation_triggers_near_capacity() {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        let mut i = 0u64;
        while !bf.is_saturated() {
            bf.insert(&key(i));
            i += 1;
            assert!(i < 2_000, "filter never saturated");
        }
        // Saturation should happen in the vicinity of the design capacity.
        assert!(
            (250..1_000).contains(&i),
            "saturated after {i} insertions (capacity 500)"
        );
    }

    #[test]
    fn reset_clears_every_bit() {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        bf.insert(b"a");
        assert!(bf.contains(b"a"));
        bf.reset();
        assert!(!bf.contains(b"a"));
        assert_eq!(bf.set_bits(), 0);
        assert_eq!(bf, BloomFilter::new(BloomParams::paper(500)));
    }

    #[test]
    fn insert_reports_freshness() {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        assert!(bf.insert(b"x"));
        assert!(!bf.insert(b"x"), "re-inserting must set no new bits");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = BloomFilter::new(BloomParams::paper(500));
        assert_eq!(bf.estimated_fpp(), 0.0);
        assert!(!bf.is_saturated());
        for i in 0..100 {
            assert!(!bf.contains(&key(i)));
        }
    }

    #[test]
    fn occupancy_tracks_set_bits_and_fpp_matches_params_math() {
        let params = BloomParams::for_capacity(1_000, 0.01);
        let mut bf = BloomFilter::new(params);
        assert_eq!(bf.occupancy(), 0.0);
        assert_eq!(bf.set_bits(), 0);
        assert_eq!(bf.bit_count(), params.bits);

        for i in 0..1_000 {
            bf.insert(&key(i));
        }
        assert_eq!(bf.occupancy(), bf.set_bits() as f64 / params.bits as f64);
        assert!(bf.occupancy() > 0.0 && bf.occupancy() < 1.0);
        assert!(bf.set_bits() <= params.bits);

        // The design-time prediction `fpp_after(n)` models the expected
        // fill `1 - e^(-kn/m)`; the observed occupancy must sit near it,
        // and the fill-based estimate must match `occupancy^k` exactly.
        let expected_fill = 1.0 - (-(params.hashes as f64) * 1_000.0 / params.bits as f64).exp();
        let occ = bf.occupancy();
        assert!(
            (occ - expected_fill).abs() < 0.02,
            "occupancy {occ} vs expected fill {expected_fill}"
        );
        let est = bf.estimated_fpp();
        assert!(
            (est - occ.powi(params.hashes as i32)).abs() < 1e-12,
            "estimated_fpp must be occupancy^k"
        );
        let predicted = params.fpp_after(1_000);
        assert!(
            est / predicted < 3.0 && predicted / est < 3.0,
            "estimate {est} vs params prediction {predicted}"
        );
    }

    #[test]
    fn occupancy_resets_with_the_filter() {
        let mut bf = BloomFilter::new(BloomParams::paper(100));
        for i in 0..100 {
            bf.insert(&key(i));
        }
        assert!(bf.set_bits() > 0);
        bf.reset();
        assert_eq!(bf.set_bits(), 0);
        assert_eq!(bf.occupancy(), 0.0);
    }
}
