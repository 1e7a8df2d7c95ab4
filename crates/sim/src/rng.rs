//! Deterministic pseudo-random number generation.
//!
//! The simulator ships its own RNG (SplitMix64 seeding a Xoshiro256\*\*) so
//! that runs are bit-reproducible across platforms and independent of any
//! external crate's version. This is the same combination `rand`'s
//! `Xoshiro256StarStar` uses; the generators are from Blackman & Vigna,
//! <https://prng.di.unimi.it/>.
//!
//! Not cryptographically secure — simulation only.

/// SplitMix64 step: used for seeding and for stateless hashing of seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed for one experiment run from its grid coordinates.
///
/// The seed is a pure function of `(base, topology, scenario, run_idx)` —
/// never of worker-thread count, scheduling order, or wall-clock time — so
/// a parallel sweep of the (topology × scenario × seed) grid draws exactly
/// the random streams a serial sweep would. Coordinates are absorbed
/// through a SplitMix64 chain, feeding each mixed output into the next
/// step, so neighbouring cells (adjacent run indices, adjacent topology
/// numbers) get decorrelated streams.
///
/// # Examples
///
/// ```
/// use tactic_sim::rng::derive_seed;
///
/// let a = derive_seed(7, 1, 500, 0);
/// assert_eq!(a, derive_seed(7, 1, 500, 0)); // stable
/// assert_ne!(a, derive_seed(7, 1, 500, 1)); // per-run streams differ
/// assert_ne!(a, derive_seed(7, 2, 500, 0)); // per-topology streams differ
/// ```
pub fn derive_seed(base: u64, topology: u32, scenario: u64, run_idx: u64) -> u64 {
    let mut s = base ^ 0x5441_4354_4943_0001; // "TACTIC\0\x01" domain separator
    let mut h = splitmix64(&mut s);
    for coordinate in [u64::from(topology), scenario, run_idx] {
        s = h ^ coordinate;
        h = splitmix64(&mut s);
    }
    h
}

/// A deterministic Xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use tactic_sim::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Xoshiro must not start from the all-zero state.
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15; 4];
        }
        Rng { s }
    }

    /// Derives an independent child generator for a named stream.
    ///
    /// Substreams let each simulated entity own its random sequence so that
    /// adding entities does not perturb the draws of existing ones.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15; 4];
        }
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` without modulo bias (Lemire method
    /// with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift with rejection on the low word.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below_usize(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let root = Rng::seed_from_u64(99);
        let mut s1 = root.fork(1);
        let mut s1b = root.fork(1);
        let mut s2 = root.fork(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from_u64(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_probability_is_respected() {
        let mut r = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits={hits}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from_u64(0).below(0);
    }
}
