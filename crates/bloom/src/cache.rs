//! The router's validation-state cache.
//!
//! TACTIC routers remember which tags they have already
//! signature-verified. The paper keeps that memory in a single Bloom
//! filter and handles saturation with a full reset that dumps *all*
//! validated state at once (Fig. 8 / Table V count these resets). At
//! fleet scale (10⁵–10⁶ clients per router) that policy has a
//! measurable cliff: every reset forces the whole client population back
//! through signature verification simultaneously.
//!
//! [`ValidationCache`] is one structure for both designs: `P` prefix
//! partitions (a tag is routed by a seeded hash of its name prefix; one
//! partition hashes nothing), each holding `G` generations of
//! [`BloomFilter`] ordered oldest to newest. Inserts go to the newest
//! generation of the key's partition and lookups probe all of its
//! generations. When the newest saturates, the oldest is retired: cleared
//! in place and rotated to the back as the new head, with no filter
//! allocated. A rotation thus evicts `1/G` of one partition's validated
//! state, and a hot prefix churns only its own partition. An insert
//! reports what it retired ([`CacheChurn`]), and the router counts it
//! once, as a reset or a rotation.
//!
//! * [`CachePolicy::MonolithicReset`] — the paper's design, and the
//!   default: `G = P = 1`, where retiring the oldest generation is the
//!   full reset, packet for packet what the golden snapshots record.
//! * [`CachePolicy::Generational`] — any other `G × P`.
//!
//! A partition's FPP — the flag `F` — is the union `1 − Π(1 − fpp_g)`
//! over its generations, oldest first; a one-generation partition's is
//! its filter's own `fill^k`, since in `f64` `1 − (1 − x)` is not always
//! `x`.
//!
//! Per-generation filters take a proportional slice of the configured
//! geometry: bits and capacity divided evenly across partitions and
//! generations, hash count and max-FPP target kept, so the aggregate bit
//! budget and the saturation fill fraction match the one-filter
//! configuration. Sizing each slice afresh with
//! [`BloomParams::for_capacity`] would
//! strip the design-FPP headroom the one filter enjoys and retire state
//! about 1.5× early — an unfair comparison.

use tactic_crypto::hash::Hasher64;

use crate::filter::BloomFilter;
use crate::params::BloomParams;

/// Seed for the prefix → partition hash (distinct from the filter's own
/// probe-hash seeds).
const PARTITION_SEED: u64 = 0x7AC7_1CCA_C4E0_0001;

/// The shape of a [`ValidationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// The paper's design: one filter, full reset at saturation.
    #[default]
    MonolithicReset,
    /// `generations` rotating sub-filters in each of `partitions`
    /// prefix-partitions; saturation retires only the oldest generation
    /// of the affected partition.
    Generational {
        /// Live sub-filters per partition (`G >= 1`).
        generations: usize,
        /// Prefix partitions (`P >= 1`).
        partitions: usize,
    },
}

impl CachePolicy {
    /// Stable one-token summary for scenario provenance lines
    /// (`monolithic` or `genGxP`).
    pub fn summary(&self) -> String {
        match self {
            CachePolicy::MonolithicReset => "monolithic".to_string(),
            CachePolicy::Generational {
                generations,
                partitions,
            } => format!("gen{generations}x{partitions}"),
        }
    }
}

/// What an insert evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheChurn {
    /// Nothing was evicted.
    None,
    /// The cache's only filter was reset: all validated state was dumped.
    Reset,
    /// The oldest generation of one partition was retired.
    Rotation,
}

/// A router's validated-tag memory: `P` prefix partitions of `G`
/// generations each.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationCache {
    /// Partition after partition, `G` filters each, oldest generation
    /// first: the last filter of a partition receives its inserts.
    filters: Vec<BloomFilter>,
    /// `G`, the generations per partition.
    generations: usize,
}

impl ValidationCache {
    /// Builds a cache for `params` in the shape `policy` names.
    ///
    /// With more than one filter, each takes a proportional
    /// `1/(generations × partitions)` slice of the geometry — bits and
    /// capacity divided, hash count and `max_fpp` kept — so the aggregate
    /// bit budget matches the one-filter configuration exactly and every
    /// generation saturates at the same *fill fraction* the single
    /// filter resets at (sizing the slices fresh at `max_fpp` would
    /// instead strip the design-FPP headroom and make the generational
    /// arm retire state early — an unfair comparison). One filter takes
    /// `params` as they are.
    ///
    /// # Panics
    ///
    /// Panics if a generational policy has zero generations or
    /// partitions.
    pub fn new(params: BloomParams, policy: CachePolicy) -> Self {
        let (generations, partitions) = match policy {
            CachePolicy::MonolithicReset => (1, 1),
            CachePolicy::Generational {
                generations,
                partitions,
            } => (generations, partitions),
        };
        assert!(generations >= 1, "need at least one generation");
        assert!(partitions >= 1, "need at least one partition");
        let div = generations * partitions;
        let slice = if div == 1 {
            params
        } else {
            BloomParams {
                bits: (params.bits / div).max(8),
                capacity: (params.capacity / div).max(1),
                ..params
            }
        };
        ValidationCache {
            filters: vec![BloomFilter::new(slice); div],
            generations,
        }
    }

    fn partition_index(prefix: &[u8], count: usize) -> usize {
        let mut h = Hasher64::with_seed(PARTITION_SEED);
        h.update(prefix);
        (h.finish() % count as u64) as usize
    }

    /// The generations of `prefix`'s partition, oldest first. A single
    /// partition is every prefix's, so its prefix is not hashed.
    fn partition(&self, prefix: &[u8]) -> std::ops::Range<usize> {
        let g = self.generations;
        let first = if self.filters.len() == g {
            0
        } else {
            Self::partition_index(prefix, self.filters.len() / g) * g
        };
        first..first + g
    }

    /// Records a validated key in the newest generation of `prefix`'s
    /// partition, first retiring that partition's oldest generation if
    /// the newest is saturated. Returns what, if anything, the insert
    /// evicted.
    pub fn insert(&mut self, prefix: &[u8], key: &[u8]) -> CacheChurn {
        let evicted = if self.filters.len() == 1 {
            CacheChurn::Reset
        } else {
            CacheChurn::Rotation
        };
        let range = self.partition(prefix);
        let gens = &mut self.filters[range];
        let head = gens.len() - 1;
        let mut churn = CacheChurn::None;
        if gens[head].is_saturated() {
            gens.rotate_left(1);
            gens[head].reset();
            churn = evicted;
        }
        gens[head].insert(key);
        churn
    }

    /// Membership test: was this key validated and is it still live?
    /// Probes every live generation of the key's partition.
    pub fn contains(&self, prefix: &[u8], key: &[u8]) -> bool {
        self.filters[self.partition(prefix)]
            .iter()
            .any(|bf| bf.contains(key))
    }

    /// Bits currently set, summed over every live filter.
    pub fn set_bits(&self) -> usize {
        self.filters.iter().map(BloomFilter::set_bits).sum()
    }

    /// Total bits across every live filter — the occupancy denominator.
    pub fn bit_count(&self) -> usize {
        self.filters.iter().map(BloomFilter::bit_count).sum()
    }

    /// Set-bit fraction across the live filters, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.set_bits() as f64 / self.bit_count() as f64
    }

    /// The false-positive probability a lookup sees, averaged over
    /// partitions. A lookup probes every generation of one partition, so
    /// a partition's is the union `1 − Π(1 − fpp_g)`, taken oldest
    /// generation first; a one-generation partition's is its filter's
    /// own fill-based estimate, since in `f64` `1 − (1 − x)` is not
    /// always `x` and this is the flag-`F` value edge routers stamp.
    pub fn estimated_fpp(&self) -> f64 {
        let partitions = self.filters.chunks_exact(self.generations);
        let count = partitions.len();
        let sum: f64 = partitions
            .map(|gens| match gens {
                [only] => only.estimated_fpp(),
                _ => {
                    1.0 - gens
                        .iter()
                        .map(|bf| 1.0 - bf.estimated_fpp())
                        .product::<f64>()
                }
            })
            .sum();
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use proptest::prelude::*;

    fn key(i: u64) -> Vec<u8> {
        format!("tag-{i}").into_bytes()
    }

    /// The paper's filter as the reference the one-filter cache must
    /// match: reset when saturated, then insert. Returns whether it
    /// reset.
    fn model_insert(bf: &mut BloomFilter, key: &[u8]) -> bool {
        let reset = bf.is_saturated();
        if reset {
            bf.reset();
        }
        bf.insert(key);
        reset
    }

    /// Inserts `keys` under `prefix`; returns how many inserts reset and
    /// how many rotated.
    fn churns(
        cache: &mut ValidationCache,
        prefix: &[u8],
        keys: impl IntoIterator<Item = Vec<u8>>,
    ) -> (u64, u64) {
        let (mut resets, mut rotations) = (0, 0);
        for k in keys {
            match cache.insert(prefix, &k) {
                CacheChurn::None => {}
                CacheChurn::Reset => resets += 1,
                CacheChurn::Rotation => rotations += 1,
            }
        }
        (resets, rotations)
    }

    fn paper_cache(policy: CachePolicy) -> ValidationCache {
        ValidationCache::new(BloomParams::paper(500), policy)
    }

    /// Every observable of the one-filter cache equals the model's, with
    /// exact `==` on the floats.
    fn assert_matches_model(cache: &ValidationCache, raw: &BloomFilter, at: u64) {
        assert_eq!(
            cache.filters,
            std::slice::from_ref(raw),
            "filter state at {at}"
        );
        assert_eq!(cache.set_bits(), raw.set_bits(), "set bits at {at}");
        assert_eq!(cache.bit_count(), raw.bit_count());
        assert_eq!(cache.occupancy(), raw.occupancy(), "occupancy at {at}");
        assert_eq!(cache.estimated_fpp(), raw.estimated_fpp(), "F at {at}");
    }

    #[test]
    fn monolithic_delegates_bit_for_bit() {
        let mut cache = paper_cache(CachePolicy::MonolithicReset);
        let mut raw = BloomFilter::new(BloomParams::paper(500));
        let mut resets = 0;
        for i in 0..3_000u64 {
            let reset = model_insert(&mut raw, &key(i));
            let churn = cache.insert(b"prefix-ignored", &key(i));
            assert_eq!(
                churn,
                if reset {
                    CacheChurn::Reset
                } else {
                    CacheChurn::None
                },
                "churn at {i}"
            );
            assert_matches_model(&cache, &raw, i);
            resets += u64::from(reset);
        }
        assert!(resets >= 3, "expected several resets, got {resets}");
    }

    /// The integer saturation decision must track the historical float
    /// rule at every step of a realistic insert/reset trajectory — the
    /// exact sequence the golden runs drive.
    #[test]
    fn integer_saturation_matches_float_rule_along_golden_trajectory() {
        for params in [
            BloomParams::paper(500),
            BloomParams::paper(100),
            BloomParams::for_capacity(1_000, 0.01),
        ] {
            let mut bf = BloomFilter::new(params);
            for i in 0..5_000u64 {
                let float_rule = bf.estimated_fpp() >= bf.params().max_fpp;
                assert_eq!(
                    bf.is_saturated(),
                    float_rule,
                    "decision diverged at insert {i} ({} set bits) for {params:?}",
                    bf.set_bits()
                );
                model_insert(&mut bf, &key(i));
            }
        }
    }

    #[test]
    fn generational_rotates_instead_of_resetting() {
        let mut cache = paper_cache(CachePolicy::Generational {
            generations: 4,
            partitions: 2,
        });
        let (resets, rotations) = churns(&mut cache, b"/prov/a", (0..5_000).map(key));
        assert!(rotations > 0, "head generations never saturated");
        assert_eq!(resets, 0, "generational policy must never full-reset");
        assert_eq!(cache.filters.len(), 8, "rotation must keep G filters live");
    }

    #[test]
    fn rotation_keeps_recent_generations_queryable() {
        let g = 3;
        let mut cache = ValidationCache::new(
            BloomParams::paper(300),
            CachePolicy::Generational {
                generations: g,
                partitions: 1,
            },
        );
        cache.insert(b"/p", b"anchor");
        let (mut i, mut rotations) = (0u64, 0);
        // Drive exactly G-1 rotations; the anchor's generation is then the
        // oldest live one and must still answer lookups.
        while rotations < g - 1 {
            rotations += usize::from(cache.insert(b"/p", &key(i)) == CacheChurn::Rotation);
            i += 1;
            assert!(i < 100_000, "never rotated");
            assert!(
                cache.contains(b"/p", b"anchor"),
                "anchor lost after {rotations} rotations (< G = {g})"
            );
        }
    }

    #[test]
    fn hot_prefix_rotations_do_not_evict_other_partitions() {
        let mut cache = ValidationCache::new(
            BloomParams::paper(400),
            CachePolicy::Generational {
                generations: 2,
                partitions: 4,
            },
        );
        // Find two prefixes living in different partitions.
        let cold = b"/prov/cold".as_slice();
        let hot = (0..64u64)
            .map(|i| format!("/prov/hot-{i}").into_bytes())
            .find(|h| {
                ValidationCache::partition_index(h, 4) != ValidationCache::partition_index(cold, 4)
            })
            .expect("some prefix hashes elsewhere");
        cache.insert(cold, b"cold-tag");
        let (_, rotations) = churns(&mut cache, &hot, (0..20_000).map(key));
        assert!(rotations > 4, "hot partition never churned");
        assert!(
            cache.contains(cold, b"cold-tag"),
            "a hot prefix must not evict another partition's state"
        );
    }

    proptest! {
        /// `MonolithicReset` is the model filter bit for bit, for
        /// arbitrary insert sequences.
        #[test]
        fn monolithic_equivalence_holds_for_arbitrary_sequences(
            keys in prop::collection::vec(any::<u64>(), 1..400),
            capacity in 8usize..200,
        ) {
            let params = BloomParams::paper(capacity);
            let mut cache = ValidationCache::new(params, CachePolicy::MonolithicReset);
            let mut raw = BloomFilter::new(params);
            for (i, k) in keys.iter().enumerate() {
                let reset = model_insert(&mut raw, &key(*k));
                let churn = cache.insert(b"p", &key(*k));
                prop_assert_eq!(reset, churn == CacheChurn::Reset);
                prop_assert!(churn != CacheChurn::Rotation);
                assert_matches_model(&cache, &raw, i as u64);
            }
        }

        /// Rotating in place is retiring the oldest generation and
        /// appending a fresh filter: lookups and the flag-`F` estimate
        /// (its union product taken oldest first) match a queue of
        /// generations that does exactly that, bit for bit.
        #[test]
        fn in_place_rotation_matches_a_queue_of_fresh_generations(
            generations in 2usize..6,
            keys in prop::collection::vec(any::<u64>(), 1..1_500),
        ) {
            let params = BloomParams::paper(100);
            let mut cache = ValidationCache::new(
                params,
                CachePolicy::Generational { generations, partitions: 1 },
            );
            let slice = *cache.filters[0].params();
            let mut queue: VecDeque<BloomFilter> =
                (0..generations).map(|_| BloomFilter::new(slice)).collect();
            for k in &keys {
                let rotated = queue.back().expect("a head").is_saturated();
                if rotated {
                    queue.pop_front();
                    queue.push_back(BloomFilter::new(slice));
                }
                queue.back_mut().expect("a head").insert(&key(*k));
                let churn = cache.insert(b"/p", &key(*k));
                prop_assert_eq!(churn == CacheChurn::Rotation, rotated);
                prop_assert!(cache.filters.iter().eq(queue.iter()));
                let union = 1.0 - queue.iter().map(|bf| 1.0 - bf.estimated_fpp()).product::<f64>();
                prop_assert_eq!(cache.estimated_fpp(), union);
            }
        }

        /// A registration inserted fewer than G rotations ago is always
        /// found (no false negatives across rotation).
        #[test]
        fn registrations_survive_up_to_g_rotations(
            generations in 2usize..6,
            filler in prop::collection::vec(any::<u64>(), 1..2000),
        ) {
            let mut cache = ValidationCache::new(
                BloomParams::paper(100),
                CachePolicy::Generational { generations, partitions: 1 },
            );
            cache.insert(b"/p", b"anchor");
            let mut rotations = 0;
            for f in &filler {
                if rotations >= generations {
                    break;
                }
                prop_assert!(
                    cache.contains(b"/p", b"anchor"),
                    "anchor lost after only {} rotations (G = {})",
                    rotations,
                    generations
                );
                rotations += usize::from(cache.insert(b"/p", &key(*f)) != CacheChurn::None);
            }
        }

        /// Retired generations never resurrect: once a key's generation
        /// has rotated out (G rotations after its insert), the key is
        /// gone — modulo the designed false-positive probability, which
        /// the test makes negligible.
        #[test]
        fn retired_generations_never_resurrect(
            generations in 1usize..4,
            anchors in prop::collection::vec(any::<u64>(), 1..8),
        ) {
            let mut cache = ValidationCache::new(
                // Tight FPP so a post-retirement hit would be a real
                // resurrection, not filter noise.
                BloomParams::for_capacity(200, 1e-9),
                CachePolicy::Generational { generations, partitions: 1 },
            );
            for a in &anchors {
                cache.insert(b"/p", &format!("anchor-{a}").into_bytes());
            }
            let (mut i, mut retired) = (0u64, 0);
            while retired < generations {
                retired += usize::from(cache.insert(b"/p", &key(i)) != CacheChurn::None);
                i += 1;
                prop_assert!(i < 1_000_000, "never rotated {} times", generations);
            }
            for a in &anchors {
                prop_assert!(
                    !cache.contains(b"/p", &format!("anchor-{a}").into_bytes()),
                    "anchor-{} resurrected after {} rotations",
                    a,
                    generations
                );
            }
        }
    }
}
