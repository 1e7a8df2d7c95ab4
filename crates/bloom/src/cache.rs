//! The router's validation-state cache, abstracted over its eviction
//! policy.
//!
//! TACTIC routers remember which tags they have already
//! signature-verified. The paper keeps that memory in a single Bloom
//! filter and handles saturation with a full reset that dumps *all*
//! validated state at once (Fig. 8 / Table V count these resets). At the
//! fleet scales the engine now reaches (10⁵–10⁶ clients per router) that
//! policy has a measurable cliff: every reset forces the whole client
//! population back through signature verification simultaneously.
//!
//! [`ValidationCache`] puts both designs behind one API:
//!
//! * [`CachePolicy::MonolithicReset`] — the paper's design, and the
//!   default. One [`BloomFilter`], full reset at saturation. This path
//!   delegates to the exact pre-refactor filter calls so default runs
//!   stay packet-for-packet byte-identical to the golden snapshots.
//! * [`CachePolicy::Generational`] — `G` rotating sub-filters per
//!   partition. Inserts go to the head (youngest) generation, lookups
//!   probe every live generation, and when the head saturates only the
//!   *oldest* generation is retired, so a rotation evicts `1/G` of the
//!   validated state instead of all of it. Keys are partitioned by
//!   provider prefix, so one hot prefix saturates (and rotates) its own
//!   partition without dumping every other prefix's state.
//!
//! Per-generation filters take a proportional slice of the configured
//! monolithic geometry: bits and capacity divided evenly across
//! partitions and live generations, hash count and max-FPP target kept,
//! so the aggregate bit budget and the saturation fill fraction match
//! the monolithic configuration.

use std::collections::VecDeque;

use tactic_crypto::hash::Hasher64;

use crate::filter::BloomFilter;
use crate::params::BloomParams;

/// Seed for the prefix → partition hash (distinct from the filter's own
/// probe-hash seeds).
const PARTITION_SEED: u64 = 0x7AC7_1CCA_C4E0_0001;

/// Which eviction policy a [`ValidationCache`] runs.
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
    /// A monolithic full reset: all validated state was dumped.
    Reset,
    /// A generational rotation: the oldest generation of one partition
    /// was retired.
    Rotation,
}

#[derive(Debug, Clone, PartialEq)]
enum CacheState {
    Monolithic(BloomFilter),
    Generational {
        /// `partitions[p]` is the rotation queue for prefix-partition
        /// `p`: front is the oldest generation, back is the head that
        /// receives inserts.
        partitions: Vec<VecDeque<BloomFilter>>,
        gen_params: BloomParams,
        rotations: u64,
    },
}

/// A router's validated-tag memory behind one policy-agnostic API.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationCache {
    policy: CachePolicy,
    state: CacheState,
}

impl ValidationCache {
    /// Builds a cache for `params` under `policy`.
    ///
    /// For [`CachePolicy::Generational`] each per-generation filter
    /// takes a proportional `1/(generations × partitions)` slice of the
    /// monolithic geometry — bits and capacity divided, hash count and
    /// `max_fpp` kept — so the aggregate bit budget matches the
    /// monolithic configuration exactly and every generation saturates
    /// at the same *fill fraction* the monolithic filter resets at
    /// (sizing the slices fresh at `max_fpp` would instead strip the
    /// design-FPP headroom and make the generational arm retire state
    /// early — an unfair comparison).
    ///
    /// # Panics
    ///
    /// Panics if a generational policy has zero generations or
    /// partitions.
    pub fn new(params: BloomParams, policy: CachePolicy) -> Self {
        let state = match policy {
            CachePolicy::MonolithicReset => CacheState::Monolithic(BloomFilter::new(params)),
            CachePolicy::Generational {
                generations,
                partitions,
            } => {
                assert!(generations >= 1, "need at least one generation");
                assert!(partitions >= 1, "need at least one partition");
                let div = generations * partitions;
                let gen_params = BloomParams {
                    bits: (params.bits / div).max(8),
                    hashes: params.hashes,
                    capacity: (params.capacity / div).max(1),
                    max_fpp: params.max_fpp,
                };
                let partitions = (0..partitions)
                    .map(|_| {
                        (0..generations)
                            .map(|_| BloomFilter::new(gen_params))
                            .collect()
                    })
                    .collect();
                CacheState::Generational {
                    partitions,
                    gen_params,
                    rotations: 0,
                }
            }
        };
        ValidationCache { policy, state }
    }

    /// The policy this cache was built with.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn partition_index(prefix: &[u8], count: usize) -> usize {
        let mut h = Hasher64::with_seed(PARTITION_SEED);
        h.update(prefix);
        (h.finish() % count as u64) as usize
    }

    /// Records a validated key. `prefix` selects the partition under
    /// the generational policy (the monolithic cache ignores it).
    /// Returns what, if anything, the insert evicted.
    pub fn insert(&mut self, prefix: &[u8], key: &[u8]) -> CacheChurn {
        match &mut self.state {
            // The golden path: the exact pre-refactor call, reset checked
            // before the insert lands.
            CacheState::Monolithic(bf) => {
                if bf.insert_with_reset(key) {
                    CacheChurn::Reset
                } else {
                    CacheChurn::None
                }
            }
            CacheState::Generational {
                partitions,
                gen_params,
                rotations,
            } => {
                let p = Self::partition_index(prefix, partitions.len());
                let gens = &mut partitions[p];
                let mut churn = CacheChurn::None;
                if gens.back().expect("at least one generation").is_saturated() {
                    gens.pop_front();
                    gens.push_back(BloomFilter::new(*gen_params));
                    *rotations += 1;
                    churn = CacheChurn::Rotation;
                }
                gens.back_mut()
                    .expect("at least one generation")
                    .insert(key);
                churn
            }
        }
    }

    /// Membership test: was this key validated and is it still live?
    /// Probes every live generation of the key's partition.
    pub fn contains(&self, prefix: &[u8], key: &[u8]) -> bool {
        match &self.state {
            CacheState::Monolithic(bf) => bf.contains(key),
            CacheState::Generational { partitions, .. } => {
                let p = Self::partition_index(prefix, partitions.len());
                partitions[p].iter().any(|bf| bf.contains(key))
            }
        }
    }

    /// Bits currently set, summed over every live filter.
    pub fn set_bits(&self) -> usize {
        match &self.state {
            CacheState::Monolithic(bf) => bf.set_bits(),
            CacheState::Generational { partitions, .. } => partitions
                .iter()
                .flat_map(|gens| gens.iter())
                .map(BloomFilter::set_bits)
                .sum(),
        }
    }

    /// Total bits across every live filter — the occupancy denominator.
    pub fn bit_count(&self) -> usize {
        match &self.state {
            CacheState::Monolithic(bf) => bf.bit_count(),
            CacheState::Generational { partitions, .. } => partitions
                .iter()
                .flat_map(|gens| gens.iter())
                .map(BloomFilter::bit_count)
                .sum(),
        }
    }

    /// Set-bit fraction across the live filters, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        match &self.state {
            CacheState::Monolithic(bf) => bf.occupancy(),
            CacheState::Generational { .. } => self.set_bits() as f64 / self.bit_count() as f64,
        }
    }

    /// The false-positive probability a lookup sees. Monolithic: the
    /// filter's fill-based estimate (the flag-`F` value). Generational:
    /// a lookup probes all `G` generations of one partition, so per
    /// partition the FPP is the union `1 − Π(1 − fpp_g)`; this returns
    /// the mean over partitions.
    pub fn estimated_fpp(&self) -> f64 {
        match &self.state {
            CacheState::Monolithic(bf) => bf.estimated_fpp(),
            CacheState::Generational { partitions, .. } => {
                let sum: f64 = partitions
                    .iter()
                    .map(|gens| {
                        1.0 - gens
                            .iter()
                            .map(|bf| 1.0 - bf.estimated_fpp())
                            .product::<f64>()
                    })
                    .sum();
                sum / partitions.len() as f64
            }
        }
    }

    /// Full resets performed (always 0 under the generational policy —
    /// it never dumps everything).
    pub fn resets(&self) -> u64 {
        match &self.state {
            CacheState::Monolithic(bf) => bf.resets(),
            CacheState::Generational { .. } => 0,
        }
    }

    /// Generation rotations performed (always 0 under the monolithic
    /// policy).
    pub fn rotations(&self) -> u64 {
        match &self.state {
            CacheState::Monolithic(_) => 0,
            CacheState::Generational { rotations, .. } => *rotations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u64) -> Vec<u8> {
        format!("tag-{i}").into_bytes()
    }

    /// The underlying filter of a cache running the monolithic policy.
    fn as_monolithic(cache: &ValidationCache) -> Option<&BloomFilter> {
        match &cache.state {
            CacheState::Monolithic(bf) => Some(bf),
            CacheState::Generational { .. } => None,
        }
    }

    fn paper_cache(policy: CachePolicy) -> ValidationCache {
        ValidationCache::new(BloomParams::paper(500), policy)
    }

    #[test]
    fn monolithic_delegates_bit_for_bit() {
        let mut cache = paper_cache(CachePolicy::MonolithicReset);
        let mut raw = BloomFilter::new(BloomParams::paper(500));
        for i in 0..3_000u64 {
            let reset = raw.insert_with_reset(&key(i));
            let churn = cache.insert(b"prefix-ignored", &key(i));
            assert_eq!(reset, churn == CacheChurn::Reset, "reset decision at {i}");
            assert_eq!(as_monolithic(&cache), Some(&raw), "filter state at {i}");
        }
        assert_eq!(cache.set_bits(), raw.set_bits());
        assert_eq!(cache.bit_count(), raw.bit_count());
        assert_eq!(cache.estimated_fpp(), raw.estimated_fpp());
        assert_eq!(cache.occupancy(), raw.occupancy());
        assert_eq!(cache.resets(), raw.resets());
        assert_eq!(cache.rotations(), 0);
    }

    #[test]
    fn generational_rotates_instead_of_resetting() {
        let mut cache = paper_cache(CachePolicy::Generational {
            generations: 4,
            partitions: 2,
        });
        for i in 0..5_000u64 {
            cache.insert(b"/prov/a", &key(i));
        }
        assert!(cache.rotations() > 0, "head generations never saturated");
        assert_eq!(
            cache.resets(),
            0,
            "generational policy must never full-reset"
        );
        let CacheState::Generational { partitions, .. } = &cache.state else {
            panic!("a generational cache");
        };
        let live: usize = partitions.iter().map(VecDeque::len).sum();
        assert_eq!(live, 8, "rotation must keep G filters live");
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
        let mut i = 0u64;
        // Drive exactly G-1 rotations; the anchor's generation is then the
        // oldest live one and must still answer lookups.
        while cache.rotations() < (g - 1) as u64 {
            cache.insert(b"/p", &key(i));
            i += 1;
            assert!(i < 100_000, "never rotated");
            assert!(
                cache.contains(b"/p", b"anchor"),
                "anchor lost after {} rotations (< G = {g})",
                cache.rotations()
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
        let before = cache.rotations();
        for i in 0..20_000u64 {
            cache.insert(&hot, &key(i));
        }
        assert!(
            cache.rotations() > before + 4,
            "hot partition never churned"
        );
        assert!(
            cache.contains(cold, b"cold-tag"),
            "a hot prefix must not evict another partition's state"
        );
    }

    proptest! {
        /// `MonolithicReset` through the new API is bit-for-bit the old
        /// filter, for arbitrary insert sequences.
        #[test]
        fn monolithic_equivalence_holds_for_arbitrary_sequences(
            keys in prop::collection::vec(any::<u64>(), 1..400),
            capacity in 8usize..200,
        ) {
            let params = BloomParams::paper(capacity.max(8));
            let mut cache = ValidationCache::new(params, CachePolicy::MonolithicReset);
            let mut raw = BloomFilter::new(params);
            for k in &keys {
                let reset = raw.insert_with_reset(&key(*k));
                let churn = cache.insert(b"p", &key(*k));
                prop_assert_eq!(reset, churn == CacheChurn::Reset);
            }
            prop_assert_eq!(as_monolithic(&cache), Some(&raw));
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
            for f in &filler {
                if cache.rotations() >= generations as u64 {
                    break;
                }
                prop_assert!(
                    cache.contains(b"/p", b"anchor"),
                    "anchor lost after only {} rotations (G = {})",
                    cache.rotations(),
                    generations
                );
                cache.insert(b"/p", &key(*f));
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
            let target = cache.rotations() + generations as u64;
            let mut i = 0u64;
            while cache.rotations() < target {
                cache.insert(b"/p", &key(i));
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
