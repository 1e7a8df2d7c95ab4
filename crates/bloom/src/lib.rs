//! # tactic-bloom
//!
//! Bloom filters for TACTIC's router-side tag caches.
//!
//! Every TACTIC router keeps a Bloom filter of tags whose provider
//! signatures it has already verified, turning most per-Interest
//! authorisations into O(1) filter lookups (paper §4.B). The filter's
//! estimated false-positive probability doubles as the cooperation flag `F`
//! that edge routers stamp on forwarded Interests, and its saturation/reset
//! cycle drives the paper's Fig. 8 and Table V.
//!
//! * [`BloomParams`] — sizing math (optimal and fixed-`k` forms, the
//!   paper's `k = 5`, max-FPP `1e-4` preset);
//! * [`BloomFilter`] — the filter with fill-based FPP estimation, an
//!   integer saturation test and no false negatives;
//! * [`ValidationCache`] — the router's validated-tag memory: `P` prefix
//!   partitions of `G` generations each, where a saturated partition
//!   retires its oldest generation in place. The paper's filter and its
//!   reset are the `G = P = 1` case (the default); the cache reports
//!   each reset or rotation to the router, which counts it.
//!
//! # Examples
//!
//! ```
//! use tactic_bloom::{BloomFilter, BloomParams};
//!
//! // The paper's setup: 500-tag capacity, 5 hashes, max FPP 1e-4.
//! let mut bf = BloomFilter::new(BloomParams::paper(500));
//! bf.insert(b"validated-tag");
//! assert!(bf.contains(b"validated-tag"));
//!
//! // The flag F an edge router would stamp on a hit:
//! let f = bf.estimated_fpp();
//! assert!(f < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod filter;
mod params;

pub use cache::{CacheChurn, CachePolicy, ValidationCache};
pub use filter::BloomFilter;
pub use params::BloomParams;
