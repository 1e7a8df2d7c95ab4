//! # tactic-sim
//!
//! Deterministic discrete-event simulation substrate for the TACTIC
//! reproduction (Tourani, Stubbs & Misra, ICDCS 2018).
//!
//! The paper evaluates TACTIC inside ndnSIM/ns-3; this crate provides the
//! equivalent foundations from scratch:
//!
//! * [`time`] — fixed-point nanosecond clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`engine`] — the calendar-queue event engine ([`engine::Engine`]);
//! * [`rng`] — a self-contained Xoshiro256\*\* RNG with substreams, so runs
//!   are bit-reproducible;
//! * [`dist`] — normal / truncated-normal / exponential / bounded-Zipf
//!   samplers (the paper uses Zipf α = 0.7 popularity);
//! * [`cost`] — the paper's benchmarked computation-latency injection
//!   (ns-3 charges no time for computation, so the authors sampled
//!   Bloom-filter and signature costs from measured normal distributions);
//! * [`records`] — the inline-first short list behind one-element rows:
//!   PIT entries, link rows, a user's retry queue and latency buckets;
//! * [`stats`] — ratios, rates and the per-second latency series that
//!   the paper's figures plot.
//!
//! # Examples
//!
//! A tiny M/D/1-style simulation:
//!
//! ```
//! use tactic_sim::engine::Engine;
//! use tactic_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival(u32), Service(u32) }
//!
//! let mut engine = Engine::with_horizon(SimTime::from_secs(10));
//! engine.schedule(SimTime::ZERO, Ev::Arrival(0));
//! let mut served = 0;
//! engine.run(|eng, ev| match ev {
//!     Ev::Arrival(n) => {
//!         eng.schedule_after(SimDuration::from_millis(100), Ev::Service(n));
//!         if n < 5 {
//!             eng.schedule_after(SimDuration::from_secs(1), Ev::Arrival(n + 1));
//!         }
//!     }
//!     Ev::Service(_) => served += 1,
//! });
//! assert_eq!(served, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod calendar;
pub mod cost;
pub mod dist;
pub mod engine;
pub mod records;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{CostModel, Op};
pub use engine::Engine;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
