//! # tactic
//!
//! A full reproduction of **TACTIC** — the tag-based access-control
//! framework for information-centric wireless edge networks (Tourani,
//! Stubbs & Misra, IEEE ICDCS 2018).
//!
//! Providers issue signed [`tag::Tag`]s to registered clients; clients
//! attach tags to their Interests; and the network's routers — not an
//! always-online authentication server — enforce access control:
//!
//! * [`precheck`] — Protocol 1, the cheap field pre-check;
//! * [`router`] — Protocols 2/3/4 (edge, content, and intermediate
//!   routers) over Bloom-filter tag caches;
//! * [`provider`] — registration, tag issuance, chunked signed content;
//! * [`consumer`] — the tag wallet that makes a windowed user a TACTIC
//!   client or a threat-model attacker;
//! * [`access`], [`access_path`], [`tag`], [`ext`] — the data model;
//! * [`adversary`] — what an attack-fleet node puts in its Interests in
//!   the robustness suite (Interest flooding, forgery storms, BF
//!   pollution, expired-tag replay);
//! * [`scenario`], [`net`], [`metrics`] — the assembled simulation
//!   (topology + links + cost injection) and its measurements.
//!
//! # Examples
//!
//! Run a small end-to-end simulation:
//!
//! ```
//! use tactic::net::run_scenario;
//! use tactic::scenario::Scenario;
//! use tactic_sim::time::SimDuration;
//!
//! let mut scenario = Scenario::small();
//! scenario.duration = SimDuration::from_secs(5);
//! let report = run_scenario(&scenario, 42);
//! assert!(report.delivery.client_ratio() > 0.9);
//! assert!(report.delivery.attacker_ratio() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod access_path;
pub mod adversary;
pub mod consumer;
pub mod ext;
pub mod metrics;
pub mod net;
pub mod precheck;
pub mod provider;
pub mod router;
pub mod scenario;
pub mod tag;
pub mod traitor;

pub use access::AccessLevel;
pub use access_path::AccessPath;
pub use consumer::{AttackerStrategy, Consumer, ConsumerKind};
pub use metrics::{DeliveryStats, RunReport};
pub use net::{run_scenario, run_scenario_sharded, Network};
pub use provider::Provider;
pub use router::{OpCounters, RouterRole, TacticRouter};
pub use scenario::Scenario;
pub use tag::{SignedTag, Tag};
