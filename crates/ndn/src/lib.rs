//! # tactic-ndn
//!
//! A from-scratch Named-Data Networking substrate — the part of ndnSIM the
//! TACTIC paper builds on (§2's recap of NDN):
//!
//! * [`name`] — hierarchical names (`/provider/object/chunk`);
//! * [`packet`] — Interest / Data / Nack with an open extension TLV list
//!   (TACTIC's tag, flag `F`, and content-NACK ride as extensions);
//! * [`wire`] — a TLV codec for byte-accurate link transmission and
//!   lossless round-trips;
//! * [`face`] — face identifiers;
//! * [`fib`] — longest-prefix-match forwarding table;
//! * [`pit`] — pending-Interest table with the `<tag, F, in-face>`
//!   aggregation records of TACTIC's Protocol 4;
//! * [`records`] — the inline-first short list behind PIT entries and the
//!   one-element rows of a simulated network (`tactic_sim::records`,
//!   re-exported here);
//! * [`table`] — the name-keyed table behind the CS, PIT and FIB: each
//!   name held once, every probe on the name's own hash;
//! * [`cs`] — LRU content store;
//! * [`forwarder`] — the vanilla CS → PIT → FIB pipeline.
//!
//! # Examples
//!
//! ```
//! use tactic_ndn::face::FaceId;
//! use tactic_ndn::forwarder::{process_interest, InterestAction, Tables};
//! use tactic_ndn::packet::Interest;
//! use tactic_sim::time::SimTime;
//!
//! let mut tables: Tables = Tables::new(100);
//! tables.fib.add_route("/news".parse()?, FaceId::new(2), 1);
//!
//! let interest = Interest::new("/news/today/0".parse()?, 1);
//! let action = process_interest(&mut tables, &interest, FaceId::new(0), SimTime::ZERO, vec![]);
//! assert_eq!(action, InterestAction::Forward(FaceId::new(2)));
//! # Ok::<(), tactic_ndn::name::ParseNameError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cs;
pub mod face;
pub mod fib;
pub mod forwarder;
pub mod name;
pub mod packet;
pub mod pit;
pub use tactic_sim::records;
pub mod table;
pub mod wire;

pub use cs::ContentStore;
pub use face::FaceId;
pub use fib::Fib;
pub use name::Name;
pub use packet::{Data, Interest, Nack, NackReason, Packet, Payload};
pub use pit::Pit;
