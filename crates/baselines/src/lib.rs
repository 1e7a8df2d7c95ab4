//! # tactic-baselines
//!
//! The comparison points the TACTIC paper argues against:
//!
//! * [`mechanism`] — the baseline classes: no access control, client-side
//!   (decryption-delegated) AC, and always-online provider-auth AC;
//! * [`net`] — a vanilla-NDN network simulation running those baselines on
//!   the same topologies/workloads as TACTIC, quantifying §1's motivation
//!   (bandwidth wasted on unauthorized users; provider load without cache
//!   reuse);
//! * [`adversary`] — the baselines' attack-fleet driver: tagless analogs
//!   of each attack class;
//! * [`comparison`] — the Table II qualitative comparison, encoded as data.
//!
//! # Examples
//!
//! ```
//! use tactic_baselines::comparison::{render_table_ii, TABLE_II};
//!
//! assert_eq!(TABLE_II[0].name, "TACTIC");
//! assert_eq!(render_table_ii().len(), 12); // header + 11 mechanisms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod comparison;
pub mod mechanism;
pub mod net;
pub mod provider;

pub use comparison::{render_table_ii, Burden, Enforcement, MechanismProfile, TABLE_II};
pub use mechanism::Mechanism;
pub use net::{run_baseline, run_baseline_sharded, BaselineReport, BaselineSpec};
pub use provider::BaselineProvider;
