//! # tactic-telemetry
//!
//! Protocol-level observability for the TACTIC reproduction: a zero-cost
//! [`ProtocolObserver`] hook trait mirrored on `tactic-net`'s transport
//! observer, plus the recording layers built on top of it:
//!
//! - [`observer`] — the hook trait, the decision vocabulary (reject
//!   reasons, BF outcomes, re-validation verdicts), and the no-op default
//!   that monomorphises to nothing.
//! - [`registry`] — labeled counter and [`Histogram`] metrics with
//!   deterministic bucket boundaries and byte-identical merge semantics,
//!   so per-thread registries fold to the same JSONL regardless of
//!   `--threads`.
//! - [`lifecycle`] — the per-Interest lifecycle tracer following each
//!   request from consumer emission through per-hop decisions to
//!   Data/NACK receipt.
//! - [`json`] — a hand-rolled JSON/JSONL encoder (the build is offline;
//!   no serde). The **only** string-escaping implementation in the
//!   workspace: every JSON artifact goes through it.
//! - [`manifest`] — the per-run provenance record the experiment runner
//!   writes next to each CSV.
//! - [`schema`] — the [`counter_set!`] declaration every counter struct
//!   comes from (storage, merge, the golden `Debug` form and the
//!   `SCHEMA`/`values()` view exporters iterate), and the drop ledger
//!   ([`DropReason`], [`DropTotals`]) shared by reports, samples and
//!   manifests.
//! - [`timeseries`] — the deterministic sim-time sampler's row type and
//!   golden `timeseries.jsonl` export (byte-identical across threads
//!   and shards).
//! - [`profile`] — the wall-clock span profiler and per-shard epoch
//!   accounting behind the non-golden `profile.jsonl`.
//! - [`perfetto`] — the Chrome/Perfetto `trace.json` exporter rendering
//!   shard lanes and sampled counter tracks.
//!
//! ## Determinism contract
//!
//! Observers receive `&mut self` plus references; they never mutate
//! simulation state and never draw from the simulation RNG, so a
//! recording run and a [`NoopProtocolObserver`] run of the same
//! (topology, scenario, seed) produce byte-identical reports. Recorder
//! state uses `BTreeMap` keys only — export order is label order, never
//! insertion or hash order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lifecycle;
pub mod manifest;
pub mod observer;
pub mod perfetto;
pub mod profile;
pub mod registry;
pub mod schema;
pub mod timeseries;

pub use manifest::{LifecycleTotals, RunManifest};
pub use observer::{
    BfOutcome, Hop, NodeRole, NoopProtocolObserver, PrecheckStage, PrecheckVerdict,
    ProtocolObserver, ProtocolRecorder, RejectReason, RetrievalOutcome, RevalidationOutcome,
};
pub use perfetto::run_trace_json;
pub use profile::{profile_to_jsonl, EpochSpan, SpanProfiler, SpanStats};
pub use registry::{Histogram, Registry};
pub use schema::{DropReason, DropTotals};
pub use timeseries::{
    merge_timeseries, ratio_to_fp, timeseries_to_jsonl, SampleRow, TIMESERIES_KEYS,
};
