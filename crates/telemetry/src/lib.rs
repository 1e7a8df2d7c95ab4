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
//! Sim-time artifacts are golden; wall-clock artifacts are not. Reports,
//! metric JSONL and the sampler's `timeseries.jsonl` are byte-identical
//! for any `--threads` and `--shards` value; `profile.jsonl` and
//! `trace.json` are diagnostics, never compared. For the golden side:
//!
//! 1. Hooks take `&mut self` and references to packet data, so an
//!    observer can never mutate protocol state, and a recording run and a
//!    [`NoopProtocolObserver`] run of the same (topology, scenario, seed)
//!    produce byte-identical reports (`tests/protocol_observer.rs`).
//! 2. Observers never draw from the simulation RNG; a randomised
//!    decision is made first, then reported.
//! 3. Histogram buckets are fixed at construction, recorder state is
//!    keyed by `BTreeMap` (export order is label order, never insertion
//!    or hash order), and [`Registry::merge`] folds per-run registries in
//!    job order.
//! 4. What cannot be deterministic (wall-clock) lives in
//!    [`RunManifest`], never in a [`Registry`].

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
