//! The conservative epoch coordinator: K shard [`Net`]s on K threads,
//! synchronized at epoch barriers, byte-identical to a sequential run.
//!
//! A run is space-partitioned into K shards (`tactic_topology::shard`),
//! one engine per shard on its own thread. For every K the report `Debug`
//! dump, the telemetry JSONL and the golden snapshots are the sequential
//! run's — held by `tests/shard_equivalence.rs`, `tests/plane_harness.rs`
//! and CI's `sweep --shards 1,2,3,4,8` gate. K = 1 is the same harness
//! function on the calling thread (`tactic_net::harness::run`).
//!
//! # Protocol
//!
//! Each epoch covers the half-open window `[T, T + lookahead)`, where
//! `T` is the global minimum over every shard's next pending event and
//! every undelivered mailbox event (a GVT-style idle jump: quiet
//! stretches cost one barrier, not `gap / lookahead` of them, so the
//! epoch count tracks event density). The lookahead is the least
//! propagation latency over cut links — over every link under mobility or
//! attacker churn, since a handover can re-point any client at any
//! access point. Per round the coordinator hands each worker its inbox
//! (all mailbox events addressed to it, in ascending source-shard order),
//! the worker injects them, processes everything strictly before
//! `T + lookahead`, and returns its outboxes plus the earliest timestamp
//! pending in its calendar or in those outboxes (tracked as they fill) —
//! every mailbox event is delivered with the next round, so the minimum
//! of the K reports is the next `T`. The drained inbox and outbox vectors
//! ride along in both directions and are refilled, not reallocated.
//!
//! A worker that panics — in its node factory or mid-epoch — sends its
//! panic message instead of a report; the coordinator then panics on the
//! calling thread with the shard's number and message, which hangs up on
//! the other workers and lets them exit
//! (`crates/net/tests/shard_panic.rs`). A run never hangs on a dead
//! shard.
//!
//! # Why this is deterministic
//!
//! Lookahead is the minimum latency any cross-shard packet can
//! experience, so an event processed at time `s ∈ [T, T + L)` can only
//! create foreign work at `s + L ≥ T + L` — strictly after the window.
//! Every event that belongs in a window is therefore present in the
//! owning shard's calendar before the window runs, and three engine-level
//! invariants fix its place there:
//!
//! 1. every event carries a shard-invariant key, and the calendar orders
//!    by `(time, key)` — see the [`transport`](crate::transport) module
//!    docs — so admission order, which does differ across K, never
//!    decides anything, and mailbox drain order cannot matter;
//! 2. RNG streams are per node, so a node's draws do not depend on which
//!    shard runs it;
//! 3. time-bearing global events (purges, faults, sample ticks) fire in
//!    every shard at identical instants with identical keys, each being
//!    that shard's sweep over its own nodes.
//!
//! Merging is then bookkeeping, done once for every plane by the
//! harness's stitch. The interest-lifecycle tracer logs raw events and
//! folds them through the one canonical sort the sequential path uses.
//!
//! What is *not* identical is per engine: the queue high-water mark (K
//! queues instead of one) is left out of both reports' `Debug` forms and
//! reported per shard in [`ShardedStats`], with the epoch and
//! cross-event counts. A one-shard run reports the degenerate stats —
//! `k` 1, no epochs, one-element per-shard vectors — so run manifests are
//! built one way.

use std::sync::mpsc;
use std::time::Instant;

use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::EpochSpan;

use crate::observer::NetObserver;
use crate::plane::NodePlane;
use crate::transport::{KeyedEvent, Net, TransportReport};

/// What the coordinator measured about one sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// Number of shards (worker threads).
    pub k: usize,
    /// Synchronization epochs executed.
    pub epochs: u64,
    /// Cross-shard events exchanged through mailboxes.
    pub cross_events: u64,
    /// Undirected links crossing shard boundaries. The transport layer
    /// cannot see the partitioner, so [`run_sharded`] reports 0; callers
    /// that built a `ShardMap` fill it in.
    pub edge_cut: u64,
    /// Per shard: engine events processed.
    pub per_shard_events: Vec<u64>,
    /// Per shard: engine queue high-water mark.
    pub per_shard_peak_queue: Vec<u64>,
    /// Per shard: PIT-record high-water mark. The transport cannot see
    /// plane state, so [`run_sharded`] reports empty; callers that can
    /// read their plane's sweep history fill it in (like `edge_cut`).
    pub per_shard_peak_pit: Vec<u64>,
    /// Per shard: content-store high-water mark (caller-filled, like
    /// `per_shard_peak_pit`).
    pub per_shard_peak_cs: Vec<u64>,
    /// One wall-clock span per (shard, epoch), ordered by shard then
    /// epoch. Only populated by [`run_sharded_profiled`] with
    /// `profile = true` — nondeterministic, never golden.
    pub epoch_spans: Vec<EpochSpan>,
}

enum ToWorker {
    Epoch {
        end: SimTime,
        inbox: Vec<KeyedEvent>,
        /// One drained vector per shard for the net's next outboxes.
        empties: Vec<Vec<KeyedEvent>>,
    },
    Finish,
}

enum FromWorker<R> {
    /// The worker built its net (the first report) or ran an epoch.
    Ran {
        outboxes: Vec<Vec<KeyedEvent>>,
        /// The inbox the epoch drained, returned for its capacity.
        inbox: Vec<KeyedEvent>,
        /// The earliest event pending in the calendar or in `outboxes`.
        next_at: Option<SimTime>,
    },
    Finished {
        result: R,
        spans: Vec<EpochSpan>,
    },
    /// The worker panicked; `message` is its panic message.
    Died {
        message: String,
    },
}

/// Runs `k` shard [`Net`]s to completion on `k` threads.
///
/// `build(shard)` constructs shard `shard`'s instance (each worker calls
/// it on its own thread, so the shards materialise their nodes in
/// parallel); every instance must be assembled for its own shard of one
/// shard map, from the same topology and RNG — by
/// [`Net::assemble_sharded`](crate::transport::Net::assemble_sharded), or
/// as [`harness::run`](crate::harness::run) does, from rows already split
/// by owner. `lookahead` is the epoch
/// window width — normally [`ShardMap::lookahead`](tactic_topology::shard::ShardMap) —
/// and `None` means no event can cross shards (each shard runs to its
/// horizon in a single epoch). `horizon` must equal the nets' engine
/// horizon: an engine never queues an event past it, but an outbox may
/// hold one (a delivery sent across shards near the end), and that ends
/// the loop instead of driving more epochs.
///
/// Returns each shard's `(plane, observer, report)` in shard order plus
/// the coordinator's stats. The caller owns the merge: stitch the owned
/// node states together, max-merge queue peaks, and subtract the
/// mirrored purge/fault duplicates from the event total.
///
/// # Panics
///
/// Panics if `k == 0` or if `build` builds nets with a different shard
/// count. A panic in a worker — in `build`, or in the plane while an
/// epoch runs — stops the run: the call panics with the shard's number
/// and message once the other workers have been released.
pub fn run_sharded<P, O, F>(
    k: usize,
    lookahead: Option<SimDuration>,
    horizon: SimTime,
    build: F,
) -> (Vec<(P, O, TransportReport)>, ShardedStats)
where
    P: NodePlane + Send,
    O: NetObserver + Send,
    F: Fn(u32) -> Net<P, O> + Sync,
{
    run_sharded_profiled(k, lookahead, horizon, false, build)
}

/// [`run_sharded`] with optional per-epoch wall-clock accounting: when
/// `profile` is set, every worker records one [`EpochSpan`] per epoch
/// (work time, barrier-wait time, mailbox drain size) relative to a
/// shared origin captured before the threads spawn, and the spans come
/// back in [`ShardedStats::epoch_spans`] ordered by shard then epoch.
/// The simulation itself is bit-identical either way — only wall-clock
/// metadata is collected.
///
/// # Panics
///
/// As [`run_sharded`].
pub fn run_sharded_profiled<P, O, F>(
    k: usize,
    lookahead: Option<SimDuration>,
    horizon: SimTime,
    profile: bool,
    build: F,
) -> (Vec<(P, O, TransportReport)>, ShardedStats)
where
    P: NodePlane + Send,
    O: NetObserver + Send,
    F: Fn(u32) -> Net<P, O> + Sync,
{
    assert!(k > 0, "at least one shard");
    let mut epochs = 0u64;
    let mut cross_events = 0u64;
    let mut results: Vec<(P, O, TransportReport)> = Vec::with_capacity(k);
    let mut epoch_spans: Vec<EpochSpan> = Vec::new();
    // The run-wide wall-clock origin every span is relative to.
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        // One command channel and one report channel per worker: the
        // coordinator reads the reports in shard order, so each inbox
        // is filled in ascending source-shard order whatever order the
        // workers finish an epoch in.
        let mut to_worker = Vec::with_capacity(k);
        let mut from_worker = Vec::with_capacity(k);
        for shard in 0..k {
            let (cmd_tx, cmd_rx) = mpsc::channel::<ToWorker>();
            let (to_main, from_this) = mpsc::channel::<FromWorker<(P, O, TransportReport)>>();
            to_worker.push(cmd_tx);
            from_worker.push(from_this);
            let build = &build;
            // A failed send means the coordinator is gone — it is
            // unwinding from another worker's death — so the worker just
            // stops.
            let work = move |to_main: &mpsc::Sender<_>| {
                let mut net = build(shard as u32);
                let mut spans: Vec<EpochSpan> = Vec::new();
                // Report readiness (and the first pending event) before
                // the first epoch command.
                let mut report = FromWorker::Ran {
                    outboxes: (0..k).map(|_| Vec::new()).collect(),
                    inbox: Vec::new(),
                    next_at: net.next_event_at(),
                };
                loop {
                    if to_main.send(report).is_err() {
                        return;
                    }
                    let wait_started = profile.then(Instant::now);
                    let Ok(cmd) = cmd_rx.recv() else { return };
                    let wait_ns = wait_started.map_or(0, |w| w.elapsed().as_nanos() as u64);
                    let ToWorker::Epoch {
                        end,
                        mut inbox,
                        empties,
                    } = cmd
                    else {
                        let result = net.finish();
                        let _ = to_main.send(FromWorker::Finished { result, spans });
                        return;
                    };
                    let start_ns = t0.elapsed().as_nanos() as u64;
                    let inbox_len = inbox.len() as u64;
                    net.inject(inbox.drain(..));
                    net.run_epoch(end);
                    if profile {
                        spans.push(EpochSpan {
                            shard: shard as u32,
                            epoch: spans.len() as u64,
                            start_ns,
                            work_ns: t0.elapsed().as_nanos() as u64 - start_ns,
                            wait_ns,
                            inbox: inbox_len,
                        });
                    }
                    let (outboxes, sent_at) = net.swap_outboxes(empties);
                    let next_at = net.next_event_at().into_iter().chain(sent_at).min();
                    report = FromWorker::Ran {
                        outboxes,
                        inbox,
                        next_at,
                    };
                }
            };
            // The unwind guard: a worker that panics says so, and the
            // coordinator learns why its report will not come.
            scope.spawn(move || {
                let run = std::panic::AssertUnwindSafe(|| work(&to_main));
                if let Err(panic) = std::panic::catch_unwind(run) {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "a non-string panic payload".into());
                    let _ = to_main.send(FromWorker::Died { message });
                }
            });
        }

        // Undelivered mailbox events, per destination shard, and per
        // shard the drained vectors that travel back out with its next
        // epoch: its outboxes, and the inbox it returned.
        let mut pending: Vec<Vec<KeyedEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut empties: Vec<Vec<Vec<KeyedEvent>>> = (0..k).map(|_| Vec::new()).collect();
        let mut spare_inbox: Vec<Vec<KeyedEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut next_at: Vec<Option<SimTime>> = vec![None; k];
        // Unwinding from here drops `to_worker`, which releases every
        // worker blocked on its next command.
        let recv = |shard: usize| match from_worker[shard].recv() {
            Ok(FromWorker::Died { message }) => panic!("shard {shard} panicked: {message}"),
            Ok(report) => report,
            Err(_) => unreachable!("a worker reports finishing or dying before it hangs up"),
        };

        loop {
            // One report per worker per round (the first round reports
            // readiness). Every mailbox event is delivered with the next
            // epoch, so the reports' minima cover calendars and mailboxes.
            for shard in 0..k {
                let FromWorker::Ran {
                    mut outboxes,
                    inbox,
                    next_at: at,
                } = recv(shard)
                else {
                    unreachable!("workers finish on command only")
                };
                next_at[shard] = at;
                for (mailbox, events) in pending.iter_mut().zip(&mut outboxes) {
                    cross_events += events.len() as u64;
                    mailbox.append(events);
                }
                empties[shard] = outboxes;
                spare_inbox[shard] = inbox;
            }
            let Some(t) = next_at.iter().flatten().min().copied() else {
                break;
            };
            if t > horizon {
                // Only mailbox events can lie past the simulated
                // duration, and an engine would count them, never pop
                // them: nothing is left to run.
                break;
            }
            let end = match lookahead {
                Some(l) => t + l,
                None => SimTime::MAX,
            };
            epochs += 1;
            // Inboxes travel with the epoch command; the outboxes were
            // appended above in source-shard order.
            for (shard, tx) in to_worker.iter().enumerate() {
                let refill = std::mem::take(&mut spare_inbox[shard]);
                let cmd = ToWorker::Epoch {
                    end,
                    inbox: std::mem::replace(&mut pending[shard], refill),
                    empties: std::mem::take(&mut empties[shard]),
                };
                tx.send(cmd).expect("a live worker awaits its command");
            }
        }

        for tx in &to_worker {
            tx.send(ToWorker::Finish)
                .expect("a live worker awaits its command");
        }
        // In shard order, so the spans come ordered by shard then epoch.
        for shard in 0..k {
            let FromWorker::Finished { result, spans } = recv(shard) else {
                unreachable!("workers were told to finish")
            };
            results.push(result);
            epoch_spans.extend(spans);
        }
    });

    let stats = ShardedStats {
        k,
        epochs,
        cross_events,
        edge_cut: 0,
        per_shard_events: results.iter().map(|r| r.2.events).collect(),
        per_shard_peak_queue: results.iter().map(|r| r.2.peak_queue_depth).collect(),
        per_shard_peak_pit: Vec::new(),
        per_shard_peak_cs: Vec::new(),
        epoch_spans,
    };
    (results, stats)
}
