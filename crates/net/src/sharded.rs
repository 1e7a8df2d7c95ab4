//! The conservative epoch loop: K shard [`Net`]s trading mail peer to
//! peer at one barrier per epoch, byte-identical to a sequential run.
//!
//! A run is space-partitioned into K shards (`tactic_topology::shard`),
//! one engine per shard. Shard 0 runs on the calling thread and shards
//! 1..K on scoped threads, so a K-shard run starts K − 1 threads and a
//! one-shard run none. For every K the report `Debug` dump, the telemetry
//! JSONL and the golden snapshots are the sequential run's — held by
//! `tests/shard_equivalence.rs`, `tests/plane_harness.rs` and CI's `sweep
//! --shards 1,2,3,4,8` gate. K = 1 is the same loop with nobody to wait
//! for: no lookahead, so one window ([`harness::run`](crate::harness::run)).
//!
//! # Protocol
//!
//! Every shard runs the same loop; there is no coordinator. Each epoch
//! covers the half-open window `[T, T + lookahead)`, where `T` is the
//! global minimum over every shard's next pending event and every
//! undelivered mailbox event (a GVT-style idle jump: quiet stretches cost
//! one barrier, not `gap / lookahead` of them, so the epoch count tracks
//! event density). The lookahead is the least propagation latency over
//! cut links — over every link under mobility or attacker churn, since a
//! handover can re-point any client at any access point.
//!
//! Shards trade mail through a table of `[src][dst]` mailbox slots, one
//! per ordered pair of shards, double-buffered by epoch parity. An epoch
//! of shard `me`:
//!
//! 1. injects its inbox — column `[*][me]` of the buffer the previous
//!    epoch filled, read in ascending source order — so every inbox is in
//!    its shard's calendar before the epoch runs (the sampler's
//!    queue-depth rule, [`Net`]'s `take_sample`, relies on it);
//! 2. processes everything strictly before `T + lookahead`;
//! 3. posts its outboxes into row `[me][*]` of the other buffer, each
//!    swapped for the drained vector the slot held, so mail moves and no
//!    vector is reallocated;
//! 4. waits at the barrier, publishing the earliest timestamp pending in
//!    its calendar or in what it just posted. The barrier folds the
//!    minimum as shards arrive, so every shard leaves with the same next
//!    `T` — and all stop together once there is none within the horizon.
//!
//! One barrier is enough because of the second buffer: a shard posting
//! into a buffer has passed the barrier every shard reached after reading
//! that buffer, one epoch earlier.
//!
//! The barrier is a mutex and condition variable with a poison slot. A
//! shard that panics — in its node factory or mid-epoch, shard 0 on the
//! calling thread included — records its number and message there, which
//! releases every waiter; the call then panics with `shard N panicked:
//! <message>` for the first shard to die
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

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::EpochSpan;

use crate::observer::NetObserver;
use crate::plane::NodePlane;
use crate::transport::{KeyedEvent, Net, TransportReport};

/// What the epoch loop measured about one sharded run.
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

/// Runs `k` shard [`Net`]s to completion: shard 0 on the calling thread,
/// the others on `k − 1` scoped threads.
///
/// `build(shard)` constructs shard `shard`'s instance (each shard calls
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
/// the loop's stats. The caller owns the merge: stitch the owned node
/// states together, max-merge queue peaks, and subtract the mirrored
/// purge/fault duplicates from the event total.
///
/// # Panics
///
/// Panics if `k == 0` or if `build` builds nets with a different shard
/// count. A panic in a shard — in `build`, or in the plane while an
/// epoch runs — stops the run: the call panics with the shard's number
/// and message once every other shard has been released.
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
/// `profile` is set and there is more than one shard, every shard records
/// one [`EpochSpan`] per epoch (work time, barrier-wait time, inbox size)
/// relative to a shared origin captured before the threads spawn, and the
/// spans come back in [`ShardedStats::epoch_spans`] ordered by shard then
/// epoch. The simulation itself is bit-identical either way — only
/// wall-clock metadata is collected.
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
    let run = Loop {
        k,
        lookahead,
        horizon,
        // One shard synchronises with nobody: it has no epochs to time.
        profile: profile && k > 1,
        mail: (0..2 * k * (k - 1)).map(|_| Mutex::default()).collect(),
        t0: Instant::now(),
        round: Mutex::default(),
        turned: Condvar::new(),
    };
    let mut results = Vec::with_capacity(k);
    let mut epoch_spans = Vec::new();
    std::thread::scope(|scope| {
        let shard = |me| run.shard(me, &build);
        let others: Vec<_> = (1..k).map(|me| scope.spawn(move || shard(me))).collect();
        let first = shard(0);
        let joined = others
            .into_iter()
            .map(|worker| worker.join().expect("a shard catches its own panic"));
        // In shard order, so the spans come ordered by shard then epoch.
        for done in std::iter::once(first).chain(joined) {
            let Ok((result, spans)) = done else {
                let dead = run.lock().poison.clone();
                let (shard, message) = dead.expect("a shard stops early only once one has died");
                panic!("shard {shard} panicked: {message}")
            };
            results.push(result);
            epoch_spans.extend(spans);
        }
    });

    let round = run
        .round
        .into_inner()
        .expect("nothing panics holding the barrier");
    let stats = ShardedStats {
        k,
        // Every window follows a barrier round, and one more round ends
        // the loop; a lone shard's one window synchronises nothing.
        epochs: if k > 1 { round.generation - 1 } else { 0 },
        cross_events: round.posted,
        edge_cut: 0,
        per_shard_events: results.iter().map(|r| r.2.events).collect(),
        per_shard_peak_queue: results.iter().map(|r| r.2.peak_queue_depth).collect(),
        per_shard_peak_pit: Vec::new(),
        per_shard_peak_cs: Vec::new(),
        epoch_spans,
    };
    (results, stats)
}

/// What every shard of one run shares: the mailbox slots and the one
/// barrier per epoch.
struct Loop {
    k: usize,
    lookahead: Option<SimDuration>,
    horizon: SimTime,
    profile: bool,
    /// The `[parity][src][dst]` mailbox slots, flattened, with no slot
    /// for `src == dst`: a shard never mails itself.
    mail: Vec<Mutex<Vec<KeyedEvent>>>,
    /// The run-wide wall-clock origin every span is relative to.
    t0: Instant,
    round: Mutex<Round>,
    /// Signalled when a round completes or a shard dies.
    turned: Condvar,
}

/// The barrier's state: a shard arrives with the earliest time it has
/// pending and leaves with the earliest of all.
#[derive(Default)]
struct Round {
    /// Shards arrived in the current round.
    arrived: usize,
    /// Rounds completed; the last arrival bumps it, releasing the others.
    generation: u64,
    /// The least `next_at` the current round's arrivals published.
    least: Option<SimTime>,
    /// The least `next_at` of the last completed round. A shard reads it
    /// before it can arrive again, and the round after cannot complete
    /// without it.
    released: Option<SimTime>,
    /// Events posted to mailboxes, by every shard.
    posted: u64,
    /// The first shard to panic, with its message.
    poison: Option<(usize, String)>,
}

/// The run stopped because a shard panicked; the barrier holds why.
struct Dead;

/// What a shard hands back: its results and its epoch spans.
type Done<P, O> = ((P, O, TransportReport), Vec<EpochSpan>);

impl Loop {
    /// Runs shard `me` to the end; a panic poisons the barrier, which
    /// releases every waiter, instead of unwinding further.
    fn shard<P: NodePlane, O: NetObserver>(
        &self,
        me: usize,
        build: &impl Fn(u32) -> Net<P, O>,
    ) -> Result<Done<P, O>, Dead> {
        let run = AssertUnwindSafe(|| self.epochs(me, build));
        panic::catch_unwind(run).unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a non-string panic payload".into());
            self.lock().poison.get_or_insert((me, message));
            self.turned.notify_all();
            Err(Dead)
        })
    }

    fn epochs<P: NodePlane, O: NetObserver>(
        &self,
        me: usize,
        build: &impl Fn(u32) -> Net<P, O>,
    ) -> Result<Done<P, O>, Dead> {
        let mut net = build(me as u32);
        let (mut spans, mut parity, mut posted) = (Vec::new(), 0, 0);
        let mut next_at = net.next_event_at();
        loop {
            let wait_started = self.profile.then(Instant::now);
            let t = self.wait(next_at, std::mem::take(&mut posted))?;
            // Only mailbox events can lie past the simulated duration,
            // and an engine would count them, never pop them: past the
            // horizon nothing is left to run.
            let Some(t) = t.filter(|&t| t <= self.horizon) else {
                break;
            };
            let wait_ns = wait_started.map_or(0, |w| w.elapsed().as_nanos() as u64);
            let start_ns = self.t0.elapsed().as_nanos() as u64;
            let mut inbox = 0;
            for src in (0..self.k).filter(|&src| src != me) {
                let mut slot = self.slot(parity, src, me);
                inbox += slot.len() as u64;
                net.inject(slot.drain(..));
            }
            net.run_epoch(self.lookahead.map_or(SimTime::MAX, |l| t + l));
            if self.profile {
                spans.push(EpochSpan {
                    shard: me as u32,
                    epoch: spans.len() as u64,
                    start_ns,
                    work_ns: self.t0.elapsed().as_nanos() as u64 - start_ns,
                    wait_ns,
                    inbox,
                });
            }
            parity ^= 1;
            let sent_at = net.swap_outboxes(|dst, outbox| {
                if dst != me {
                    posted += outbox.len() as u64;
                    std::mem::swap(&mut *self.slot(parity, me, dst), outbox);
                }
            });
            next_at = net.next_event_at().into_iter().chain(sent_at).min();
        }
        Ok((net.finish(), spans))
    }

    /// The slot `src` posts to `dst` through in buffer `parity`. Only
    /// those two shards touch it, on opposite sides of a barrier.
    fn slot(&self, parity: usize, src: usize, dst: usize) -> MutexGuard<'_, Vec<KeyedEvent>> {
        let column = dst - usize::from(dst > src);
        self.mail[(parity * self.k + src) * (self.k - 1) + column]
            .lock()
            .expect("a slot is released before its holder can panic")
    }

    fn lock(&self) -> MutexGuard<'_, Round> {
        self.round
            .lock()
            .expect("nothing panics holding the barrier")
    }

    /// The barrier: publishes this shard's `next_at` and what it posted,
    /// and waits for every other shard. Returns the least `next_at` of
    /// them all, or [`Dead`] once any shard has panicked.
    fn wait(&self, next_at: Option<SimTime>, posted: u64) -> Result<Option<SimTime>, Dead> {
        let mut round = self.lock();
        if round.poison.is_some() {
            return Err(Dead);
        }
        round.least = round.least.into_iter().chain(next_at).min();
        round.posted += posted;
        round.arrived += 1;
        if round.arrived == self.k {
            round.arrived = 0;
            round.released = round.least.take();
            round.generation += 1;
            self.turned.notify_all();
        } else {
            let generation = round.generation;
            round = self
                .turned
                .wait_while(round, |r| r.generation == generation && r.poison.is_none())
                .expect("nothing panics holding the barrier");
            if round.poison.is_some() {
                return Err(Dead);
            }
        }
        Ok(round.released)
    }
}
