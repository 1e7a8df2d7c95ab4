//! The discrete-event engine.
//!
//! [`Engine`] delivers events carrying an application-defined payload `E`,
//! scheduled at absolute [`SimTime`]s, in time order (FIFO among equal
//! timestamps, enforced by a monotone sequence number so runs are fully
//! deterministic).
//!
//! The pending-event set lives in a dynamic calendar queue (the private
//! `calendar` module) — events in one slab, buckets threaded through
//! 24-byte records, amortised O(1) enqueue/dequeue and no allocation at a
//! steady population — rather than a binary heap, whose O(log n)
//! pointer-hopping becomes the hot-path cost at the millions of pending
//! events a 10⁵–10⁶-node topology keeps in flight. The queue orders by the
//! exact same `(time, seq)` key the historical heap used, so the swap is
//! invisible to delivery order: golden run snapshots stay byte-identical.
//!
//! An event scheduled past the horizon can never be delivered, so it is
//! not stored: it counts toward [`Engine::pending`] and
//! [`Engine::peak_pending`] exactly as if it were queued, and its payload
//! is dropped on the spot. A run's perpetual reschedules and its tail of
//! expiry checks and deliveries therefore cost a counter, not a slot.
//!
//! The engine is deliberately payload-agnostic: the TACTIC network layer
//! defines its own event enum and drives the loop with a handler closure
//! that owns the world state.

use crate::calendar::CalendarQueue;
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event simulation engine.
///
/// # Examples
///
/// ```
/// use tactic_sim::engine::Engine;
/// use tactic_sim::time::{SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_after(SimDuration::from_secs(2), "second");
/// engine.schedule_after(SimDuration::from_secs(1), "first");
///
/// let mut order = Vec::new();
/// while let Some(ev) = engine.pop() {
///     order.push(ev);
/// }
/// assert_eq!(order, ["first", "second"]);
/// assert_eq!(engine.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: CalendarQueue<E>,
    now: SimTime,
    seq: u64,
    processed: u64,
    peak_pending: usize,
    /// Events scheduled past the horizon: counted as pending, never stored.
    beyond: usize,
    horizon: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero with an unbounded horizon.
    pub fn new() -> Self {
        Engine {
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak_pending: 0,
            beyond: 0,
            horizon: SimTime::MAX,
        }
    }

    /// Creates an engine that delivers no event past `horizon`.
    pub fn with_horizon(horizon: SimTime) -> Self {
        let mut e = Self::new();
        e.horizon = horizon;
        e
    }

    /// The current simulation time (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The stop horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events scheduled and not delivered: those queued, plus
    /// those scheduled past the horizon, which are counted here but were
    /// never stored (see [`schedule`](Self::schedule)).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.beyond
    }

    /// High-water mark of [`pending`](Self::pending) over the engine's
    /// lifetime.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Events scheduled in the past are delivered "now" (the clock never
    /// moves backwards); this matches zero-latency local deliveries. An
    /// event whose time lies past the horizon can never be delivered: it
    /// is counted in [`pending`](Self::pending) and its payload is dropped
    /// here, so it occupies no queue slot.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, seq, payload);
    }

    /// Schedules `payload` after a relative delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Schedules `payload` at `at` with an explicit tie-break `key` in
    /// place of the engine's monotone sequence number; past the horizon,
    /// counted and dropped as by [`schedule`](Self::schedule).
    ///
    /// Explicit keys are the determinism backbone of sharded runs: a key
    /// computed from the *scheduling entity* (rather than from global
    /// schedule order) is identical whether the run executes on one engine
    /// or on several space-partitioned ones, so the merged delivery order
    /// is too. Callers must not mix keyed and auto-sequenced events at the
    /// same timestamp unless they accept auto sequences ordering first.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        self.schedule_keyed_with(at, key, || payload);
    }

    /// [`schedule_keyed`](Self::schedule_keyed) with the payload built by
    /// `make` only if the event is stored: past the horizon the event is
    /// counted and `make` is never called. For a payload that holds a
    /// resource of its own — a slot in a side table — which an event that
    /// can never be delivered must not take.
    pub fn schedule_keyed_with(&mut self, at: SimTime, key: u64, make: impl FnOnce() -> E) {
        let at = at.max(self.now);
        if at > self.horizon {
            self.beyond += 1;
        } else {
            self.queue.push(at, key, make());
        }
        self.peak_pending = self.peak_pending.max(self.pending());
    }

    /// The timestamp of the next deliverable event (none lies past the
    /// horizon).
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.queue.peek_key().map(|(at, _)| at)
    }

    /// Delivers the next event, advancing the clock. Returns `None` when
    /// no deliverable event is left.
    pub fn pop(&mut self) -> Option<E> {
        let (at, payload) = self.queue.pop()?;
        self.now = at;
        self.processed += 1;
        Some(payload)
    }

    /// Delivers the next event only if it lies strictly before `end`. The
    /// conservative-synchronization epoch step: an epoch `[T, T +
    /// lookahead)` is exactly a sequence of these pops.
    pub fn pop_before(&mut self, end: SimTime) -> Option<E> {
        match self.queue.peek_key() {
            Some((at, _)) if at < end => self.pop(),
            _ => None,
        }
    }

    /// Runs the event loop until the queue drains or the horizon is reached,
    /// calling `handler` for each event. The handler may schedule new events
    /// through the engine reference it receives.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, E),
    {
        while let Some(ev) = self.pop() {
            handler(self, ev);
        }
    }

    /// Drops all pending events without delivering them, the ones past
    /// the horizon included.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.beyond = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(3), 3);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(2), 2);
        let got: Vec<u32> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(got, [1, 2, 3]);
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule(SimTime::from_secs(5), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// A payload that counts its drops.
    struct Tracked(std::rc::Rc<std::cell::Cell<u32>>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn events_past_the_horizon_are_counted_not_stored() {
        let dropped = std::rc::Rc::new(std::cell::Cell::new(0));
        let tracked = || Tracked(dropped.clone());
        let mut e: Engine<Tracked> = Engine::with_horizon(SimTime::from_secs(10));
        e.schedule(SimTime::from_secs(15), tracked());
        e.schedule_keyed(SimTime::from_secs(20), 7, tracked());
        assert_eq!(dropped.get(), 2, "payloads dropped at schedule time");
        assert_eq!((e.pending(), e.peak_pending()), (2, 2));
        assert_eq!(e.next_at(), None, "nothing deliverable");
        e.schedule(SimTime::from_secs(5), tracked());
        assert_eq!(e.next_at(), Some(SimTime::from_secs(5)));
        assert_eq!((e.pending(), e.peak_pending()), (3, 3));
        assert!(e.pop().is_some());
        assert_eq!(dropped.get(), 3);
        assert!(e.pop().is_none(), "never delivered");
        assert_eq!((e.pending(), e.peak_pending(), e.processed()), (2, 3, 1));
        e.clear();
        assert_eq!((e.pending(), e.peak_pending()), (0, 3));
    }

    #[test]
    fn a_payload_past_the_horizon_is_never_built() {
        let mut e: Engine<u32> = Engine::with_horizon(SimTime::from_secs(10));
        let mut built = 0;
        e.schedule_keyed_with(SimTime::from_secs(11), 0, || {
            built += 1;
            11
        });
        e.schedule_keyed_with(SimTime::from_secs(10), 1, || {
            built += 1;
            10
        });
        assert_eq!((built, e.pending()), (1, 2));
        assert_eq!(e.pop(), Some(10));
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn past_events_are_delivered_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(SimTime::from_secs(5), "first");
        assert_eq!(e.pop(), Some("first"));
        e.schedule(SimTime::from_secs(1), "late");
        assert_eq!(e.pop(), Some("late"));
        assert_eq!(
            e.now(),
            SimTime::from_secs(5),
            "clock must not move backwards"
        );
    }

    #[test]
    fn run_loop_handles_cascading_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(1), 0);
        let mut seen = Vec::new();
        e.run(|engine, ev| {
            seen.push(ev);
            if ev < 4 {
                engine.schedule_after(SimDuration::from_secs(1), ev + 1);
            }
        });
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.peak_pending(), 0);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(2), 2);
        assert_eq!(e.peak_pending(), 2);
        e.pop();
        e.pop();
        e.schedule(SimTime::from_secs(3), 3);
        assert_eq!(e.peak_pending(), 2, "peak survives the queue draining");
    }

    #[test]
    fn an_event_at_the_horizon_is_delivered_and_one_past_it_is_not() {
        let horizon = SimTime::from_secs(10);
        let mut e: Engine<&str> = Engine::with_horizon(horizon);
        e.schedule(SimTime::from_secs(3600), "far");
        e.schedule(horizon + SimDuration::from_nanos(1), "just past");
        assert_eq!(e.pop(), None, "past the horizon");
        e.schedule(horizon, "at");
        e.schedule(SimTime::from_secs(5), "near");
        assert_eq!(e.pop(), Some("near"));
        assert_eq!(e.pop(), Some("at"));
        assert_eq!(e.now(), horizon);
        assert_eq!(e.pop(), None);
        assert_eq!(e.pending(), 2);
    }

    #[test]
    fn sustains_large_pending_populations() {
        // A smoke-sized version of the 10⁵-node regime: 100k interleaved
        // schedules and pops with mixed spacing stay totally ordered.
        let mut e: Engine<u64> = Engine::new();
        let mut rng = crate::rng::Rng::seed_from_u64(0x5CA1E);
        for i in 0..100_000u64 {
            let at = e.now().as_nanos() + rng.below(200_000);
            e.schedule(SimTime::from_nanos(at), i);
            if i % 3 == 0 {
                e.pop();
            }
        }
        let mut last = e.now();
        while e.pop().is_some() {
            assert!(e.now() >= last, "clock went backwards");
            last = e.now();
        }
        assert_eq!(e.processed(), 100_000);
    }

    #[test]
    fn keyed_events_order_by_key_not_schedule_order() {
        let mut e: Engine<u32> = Engine::new();
        let t = SimTime::from_secs(1);
        e.schedule_keyed(t, 30, 30);
        e.schedule_keyed(t, 10, 10);
        e.schedule_keyed(t, 20, 20);
        let got: Vec<u32> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(got, [10, 20, 30]);
    }

    #[test]
    fn pop_before_is_an_exclusive_window() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_keyed(SimTime::from_secs(1), 0, 1);
        e.schedule_keyed(SimTime::from_secs(2), 0, 2);
        e.schedule_keyed(SimTime::from_secs(3), 0, 3);
        let mut seen = Vec::new();
        seen.extend(std::iter::from_fn(|| e.pop_before(SimTime::from_secs(2))));
        assert_eq!(seen, [1], "the window end is exclusive");
        assert_eq!(e.next_at(), Some(SimTime::from_secs(2)));
        seen.extend(std::iter::from_fn(|| e.pop_before(SimTime::MAX)));
        assert_eq!(seen, [1, 2, 3]);
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut e: Engine<u32> = Engine::with_horizon(SimTime::from_secs(10));
        e.schedule_keyed(SimTime::from_secs(5), 0, 5);
        e.schedule_keyed(SimTime::from_secs(15), 0, 15);
        let mut seen = Vec::new();
        seen.extend(std::iter::from_fn(|| e.pop_before(SimTime::MAX)));
        assert_eq!(seen, [5]);
        assert_eq!(e.pending(), 1, "the past-horizon event is still counted");
    }

    #[test]
    fn epoch_windows_reproduce_a_single_run() {
        // Chopping a run into fixed windows must deliver the same order as
        // one uninterrupted run.
        let mut whole: Engine<u64> = Engine::new();
        let mut chopped: Engine<u64> = Engine::new();
        let mut rng = crate::rng::Rng::seed_from_u64(0xE90C);
        for i in 0..1000u64 {
            let at = SimTime::from_nanos(rng.below(50_000_000));
            let key = rng.next_u64();
            whole.schedule_keyed(at, key, i);
            chopped.schedule_keyed(at, key, i);
        }
        let mut a = Vec::new();
        whole.run(|_, ev| a.push(ev));
        let mut b = Vec::new();
        let mut t = SimTime::ZERO;
        while chopped.pending() > 0 {
            t += SimDuration::from_millis(1);
            b.extend(std::iter::from_fn(|| chopped.pop_before(t)));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn clear_empties_queue() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(1), 1);
        e.clear();
        assert_eq!(e.pop(), None);
        assert_eq!(e.pending(), 0);
    }
}
