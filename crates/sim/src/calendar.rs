//! A dynamic calendar queue: the flat-storage priority queue behind
//! [`crate::engine::Engine`].
//!
//! A calendar queue (Brown, CACM 1988) hashes events by time into an array
//! of buckets ("days"), each spanning a fixed `width` of simulated time;
//! the array as a whole covers one "year" and wraps. Dequeueing walks the
//! current day forward, which makes both enqueue and dequeue amortised
//! O(1) — against the O(log n) and pointer-chasing cache misses of a
//! binary heap — provided the bucket count and width track the number and
//! spacing of pending events. This implementation resizes itself (doubling
//! or halving the bucket count) as the population moves, and sizes a day
//! by Brown's head sample at every resize: three times the mean gap
//! between the earliest live events, outlying gaps left out (see
//! [`estimate_width`]). A day then holds a few of the events about to be
//! popped, not the whole near future, so an out-of-order push — a packet
//! arriving before one sent earlier on a slower link, or a key of another
//! source at the same instant — steps over a record or two, not a day's
//! worth. When the spacing changes under a steady population, so that
//! pushes start walking anyway, the width is re-estimated at the same
//! bucket count: once at least `len` pushes and more walked records than
//! pushes have accumulated since the last estimate. That costs one sort
//! per `len` pushes at most, amortised O(1) per push like the resizes.
//!
//! The calendar tests hold that budget
//! (`cargo test --release -p tactic-sim calendar`, a CI step): at most
//! one record walked per push on a steady population with a few pushes
//! far ahead and across a thousandfold spacing change that only the
//! re-estimate fixes, and no walk a burst at one instant does not need
//! for its own key order, through every resize. The price of narrow days
//! is empty days stepped over by `pop`. A push behind the cursor rewinds
//! it, so backdated scheduling stays correct.
//!
//! Ordering is **total and deterministic**: events are keyed by
//! `(timestamp, sequence number)`, the sequence unique per event — the
//! engine's counter, or a caller's key such as the transport's per-source
//! one. Every dequeue returns the exact minimum under that key, whatever
//! the width, so replacing a binary heap keyed the same way changes
//! *nothing* about delivery order. That invariant is what keeps golden
//! run snapshots byte-identical across the engine swap and across width
//! rules.
//!
//! # Storage
//!
//! Everything lives in four flat arrays, none of them per bucket. An
//! event occupies one *slot*: its payload sits in `payloads[slot]` from
//! push to pop and is never moved in between; its 24-byte [`Record`] —
//! time, sequence, link — sits in `records[slot]`. A bucket is a singly
//! linked list of records in ascending key order, threaded through the
//! records' `next` fields: `buckets[b]` is its first and last slot.
//! Freed slots are chained the same way and reused first, so once the
//! arrays have reached the run's peak population `push` and `pop` never
//! touch the allocator; a resize re-threads the records in place and
//! allocates, at most, the longer bucket array and the sort scratch.
//! Only records are read while ordering; the payload is moved once in
//! and once out.

use crate::time::SimTime;

/// "No slot": the end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// One queued event's key and its link to the next record of its bucket
/// (or, for a vacant slot, of the free list).
#[derive(Debug, Clone, Copy)]
struct Record {
    at: u64,
    seq: u64,
    next: u32,
}

impl Record {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// A bucket: the first and the last slot of its list ([`NIL`] when empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A fresh queue's bucket width, and the fallback for a population too
/// bunched to sample: 1 ms.
const DEFAULT_WIDTH: u64 = 1_000_000;
/// How many of the earliest live events the width estimate samples.
const SAMPLE: usize = 25;
/// Smallest number of buckets the calendar shrinks down to.
const MIN_BUCKETS: usize = 4;
/// Hard cap on the bucket count (2²² buckets ≈ 8M pending events before
/// buckets start averaging more than two events).
const MAX_BUCKETS: usize = 1 << 22;

/// A deterministic dynamic calendar queue ordered by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    /// Bucket array; `buckets.len()` is always a power of two.
    buckets: Vec<Bucket>,
    /// Per slot: the event's key and link (see the module docs).
    records: Vec<Record>,
    /// Per slot: the event's payload; `None` while the slot is vacant.
    payloads: Vec<Option<E>>,
    /// The first vacant slot ([`NIL`] when every slot is taken).
    free: u32,
    /// `(at, seq, slot)` of the live events while a resize sorts them;
    /// kept for its capacity.
    scratch: Vec<(u64, u64, u32)>,
    /// `buckets.len() - 1`, for masking day numbers into bucket indices.
    mask: usize,
    /// Nanoseconds of simulated time per bucket (never zero).
    width: u64,
    /// The bucket the dequeue scan is currently standing on.
    cursor: usize,
    /// Absolute end (exclusive, in ns) of the cursor bucket's current day.
    /// `u128` so `day * width` arithmetic cannot overflow near
    /// [`SimTime::MAX`].
    cursor_day_end: u128,
    /// Total queued events.
    len: usize,
    /// Records stepped over by [`Self::link`]'s walks, all told.
    walked: u64,
    /// `walked` at the last width estimate.
    walked_mark: u64,
    /// Pushes since the last width estimate.
    pushes: u64,
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: vec![EMPTY; MIN_BUCKETS],
            records: Vec::new(),
            payloads: Vec::new(),
            free: NIL,
            scratch: Vec::new(),
            mask: MIN_BUCKETS - 1,
            width: DEFAULT_WIDTH,
            cursor: 0,
            cursor_day_end: DEFAULT_WIDTH as u128,
            len: 0,
            walked: 0,
            walked_mark: 0,
            pushes: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.records.clear();
        self.payloads.clear();
        self.free = NIL;
        self.len = 0;
        self.pushes = 0;
        self.walked_mark = self.walked;
    }

    #[inline]
    fn bucket_of(&self, at_ns: u64) -> usize {
        ((at_ns / self.width) as usize) & self.mask
    }

    /// Points the cursor at the day `at_ns` falls in.
    fn stand_on(&mut self, at_ns: u64) {
        self.cursor = self.bucket_of(at_ns);
        self.cursor_day_end = (at_ns as u128 / self.width as u128 + 1) * self.width as u128;
    }

    /// A slot for a new event: a freed one if there is any.
    fn take_slot(&mut self, record: Record, payload: E) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            self.free = self.records[slot as usize].next;
            self.records[slot as usize] = record;
            self.payloads[slot as usize] = Some(payload);
            return slot;
        }
        let slot = u32::try_from(self.records.len()).expect("fewer than 2^32 pending events");
        assert!(slot != NIL, "fewer than 2^32 pending events");
        self.records.push(record);
        self.payloads.push(Some(payload));
        slot
    }

    /// Threads `slot` into its bucket's list, keeping it ascending. A key
    /// past the bucket's last or before its first — in particular every
    /// push to an empty day — is linked without a walk; any other steps
    /// over the records below it, counted in `walked`.
    fn link(&mut self, slot: u32) {
        let record = self.records[slot as usize];
        let key = record.key();
        let idx = self.bucket_of(record.at);
        let Bucket { head, tail } = self.buckets[idx];
        if head == NIL {
            self.records[slot as usize].next = NIL;
            self.buckets[idx] = Bucket {
                head: slot,
                tail: slot,
            };
        } else if self.records[tail as usize].key() < key {
            self.records[slot as usize].next = NIL;
            self.records[tail as usize].next = slot;
            self.buckets[idx].tail = slot;
        } else if key < self.records[head as usize].key() {
            self.records[slot as usize].next = head;
            self.buckets[idx].head = slot;
        } else {
            // Strictly between head and tail: after the last record below.
            let mut before = head;
            loop {
                let next = self.records[before as usize].next;
                if self.records[next as usize].key() > key {
                    break;
                }
                before = next;
                self.walked += 1;
            }
            self.records[slot as usize].next = self.records[before as usize].next;
            self.records[before as usize].next = slot;
        }
    }

    /// Inserts an event. `(at, seq)` pairs must be unique (the engine's
    /// counter and the transport's per-source keys guarantee it);
    /// equal-time events dequeue in `seq` order.
    pub fn push(&mut self, at: SimTime, seq: u64, payload: E) {
        // Dequeue correctness rests on the invariant that no pending event
        // lives in a day *before* the cursor's. A peek at a far-future
        // event legitimately jumps the cursor ahead (e.g. the epoch loop
        // peeking at a quiet shard's next event), so an event scheduled
        // earlier afterwards must pull the cursor back to its own day.
        let at = at.as_nanos();
        if (at as u128) < self.cursor_day_end.saturating_sub(self.width as u128) {
            self.stand_on(at);
        }
        let record = Record { at, seq, next: NIL };
        let slot = self.take_slot(record, payload);
        self.link(slot);
        self.len += 1;
        self.pushes += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        } else if self.pushes >= self.len as u64 && self.walked - self.walked_mark > self.pushes {
            // The spacing moved under a steady population: days have
            // grown crowded, so sample the head again.
            self.resize(self.buckets.len());
        }
    }

    /// The `(time, seq)` of the next event without removing it, advancing
    /// the day cursor to its bucket as a side effect.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.locate_min().map(|idx| {
            let r = &self.records[self.buckets[idx].head as usize];
            (SimTime::from_nanos(r.at), r.seq)
        })
    }

    /// Removes and returns the minimum event under `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self.locate_min()?;
        let slot = self.buckets[idx].head;
        let Record { at, next, .. } = self.records[slot as usize];
        self.buckets[idx] = if next == NIL {
            EMPTY
        } else {
            Bucket {
                head: next,
                ..self.buckets[idx]
            }
        };
        let payload = self.payloads[slot as usize]
            .take()
            .expect("a linked slot holds its payload");
        self.records[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some((SimTime::from_nanos(at), payload))
    }

    /// The time of the first event in bucket `idx`, if it has one.
    #[inline]
    fn head_at(&self, idx: usize) -> Option<u64> {
        match self.buckets[idx].head {
            NIL => None,
            head => Some(self.records[head as usize].at),
        }
    }

    /// Walks the calendar from the cursor to the bucket holding the global
    /// minimum event and returns its index. A full lap without a hit in
    /// the current year (events all far in the future) falls back to a
    /// direct scan — the standard calendar-queue escape hatch for sparse
    /// tails like a lone keep-alive scheduled seconds ahead.
    fn locate_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        for _ in 0..self.buckets.len() {
            if let Some(at) = self.head_at(self.cursor) {
                if (at as u128) < self.cursor_day_end {
                    return Some(self.cursor);
                }
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.cursor_day_end += self.width as u128;
        }
        Some(self.direct_min())
    }

    /// Finds the bucket holding the global minimum by scanning bucket
    /// heads, and jumps the cursor to that event's day.
    fn direct_min(&mut self) -> usize {
        debug_assert!(self.len > 0);
        let heads = self.buckets.iter().filter(|b| b.head != NIL);
        let (at, _) = heads
            .map(|b| self.records[b.head as usize].key())
            .min()
            .expect("non-empty queue has a minimum");
        self.stand_on(at);
        self.cursor
    }

    /// Rebuilds the calendar with `nbuckets` buckets, re-estimating the
    /// bucket width from the earliest live events. Records and payloads
    /// stay in their slots; only the links are rewritten.
    fn resize(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        let mut live = std::mem::take(&mut self.scratch);
        for bucket in &self.buckets {
            let mut slot = bucket.head;
            while slot != NIL {
                let r = &self.records[slot as usize];
                live.push((r.at, r.seq, slot));
                slot = r.next;
            }
        }
        // Descending, so that each record becomes the head of its new
        // bucket in turn: no walks, whatever the buckets come to hold.
        live.sort_unstable_by(|a, b| b.cmp(a));
        self.buckets.clear();
        self.buckets.resize(nbuckets, EMPTY);
        self.mask = nbuckets - 1;
        self.width = estimate_width(&live);
        self.walked_mark = self.walked;
        self.pushes = 0;
        self.stand_on(live.last().map_or(0, |min| min.0));
        for &(at, _, slot) in &live {
            let idx = self.bucket_of(at);
            let Bucket { head, tail } = self.buckets[idx];
            self.records[slot as usize].next = head;
            self.buckets[idx] = Bucket {
                head: slot,
                tail: if head == NIL { slot } else { tail },
            };
        }
        live.clear();
        self.scratch = live;
    }
}

/// Brown's width rule (CACM 1988): three times the mean gap between the
/// earliest [`SAMPLE`] live events, leaving out gaps over twice the mean of
/// them all — the isolated expiry check or keep-alive that would otherwise
/// stretch a day over the whole near future. `live` is the resize's sort,
/// descending, so the earliest events are its tail.
///
/// A sample whose kept gaps are all zero (a burst at one instant, a
/// straggler behind it) falls back to the mean of all its gaps, and a
/// sample at a single instant to [`DEFAULT_WIDTH`]: the width is never
/// zero.
fn estimate_width(live: &[(u64, u64, u32)]) -> u64 {
    let head = &live[live.len().saturating_sub(SAMPLE)..];
    let gaps = || head.windows(2).map(|w| u128::from(w[0].0 - w[1].0));
    let (total, n) = gaps().fold((0, 0), |(sum, n), gap| (sum + gap, n + 1));
    // `gap <= 2 * total / n`, kept exact.
    let (kept, k) = gaps()
        .filter(|&gap| gap * n <= 2 * total)
        .fold((0, 0), |(sum, k), gap| (sum + gap, k + 1));
    let width = match (kept, total) {
        (_, 0) => return DEFAULT_WIDTH,
        (0, _) => 3 * total / n,
        _ => 3 * kept / k,
    };
    width.clamp(1, u128::from(u64::MAX / 4)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(SimTime::from_secs(3), 0, 3);
        q.push(SimTime::from_secs(1), 1, 1);
        q.push(SimTime::from_secs(2), 2, 2);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(5), i, i as u32);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    /// Per-source event keys as the transport assigns them: `(source <<
    /// 40) | n`, with `n` counting that source's events — unique, but not
    /// monotone in schedule order once sources interleave.
    struct Keys(Vec<u64>);

    impl Keys {
        fn new(sources: usize) -> Self {
            Keys(vec![0; sources])
        }

        fn next(&mut self, src: usize) -> u64 {
            self.0[src] += 1;
            ((src as u64) << 40) | (self.0[src] - 1)
        }
    }

    #[test]
    fn matches_reference_heap_under_random_interleaving() {
        use crate::rng::Rng;
        use std::collections::BinaryHeap;

        let mut rng = Rng::seed_from_u64(0xCA1E);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut keys = Keys::new(64);
        let mut floor = 0u64; // Like the engine: never schedule in the past.
        for _ in 0..20_000 {
            if rng.chance(0.55) || q.is_empty() {
                // Mixed spacing: dense ns-scale traffic plus sparse
                // far-future events to force both calendar regimes, and
                // now and then a burst of sources at one instant.
                let at = floor
                    + if rng.chance(0.05) {
                        rng.below(5_000_000_000)
                    } else {
                        rng.below(50_000)
                    };
                let burst = if rng.chance(0.05) {
                    1 + rng.below(8)
                } else {
                    1
                };
                for _ in 0..burst {
                    let key = keys.next(rng.below_usize(64));
                    q.push(SimTime::from_nanos(at), key, key);
                    reference.push(std::cmp::Reverse((at, key)));
                }
            } else {
                let (at, got) = q.pop().expect("non-empty");
                let std::cmp::Reverse((eat, ekey)) = reference.pop().expect("non-empty");
                assert_eq!((at.as_nanos(), got), (eat, ekey));
                floor = at.as_nanos();
            }
        }
        while let Some((at, got)) = q.pop() {
            let std::cmp::Reverse((eat, ekey)) = reference.pop().expect("same length");
            assert_eq!((at.as_nanos(), got), (eat, ekey));
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn a_burst_at_one_instant_costs_no_walks() {
        // The fleet's start burst: every user's first event at t = 0. One
        // bucket holds them all, through every doubling on the way up and
        // every halving on the way down; none of it may scan that bucket.
        const BURST: u64 = 50_000;
        let at = SimTime::from_secs(1);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for seq in 0..BURST {
            q.push(at, seq, seq);
        }
        // Keys below everything queued go in front, as cheaply.
        for seq in (0..BURST).rev() {
            q.push(SimTime::ZERO, seq, BURST + seq);
        }
        assert_eq!(q.walked, 0, "a push walked its bucket");
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u64> = (BURST..2 * BURST).chain(0..BURST).collect();
        assert_eq!(got, expected);
        assert_eq!(q.walked, 0);
    }

    #[test]
    fn a_burst_at_one_instant_with_shuffled_sources_walks_only_for_its_own_order() {
        // The same burst keyed per source, the sources in shuffled order
        // and three rounds of them. No width separates one instant, so a
        // key between the bucket's first and last must step over the
        // smaller ones: exactly `rank - 1` records, as in one sorted
        // list. The doublings on the way up and the halvings on the way
        // down may add no walk of their own.
        use crate::rng::Rng;

        const SOURCES: usize = 3_000;
        let mut rng = Rng::seed_from_u64(0xB0257);
        let mut order: Vec<usize> = (0..SOURCES).collect();
        let mut keys = Keys::new(SOURCES);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut sorted: Vec<u64> = Vec::new();
        let mut expected_walks = 0u64;
        for _ in 0..3 {
            for i in (1..SOURCES).rev() {
                order.swap(i, rng.below_usize(i + 1));
            }
            for &src in &order {
                let key = keys.next(src);
                let rank = sorted.partition_point(|&k| k < key);
                if rank > 0 && rank < sorted.len() {
                    expected_walks += rank as u64 - 1;
                }
                sorted.insert(rank, key);
                q.push(SimTime::from_secs(1), key, key);
            }
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "the burst grew the calendar");
        assert_eq!(q.walked, expected_walks);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, sorted);
        assert_eq!(q.walked, expected_walks, "draining walked");
    }

    /// One step of a steady population: pop the earliest event, push one
    /// at `now + delay` keyed by a random source. Returns the popped time.
    fn pop_and_push(
        q: &mut CalendarQueue<u64>,
        keys: &mut Keys,
        rng: &mut crate::rng::Rng,
        delay: u64,
    ) -> u64 {
        let (at, _) = q.pop().expect("a steady population");
        let key = keys.next(rng.below_usize(keys.0.len()));
        q.push(SimTime::from_nanos(at.as_nanos() + delay), key, key);
        at.as_nanos()
    }

    #[test]
    fn a_steady_population_with_far_expiries_does_not_walk() {
        // The packet path's shape: most events land a few µs to tens of
        // µs ahead (link arrivals), one in twenty 1–2 s ahead (expiry
        // checks). Those far events are nearly all of the population, so
        // a width fitted to the whole population's span puts several
        // events in every day and a near push walks past them (1.9
        // records per push under that rule). Brown's head sample fits
        // the near events (0.002).
        use crate::rng::Rng;

        const POPULATION: u64 = 10_000;
        const STEPS: u64 = 400_000;
        let mut rng = Rng::seed_from_u64(0x57EAD);
        let delay = |rng: &mut Rng| {
            if rng.chance(0.05) {
                1_000_000_000 + rng.below(1_000_000_000)
            } else {
                rng.below(50_000)
            }
        };
        let mut keys = Keys::new(512);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for _ in 0..POPULATION {
            let (at, key) = (delay(&mut rng), keys.next(rng.below_usize(512)));
            q.push(SimTime::from_nanos(at), key, key);
        }
        let (mut last, mut before) = (0, 0);
        for step in 0..STEPS {
            if step == STEPS / 2 {
                // Past the start-up transient: measure from here.
                before = q.walked;
            }
            let d = delay(&mut rng);
            let at = pop_and_push(&mut q, &mut keys, &mut rng, d);
            assert!(at >= last, "popped out of order");
            last = at;
        }
        assert_eq!(q.len(), POPULATION as usize);
        let (pushes, walked) = (STEPS / 2, q.walked - before);
        assert!(
            walked <= pushes,
            "{:.2} walked records per push",
            walked as f64 / pushes as f64
        );
    }

    #[test]
    fn a_spacing_change_under_a_steady_population_re_estimates_the_width() {
        // No resize by count happens while the population holds still,
        // so only the walk trigger can re-fit a day once the events move
        // a thousand times closer together.
        use crate::rng::Rng;

        const POPULATION: u64 = 4_096;
        let mut rng = Rng::seed_from_u64(0xFA5E);
        let mut keys = Keys::new(64);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for _ in 0..POPULATION {
            let (at, key) = (rng.below(1_000_000_000), keys.next(rng.below_usize(64)));
            q.push(SimTime::from_nanos(at), key, key);
        }
        for _ in 0..4 * POPULATION {
            let d = rng.below(1_000_000_000);
            pop_and_push(&mut q, &mut keys, &mut rng, d);
        }
        let (buckets, slow_width) = (q.buckets.len(), q.width);
        // The spacing shrinks a thousandfold; the population stays.
        for _ in 0..4 * POPULATION {
            let d = rng.below(1_000_000);
            pop_and_push(&mut q, &mut keys, &mut rng, d);
        }
        assert_eq!(q.buckets.len(), buckets, "no resize by count");
        assert!(
            q.width * 10 < slow_width,
            "width {} ns, {} ns before the change",
            q.width,
            slow_width
        );
        let before = q.walked;
        for _ in 0..POPULATION {
            let d = rng.below(1_000_000);
            pop_and_push(&mut q, &mut keys, &mut rng, d);
        }
        let walked = q.walked - before;
        assert!(
            walked <= POPULATION,
            "{walked} walks in {POPULATION} pushes"
        );
    }

    #[test]
    fn a_bucket_record_is_three_words() {
        // What ordering reads and a resize re-threads, per event.
        assert!(size_of::<Record>() <= 24, "{} B", size_of::<Record>());
        assert_eq!(size_of::<Bucket>(), 8);
    }

    #[test]
    fn freed_slots_are_reused_before_the_arrays_grow() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(i * 1_000), i, i);
        }
        for round in 0..1_000u64 {
            let (at, e) = q.pop().expect("steady population");
            q.push(
                at + crate::time::SimDuration::from_nanos(100_000),
                100 + round,
                e,
            );
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.records.len(), 100, "a slot per peak event, no more");
        assert_eq!(q.payloads.len(), 100);
    }

    #[test]
    fn resizes_across_growth_and_drain() {
        let mut q: CalendarQueue<usize> = CalendarQueue::new();
        for i in 0..50_000usize {
            q.push(
                SimTime::from_nanos((i as u64 * 37) % 1_000_000),
                i as u64,
                i,
            );
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "queue grew its calendar");
        let mut last = (0u64, 0u64);
        let mut n = 0;
        let mut seen_keys: Vec<(u64, u64)> = Vec::new();
        // Drain interleaved with re-pushes to exercise shrink too.
        while let Some((at, i)) = q.pop() {
            let key = (at.as_nanos(), i as u64);
            assert!(key > last || n == 0, "out of order: {key:?} after {last:?}");
            last = key;
            seen_keys.push(key);
            n += 1;
        }
        assert_eq!(n, 50_000);
        assert!(q.buckets.len() <= MIN_BUCKETS * 2, "queue shrank back");
        assert!(seen_keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sparse_far_future_events_found_by_fallback() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new();
        // Dense cluster now, one event far outside the current year.
        for i in 0..32 {
            q.push(SimTime::from_nanos(i), i, "near");
        }
        q.push(SimTime::from_secs(3600), 99, "far");
        for _ in 0..32 {
            assert_eq!(q.pop().unwrap().1, "near");
        }
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        q.push(SimTime::from_secs(1), 0, 7);
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn earlier_push_after_far_peek_pulls_cursor_back() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new();
        q.push(SimTime::from_secs(3600), 0, "far");
        // Peeking jumps the cursor to the far event's day...
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(3600), 0)));
        // ...but a subsequently scheduled earlier event must still win.
        q.push(SimTime::from_secs(1), 1, "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn clear_resets() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(i), i, 0);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(SimTime::from_secs(9), 0, 1);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
