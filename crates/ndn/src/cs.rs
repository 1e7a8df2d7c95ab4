//! The Content Store: an LRU cache of Data packets.
//!
//! Pervasive caching is the ICN fundamental TACTIC is built around — any
//! router holding a copy becomes a *content router* for that object and
//! must enforce access control on cache hits (paper §3.A).
//!
//! A store keeps what a provider published — a Data's shared content — and
//! not the annotations of the delivery that brought it (see
//! [`crate::packet`]): a hit hands out a fresh copy of the content, which
//! costs a refcount bump. Each entry is a 32-byte slot — the content
//! handle, the name's hash, the arrival time and two `u32` links —
//! in a [`NameTable`], so the name lives once, in the content, and every
//! probe is on its precomputed hash. The slots are threaded into a recency
//! list by position, so insert, touch and evict are `O(1)` and a store at
//! capacity — the steady state of every simulated router — never touches
//! the allocator: the insertion takes the least recently used slot in
//! place ([`NameTable::replace`]) — the evicted name leaves the index, the
//! new one is filed at the same position, and no other slot moves, so no
//! neighbour's link needs repointing.

use std::sync::Arc;

use tactic_sim::time::{SimDuration, SimTime};

use crate::name::Name;
use crate::packet::{Content, Data};
use crate::table::{Keyed, NameTable};

/// An LRU Data cache.
///
/// # Examples
///
/// ```
/// use tactic_ndn::cs::ContentStore;
/// use tactic_ndn::packet::{Data, Payload};
///
/// let mut cs = ContentStore::new(2);
/// cs.insert(Data::new("/a".parse()?, Payload::Synthetic(10)));
/// cs.insert(Data::new("/b".parse()?, Payload::Synthetic(10)));
/// cs.get(&"/a".parse()?); // touch /a so /b becomes LRU
/// cs.insert(Data::new("/c".parse()?, Payload::Synthetic(10)));
/// assert!(cs.get(&"/a".parse()?).is_some());
/// assert!(cs.get(&"/b".parse()?).is_none()); // evicted
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContentStore {
    capacity: usize,
    /// The cached packets, densely packed (removal moves the last slot
    /// into the hole; eviction at capacity overwrites the LRU slot in
    /// place), each linked to its neighbours in recency order.
    slots: NameTable<Slot>,
    /// The least recently used slot ([`NIL`] when empty).
    oldest: u32,
    /// The most recently used slot ([`NIL`] when empty).
    newest: u32,
    hits: u64,
    misses: u64,
}

/// "No slot": the end of the recency list.
const NIL: u32 = u32::MAX;

/// One cached packet.
#[derive(Debug, Clone)]
struct Slot {
    content: Arc<Content>,
    /// `content.name`'s hash, beside it: a probe never dereferences the
    /// content of a slot it does not want.
    hash: u64,
    inserted: SimTime,
    /// The next less recently used slot.
    older: u32,
    /// The next more recently used slot.
    newer: u32,
}

impl Keyed for Slot {
    fn name(&self) -> &Name {
        &self.content.name
    }

    fn key_hash(&self) -> u64 {
        self.hash
    }
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets. A capacity of 0
    /// disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        ContentStore {
            capacity,
            slots: NameTable::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Takes slot `i` out of the recency list (its own links go stale).
    fn unlink(&mut self, i: u32) {
        let Slot { older, newer, .. } = self.slots[i as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    /// Appends slot `i` to the recency list as the most recently used.
    fn link_newest(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.older = self.newest;
        slot.newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Removes slot `i` from the list and the table, which moves the last
    /// slot into the hole: what [`remove`](Self::remove) and a stale
    /// [`get_fresh`](Self::get_fresh) hit do.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        self.slots.swap_remove(i as usize);
        if (i as usize) < self.slots.len() {
            // The former last slot now answers to `i`: repoint its
            // neighbours, which named it by its old position.
            let Slot { older, newer, .. } = self.slots[i as usize];
            match older {
                NIL => self.oldest = i,
                o => self.slots[o as usize].newer = i,
            }
            match newer {
                NIL => self.newest = i,
                n => self.slots[n as usize].older = i,
            }
        }
    }

    /// Inserts (or refreshes) a Data packet, evicting the LRU entry if at
    /// capacity. Equivalent to [`insert_at`](Self::insert_at) at time zero
    /// (callers that don't use freshness semantics).
    pub fn insert(&mut self, data: Data) {
        self.insert_at(data, SimTime::ZERO);
    }

    /// Inserts a Data packet's content, recording `now` as its arrival
    /// time for freshness accounting; the packet's annotations are not
    /// kept.
    pub fn insert_at(&mut self, data: Data, now: SimTime) {
        if self.capacity == 0 {
            return;
        }
        let content = data.into_content();
        if let Some(i) = self.slots.find(&content.name) {
            let i = i as u32;
            self.unlink(i);
            let slot = &mut self.slots[i as usize];
            slot.content = content;
            slot.inserted = now;
            self.link_newest(i);
            return;
        }
        let slot = Slot {
            hash: content.name.hash64(),
            content,
            inserted: now,
            older: NIL,
            newer: NIL,
        };
        let i = if self.slots.len() == self.capacity {
            // The newcomer takes the LRU slot's place: nothing else moves.
            let oldest = self.oldest;
            self.unlink(oldest);
            self.slots.replace(oldest as usize, slot);
            oldest
        } else {
            self.slots.push(slot) as u32
        };
        self.link_newest(i);
    }

    /// Exact-name lookup; touches the entry on hit and updates hit/miss
    /// counters. A hit is a copy of the cached content.
    pub fn get(&mut self, name: &Name) -> Option<Data> {
        let Some(i) = self.slots.find(name) else {
            self.misses += 1;
            return None;
        };
        Some(self.hit(i as u32))
    }

    /// Counts a hit on slot `i`, makes it the most recently used and
    /// copies its content out.
    fn hit(&mut self, i: u32) -> Data {
        self.hits += 1;
        self.unlink(i);
        self.link_newest(i);
        Data::from_content(self.slots[i as usize].content.clone())
    }

    /// Like [`get`](Self::get), but honours NDN's `MustBeFresh`: an entry
    /// whose [`Data::freshness_ms`] is nonzero only matches within that
    /// period of its insertion (`freshness_ms == 0` means always fresh, as
    /// documented on [`Data`]). Stale entries count as misses and are
    /// evicted.
    pub fn get_fresh(&mut self, name: &Name, now: SimTime) -> Option<Data> {
        let Some(i) = self.slots.find(name) else {
            self.misses += 1;
            return None;
        };
        let slot = &self.slots[i];
        let f = slot.content.freshness_ms;
        if f != 0 && now.saturating_since(slot.inserted) > SimDuration::from_millis(f as u64) {
            self.release(i as u32);
            self.misses += 1;
            return None;
        }
        Some(self.hit(i as u32))
    }

    /// Exact-name peek without touching LRU order or counters.
    pub fn peek(&self, name: &Name) -> Option<Data> {
        let i = self.slots.find(name)?;
        Some(Data::from_content(self.slots[i].content.clone()))
    }

    /// Removes an entry; returns whether it existed.
    pub fn remove(&mut self, name: &Name) -> bool {
        match self.slots.find(name) {
            Some(i) => {
                self.release(i as u32);
                true
            }
            None => false,
        }
    }

    /// Current number of cached packets.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits observed by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all lookups (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn data(s: &str) -> Data {
        Data::new(s.parse().unwrap(), Payload::Synthetic(100))
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_get() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/a"));
        assert!(cs.get(&name("/a")).is_some());
        assert!(cs.get(&name("/b")).is_none());
        assert_eq!(cs.hits(), 1);
        assert_eq!(cs.misses(), 1);
        assert_eq!(cs.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cs = ContentStore::new(3);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.insert(data("/c"));
        cs.get(&name("/a")); // /b is now LRU
        cs.insert(data("/d"));
        assert!(cs.peek(&name("/a")).is_some());
        assert!(cs.peek(&name("/b")).is_none());
        assert!(cs.peek(&name("/c")).is_some());
        assert!(cs.peek(&name("/d")).is_some());
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_entry() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.insert(data("/a")); // refresh /a; /b becomes LRU
        cs.insert(data("/c"));
        assert!(cs.peek(&name("/a")).is_some());
        assert!(cs.peek(&name("/b")).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cs = ContentStore::new(0);
        cs.insert(data("/a"));
        assert!(cs.is_empty());
        assert!(cs.get(&name("/a")).is_none());
    }

    #[test]
    fn peek_does_not_touch() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.peek(&name("/a")); // must NOT protect /a
        cs.insert(data("/c"));
        assert!(cs.peek(&name("/a")).is_none());
        assert_eq!(cs.hits(), 0);
    }

    #[test]
    fn remove_works() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        assert!(cs.remove(&name("/a")));
        assert!(!cs.remove(&name("/a")));
        assert!(cs.is_empty());
    }

    #[test]
    fn freshness_is_honoured_by_get_fresh() {
        let mut cs = ContentStore::new(4);
        let mut d = data("/fresh");
        d.set_freshness_ms(1_000);
        cs.insert_at(d, SimTime::from_secs(10));
        // Within the freshness period: a hit.
        assert!(cs
            .get_fresh(&name("/fresh"), SimTime::from_secs_f64(10.5))
            .is_some());
        // Past it: a miss, and the stale entry is evicted.
        assert!(cs
            .get_fresh(&name("/fresh"), SimTime::from_secs(12))
            .is_none());
        assert!(cs.peek(&name("/fresh")).is_none(), "stale entry evicted");
    }

    #[test]
    fn zero_freshness_means_always_fresh() {
        let mut cs = ContentStore::new(4);
        cs.insert_at(data("/eternal"), SimTime::ZERO);
        assert!(cs
            .get_fresh(&name("/eternal"), SimTime::from_secs(1_000_000))
            .is_some());
    }

    #[test]
    fn plain_get_ignores_freshness() {
        let mut cs = ContentStore::new(4);
        let mut d = data("/stale-ok");
        d.set_freshness_ms(1);
        cs.insert_at(d, SimTime::ZERO);
        assert!(
            cs.get(&name("/stale-ok")).is_some(),
            "get is freshness-agnostic"
        );
    }

    #[test]
    fn slots_are_32_bytes() {
        // Content handle, name hash, arrival time, two links: a fleet's
        // routers hold thousands of these.
        assert_eq!(size_of::<Slot>(), 32);
    }

    #[test]
    fn a_hit_is_the_content_without_the_annotations_it_arrived_with() {
        let mut cs = ContentStore::new(4);
        let mut d = data("/annotated");
        d.set_signature(tactic_crypto::schnorr::KeyPair::derive(b"p", 0).sign(b"x"));
        d.set_extension(0x8002, vec![1, 2, 3]);
        cs.insert(d.clone());
        let hit = cs.get(&name("/annotated")).unwrap();
        assert!(hit.shares_content_with(&d), "the published content, shared");
        assert_eq!(hit.extension(0x8002), None);
        d.remove_extension(0x8002);
        assert_eq!(hit, d);
    }

    #[test]
    fn stress_capacity_respected() {
        let mut cs = ContentStore::new(50);
        for i in 0..1_000 {
            cs.insert(data(&format!("/obj/{i}")));
            assert!(cs.len() <= 50);
        }
        // The newest 50 must all be present.
        for i in 950..1_000 {
            assert!(
                cs.peek(&name(&format!("/obj/{i}"))).is_some(),
                "missing /obj/{i}"
            );
        }
    }
}
