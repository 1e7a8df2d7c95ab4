//! The Content Store: an LRU cache of Data packets.
//!
//! Pervasive caching is the ICN fundamental TACTIC is built around — any
//! router holding a copy becomes a *content router* for that object and
//! must enforce access control on cache hits (paper §3.A).
//!
//! Eviction is least-recently-used. Entries live in one slot array and
//! are threaded into a recency list by slot index, so insert, touch and
//! evict are `O(1)` and a store at capacity — the steady state of every
//! simulated router — never touches the allocator: an eviction frees the
//! slot the insertion takes.

use std::collections::HashMap;

use tactic_sim::time::SimTime;

use crate::name::Name;
use crate::packet::Data;

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
    /// Name → index into `slots`.
    index: HashMap<Name, usize>,
    /// The cached packets, densely packed (removal moves the last slot
    /// into the hole), each linked to its neighbours in recency order.
    slots: Vec<Slot>,
    /// The least recently used slot ([`NIL`] when empty).
    oldest: usize,
    /// The most recently used slot ([`NIL`] when empty).
    newest: usize,
    hits: u64,
    misses: u64,
}

/// "No slot": the end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot {
    data: Data,
    inserted: SimTime,
    /// The next less recently used slot.
    older: usize,
    /// The next more recently used slot.
    newer: usize,
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets. A capacity of 0
    /// disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        ContentStore {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Takes slot `i` out of the recency list (its own links go stale).
    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Appends slot `i` to the recency list as the most recently used.
    fn link_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Removes slot `i` (already out of the index) from the list and the
    /// array, moving the last slot into the hole.
    fn release(&mut self, i: usize) -> Slot {
        self.unlink(i);
        let slot = self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            // The former last slot now answers to `i`: repoint whatever
            // named it by its old index.
            let (older, newer) = (moved.older, moved.newer);
            *self
                .index
                .get_mut(moved.data.name())
                .expect("every slot is indexed") = i;
            match older {
                NIL => self.oldest = i,
                o => self.slots[o].newer = i,
            }
            match newer {
                NIL => self.newest = i,
                n => self.slots[n].older = i,
            }
        }
        slot
    }

    /// Inserts (or refreshes) a Data packet, evicting the LRU entry if at
    /// capacity. Equivalent to [`insert_at`](Self::insert_at) at time zero
    /// (callers that don't use freshness semantics).
    pub fn insert(&mut self, data: Data) {
        self.insert_at(data, SimTime::ZERO);
    }

    /// Inserts a Data packet, recording `now` as its arrival time for
    /// freshness accounting.
    pub fn insert_at(&mut self, data: Data, now: SimTime) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(data.name()) {
            self.unlink(i);
            self.slots[i].data = data;
            self.slots[i].inserted = now;
            self.link_newest(i);
            return;
        }
        if self.slots.len() == self.capacity {
            let victim = self.oldest;
            self.index.remove(self.slots[victim].data.name());
            self.release(victim);
        }
        let i = self.slots.len();
        self.index.insert(data.name().clone(), i);
        self.slots.push(Slot {
            data,
            inserted: now,
            older: NIL,
            newer: NIL,
        });
        self.link_newest(i);
    }

    /// Exact-name lookup; touches the entry on hit and updates hit/miss
    /// counters.
    pub fn get(&mut self, name: &Name) -> Option<&Data> {
        let Some(&i) = self.index.get(name) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(i);
        self.link_newest(i);
        Some(&self.slots[i].data)
    }

    /// Like [`get`](Self::get), but honours NDN's `MustBeFresh`: an entry
    /// whose [`Data::freshness_ms`] is nonzero only matches within that
    /// period of its insertion (`freshness_ms == 0` means always fresh, as
    /// documented on [`Data`]). Stale entries count as misses and are
    /// evicted.
    pub fn get_fresh(&mut self, name: &Name, now: SimTime) -> Option<&Data> {
        let stale = match self.index.get(name) {
            None => {
                self.misses += 1;
                return None;
            }
            Some(&i) => {
                let slot = &self.slots[i];
                let f = slot.data.freshness_ms();
                f != 0
                    && now.saturating_since(slot.inserted)
                        > tactic_sim::time::SimDuration::from_millis(f as u64)
            }
        };
        if stale {
            self.remove(name);
            self.misses += 1;
            return None;
        }
        self.get(name)
    }

    /// Exact-name peek without touching LRU order or counters.
    pub fn peek(&self, name: &Name) -> Option<&Data> {
        self.index.get(name).map(|&i| &self.slots[i].data)
    }

    /// Removes an entry; returns whether it existed.
    pub fn remove(&mut self, name: &Name) -> bool {
        match self.index.remove(name) {
            Some(i) => {
                self.release(i);
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
