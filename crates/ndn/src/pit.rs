//! The Pending Interest Table.
//!
//! The PIT aggregates in-flight Interests for the same name and routes
//! returning Data along the reverse paths. TACTIC extends each in-record
//! with a `note` — the `<tag, F>` pair of Protocol 4 — which the
//! aggregating router replays when the content arrives, validating each
//! aggregated tag individually. The paper observes this "adds an overhead
//! to the PIT entry but it is of the order of a couple hundred bytes".
//!
//! The note type is a table-wide generic parameter `N` (default
//! `Vec<u8>`, the opaque-bytes form vanilla callers use). TACTIC
//! instantiates it with its own typed note holding a shared
//! `Arc<SignedTag>` handle, so an aggregated tag is *referenced* by the
//! in-record — never re-serialized or re-parsed on replay.
//!
//! Entries live in a [`NameTable`]: each holds its name once, and a probe
//! is on the name's precomputed hash.

use std::collections::VecDeque;

use tactic_sim::time::SimTime;

use crate::face::FaceId;
use crate::name::Name;
use crate::records::Records;
use crate::table::{Keyed, NameTable};

/// One downstream requester recorded in a PIT entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InRecord<N = Vec<u8>> {
    /// The face the Interest arrived on.
    pub face: FaceId,
    /// The Interest's nonce (loop detection).
    pub nonce: u64,
    /// When this record expires.
    pub expiry: SimTime,
    /// Application annotation (TACTIC: the `<tag, F>` pair).
    pub note: N,
}

/// A pending-Interest entry: one name, many downstream records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PitEntry<N = Vec<u8>> {
    name: Name,
    records: Records<InRecord<N>>,
    /// Monotone insertion sequence, for oldest-first bounded eviction.
    seq: u64,
}

impl<N> Keyed for PitEntry<N> {
    fn name(&self) -> &Name {
        &self.name
    }
}

impl<N> PitEntry<N> {
    /// The pending name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The downstream records, oldest first.
    pub fn records(&self) -> &[InRecord<N>] {
        &self.records
    }

    /// Consumes the entry into its records.
    pub fn into_records(self) -> Records<InRecord<N>> {
        self.records
    }
}

/// Outcome of recording an incoming Interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PitInsert {
    /// First request for this name: the caller should forward upstream.
    New,
    /// Joined an existing entry: the caller must *not* forward.
    Aggregated,
    /// Same nonce seen before for this name: a loop; drop the Interest.
    DuplicateNonce,
}

/// The PIT.
///
/// # Examples
///
/// ```
/// use tactic_ndn::face::FaceId;
/// use tactic_ndn::pit::{Pit, PitInsert};
/// use tactic_sim::time::SimTime;
///
/// let mut pit: Pit = Pit::new();
/// let name = "/prov/obj/0".parse()?;
/// let t = SimTime::from_secs(4);
/// assert_eq!(pit.on_interest(&name, FaceId::new(1), 11, t, vec![]), PitInsert::New);
/// assert_eq!(pit.on_interest(&name, FaceId::new(2), 22, t, vec![]), PitInsert::Aggregated);
///
/// let entry = pit.take(&name).expect("pending");
/// assert_eq!(entry.records().len(), 2);
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pit<N = Vec<u8>> {
    entries: NameTable<PitEntry<N>>,
    /// Maximum pending names (`None` = unbounded, the historical
    /// behaviour; see [`Pit::set_capacity`]).
    capacity: Option<usize>,
    /// Next insertion sequence number.
    seq: u64,
    /// Insertion order of live entries, oldest first, as `(seq, name
    /// hash)` — the sequence number names the entry, the hash finds it —
    /// with lazy deletion: an item no live entry answers to is stale and
    /// skipped. Only maintained when a capacity is set, so the unbounded
    /// path allocates nothing extra.
    order: VecDeque<(u64, u64)>,
}

impl<N> Default for Pit<N> {
    fn default() -> Self {
        Pit {
            entries: NameTable::new(),
            capacity: None,
            seq: 0,
            order: VecDeque::new(),
        }
    }
}

impl<N> Pit<N> {
    /// Creates an empty PIT.
    pub fn new() -> Self {
        Pit::default()
    }

    /// Records an incoming Interest.
    ///
    /// Returns whether the Interest opened a new entry (forward it), was
    /// aggregated (drop it), or is a duplicate nonce (loop; drop it).
    pub fn on_interest(
        &mut self,
        name: &Name,
        face: FaceId,
        nonce: u64,
        expiry: SimTime,
        note: N,
    ) -> PitInsert {
        match self.entries.find(name) {
            None => {
                let seq = self.seq;
                self.seq += 1;
                if self.capacity.is_some() {
                    self.order.push_back((seq, name.hash64()));
                }
                self.entries.push(PitEntry {
                    name: name.clone(),
                    records: Records::one(InRecord {
                        face,
                        nonce,
                        expiry,
                        note,
                    }),
                    seq,
                });
                PitInsert::New
            }
            Some(at) => {
                let entry = &mut self.entries[at];
                if entry.records.iter().any(|r| r.nonce == nonce) {
                    return PitInsert::DuplicateNonce;
                }
                entry.records.push(InRecord {
                    face,
                    nonce,
                    expiry,
                    note,
                });
                PitInsert::Aggregated
            }
        }
    }

    /// Bounds the table at `capacity` pending names (`None` restores the
    /// unbounded historical behaviour). Callers must then invoke
    /// [`Pit::evict_over_capacity`] after inserts to enforce the bound —
    /// split so every caller can count the evicted records it gets back.
    ///
    /// # Panics
    ///
    /// Panics if the PIT is not empty: pre-existing entries have no place
    /// in the eviction order. Set the capacity at build time.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        assert!(
            self.entries.is_empty(),
            "set_capacity must be called on an empty PIT"
        );
        self.capacity = capacity;
    }

    /// The configured bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Evicts the oldest entries until the table fits its capacity;
    /// returns them oldest first (empty when unbounded or within bounds).
    /// Deterministic: eviction order is insertion order of the pending
    /// names, never hash order.
    pub fn evict_over_capacity(&mut self) -> Vec<PitEntry<N>> {
        let Some(cap) = self.capacity else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.entries.len() > cap {
            let Some((seq, hash)) = self.order.pop_front() else {
                break;
            };
            if let Some(at) = self.entries.find_by(hash, |e| e.seq == seq) {
                evicted.push(self.entries.swap_remove(at));
            }
        }
        // Lazy deletion keeps take/purge O(1), but a queue full of stale
        // items would defeat the memory bound — compact when stale items
        // dominate.
        if self.order.len() > self.entries.len().saturating_mul(2) + 64 {
            let entries = &self.entries;
            self.order
                .retain(|&(seq, hash)| entries.find_by(hash, |e| e.seq == seq).is_some());
        }
        evicted
    }

    /// Looks at the pending entry for `name` without consuming it.
    pub fn get(&self, name: &Name) -> Option<&PitEntry<N>> {
        self.entries.find(name).map(|at| &self.entries[at])
    }

    /// Consumes and returns the entry for `name` (Data arrival).
    pub fn take(&mut self, name: &Name) -> Option<PitEntry<N>> {
        let at = self.entries.find(name)?;
        Some(self.entries.swap_remove(at))
    }

    /// Drops expired records and empty entries; returns how many records
    /// were purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut purged = 0;
        self.entries.retain(|entry| {
            let before = entry.records.len();
            entry.records.retain(|r| r.expiry > now);
            purged += before - entry.records.len();
            !entry.records.is_empty()
        });
        purged
    }

    /// Number of pending names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total downstream records across all entries.
    pub fn total_records(&self) -> usize {
        self.entries.iter().map(|e| e.records.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn first_interest_is_new_then_aggregates() {
        let mut pit: Pit = Pit::new();
        let n = name("/a/b");
        assert_eq!(
            pit.on_interest(&n, FaceId::new(1), 1, t(5), vec![1]),
            PitInsert::New
        );
        assert_eq!(
            pit.on_interest(&n, FaceId::new(2), 2, t(5), vec![2]),
            PitInsert::Aggregated
        );
        assert_eq!(
            pit.on_interest(&n, FaceId::new(3), 3, t(5), vec![3]),
            PitInsert::Aggregated
        );
        let entry = pit.take(&n).unwrap();
        assert_eq!(entry.records().len(), 3);
        assert_eq!(entry.records()[1].note, vec![2]);
        assert!(pit.is_empty());
    }

    #[test]
    fn duplicate_nonce_detected() {
        let mut pit: Pit = Pit::new();
        let n = name("/a");
        pit.on_interest(&n, FaceId::new(1), 42, t(5), vec![]);
        assert_eq!(
            pit.on_interest(&n, FaceId::new(2), 42, t(5), vec![]),
            PitInsert::DuplicateNonce
        );
        assert_eq!(pit.get(&n).unwrap().records().len(), 1);
    }

    #[test]
    fn take_consumes() {
        let mut pit: Pit = Pit::new();
        let n = name("/a");
        pit.on_interest(&n, FaceId::new(1), 1, t(5), vec![]);
        assert!(pit.take(&n).is_some());
        assert!(pit.take(&n).is_none());
    }

    #[test]
    fn purge_expired_removes_stale_records() {
        let mut pit: Pit = Pit::new();
        let n = name("/a");
        pit.on_interest(&n, FaceId::new(1), 1, t(1), vec![]);
        pit.on_interest(&n, FaceId::new(2), 2, t(10), vec![]);
        let m = name("/b");
        pit.on_interest(&m, FaceId::new(3), 3, t(1), vec![]);
        assert_eq!(pit.purge_expired(t(5)), 2);
        assert_eq!(pit.len(), 1);
        assert_eq!(pit.total_records(), 1);
        assert!(pit.get(&m).is_none());
    }

    #[test]
    fn bounded_pit_evicts_oldest_first() {
        let mut pit: Pit = Pit::new();
        pit.set_capacity(Some(2));
        pit.on_interest(&name("/a"), FaceId::new(1), 1, t(5), vec![]);
        pit.on_interest(&name("/b"), FaceId::new(1), 2, t(5), vec![]);
        assert!(pit.evict_over_capacity().is_empty(), "within bounds");
        pit.on_interest(&name("/c"), FaceId::new(1), 3, t(5), vec![]);
        let evicted = pit.evict_over_capacity();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].name(), &name("/a"), "oldest entry goes first");
        assert_eq!(pit.len(), 2);
        assert!(pit.get(&name("/b")).is_some());
        assert!(pit.get(&name("/c")).is_some());
    }

    #[test]
    fn bounded_pit_skips_stale_queue_items() {
        let mut pit: Pit = Pit::new();
        pit.set_capacity(Some(1));
        // `/a` is inserted, satisfied (taken), then re-requested: the
        // first queue item for `/a` is stale and must not evict the
        // re-inserted entry.
        pit.on_interest(&name("/a"), FaceId::new(1), 1, t(5), vec![]);
        assert!(pit.take(&name("/a")).is_some());
        pit.on_interest(&name("/a"), FaceId::new(1), 2, t(5), vec![]);
        pit.on_interest(&name("/b"), FaceId::new(1), 3, t(5), vec![]);
        let evicted = pit.evict_over_capacity();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].name(), &name("/a"), "the re-insert, not `/b`");
        assert_eq!(pit.get(&name("/b")).unwrap().records().len(), 1);
    }

    #[test]
    fn bounded_pit_holds_len_under_sustained_flood() {
        let mut pit: Pit = Pit::new();
        pit.set_capacity(Some(8));
        let mut evicted_records = 0;
        for i in 0..1_000u64 {
            let n = name(&format!("/flood/{i}"));
            pit.on_interest(&n, FaceId::new(0), i, t(5), vec![]);
            evicted_records += pit
                .evict_over_capacity()
                .iter()
                .map(|e| e.records().len())
                .sum::<usize>();
            assert!(pit.len() <= 8, "cap breached at interest {i}");
        }
        assert_eq!(pit.len(), 8);
        assert_eq!(evicted_records, 1_000 - 8);
        // The order queue compacts: it cannot retain anywhere near one
        // item per historical insert.
        assert!(
            pit.order.len() <= 2 * pit.len() + 64,
            "order queue grew unboundedly: {}",
            pit.order.len()
        );
    }

    #[test]
    #[should_panic(expected = "set_capacity must be called on an empty PIT")]
    fn set_capacity_rejects_populated_pit() {
        let mut pit: Pit = Pit::new();
        pit.on_interest(&name("/a"), FaceId::new(1), 1, t(5), vec![]);
        pit.set_capacity(Some(4));
    }

    #[test]
    fn unbounded_pit_never_evicts() {
        let mut pit: Pit = Pit::new();
        assert_eq!(pit.capacity(), None);
        for i in 0..100u64 {
            pit.on_interest(&name(&format!("/n/{i}")), FaceId::new(0), i, t(5), vec![]);
        }
        assert!(pit.evict_over_capacity().is_empty());
        assert_eq!(pit.len(), 100);
        assert!(pit.order.is_empty(), "unbounded path must not track order");
    }

    #[test]
    fn distinct_names_do_not_aggregate() {
        let mut pit: Pit = Pit::new();
        assert_eq!(
            pit.on_interest(&name("/a"), FaceId::new(1), 1, t(5), vec![]),
            PitInsert::New
        );
        assert_eq!(
            pit.on_interest(&name("/b"), FaceId::new(1), 2, t(5), vec![]),
            PitInsert::New
        );
        assert_eq!(pit.len(), 2);
    }
}
