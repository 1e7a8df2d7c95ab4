//! Name-keyed tables that hold each name once and probe on its own hash.
//!
//! The content store, the PIT, the FIB, an access point's relay and a
//! router's provider keys each map a [`Name`] to an entry that already
//! holds the name. A std `HashMap` keyed by the name keeps a second handle
//! to it as the key — 32 bytes per bucket — and runs the name's
//! precomputed 64-bit hash through SipHash on every probe. A [`NameTable`]
//! keeps its entries in one dense array, each holding its name once, and
//! finds them by [`Name::hash64`]:
//!
//! * up to [`NameTable::SCAN`] entries there is no index at all: a probe
//!   compares the entries' hashes in turn. Most tables of a fleet — a
//!   user's access point, a lightly loaded router's PIT — never grow past
//!   it and never allocate one.
//! * Past that an open-addressed index of 8-byte buckets — the low 32 bits
//!   of the hash and the entry's `u32` position — is probed linearly from
//!   the hash, at most three quarters full. A removal shifts the run behind
//!   it back instead of leaving a tombstone, so a table that churns probes
//!   as short as a fresh one.
//!
//! Removal moves the last entry into the hole, so positions are dense but
//! change on removal; an owner that links entries by position (the content
//! store's recency list) repoints the moved one. [`NameTable::replace`]
//! puts a new entry in an old one's place and moves nothing, which is how
//! the content store evicts at capacity. An entry's name must not
//! change while it is in the table. Iteration order is insertion order
//! disturbed by removals: a function of the operations, never of a hasher's
//! seed. The name hash is unkeyed (`tactic_crypto::hash`), so a table
//! trusts its names not to be chosen to collide — true of every name a
//! simulation makes.
//!
//! Nothing probes through a name it builds for the purpose: the FIB's
//! longest-prefix match takes every prefix's hash from one pass over the
//! name ([`Name::prefix_hashes`]), and Protocol 1's prefix match compares
//! components ([`Name::same_prefix`]). `tests/proptests.rs` holds this
//! table against a set model under forced hash collisions, the content
//! store against an LRU list, the longest-prefix match against the
//! longest registered prefix and a bounded PIT's evictions against
//! insertion order; CI's "Name tables hold a name once" step greps that
//! no std hash table keyed by `Name` returns to `crates/*/src` and that
//! the FIB builds no prefix.

use std::ops::{Index, IndexMut};

use crate::name::Name;

/// An entry of a [`NameTable`]: something that holds its own key.
pub trait Keyed {
    /// The name this entry is filed under.
    fn name(&self) -> &Name;

    /// `self.name().hash64()`; an entry that keeps the hash beside it
    /// answers without dereferencing its name.
    fn key_hash(&self) -> u64 {
        self.name().hash64()
    }
}

/// A map entry: the name and its value.
impl<V> Keyed for (Name, V) {
    fn name(&self) -> &Name {
        &self.0
    }
}

/// One index bucket: which entry, and enough of its hash to skip the
/// entries it is not.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The low 32 bits of the entry's name hash.
    tag: u32,
    /// The entry's position; [`VACANT`] marks an empty bucket.
    at: u32,
}

const VACANT: u32 = u32::MAX;

const EMPTY: Bucket = Bucket { tag: 0, at: VACANT };

/// Entries keyed by the name each holds (see the module docs).
///
/// # Examples
///
/// ```
/// use tactic_ndn::table::NameTable;
///
/// let mut routes: NameTable<(tactic_ndn::Name, u32)> = NameTable::new();
/// routes.insert("/prov".parse()?, 1);
/// *routes.get_or_insert_with("/prov".parse()?, || 0) += 1;
/// assert_eq!(routes.get(&"/prov".parse()?), Some(&2));
/// assert_eq!(routes.remove(&"/prov".parse()?), Some(2));
/// assert!(routes.is_empty());
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NameTable<T> {
    entries: Vec<T>,
    /// Empty while the table scans; otherwise a power of two.
    buckets: Vec<Bucket>,
}

impl<T> Default for NameTable<T> {
    fn default() -> Self {
        NameTable {
            entries: Vec::new(),
            buckets: Vec::new(),
        }
    }
}

impl<T> Index<usize> for NameTable<T> {
    type Output = T;

    fn index(&self, at: usize) -> &T {
        &self.entries[at]
    }
}

impl<T> IndexMut<usize> for NameTable<T> {
    fn index_mut(&mut self, at: usize) -> &mut T {
        &mut self.entries[at]
    }
}

/// The bucket a hash's probe starts at.
fn home(tag: u32, mask: usize) -> usize {
    tag as usize & mask
}

/// Files position `at` under `hash` in the first free bucket of its run.
fn place(buckets: &mut [Bucket], hash: u64, at: usize) {
    let mask = buckets.len() - 1;
    let tag = hash as u32;
    let mut i = home(tag, mask);
    while buckets[i].at != VACANT {
        i = (i + 1) & mask;
    }
    buckets[i] = Bucket { tag, at: at as u32 };
}

/// The bucket holding position `at`, which is filed under `hash`.
fn bucket_of(buckets: &[Bucket], hash: u64, at: usize) -> usize {
    let mask = buckets.len() - 1;
    let mut i = home(hash as u32, mask);
    while buckets[i].at != at as u32 {
        debug_assert_ne!(buckets[i].at, VACANT, "every entry is indexed");
        i = (i + 1) & mask;
    }
    i
}

impl<T: Keyed> NameTable<T> {
    /// The most entries a table finds by scanning, without an index.
    pub const SCAN: usize = 8;

    /// An empty table; allocates nothing.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in position order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.entries.iter()
    }

    /// The position of the entry named `name`.
    pub fn find(&self, name: &Name) -> Option<usize> {
        self.find_by(name.hash64(), |e| e.name() == name)
    }

    /// The position of the entry `name.prefix(len)` names, probing on
    /// `hash` — that prefix's hash, which
    /// [`Name::prefix_hashes`] yields for every `len` in one pass — so a
    /// longest-prefix match builds and hashes no prefix.
    pub fn find_prefix(&self, name: &Name, len: usize, hash: u64) -> Option<usize> {
        self.find_by(hash, |e| {
            e.name().len() == len && e.name().is_prefix_of(name)
        })
    }

    /// The position of an entry whose name hashes to `hash` and which `is`
    /// accepts; `is` must single out one entry (the name, or an id unique
    /// in the table).
    pub fn find_by(&self, hash: u64, mut is: impl FnMut(&T) -> bool) -> Option<usize> {
        let mut wanted = |e: &T| e.key_hash() == hash && is(e);
        if self.buckets.is_empty() {
            return self.entries.iter().position(wanted);
        }
        let mask = self.buckets.len() - 1;
        let tag = hash as u32;
        let mut i = home(tag, mask);
        loop {
            let Bucket { tag: t, at } = self.buckets[i];
            if at == VACANT {
                return None;
            }
            if t == tag && wanted(&self.entries[at as usize]) {
                return Some(at as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends an entry whose name the table does not hold yet; returns
    /// its position.
    pub fn push(&mut self, entry: T) -> usize {
        let at = self.entries.len();
        assert!(at < VACANT as usize, "a name table holds under 2³² entries");
        let hash = entry.key_hash();
        self.entries.push(entry);
        let len = at + 1;
        if self.buckets.is_empty() {
            if len > Self::SCAN {
                self.reindex((2 * len).next_power_of_two());
            }
        } else if 4 * len > 3 * self.buckets.len() {
            self.reindex(2 * self.buckets.len());
        } else {
            place(&mut self.buckets, hash, at);
        }
        at
    }

    /// Puts `entry` — its name held by no other entry — in the place of
    /// the entry at `at` and returns that one: the old name is unfiled,
    /// the new one filed at `at`, and no other entry moves.
    pub fn replace(&mut self, at: usize, entry: T) -> T {
        if !self.buckets.is_empty() {
            self.unfile(self.entries[at].key_hash(), at);
            place(&mut self.buckets, entry.key_hash(), at);
        }
        std::mem::replace(&mut self.entries[at], entry)
    }

    /// Removes the entry at `at`, moving the last entry into its place.
    pub fn swap_remove(&mut self, at: usize) -> T {
        let last = self.entries.len() - 1;
        if !self.buckets.is_empty() {
            self.unfile(self.entries[at].key_hash(), at);
            if at != last {
                let moved = bucket_of(&self.buckets, self.entries[last].key_hash(), last);
                self.buckets[moved].at = at as u32;
            }
        }
        self.entries.swap_remove(at)
    }

    /// Keeps the entries `keep` accepts (it may change anything but their
    /// names), in their order.
    pub fn retain(&mut self, keep: impl FnMut(&mut T) -> bool) {
        let before = self.entries.len();
        self.entries.retain_mut(keep);
        if self.entries.len() != before && !self.buckets.is_empty() {
            self.reindex(self.buckets.len());
        }
    }

    /// Removes every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.buckets.clear();
    }

    /// Rebuilds the index over `buckets` buckets.
    fn reindex(&mut self, buckets: usize) {
        self.buckets.clear();
        self.buckets.resize(buckets, EMPTY);
        for (at, e) in self.entries.iter().enumerate() {
            place(&mut self.buckets, e.key_hash(), at);
        }
    }

    /// Empties the bucket of position `at` and shifts the rest of its run
    /// back over it, each bucket no further than its home.
    fn unfile(&mut self, hash: u64, at: usize) {
        let mask = self.buckets.len() - 1;
        let mut hole = bucket_of(&self.buckets, hash, at);
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let b = self.buckets[i];
            if b.at == VACANT {
                break;
            }
            // `b` may fill the hole if its home is not after the hole in
            // probe order, i.e. it is at least as far from home as from
            // the hole.
            let from_home = i.wrapping_sub(home(b.tag, mask)) & mask;
            let from_hole = i.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.buckets[hole] = b;
                hole = i;
            }
        }
        self.buckets[hole] = EMPTY;
    }
}

impl<V> NameTable<(Name, V)> {
    /// The value filed under `name`.
    pub fn get(&self, name: &Name) -> Option<&V> {
        self.find(name).map(|at| &self.entries[at].1)
    }

    /// The value filed under `name`, made by `make` first if there is none.
    pub fn get_or_insert_with(&mut self, name: Name, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&name) {
            Some(at) => at,
            None => self.push((name, make())),
        };
        &mut self.entries[at].1
    }

    /// Files `value` under `name`; returns the value it replaces.
    pub fn insert(&mut self, name: Name, value: V) -> Option<V> {
        match self.find(&name) {
            Some(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            None => {
                self.push((name, value));
                None
            }
        }
    }

    /// Removes the value filed under `name`.
    pub fn remove(&mut self, name: &Name) -> Option<V> {
        let at = self.find(name)?;
        Some(self.swap_remove(at).1)
    }
}

impl<V> FromIterator<(Name, V)> for NameTable<(Name, V)> {
    /// Like a map's `collect`: a later value for a name replaces an
    /// earlier one.
    fn from_iter<I: IntoIterator<Item = (Name, V)>>(iter: I) -> Self {
        let mut table = NameTable::new();
        for (name, value) in iter {
            table.insert(name, value);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry whose hash the test chooses, to force collisions.
    #[derive(Debug, Clone, PartialEq)]
    struct Rigged(Name, u64);

    impl Keyed for Rigged {
        fn name(&self) -> &Name {
            &self.0
        }
        fn key_hash(&self) -> u64 {
            self.1
        }
    }

    fn name(i: usize) -> Name {
        format!("/n/{i}").parse().unwrap()
    }

    #[test]
    fn buckets_are_eight_bytes() {
        assert_eq!(size_of::<Bucket>(), 8);
    }

    #[test]
    fn small_tables_scan_and_allocate_no_index() {
        let mut t: NameTable<(Name, usize)> = NameTable::new();
        for i in 0..NameTable::<(Name, usize)>::SCAN {
            t.insert(name(i), i);
        }
        assert!(t.buckets.is_empty());
        t.insert(name(99), 99);
        assert_eq!(t.buckets.len(), 32, "indexed past the scan limit");
        for i in (0..8).chain([99]) {
            assert_eq!(t.get(&name(i)), Some(&i));
        }
        assert_eq!(t.get(&name(8)), None);
    }

    #[test]
    fn colliding_runs_survive_removal_in_any_order() {
        // Ten entries for each of four neighbouring home buckets, their
        // runs merged and wrapping around the table's end: removal must
        // shift every run back without losing an entry.
        let hash = |i: usize| [60, 62, 63, 1][i % 4] + 64 * i as u64;
        let mut t: NameTable<Rigged> = NameTable::new();
        for i in 0..40 {
            t.push(Rigged(name(i), hash(i)));
        }
        assert_eq!(t.buckets.len(), 64);
        let mut live: Vec<usize> = (0..40).collect();
        for step in 0..40 {
            let victim = live.remove((step * 7) % live.len());
            let at = t.find_by(hash(victim), |e| e.0 == name(victim)).unwrap();
            assert_eq!(t.swap_remove(at).0, name(victim));
            for &i in &live {
                let at = t.find_by(hash(i), |e| e.0 == name(i));
                assert_eq!(at.map(|at| &t[at].0), Some(&name(i)), "lost {i}");
            }
            assert_eq!(t.find_by(hash(victim), |e| e.0 == name(victim)), None);
        }
        assert!(t.buckets.iter().all(|b| b.at == VACANT));
    }

    #[test]
    fn retain_and_clear_keep_the_index_right() {
        let mut t: NameTable<(Name, usize)> = (0..100).map(|i| (name(i), i)).collect();
        t.retain(|(_, v)| *v % 3 == 0);
        assert_eq!(t.len(), 34);
        for i in 0..100 {
            assert_eq!(t.get(&name(i)).is_some(), i % 3 == 0);
        }
        t.clear();
        assert!(t.is_empty() && t.get(&name(0)).is_none());
        t.insert(name(5), 5);
        assert_eq!(t.get(&name(5)), Some(&5));
    }

    #[test]
    fn find_prefix_matches_exact_prefix_lengths() {
        let t: NameTable<(Name, u8)> = [("/a", 1), ("/a/b", 2), ("/", 0)]
            .into_iter()
            .map(|(n, v)| (n.parse().unwrap(), v))
            .collect();
        let probe: Name = "/a/b/c".parse().unwrap();
        let found: Vec<Option<u8>> = probe
            .prefix_hashes()
            .enumerate()
            .map(|(len, h)| t.find_prefix(&probe, len, h).map(|at| t[at].1))
            .collect();
        assert_eq!(found, [Some(0), Some(1), Some(2), None]);
    }
}
