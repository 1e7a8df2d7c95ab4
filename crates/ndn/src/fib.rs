//! The Forwarding Information Base.
//!
//! Maps name prefixes to next-hop faces with longest-prefix-match lookup.
//! Implemented as a [`NameTable`] keyed by exact prefix, probed at every
//! prefix length of the lookup name up to the deepest registered prefix —
//! names in our scenarios have at most a handful of components, so lookup
//! is a few probes (this is also how NFD's name tree behaves
//! asymptotically). The probes' hashes come from one pass over the name
//! ([`Name::prefix_hashes`]): a lookup builds and hashes no prefix.

use crate::face::FaceId;
use crate::name::Name;
use crate::records::Records;
use crate::table::NameTable;

/// One candidate next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// The outgoing face.
    pub face: FaceId,
    /// Routing cost (lower is preferred).
    pub cost: u32,
}

/// The FIB: prefix → ranked next hops. A prefix's first hop is held in
/// its entry, so a route with one next hop — every route shortest-path
/// population installs — costs no heap block of its own.
///
/// # Examples
///
/// ```
/// use tactic_ndn::face::FaceId;
/// use tactic_ndn::fib::Fib;
///
/// let mut fib = Fib::new();
/// fib.add_route("/prov".parse()?, FaceId::new(1), 10);
/// fib.add_route("/prov/special".parse()?, FaceId::new(2), 10);
///
/// let name = "/prov/special/obj".parse()?;
/// assert_eq!(fib.next_hop(&name), Some(FaceId::new(2)));
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fib {
    entries: NameTable<(Name, Records<NextHop>)>,
    /// The most components a registered prefix has: no longer prefix of a
    /// lookup name can match.
    deepest: usize,
}

impl Fib {
    /// Creates an empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Adds (or updates) a route. Next hops for a prefix stay sorted by
    /// cost; re-adding an existing face updates its cost.
    pub fn add_route(&mut self, prefix: Name, face: FaceId, cost: u32) {
        self.deepest = self.deepest.max(prefix.len());
        let hops = self.entries.get_or_insert_with(prefix, Records::default);
        match hops.iter_mut().find(|h| h.face == face) {
            Some(h) => h.cost = cost,
            None => hops.push(NextHop { face, cost }),
        }
        hops.sort_by_key(|h| (h.cost, h.face));
    }

    /// Longest-prefix-match: all next hops of the most specific matching
    /// prefix.
    pub fn lookup(&self, name: &Name) -> Option<&[NextHop]> {
        let mut longest = None;
        for (len, hash) in name.prefix_hashes().take(self.deepest + 1).enumerate() {
            if let Some(at) = self.entries.find_prefix(name, len, hash) {
                if !self.entries[at].1.is_empty() {
                    longest = Some(&self.entries[at].1[..]);
                }
            }
        }
        longest
    }

    /// The single best next hop under longest-prefix match.
    pub fn next_hop(&self, name: &Name) -> Option<FaceId> {
        self.lookup(name).map(|hops| hops[0].face)
    }

    /// Number of prefixes with at least one route.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the FIB has no routes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every route. Used when scheduled failures force a full
    /// recomputation of the routing plane.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.deepest = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.add_route(name("/a"), FaceId::new(1), 1);
        fib.add_route(name("/a/b"), FaceId::new(2), 1);
        assert_eq!(fib.next_hop(&name("/a/b/c")), Some(FaceId::new(2)));
        assert_eq!(fib.next_hop(&name("/a/x")), Some(FaceId::new(1)));
        assert_eq!(fib.next_hop(&name("/z")), None);
    }

    #[test]
    fn root_prefix_is_default_route() {
        let mut fib = Fib::new();
        fib.add_route(Name::root(), FaceId::new(9), 1);
        assert_eq!(
            fib.next_hop(&name("/anything/at/all")),
            Some(FaceId::new(9))
        );
    }

    #[test]
    fn lowest_cost_hop_preferred() {
        let mut fib = Fib::new();
        fib.add_route(name("/a"), FaceId::new(1), 20);
        fib.add_route(name("/a"), FaceId::new(2), 10);
        assert_eq!(fib.next_hop(&name("/a/x")), Some(FaceId::new(2)));
        // Updating cost re-ranks.
        fib.add_route(name("/a"), FaceId::new(2), 30);
        assert_eq!(fib.next_hop(&name("/a/x")), Some(FaceId::new(1)));
    }

    #[test]
    fn cost_tie_breaks_by_face_for_determinism() {
        let mut fib = Fib::new();
        fib.add_route(name("/a"), FaceId::new(5), 10);
        fib.add_route(name("/a"), FaceId::new(3), 10);
        assert_eq!(fib.next_hop(&name("/a")), Some(FaceId::new(3)));
    }

    #[test]
    fn clear_empties_the_fib() {
        let mut fib = Fib::new();
        fib.add_route(name("/a"), FaceId::new(1), 1);
        fib.add_route(name("/b"), FaceId::new(2), 1);
        fib.clear();
        assert!(fib.is_empty());
        assert_eq!(fib.next_hop(&name("/a")), None);
    }

    #[test]
    fn an_entry_holds_its_first_hop_inline() {
        // The inline hop fits where a `Vec`'s pointer, capacity and
        // length were: an entry is no larger, and one hop is no block.
        assert_eq!(std::mem::size_of::<(Name, Records<NextHop>)>(), 56);
        assert_eq!(std::mem::size_of::<(Name, Vec<NextHop>)>(), 56);
        let mut fib = Fib::new();
        fib.add_route(name("/a"), FaceId::new(4), 7);
        let hops = fib.lookup(&name("/a/b")).expect("routed");
        assert_eq!(
            hops,
            [NextHop {
                face: FaceId::new(4),
                cost: 7
            }]
        );
        fib.add_route(name("/a"), FaceId::new(2), 9);
        fib.add_route(name("/a"), FaceId::new(3), 1);
        let faces: Vec<FaceId> = fib
            .lookup(&name("/a"))
            .unwrap()
            .iter()
            .map(|h| h.face)
            .collect();
        assert_eq!(faces, [FaceId::new(3), FaceId::new(4), FaceId::new(2)]);
    }

    #[test]
    fn exact_match_entry_applies_to_itself() {
        let mut fib = Fib::new();
        fib.add_route(name("/a/b"), FaceId::new(1), 1);
        assert_eq!(fib.next_hop(&name("/a/b")), Some(FaceId::new(1)));
        assert_eq!(fib.next_hop(&name("/a")), None);
    }
}
