//! The content catalog: what user nodes ask for and providers serve, and
//! the one place that knows how a chunk is named.
//!
//! The paper evaluates every mechanism under one client model (§8.A), and
//! the comparison against the baselines rests on that model being the
//! same code on every plane, so the workload is written once, in this
//! crate: this catalog, the window engine of [`requester`](crate::requester),
//! the attack pacer of [`attack`](crate::attack) and the fleet node of
//! [`harness`](crate::harness), which spells every attacker's Interests.
//! CI greps that the name grammar, the pacer's accumulator and the nonce
//! layout have no second copy.
//!
//! A chunk is `/<provider prefix>/obj<i>/c<j>`; planes whose providers
//! authenticate every request append a `/u<principal>` session component
//! so no two users share a name (and so nothing is served from a cache).
//! [`ChunkNames`] builds and parses that grammar for one prefix; a
//! [`Catalog`] is every provider's entry over one shared `ChunkNames`,
//! plus the run's one Zipf table over the global object ranking
//! ([`Catalog::popular_object`]) and the uniform spray attack fleets draw
//! ([`Catalog::spray`], [`Catalog::spray_at`]). It is built once per run
//! (once per shard of a sharded one) and handed, behind an `Arc`, to
//! every baseline provider and, through the shard's request policy, to
//! every user and fielded attacker; a TACTIC provider, which is
//! constructible on its own, keeps a private `ChunkNames`.
//!
//! Names are built once. `ChunkNames` formats each `obj<i>` / `c<j>`
//! component on first use. The `Catalog` keeps, beside them, one
//! component block per content object asked for — `prefix ‖ obj<i> ‖
//! c<j>` for every chunk `j` of the object, side by side — and the
//! object's session-less chunk names, each a [`Name::view`] into that
//! block, both made when the object is first named from. So naming a
//! fresh object's chunks costs two allocations, the block and the list
//! of its names, and asking for a chunk again — what a user or a fielded
//! attacker does per Interest — is a refcount bump
//! on that block. The provider that answers names its reply with the
//! request's own name, another refcount bump: [`ChunkNames::parse`]
//! accepts only the spelling [`ChunkNames::name`] writes (each number
//! read by a byte check that refuses what [`Label`] never writes, so
//! `obj01` or `c+1` names nothing), so a name it parses is the name the
//! provider would have built. The memos fill lazily (`OnceLock`), per
//! object, never at [`Catalog::new`], and die with the catalog: nothing
//! is interned process-wide, and a shard's names are its own. A name
//! with a session component is per user and is built per request.

use std::io::Write;
use std::sync::{Arc, OnceLock};

use tactic_ndn::name::{Component, Name};
use tactic_sim::dist::Zipf;
use tactic_sim::rng::Rng;

/// `(provider, object, chunk)` indices into a [`Catalog`]: 12 bytes, so
/// a request window's slot and a user's walk stay small
/// ([`Catalog::new`] holds every index below 2³²).
pub type Chunk = (u32, u32, u32);

/// One provider's share of the catalog.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The provider's prefix.
    pub prefix: Name,
    /// Objects in the catalog.
    pub objects: usize,
    /// Chunks per object.
    pub chunks: usize,
}

/// The `obj<i>` / `c<j>` components of chunk names, each built on first
/// use and shared from then on: whoever names a chunk per request bumps
/// two refcounts instead of formatting two strings.
#[derive(Debug, Default)]
pub struct ChunkNames {
    objects: Vec<OnceLock<Component>>,
    chunks: Vec<OnceLock<Component>>,
}

/// The bytes of a numbered component — `<tag><n>`: `obj12`, `c3`, `u7`,
/// a bare `42` — spelled on the stack: compared against a component at
/// no cost, made into one with the component's one allocation.
#[derive(Debug, Clone, Copy)]
pub struct Label {
    buf: [u8; 32],
    len: usize,
}

impl Label {
    /// `<tag><n>`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is longer than 12 bytes.
    pub fn new(tag: &str, n: u64) -> Label {
        let mut buf = [0u8; 32];
        let mut rest = &mut buf[..];
        write!(rest, "{tag}{n}").expect("a short tag and 20 digits fit");
        let len = 32 - rest.len();
        Label { buf, len }
    }

    /// The spelled bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl From<Label> for Component {
    fn from(label: Label) -> Component {
        Component::from(label.as_bytes())
    }
}

/// The number behind a component's one-letter-or-word `tag`, if the
/// component is spelled exactly as [`Label::new`] spells it — ASCII
/// digits only, no leading `0` but in `0` itself, a value that fits a
/// `u64` — read without formatting anything: `obj01` and `c+1` name no
/// chunk, so no two spellings name the same one.
fn index(component: &Component, tag: &str) -> Option<u64> {
    let digits = component.as_bytes().strip_prefix(tag.as_bytes())?;
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &d| {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

impl ChunkNames {
    /// Components for object indices below `objects` and chunk indices
    /// below `chunks` (the tables start empty: nothing is formatted here).
    pub fn new(objects: usize, chunks: usize) -> Self {
        ChunkNames {
            objects: (0..objects).map(|_| OnceLock::new()).collect(),
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The session component of `principal`: `u<principal>`.
    pub fn session(principal: u64) -> Component {
        Self::session_label(principal).into()
    }

    /// The bytes of [`session`](Self::session)`(principal)`.
    pub fn session_label(principal: u64) -> Label {
        Label::new("u", principal)
    }

    /// The components of `/<prefix>/obj<obj>/c<j>` for every `j` below
    /// `chunks`, side by side in one block — one allocation: chunk `j`'s
    /// name is the block's `j`-th run of `prefix.len() + 2` components.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the tables.
    fn object_block(&self, prefix: &Name, obj: usize, chunks: usize) -> Arc<[Component]> {
        let obj = self.object(obj);
        let (head, run) = (prefix.components(), prefix.len() + 2);
        // A mapped range knows its length: collecting allocates once.
        (0..chunks * run)
            .map(|k| match k % run {
                i if i < head.len() => head[i].clone(),
                i if i == head.len() => obj.clone(),
                _ => self.chunk(k / run).clone(),
            })
            .collect()
    }

    /// The `obj<obj>` component.
    fn object(&self, obj: usize) -> &Component {
        self.objects[obj].get_or_init(|| Label::new("obj", obj as u64).into())
    }

    /// The `c<chunk>` component.
    fn chunk(&self, chunk: usize) -> &Component {
        self.chunks[chunk].get_or_init(|| Label::new("c", chunk as u64).into())
    }

    /// `/<prefix>/obj<obj>/c<chunk>`, then `session` if given — one
    /// allocation, the name's buffer.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the tables.
    pub fn name(
        &self,
        prefix: &Name,
        obj: usize,
        chunk: usize,
        session: Option<&Component>,
    ) -> Name {
        let (obj, chunk) = (self.object(obj), self.chunk(chunk));
        match session {
            None => prefix.join([obj, chunk]),
            Some(session) => prefix.join([obj, chunk, session]),
        }
    }

    /// [`name`](Self::name) backwards: the object and chunk indices, and
    /// the session principal if the name carries one. `None` for a name
    /// under another prefix, of another shape, spelled otherwise than
    /// `name` spells it, or outside the tables — so a name that parses is
    /// byte for byte the name `name` builds from what it parses to.
    pub fn parse(&self, prefix: &Name, name: &Name) -> Option<(usize, usize, Option<u64>)> {
        if !prefix.is_prefix_of(name) {
            return None;
        }
        let (obj, chunk, session) = match &name.components()[prefix.len()..] {
            [obj, chunk] => (obj, chunk, None),
            [obj, chunk, session] => (obj, chunk, Some(index(session, "u")?)),
            _ => return None,
        };
        let obj = usize::try_from(index(obj, "obj")?).ok()?;
        let chunk = usize::try_from(index(chunk, "c")?).ok()?;
        (obj < self.objects.len() && chunk < self.chunks.len()).then_some((obj, chunk, session))
    }
}

/// Every provider's catalog (provider index = position), the chunk-name
/// components all of them share, the whole names handed out so far, and
/// the Zipf popularity over the global object ranking — provider 0's
/// objects first, then provider 1's.
#[derive(Debug)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
    names: ChunkNames,
    /// Per entry, its objects' names: the table made when the entry is
    /// first named from.
    whole: Vec<OnceLock<Box<[ObjectNames]>>>,
    popularity: Zipf,
    /// Chunks in all entries together.
    chunk_count: usize,
}

/// The session-less names of one object's chunks, views into its
/// [`ChunkNames::object_block`], made when the object is first named from.
type ObjectNames = OnceLock<Box<[Name]>>;

impl Catalog {
    /// The shared catalog over `entries`, its objects Zipf(`zipf_alpha`)
    /// popular.
    ///
    /// # Panics
    ///
    /// Panics if the entries hold no object at all, or if a [`Chunk`]
    /// index — provider, object or chunk — would not fit its 32 bits.
    pub fn new(entries: Vec<CatalogEntry>, zipf_alpha: f64) -> Arc<Catalog> {
        let most = |f: fn(&CatalogEntry) -> usize| entries.iter().map(f).max().unwrap_or(0);
        for (what, count) in [
            ("providers", entries.len()),
            ("objects", most(|e| e.objects)),
            ("chunks", most(|e| e.chunks)),
        ] {
            assert!(
                u32::try_from(count).is_ok(),
                "{count} {what} do not fit a chunk's 32-bit index"
            );
        }
        Arc::new(Catalog {
            names: ChunkNames::new(most(|e| e.objects), most(|e| e.chunks)),
            whole: entries.iter().map(|_| OnceLock::new()).collect(),
            popularity: Zipf::new(entries.iter().map(|e| e.objects).sum(), zipf_alpha),
            chunk_count: entries.iter().map(|e| e.objects * e.chunks).sum(),
            entries,
        })
    }

    /// The per-provider entries.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Chunks in the whole catalog, every provider's.
    pub fn chunk_count(&self) -> usize {
        self.chunk_count
    }

    /// The name of `chunk` (see [`ChunkNames::name`]): without a session
    /// a clone of the one name this catalog made for it — a view into its
    /// object's block, made with the object's other names when the first
    /// is asked for — with one a fresh name.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is outside its provider's entry.
    pub fn chunk_name(&self, (prov, obj, chunk): Chunk, session: Option<&Component>) -> Name {
        let (prov, obj, chunk) = (prov as usize, obj as usize, chunk as usize);
        let entry = &self.entries[prov];
        if session.is_some() {
            return self.names.name(&entry.prefix, obj, chunk, session);
        }
        let objects =
            self.whole[prov].get_or_init(|| (0..entry.objects).map(|_| OnceLock::new()).collect());
        let names = objects[obj].get_or_init(|| {
            let block = self.names.object_block(&entry.prefix, obj, entry.chunks);
            let run = entry.prefix.len() + 2;
            let view = |chunk| Name::view(&block, chunk * run..(chunk + 1) * run);
            (0..entry.chunks).map(view).collect()
        });
        names[chunk].clone()
    }

    /// [`chunk_name`](Self::chunk_name) backwards: the chunk, and the
    /// session principal if the name carries one; `None` for anything
    /// that names no chunk of this catalog.
    pub fn parse(&self, name: &Name) -> Option<(Chunk, Option<u64>)> {
        self.entries.iter().enumerate().find_map(|(prov, e)| {
            let (obj, chunk, session) = self.names.parse(&e.prefix, name)?;
            let found = (prov as u32, obj as u32, chunk as u32);
            (obj < e.objects && chunk < e.chunks).then_some((found, session))
        })
    }

    /// Draws an object by popularity: `(provider, object)`.
    pub fn popular_object(&self, rng: &mut Rng) -> (usize, usize) {
        let mut rank = self.popularity.sample(rng);
        for (prov, e) in self.entries.iter().enumerate() {
            if rank < e.objects {
                return (prov, rank);
            }
            rank -= e.objects;
        }
        unreachable!("a rank is below the total object count")
    }

    /// A uniformly random chunk of provider `prov`: one draw for the
    /// object, one for the chunk.
    pub fn spray_at(&self, prov: usize, rng: &mut Rng) -> Chunk {
        let e = &self.entries[prov];
        let obj = (rng.next_u64() % e.objects as u64) as u32;
        let chunk = (rng.next_u64() % e.chunks as u64) as u32;
        (prov as u32, obj, chunk)
    }

    /// A uniformly random chunk of a uniformly random provider.
    pub fn spray(&self, rng: &mut Rng) -> Chunk {
        let prov = (rng.next_u64() % self.entries.len() as u64) as usize;
        self.spray_at(prov, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn catalog() -> Arc<Catalog> {
        let entry = |prefix: &str, objects, chunks| CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects,
            chunks,
        };
        Catalog::new(vec![entry("/prov0", 4, 2), entry("/prov1", 6, 3)], 0.7)
    }

    /// `index` as first written: parse as a `u64`, then format it back
    /// and compare.
    fn index_by_formatting(component: &Component, tag: &str) -> Option<u64> {
        let digits = component.as_bytes().strip_prefix(tag.as_bytes())?;
        let n = std::str::from_utf8(digits).ok()?.parse().ok()?;
        (Label::new(tag, n).as_bytes() == component.as_bytes()).then_some(n)
    }

    proptest! {
        /// The byte check reads exactly the spellings formatting accepts:
        /// byte strings mostly of digits, past 20 of them (a `u64`'s
        /// most), behind a tag, a prefix of one or nothing.
        #[test]
        fn index_reads_what_formatting_reads(
            tag in 0usize..4,
            bytes in proptest::collection::vec((0u8..4, 0u8..10, any::<u8>()), 0..24),
            max in any::<bool>(),
        ) {
            let head = ["", "c", "o", "obj"][tag];
            let mut spelled = head.as_bytes().to_vec();
            if max {
                spelled.extend_from_slice(u64::MAX.to_string().as_bytes());
            }
            for (kind, digit, other) in bytes {
                spelled.push(if kind == 0 { other } else { b'0' + digit });
            }
            let component = Component::from(&spelled[..]);
            for tag in ["obj", "c", "u", ""] {
                prop_assert_eq!(index(&component, tag), index_by_formatting(&component, tag));
            }
        }

        /// Every chunk's name parses back to the chunk, with and without
        /// the session component.
        #[test]
        fn names_round_trip(prov in 0u32..2, obj in 0u32..6, chunk in 0u32..3, in_session in any::<bool>(), principal in any::<u64>()) {
            let catalog = catalog();
            let session = in_session.then_some(principal);
            let entry = &catalog.entries()[prov as usize];
            let (obj, chunk) = (obj % entry.objects as u32, chunk % entry.chunks as u32);
            let component = session.map(ChunkNames::session);
            let name = catalog.chunk_name((prov, obj, chunk), component.as_ref());
            let tail = session.map_or(String::new(), |p| format!("/u{p}"));
            prop_assert_eq!(name.to_string(), format!("/prov{prov}/obj{obj}/c{chunk}{tail}"));
            prop_assert_eq!(catalog.parse(&name), Some(((prov, obj, chunk), session)));
        }
    }

    #[test]
    fn index_reads_the_edges_as_formatting_does() {
        for spelled in [
            "c0",
            "c00",
            "c01",
            "c10",
            "c",
            "c+1",
            "c-1",
            "c 1",
            "c1 ",
            "c٣",
            "c18446744073709551615",
            "c18446744073709551616",
            "c99999999999999999999",
            "c018446744073709551615",
        ] {
            let component = Component::from(spelled);
            assert_eq!(
                index(&component, "c"),
                index_by_formatting(&component, "c"),
                "{spelled}"
            );
        }
        assert_eq!(
            index(&Component::from("c18446744073709551615"), "c"),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parse_rejects_what_names_no_chunk() {
        let catalog = catalog();
        for bad in [
            "/prov2/obj1/c1",      // foreign prefix
            "/prov0/obj4/c1",      // object out of range for prov0 (prov1 has it)
            "/prov0/obj1/c2",      // chunk out of range
            "/prov1/obj1/c3",      // chunk out of range everywhere
            "/prov0/obj1",         // short
            "/prov0",              // shorter
            "/prov0/obj1/c1/u7/x", // long
            "/prov0/register/u7/0",
            "/prov0/objx/c1",
            "/prov0/obj1/c1/v7", // not a session component
            // Spellings of obj1/c1 (and of user 7) `chunk_name` never
            // writes: a reply under such a name satisfies nothing.
            "/prov0/obj01/c1",
            "/prov0/obj1/c01",
            "/prov0/obj+1/c1",
            "/prov0/obj1/c+1",
            "/prov0/obj1/c1/u07",
            "/prov0/obj1/c1/u+7",
            "/prov0/obj/c1",
            "/prov0/obj1/c1/u",
        ] {
            assert_eq!(catalog.parse(&bad.parse().unwrap()), None, "{bad}");
        }
        assert_eq!(
            catalog.parse(&"/prov1/obj4/c1".parse().unwrap()),
            Some(((1, 4, 1), None))
        );
    }

    #[test]
    #[should_panic(expected = "4294967296 objects do not fit a chunk's 32-bit index")]
    fn an_index_past_32_bits_is_refused() {
        let entry = CatalogEntry {
            prefix: "/prov0".parse().unwrap(),
            objects: 1 << 32,
            chunks: 1,
        };
        Catalog::new(vec![entry], 0.7);
    }

    #[test]
    fn popularity_prefers_the_first_ranks() {
        let catalog = catalog();
        let mut rng = Rng::seed_from_u64(42);
        let top = (0..400)
            .filter(|_| catalog.popular_object(&mut rng) == (0, 0))
            .count();
        // Rank 0 of 10 objects under Zipf(0.7) has pmf ~0.23; uniform
        // would be 0.1.
        assert!(top > 55, "only {top}/400 hits on the most popular object");
    }

    #[test]
    fn spray_stays_inside_each_entry() {
        let catalog = catalog();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..200 {
            let (prov, obj, chunk) = catalog.spray(&mut rng);
            let e = &catalog.entries()[prov as usize];
            assert!((obj as usize) < e.objects && (chunk as usize) < e.chunks);
        }
    }
}
