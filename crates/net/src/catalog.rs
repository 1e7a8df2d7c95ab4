//! The content catalog: what user nodes ask for and providers serve, and
//! the one place that knows how a chunk is named.
//!
//! The paper evaluates every mechanism under one client model (§8.A), and
//! the comparison against the baselines rests on that model being the
//! same code on every plane, so the workload is written once, in this
//! crate: this catalog, the window engine of [`requester`](crate::requester)
//! and the attack pacer of [`attack`](crate::attack). CI greps that the
//! name grammar, the pacer's accumulator and the nonce layout have no
//! second copy.
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
//! every user, attack driver and baseline provider; a TACTIC provider,
//! which is constructible on its own, keeps a private `ChunkNames`.
//!
//! Names are built once. `ChunkNames` formats each `obj<i>` / `c<j>`
//! component on first use; the `Catalog` keeps, beside them, every whole
//! session-less chunk name it has handed out, so asking for a chunk again
//! — what a user does per Interest and a storm driver per crafted
//! Interest — is a refcount bump on the name's one buffer. The provider
//! that answers names its reply with the request's own name, another
//! refcount bump: [`ChunkNames::parse`] accepts only the spelling
//! [`ChunkNames::name`] writes (each component compared against a stack
//! [`Label`], so `obj01` or `c+1` names nothing), so a name it parses is
//! the name the provider would have built. Both memos fill lazily
//! (`OnceLock`) and die with the catalog: nothing is interned
//! process-wide, and a shard's names are its own. A name with a session
//! component is per user and is built per request.

use std::io::Write;
use std::sync::{Arc, OnceLock};

use tactic_ndn::name::{Component, Name};
use tactic_sim::dist::Zipf;
use tactic_sim::rng::Rng;

/// `(provider, object, chunk)` indices into a [`Catalog`].
pub type Chunk = (usize, usize, usize);

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
/// component is spelled exactly as [`Label::new`] spells it: `obj01` and
/// `c+1` name no chunk, so no two spellings name the same one.
fn index(component: &Component, tag: &str) -> Option<u64> {
    let digits = component.as_bytes().strip_prefix(tag.as_bytes())?;
    let n = std::str::from_utf8(digits).ok()?.parse().ok()?;
    (Label::new(tag, n).as_bytes() == component.as_bytes()).then_some(n)
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
        let obj = self.objects[obj].get_or_init(|| Label::new("obj", obj as u64).into());
        let chunk = self.chunks[chunk].get_or_init(|| Label::new("c", chunk as u64).into());
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
    /// Per entry, the session-less name of chunk `obj * chunks + chunk`:
    /// the table made when the entry is first named from, a name built
    /// when first asked for.
    whole: Vec<OnceLock<Box<[OnceLock<Name>]>>>,
    popularity: Zipf,
}

impl Catalog {
    /// The shared catalog over `entries`, its objects Zipf(`zipf_alpha`)
    /// popular.
    ///
    /// # Panics
    ///
    /// Panics if the entries hold no object at all.
    pub fn new(entries: Vec<CatalogEntry>, zipf_alpha: f64) -> Arc<Catalog> {
        let most = |f: fn(&CatalogEntry) -> usize| entries.iter().map(f).max().unwrap_or(0);
        Arc::new(Catalog {
            names: ChunkNames::new(most(|e| e.objects), most(|e| e.chunks)),
            whole: entries.iter().map(|_| OnceLock::new()).collect(),
            popularity: Zipf::new(entries.iter().map(|e| e.objects).sum(), zipf_alpha),
            entries,
        })
    }

    /// The per-provider entries.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// The name of `chunk` (see [`ChunkNames::name`]): without a session
    /// a clone of the one name this catalog built for it, with one a
    /// fresh name.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is outside its provider's entry.
    pub fn chunk_name(&self, (prov, obj, chunk): Chunk, session: Option<&Component>) -> Name {
        let entry = &self.entries[prov];
        let build = || (self.names).name(&entry.prefix, obj, chunk, session);
        if session.is_some() {
            return build();
        }
        assert!(chunk < entry.chunks, "chunk {chunk} outside the entry");
        let table = self.whole[prov].get_or_init(|| {
            let chunks = entry.objects * entry.chunks;
            (0..chunks).map(|_| OnceLock::new()).collect()
        });
        table[obj * entry.chunks + chunk].get_or_init(build).clone()
    }

    /// [`chunk_name`](Self::chunk_name) backwards: the chunk, and the
    /// session principal if the name carries one; `None` for anything
    /// that names no chunk of this catalog.
    pub fn parse(&self, name: &Name) -> Option<(Chunk, Option<u64>)> {
        self.entries.iter().enumerate().find_map(|(prov, e)| {
            let (obj, chunk, session) = self.names.parse(&e.prefix, name)?;
            (obj < e.objects && chunk < e.chunks).then_some(((prov, obj, chunk), session))
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
        let obj = (rng.next_u64() % e.objects as u64) as usize;
        let chunk = (rng.next_u64() % e.chunks as u64) as usize;
        (prov, obj, chunk)
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

    proptest! {
        /// Every chunk's name parses back to the chunk, with and without
        /// the session component.
        #[test]
        fn names_round_trip(prov in 0usize..2, obj in 0usize..6, chunk in 0usize..3, in_session in any::<bool>(), principal in any::<u64>()) {
            let catalog = catalog();
            let session = in_session.then_some(principal);
            let entry = &catalog.entries()[prov];
            let (obj, chunk) = (obj % entry.objects, chunk % entry.chunks);
            let component = session.map(ChunkNames::session);
            let name = catalog.chunk_name((prov, obj, chunk), component.as_ref());
            let tail = session.map_or(String::new(), |p| format!("/u{p}"));
            prop_assert_eq!(name.to_string(), format!("/prov{prov}/obj{obj}/c{chunk}{tail}"));
            prop_assert_eq!(catalog.parse(&name), Some(((prov, obj, chunk), session)));
        }
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
            let e = &catalog.entries()[prov];
            assert!(obj < e.objects && chunk < e.chunks);
        }
    }
}
