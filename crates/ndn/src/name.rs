//! Hierarchical NDN names.
//!
//! An NDN name is an ordered list of opaque byte components, written
//! URI-style: `/provider0/obj12/chunk3`. Names identify content objects,
//! prefixes identify namespaces (FIB entries, provider prefixes, key
//! locators). TACTIC's Protocol 1 compares the provider prefix extracted
//! from a tag's key locator — `N(Pub_p)` — against the requested content
//! prefix `N(D)`.
//!
//! # Representation
//!
//! [`Name`] is a *shared handle*: the component list lives in one
//! reference-counted buffer (`Arc<[Component]>`) and the name itself is a
//! `(buffer, start, length, hash)` handle onto `buffer[start..start +
//! length]`, 32 bytes. This makes the forwarding-plane operations the
//! PIT/CS/FIB hammer on every Interest effectively free:
//!
//! * `clone()` is an `Arc` refcount bump — no heap traffic;
//! * [`Name::prefix`] shares the buffer and shrinks the visible length —
//!   no heap traffic;
//! * hashing writes one precomputed 64-bit value — table probes never
//!   re-walk the component bytes. The name tables
//!   ([`NameTable`](crate::table::NameTable): content store, PIT, FIB)
//!   probe on [`Name::hash64`] itself, and a longest-prefix match gets
//!   every prefix's hash from one pass ([`Name::prefix_hashes`]).
//!
//! Because a name starts where its handle says, one buffer can back many
//! names side by side: [`Name::view`] makes a name of any run of a block
//! somebody filled once. The catalog fills one block per content object
//! — `prefix ‖ obj<i> ‖ c<j>` for every chunk `j` — and every chunk name
//! of that object is a view into it, so naming a chunk allocates nothing
//! of its own. Start and length are 32-bit: every constructor refuses,
//! loudly, a count or range past `u32::MAX` rather than truncate it.
//!
//! A [`Component`] of up to 7 bytes holds them in itself; a longer one
//! shares them the same way (`Arc<[u8]>`). Both fit in 16 bytes:
//!
//! ```text
//! Component = Heap(Arc<[u8]>) | Inline { len: u8, buf: [u8; 7] }
//! ```
//!
//! So the construction paths (`child`, `push`, `from_components`, `join`)
//! that *do* rebuild the component list copy at most 16 bytes or bump one
//! refcount per component, and nearly every component the simulator
//! spells — `obj<i>`, `c<j>`, `prov<i>`, `u<principal>` below 10⁶
//! nodes, `KEY`, `users`, a sequence number — costs no allocation of its
//! own to build or to decode off the wire, and holds none once parsed.
//! Which form holds a component's bytes is invisible: equality,
//! ordering, hashing, `Debug` and `Display` are over
//! [`Component::as_bytes`].
//!
//! Equality, ordering, and the Display/parse round-trip are over the
//! visible components only and are oblivious to sharing: a prefix or a
//! view compares equal to an independently-parsed equivalent name, and
//! their hashes agree (property-tested in `tests/proptests.rs`).
//!
//! [`Name::join`] appends any number of components for one allocation and
//! is how every hot path spells a name: key locators, registration names
//! and chunk names are each one `join` over components somebody already
//! holds, and CI greps that no `child` chain returns to those files.
//! Equality short-circuits on the precomputed hash. No output depends on
//! a table's iteration order, so the hash function is not part of the
//! determinism contract; the RNG draw order and the order planes push
//! their sends are.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use tactic_crypto::hash::{ByteSink, Hasher64};

/// One name component (opaque bytes; printable ASCII in our scenarios).
///
/// Cheap to clone: up to 7 bytes are held in the component itself,
/// longer ones are shared, not copied. Which form holds them is
/// invisible: equality, ordering, hashing and both printed forms are over
/// [`as_bytes`](Component::as_bytes).
#[derive(Clone)]
pub struct Component(Repr);

#[derive(Clone)]
enum Repr {
    /// More than `Component::INLINE` bytes, shared.
    Heap(Arc<[u8]>),
    /// Up to `Component::INLINE` bytes, in `buf[..len]`.
    Inline {
        len: u8,
        buf: [u8; Component::INLINE],
    },
}

// Inline bytes cost no space: the component is as small as the shared
// pointer it replaces.
const _: () = assert!(std::mem::size_of::<Component>() == 16);

impl Component {
    /// The longest component held inline, without an allocation: every
    /// `obj<i>`, `c<j>`, `prov<i>`, `u<principal>` below 10⁶ and sequence
    /// number below 10⁷ the simulator spells.
    const INLINE: usize = 7;

    /// Creates a component from raw bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        match Self::inline(&bytes) {
            Some(c) => c,
            None => Component(Repr::Heap(bytes.into())),
        }
    }

    /// `bytes` held inline, if they fit.
    fn inline(bytes: &[u8]) -> Option<Self> {
        let len = bytes.len();
        (len <= Self::INLINE).then(|| {
            let mut buf = [0; Self::INLINE];
            buf[..len].copy_from_slice(bytes);
            Component(Repr::Inline {
                len: len as u8,
                buf,
            })
        })
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Heap(bytes) => bytes,
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty component.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for Component {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Component {}

impl PartialOrd for Component {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Component {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for Component {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// `Component([..])`, the bytes as a list, whichever form holds them.
impl fmt::Debug for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Component").field(&self.as_bytes()).finish()
    }
}

impl From<&str> for Component {
    fn from(s: &str) -> Self {
        Component::from(s.as_bytes())
    }
}

impl From<&[u8]> for Component {
    /// Inline, or one copy straight into the shared buffer (the
    /// decoders' path).
    fn from(bytes: &[u8]) -> Self {
        Self::inline(bytes).unwrap_or_else(|| Component(Repr::Heap(Arc::from(bytes))))
    }
}

impl From<String> for Component {
    fn from(s: String) -> Self {
        Component::new(s.into_bytes())
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in self.as_bytes() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "%{:02X}", b)?;
            }
        }
        Ok(())
    }
}

/// A hierarchical name: an ordered list of [`Component`]s behind a shared,
/// cheaply-clonable handle (see the module docs for the representation).
///
/// # Examples
///
/// ```
/// use tactic_ndn::name::Name;
///
/// let name: Name = "/provider0/obj12/chunk3".parse()?;
/// assert_eq!(name.len(), 3);
/// assert!(name.prefix(1).is_prefix_of(&name));
/// assert_eq!(name.to_string(), "/provider0/obj12/chunk3");
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Clone)]
pub struct Name {
    /// Shared component buffer; may hold more than the visible name when
    /// this handle is a prefix of another name or a view into a block.
    components: Arc<[Component]>,
    /// Index of the first visible component.
    start: u32,
    /// Number of visible components (`components[start..start + len]`).
    len: u32,
    /// Precomputed hash over the visible components (same byte layout as
    /// [`Name::to_bytes`], folded through [`Hasher64`]).
    hash: u64,
}

/// Error parsing a name from its URI form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNameError {
    /// The URI did not start with `/`.
    MissingLeadingSlash,
    /// A `%`-escape was malformed.
    BadEscape(String),
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::MissingLeadingSlash => write!(f, "name must start with '/'"),
            ParseNameError::BadEscape(s) => write!(f, "bad percent escape in `{s}`"),
        }
    }
}

impl std::error::Error for ParseNameError {}

/// Absorbs one component in the [`Name::to_bytes`] layout.
fn absorb(h: &mut Hasher64, c: &Component) {
    h.update(&(c.len() as u32).to_le_bytes());
    h.update(c.as_bytes());
}

/// Folds the length-prefixed component bytes (the [`Name::to_bytes`]
/// layout) into a 64-bit hash.
fn fold_hash<'a>(components: impl IntoIterator<Item = &'a Component>) -> u64 {
    let mut h = Hasher64::new();
    for c in components {
        absorb(&mut h, c);
    }
    h.finish()
}

/// `n` as a name's 32-bit start, end or length.
///
/// # Panics
///
/// Panics if `n` does not fit 32 bits: a name that would need it is
/// refused, not truncated into another name.
fn width(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{n} components do not fit a name's 32-bit width"))
}

/// The shared zero-length backing buffer used by root names.
fn empty_backing() -> Arc<[Component]> {
    static EMPTY: OnceLock<Arc<[Component]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(Vec::new())).clone()
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl Name {
    /// The root (empty) name, printed as `/`.
    pub fn root() -> Self {
        Name {
            components: empty_backing(),
            start: 0,
            len: 0,
            hash: fold_hash([]),
        }
    }

    /// Builds a name from components.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` components.
    pub fn from_components(components: Vec<Component>) -> Self {
        Name {
            len: width(components.len()),
            start: 0,
            hash: fold_hash(&components),
            components: components.into(),
        }
    }

    /// `components[range]` as a name that shares `components`: a refcount
    /// bump, no allocation. Names of many runs of one block — a content
    /// object's chunks, side by side — share that block.
    ///
    /// # Panics
    ///
    /// Panics if an end of `range` does not fit 32 bits, or if `range` is
    /// not a range of `components`.
    pub fn view(components: &Arc<[Component]>, range: Range<usize>) -> Name {
        let (start, end) = (width(range.start), width(range.end));
        let hash = fold_hash(&components[range]);
        Name {
            components: Arc::clone(components),
            start,
            len: end - start,
            hash,
        }
    }

    /// `self` followed by `tail`, built with a single allocation (the
    /// shared component buffer): callers that hold their components —
    /// a consumer naming `/<prefix>/obj<i>/c<j>` per request — only bump
    /// refcounts.
    ///
    /// # Panics
    ///
    /// Panics if the joined name would hold more than `u32::MAX`
    /// components — before building it, when `tail` knows its length.
    pub fn join<'a, T>(&'a self, tail: T) -> Name
    where
        T: IntoIterator<Item = &'a Component> + Clone,
    {
        let parts = || self.components().iter().chain(tail.clone());
        width(parts().size_hint().0);
        // With exact-size halves (slices, arrays) collecting into the
        // `Arc` allocates once.
        let components: Arc<[Component]> = parts().cloned().collect();
        Name {
            len: width(components.len()),
            start: 0,
            hash: fold_hash(parts()),
            components,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the root name.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The component at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&Component> {
        self.components().get(index)
    }

    /// All (visible) components.
    pub fn components(&self) -> &[Component] {
        let start = self.start as usize;
        &self.components[start..start + self.len()]
    }

    /// Returns a new name with `component` appended.
    ///
    /// This rebuilds the component list (refcount bumps per component) —
    /// construction is the cold path; forwarding clones the result.
    pub fn child(&self, component: impl Into<Component>) -> Name {
        self.join([&component.into()])
    }

    /// Appends a component in place.
    pub fn push(&mut self, component: impl Into<Component>) {
        *self = self.child(component);
    }

    /// The first `n` components as a new name (clamped to the full name).
    ///
    /// O(1) in allocations: the returned name shares this name's buffer.
    pub fn prefix(&self, n: usize) -> Name {
        let len = n.min(self.len());
        Name {
            components: Arc::clone(&self.components),
            start: self.start,
            len: len as u32,
            hash: fold_hash(&self.components()[..len]),
        }
    }

    /// The name without its last component; the root maps to itself.
    pub fn parent(&self) -> Name {
        if self.is_empty() {
            Name::root()
        } else {
            self.prefix(self.len() - 1)
        }
    }

    /// True if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Name) -> bool {
        self.len <= other.len && self.components() == &other.components()[..self.len()]
    }

    /// `self.prefix(n) == other.prefix(n)`, without building either
    /// prefix: compares components, hashes nothing.
    pub fn same_prefix(&self, other: &Name, n: usize) -> bool {
        self.components()[..n.min(self.len())] == other.components()[..n.min(other.len())]
    }

    /// The precomputed hash: what `Hash` writes, and what every name
    /// table probes on. Equal names have equal hashes.
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// `self.prefix(k).hash64()` for `k` in `0..=self.len()`, from one
    /// pass over the component bytes (each `prefix` would fold its own).
    pub fn prefix_hashes(&self) -> impl Iterator<Item = u64> + '_ {
        let mut h = Hasher64::new();
        let root = h.finish();
        std::iter::once(root).chain(self.components().iter().map(move |c| {
            absorb(&mut h, c);
            h.finish()
        }))
    }

    /// Flat byte serialisation (length-prefixed components), for hashing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes_len());
        self.write_bytes(&mut out);
        out
    }

    /// Length of the [`to_bytes`](Self::to_bytes) form.
    pub fn bytes_len(&self) -> usize {
        self.components().iter().map(|c| 4 + c.len()).sum()
    }

    /// Writes the [`to_bytes`](Self::to_bytes) form into `out` — a
    /// buffer, or a hash absorbing it — so a caller serialising several
    /// fields (a tag body, a packet's signed bytes) into a digest or a
    /// signature never builds the name's bytes at all.
    pub fn write_bytes<S: ByteSink + ?Sized>(&self, out: &mut S) {
        for c in self.components() {
            out.put(&(c.len() as u32).to_le_bytes());
            out.put(c.as_bytes());
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.components() == other.components()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = ParseNameError;

    fn from_str(uri: &str) -> Result<Self, Self::Err> {
        if uri == "/" {
            return Ok(Name::root());
        }
        let rest = uri
            .strip_prefix('/')
            .ok_or(ParseNameError::MissingLeadingSlash)?;
        let mut components = Vec::new();
        for piece in rest.split('/') {
            if piece.is_empty() {
                continue; // Collapse duplicate slashes.
            }
            components.push(Component::new(unescape(piece)?));
        }
        Ok(Name::from_components(components))
    }
}

fn unescape(piece: &str) -> Result<Vec<u8>, ParseNameError> {
    let bytes = piece.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| ParseNameError::BadEscape(piece.to_owned()))?;
            let s = std::str::from_utf8(hex)
                .map_err(|_| ParseNameError::BadEscape(piece.to_owned()))?;
            let v = u8::from_str_radix(s, 16)
                .map_err(|_| ParseNameError::BadEscape(piece.to_owned()))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Ok(out)
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "/");
        }
        for c in self.components() {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A name is a fat pointer, a 32-bit start and length and its hash:
    // an `Interest` holds one and stays 128 B, a `Packet` 136 B
    // (`packet.rs` pins the packet).
    const _: () = assert!(std::mem::size_of::<Name>() == 32);

    #[test]
    fn parse_and_display_roundtrip() {
        let n: Name = "/a/b/c".parse().unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(n.to_string(), "/a/b/c");
    }

    #[test]
    fn root_name() {
        let n: Name = "/".parse().unwrap();
        assert!(n.is_empty());
        assert_eq!(n.to_string(), "/");
        assert_eq!(n.parent(), n);
    }

    #[test]
    fn missing_slash_is_error() {
        assert_eq!(
            "abc".parse::<Name>(),
            Err(ParseNameError::MissingLeadingSlash)
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let n = Name::root().child(Component::new(vec![0x00, 0xFF, b'a']));
        let uri = n.to_string();
        assert_eq!(uri, "/%00%FFa");
        let back: Name = uri.parse().unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn bad_escape_is_error() {
        assert!(matches!(
            "/a%g1".parse::<Name>(),
            Err(ParseNameError::BadEscape(_))
        ));
        assert!(matches!(
            "/a%0".parse::<Name>(),
            Err(ParseNameError::BadEscape(_))
        ));
    }

    #[test]
    fn duplicate_slashes_collapse() {
        let n: Name = "/a//b".parse().unwrap();
        assert_eq!(n.to_string(), "/a/b");
    }

    #[test]
    fn prefix_relationships() {
        let n: Name = "/p/o/c".parse().unwrap();
        let p1 = n.prefix(1);
        assert_eq!(p1.to_string(), "/p");
        assert!(p1.is_prefix_of(&n));
        assert!(n.is_prefix_of(&n));
        assert!(!n.is_prefix_of(&p1));
        assert!(Name::root().is_prefix_of(&n));
        let other: Name = "/q/o/c".parse().unwrap();
        assert!(!p1.is_prefix_of(&other));
    }

    #[test]
    fn prefix_clamps() {
        let n: Name = "/a/b".parse().unwrap();
        assert_eq!(n.prefix(10), n);
    }

    #[test]
    fn child_and_parent() {
        let n: Name = "/a".parse().unwrap();
        let c = n.child("b");
        assert_eq!(c.to_string(), "/a/b");
        assert_eq!(c.parent(), n);
    }

    #[test]
    fn to_bytes_distinguishes_component_boundaries() {
        let ab_c: Name = "/ab/c".parse().unwrap();
        let a_bc: Name = "/a/bc".parse().unwrap();
        assert_ne!(ab_c.to_bytes(), a_bc.to_bytes());
    }

    #[test]
    fn ordering_is_lexicographic_by_component() {
        let a: Name = "/a".parse().unwrap();
        let ab: Name = "/a/b".parse().unwrap();
        let b: Name = "/b".parse().unwrap();
        assert!(a < ab);
        assert!(ab < b);
    }

    #[test]
    fn prefix_view_is_indistinguishable_from_owned() {
        // A prefix view shares its parent's buffer; equality, ordering,
        // hashing, and serialisation must not be able to tell.
        let long: Name = "/p/o/c".parse().unwrap();
        let view = long.prefix(2);
        let owned: Name = "/p/o".parse().unwrap();
        assert_eq!(view, owned);
        assert_eq!(view.cmp(&owned), std::cmp::Ordering::Equal);
        assert_eq!(view.to_bytes(), owned.to_bytes());
        assert_eq!(view.to_string(), owned.to_string());
        use std::hash::{BuildHasher, RandomState};
        let s = RandomState::new();
        assert_eq!(s.hash_one(&view), s.hash_one(&owned));
        // And it must work as a map key interchangeably.
        let mut map = std::collections::HashMap::new();
        map.insert(owned, 7u32);
        assert_eq!(map.get(&view), Some(&7));
    }

    #[test]
    fn prefix_hashes_are_the_prefixes_hashes() {
        let n: Name = "/p/o/c".parse().unwrap();
        let want: Vec<u64> = (0..=3).map(|k| n.prefix(k).hash64()).collect();
        assert_eq!(n.prefix_hashes().collect::<Vec<_>>(), want);
        assert_eq!(
            Name::root().prefix_hashes().collect::<Vec<_>>(),
            [Name::root().hash64()]
        );
        // A prefix view yields only its visible prefixes.
        assert_eq!(n.prefix(1).prefix_hashes().count(), 2);
    }

    #[test]
    fn same_prefix_is_prefix_equality() {
        let n: Name = "/p/o/c".parse().unwrap();
        let m: Name = "/p/x".parse().unwrap();
        for k in 0..5 {
            assert_eq!(n.same_prefix(&m, k), n.prefix(k) == m.prefix(k), "k = {k}");
            assert!(n.same_prefix(&n.prefix(2), k.min(2)));
        }
        assert!(!n.same_prefix(&n.prefix(1), 2), "clamped lengths differ");
    }

    #[test]
    fn clone_and_prefix_share_the_buffer() {
        let n: Name = "/p/o/c".parse().unwrap();
        let c = n.clone();
        let p = n.prefix(1);
        assert!(Arc::ptr_eq(&n.components, &c.components));
        assert!(Arc::ptr_eq(&n.components, &p.components));
    }

    #[test]
    fn push_after_prefix_does_not_leak_hidden_components() {
        let n: Name = "/a/b/c".parse().unwrap();
        let mut p = n.prefix(1);
        p.push("z");
        assert_eq!(p.to_string(), "/a/z");
        assert_eq!(n.to_string(), "/a/b/c");
    }

    #[test]
    fn push_after_a_view_does_not_leak_the_rest_of_its_block() {
        let block: Arc<[Component]> = ["a", "b", "c", "d"].map(Component::from).into();
        let mut v = Name::view(&block, 1..2);
        assert_eq!(v.to_string(), "/b");
        v.push("z");
        assert_eq!(v.to_string(), "/b/z");
        assert_eq!(Name::view(&block, 0..4).to_string(), "/a/b/c/d");
    }

    #[test]
    fn views_share_their_block() {
        let block: Arc<[Component]> = ["p", "o", "c0", "p", "o", "c1"].map(Component::from).into();
        let (first, second) = (Name::view(&block, 0..3), Name::view(&block, 3..6));
        assert!(Arc::ptr_eq(&first.components, &block));
        assert!(Arc::ptr_eq(&second.prefix(2).components, &block));
        assert_eq!(first.prefix(2), second.prefix(2));
        assert_eq!(second, "/p/o/c1".parse().unwrap());
        assert!(Name::view(&block, 2..2).is_empty());
    }

    #[test]
    fn the_widest_count_fits_and_one_more_does_not() {
        assert_eq!(width(u32::MAX as usize), u32::MAX);
        let refused = std::panic::catch_unwind(|| width(u32::MAX as usize + 1));
        assert!(refused.is_err());
    }

    // `from_components` checks its count through `width`; a vector of
    // 2³² components (64 GiB) cannot be built to show it.

    #[test]
    #[should_panic(expected = "4294967296 components do not fit a name's 32-bit width")]
    fn a_join_past_32_bits_is_refused_before_it_is_built() {
        let a = Component::from("a");
        Name::root()
            .child("a")
            .join(std::iter::repeat_n(&a, u32::MAX as usize));
    }

    #[test]
    #[should_panic(expected = "4294967296 components do not fit a name's 32-bit width")]
    fn a_view_past_32_bits_is_refused() {
        let block: Arc<[Component]> = [Component::from("a")].into();
        Name::view(&block, 0..u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_view_outside_its_block_is_refused() {
        let block: Arc<[Component]> = [Component::from("a")].into();
        Name::view(&block, 0..2);
    }
}
