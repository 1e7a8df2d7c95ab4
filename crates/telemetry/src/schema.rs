//! The metric schema: a counter set is declared **once** and everything
//! that must agree about it is generated from that declaration.
//!
//! A declaration names each counter's field, its exported key (the field
//! name unless `=> "key"` overrides it), how contributions fold
//! ([`Merge`]) and whether the golden `Debug` dump shows it ([`Golden`]):
//!
//! ```
//! tactic_telemetry::counter_set! {
//!     /// What a toy cache counted.
//!     #[derive(Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct CacheCounters {
//!         /// Lookups answered from the cache.
//!         hits: Add, Always;
//!         /// Entries evicted (an extension: out of the golden dump).
//!         evictions => "cache_evictions": Add, Never;
//!         /// Largest occupancy seen.
//!         peak_entries: Max, Always;
//!     }
//! }
//! let mut a = CacheCounters { hits: 2, evictions: 1, peak_entries: 7 };
//! a.merge(&CacheCounters { hits: 3, evictions: 0, peak_entries: 5 });
//! assert_eq!(a.values(), [5, 1, 7]);
//! assert_eq!(CacheCounters::SCHEMA[1].key, "cache_evictions");
//! assert_eq!(format!("{a:?}"), "CacheCounters { hits: 5, peak_entries: 7 }");
//! ```
//!
//! [`counter_set!`](crate::counter_set) generates the struct with one
//! named `pub u64` field per counter (an increment stays a plain field
//! add; the schema is walked at merges and exports only), `SCHEMA`, `values()` /
//! `values_mut()` in declaration order, `merge`, `total`, the `Debug`
//! form and [`Fold`]. Exporters iterate `SCHEMA` with `values()`, so a
//! declared counter cannot fall out of a merge or an export.
//!
//! A trailing `with { field: Type; }` block carries values that are not
//! `u64` leaves — another set, an `f64` sum — inside the struct: `merge`
//! folds them through [`Fold`] and `Debug` always shows them, but they
//! stay out of `SCHEMA`/`values()`/`total()` (a nested set is walked
//! through its own schema).
//!
//! `pub struct Set by enum Index { field @ Variant: ..; }` declares the
//! enum that indexes the set in the same breath — one variant per
//! counter, sharing its doc comment — with `Set::count(Index)` (a plain
//! `match`, one field add per arm) and `Index::ALL`.
//!
//! # Adding a counter
//!
//! 1. **Declare** it: one line in the set it belongs to. Every counter
//!    declared today is [`Golden::Always`], and the golden `{:#?}` dumps
//!    under `tests/snapshots/` are pinned by digest, so a new `Always`
//!    counter means regenerating them (`SNAPSHOT_UPDATE=1`) and re-pinning
//!    the digests in the same change. A change that must leave them as
//!    they are declares it [`Golden::Never`] (or [`Golden::NonZero`], if
//!    only runs that predate it must reproduce) and flips the rule when
//!    the goldens move next.
//! 2. **Increment** it: a plain field add at the site; for a drop,
//!    [`DropTotals::count`], or a field add on the plane context's drop
//!    ledger from inside a plane (the transport reports those to its
//!    observer too).
//! 3. Nothing else. It is already in the shard merge and the seed fold,
//!    in every holder of its set (reports, sampler rows, manifests,
//!    transport counters, run summaries), in everything that iterates
//!    `SCHEMA` — manifest lines, the timeseries drop columns and their
//!    `d_` deltas, the `net.drop.*` registry keys — and in the key lists
//!    tests check exports against
//!    ([`RunManifest::required_keys`](crate::RunManifest::required_keys),
//!    [`TIMESERIES_KEYS`](crate::timeseries::TIMESERIES_KEYS)). A new
//!    [`SampleRow`](crate::SampleRow) leaf also needs its column
//!    placed in the timeseries writer (the file's column order is pinned;
//!    a test fails until it is placed), and a new [`DropReason`] is one
//!    more line of the [`DropTotals`] declaration, which declares the
//!    variant too.
//!
//! The two report types keep hand-written `Debug` impls: those list which
//! *report* fields the golden document shows, and are its one written
//! definition. `tests/counter_schema.rs` pins every set's `Debug` and
//! JSONL forms, the merge property and the structs' sizes.

/// How the contributions of shards (or seeds) to one counter fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Every event happens in exactly one contribution: they sum.
    Add,
    /// A high-water mark: the largest contribution wins.
    Max,
    /// An identity every contribution must agree on (a sample's tick).
    Same,
}

impl Merge {
    /// Folds `theirs` into `mine` for the counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics when a [`Merge::Same`] counter differs: contributions that
    /// disagree on an identity are a synchronisation bug, not data.
    #[inline(always)]
    pub fn apply(self, name: &str, mine: u64, theirs: u64) -> u64 {
        match self {
            Merge::Add => mine + theirs,
            Merge::Max => mine.max(theirs),
            Merge::Same => {
                assert_eq!(mine, theirs, "contributions disagree on `{name}`");
                mine
            }
        }
    }
}

/// Whether the golden `Debug` dump shows a counter. The dump is compared
/// byte for byte against pinned snapshots, so a counter added after they
/// were taken stays out of it ([`Golden::Never`], or [`Golden::NonZero`]
/// when only runs that predate it must reproduce) until a PR moves the
/// goldens deliberately — by changing the flag here, nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// Always printed.
    Always,
    /// Printed only when non-zero.
    NonZero,
    /// Never printed; read it through the field or an exporter.
    Never,
}

impl Golden {
    /// Whether a counter holding `value` appears in the dump.
    #[inline]
    pub fn shows(self, value: u64) -> bool {
        match self {
            Golden::Always => true,
            Golden::NonZero => value != 0,
            Golden::Never => false,
        }
    }
}

/// One declared counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The field name (what `Debug` prints).
    pub name: &'static str,
    /// The key exporters write (JSONL, manifests).
    pub key: &'static str,
    /// How contributions fold.
    pub merge: Merge,
    /// Whether the golden dump shows it.
    pub golden: Golden,
}

/// What a set's `with` fields implement so `merge` can fold them.
pub trait Fold {
    /// Folds another contribution into this one.
    fn fold(&mut self, other: &Self);
}

/// A sum of per-run values (divide by the run count for their mean).
impl Fold for f64 {
    fn fold(&mut self, other: &f64) {
        *self += other;
    }
}

/// Declares a counter set; see the [module docs](crate::schema).
#[macro_export]
macro_rules! counter_set {
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident by $(#[$imeta:meta])* enum $index:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident @ $variant:ident $(=> $key:literal)? : $merge:ident, $golden:ident;
            )+
        }
    ) => {
        $(#[$imeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $index {
            $( $(#[$fmeta])* $variant, )+
        }

        $crate::counter_set! {
            $(#[$meta])*
            pub struct $name {
                $( $(#[$fmeta])* $field $(=> $key)? : $merge, $golden; )+
            }
        }

        impl $name {
            /// Bumps the counter of `index`.
            pub fn count(&mut self, index: $index) {
                match index {
                    $( $index::$variant => self.$field += 1, )+
                }
            }
        }

        impl $index {
            /// Every variant, in the order its set declares them.
            pub const ALL: [$index; $name::SCHEMA.len()] = [$( $index::$variant ),+];
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident $(=> $key:literal)? : $merge:ident, $golden:ident;
            )+
        }
        $( with {
            $( $(#[$wmeta:meta])* $with:ident : $wty:ty; )+
        } )?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
            $($( $(#[$wmeta])* pub $with: $wty, )+)?
        }

        impl $name {
            /// The declaration: one entry per counter, in field order.
            pub const SCHEMA: [$crate::schema::Metric; [$( stringify!($field) ),+].len()] = [$(
                $crate::schema::Metric {
                    name: stringify!($field),
                    key: $crate::counter_set!(@key $field $($key)?),
                    merge: $crate::schema::Merge::$merge,
                    golden: $crate::schema::Golden::$golden,
                }
            ),+];

            /// Every counter's value, in [`SCHEMA`](Self::SCHEMA) order.
            pub fn values(&self) -> [u64; $name::SCHEMA.len()] {
                [$( self.$field ),+]
            }

            /// Every counter, in [`SCHEMA`](Self::SCHEMA) order.
            pub fn values_mut(&mut self) -> [&mut u64; $name::SCHEMA.len()] {
                [$( &mut self.$field ),+]
            }

            /// The sum of every counter.
            pub fn total(&self) -> u64 {
                0 $( + self.$field )+
            }

            /// Folds another contribution (a shard's, a seed's) into this
            /// one, each counter by its declared rule.
            pub fn merge(&mut self, other: &Self) {
                $(
                    self.$field = $crate::schema::Merge::$merge
                        .apply(stringify!($field), self.$field, other.$field);
                )+
                $($( $crate::schema::Fold::fold(&mut self.$with, &other.$with); )+)?
            }
        }

        impl $crate::schema::Fold for $name {
            fn fold(&mut self, other: &Self) {
                self.merge(other);
            }
        }

        /// The golden form: each counter by its declared rule.
        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                let mut s = f.debug_struct(stringify!($name));
                $(
                    if $crate::schema::Golden::$golden.shows(self.$field) {
                        s.field(stringify!($field), &self.$field);
                    }
                )+
                $($( s.field(stringify!($with), &self.$with); )+)?
                s.finish()
            }
        }
    };
}

counter_set! {
    /// The drop ledger: one total per [`DropReason`], counted by the
    /// transport itself (independent of any observer) and held by every
    /// report, sample row and manifest. The three defense counters print
    /// only when non-zero, so runs without attacks or defenses reproduce
    /// the golden snapshots taken before they existed.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    pub struct DropTotals by
    /// Why the transport dropped a packet instead of scheduling its
    /// arrival (or, for [`DropReason::PitFull`], a plane dropped pending
    /// state).
    enum DropReason {
        /// The sender emitted on a face with no wired neighbour.
        dangling_face @ DanglingFace => "drops_dangling_face": Add, Always;
        /// The receiver no longer has a face back to the sender — a
        /// handover tore down the radio link while the packet was in flight.
        reverse_face @ ReverseFaceGone => "drops_reverse_face": Add, Always;
        /// The fault plan's loss model ate the packet in flight.
        lossy @ Lossy => "drops_lossy": Add, Always;
        /// The link was administratively down (a scheduled link fault).
        link_down @ LinkDown => "drops_link_down": Add, Always;
        /// The destination node was crashed when the packet arrived.
        node_down @ NodeDown => "drops_node_down": Add, Always;
        /// The receiving edge's per-client token bucket rejected the sender
        /// (the edge-defense rate limit).
        rate_limited @ RateLimited => "drops_rate_limited": Add, NonZero;
        /// The receiving edge router's per-face fairness cap rejected the
        /// upstream access point's aggregate this second.
        face_capped @ FaceCapped => "drops_face_capped": Add, NonZero;
        /// A bounded PIT evicted this pending record to stay within its
        /// configured capacity (deterministic oldest-first eviction).
        pit_full @ PitFull => "drops_pit_full": Add, NonZero;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The "adding a counter" recipe, executed: declare it (one line) and
    // increment it; merge, total, the view and the dump follow.
    counter_set! {
        /// A toy set.
        #[derive(Clone, Copy, Default, PartialEq)]
        pub struct Toy {
            /// Summed, golden.
            seen: Add, Always;
            /// A high-water mark, golden once it moves.
            peak => "toy_peak": Max, NonZero;
            /// An extension: never in the dump.
            extra: Add, Never;
        }
        with {
            /// A nested set.
            drops: DropTotals;
            /// A per-run mean, summed.
            mean: f64;
        }
    }

    #[test]
    fn a_declared_counter_is_in_merge_total_view_and_dump() {
        let mut a = Toy::default();
        a.seen += 2;
        a.peak = 9;
        a.extra += 1;
        a.drops.count(DropReason::Lossy);
        a.mean = 0.5;
        let mut b = Toy {
            seen: 3,
            peak: 4,
            extra: 10,
            ..Toy::default()
        };
        b.drops.count(DropReason::Lossy);
        b.mean = 0.25;
        a.merge(&b);

        assert_eq!(a.values(), [5, 9, 11]);
        assert_eq!(a.total(), 25);
        assert_eq!((a.drops.lossy, a.mean), (2, 0.75));
        assert_eq!(Toy::SCHEMA.map(|m| m.name), ["seen", "peak", "extra"]);
        assert_eq!(Toy::SCHEMA.map(|m| m.key), ["seen", "toy_peak", "extra"]);
        assert_eq!(
            Toy::SCHEMA.map(|m| m.merge),
            [Merge::Add, Merge::Max, Merge::Add]
        );
        *a.values_mut()[0] = 7;
        assert_eq!(a.seen, 7);

        let dump = format!("{a:?}");
        assert!(dump.starts_with("Toy { seen: 7, peak: 9, drops: DropTotals {"));
        assert!(dump.ends_with("mean: 0.75 }"), "{dump}");
        assert_eq!(
            format!("{:?}", Toy::default()),
            format!(
                "Toy {{ seen: 0, drops: {:?}, mean: 0.0 }}",
                DropTotals::default()
            )
        );
    }

    #[test]
    fn drop_totals_count_every_reason_into_its_own_counter() {
        let mut totals = DropTotals::default();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                totals.count(reason);
            }
        }
        assert_eq!(totals.values(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(totals.total(), (1..=8).sum::<u64>());
        assert_eq!(totals.lossy, 3);
        assert_eq!(totals.pit_full, 8);
    }

    /// The defense counters must be invisible in `Debug` output while
    /// zero — that is what keeps historical golden report snapshots
    /// byte-identical for runs without attacks or defenses.
    #[test]
    fn drop_totals_debug_hides_zero_defense_counters() {
        let mut totals = DropTotals::default();
        let plain = format!("{totals:#?}");
        assert!(plain.contains("node_down"));
        assert!(!plain.contains("rate_limited"));
        assert!(!plain.contains("face_capped"));
        assert!(!plain.contains("pit_full"));

        totals.count(DropReason::RateLimited);
        totals.count(DropReason::PitFull);
        let armed = format!("{totals:#?}");
        assert!(armed.contains("rate_limited: 1"));
        assert!(!armed.contains("face_capped"));
        assert!(armed.contains("pit_full: 1"));
    }
}
