//! The counter sets were ported onto `tactic_telemetry::counter_set!`
//! from hand-written structs, merges and `Debug` impls. These tests prove
//! the port instead of assuming it:
//!
//! * literal pins, captured from the last commit with the hand-written
//!   code (the `OpCounters` and `ProviderCounters` forms since extended
//!   by the counters the goldens print now), for cases the golden
//!   snapshots never exercise — every counter
//!   non-zero (so hidden ones would show if they leaked), the defense
//!   counters zero, and a two-row time series whose deltas differ from
//!   its cumulative values;
//! * one property over every declared set: merging contributions in any
//!   order equals the per-counter fold its schema declares.

use proptest::prelude::*;

use tactic::provider::ProviderCounters;
use tactic::router::OpCounters;
use tactic_experiments::plane::RunSummary;
use tactic_net::DropTotals;
use tactic_telemetry::schema::Merge;
use tactic_telemetry::{timeseries_to_jsonl, LifecycleTotals, SampleRow};

#[test]
fn debug_forms_match_the_hand_written_impls_they_replaced() {
    let ops = OpCounters {
        bf_lookups: 1,
        bf_lookups_reval: 2,
        bf_insertions: 3,
        sig_verifications: 4,
        revalidations: 5,
        bf_resets: 6,
        reset_requests: 7,
        bf_rotations: 8,
        evicted_revalidations: 9,
        interests: 10,
        data: 11,
        precheck_rejections: 12,
        expired_rejections: 13,
        ap_rejections: 14,
        nacks: 15,
        cache_hits: 16,
    };
    assert_eq!(
        format!("{ops:?}"),
        "OpCounters { bf_lookups: 1, bf_lookups_reval: 2, bf_insertions: 3, \
         sig_verifications: 4, revalidations: 5, bf_resets: 6, reset_requests: 7, \
         bf_rotations: 8, evicted_revalidations: 9, interests: 10, data: 11, \
         precheck_rejections: 12, expired_rejections: 13, ap_rejections: 14, nacks: 15, \
         cache_hits: 16 }"
    );
    assert_eq!(
        format!("{ops:#?}"),
        "OpCounters {\n    bf_lookups: 1,\n    bf_lookups_reval: 2,\n    bf_insertions: 3,\n    \
         sig_verifications: 4,\n    revalidations: 5,\n    bf_resets: 6,\n    \
         reset_requests: 7,\n    bf_rotations: 8,\n    evicted_revalidations: 9,\n    \
         interests: 10,\n    data: 11,\n    precheck_rejections: 12,\n    \
         expired_rejections: 13,\n    ap_rejections: 14,\n    nacks: 15,\n    \
         cache_hits: 16,\n}"
    );

    let providers = ProviderCounters {
        tags_issued: 1,
        registrations_denied: 2,
        chunks_served: 3,
        nacks: 4,
        tags_renewed: 5,
    };
    assert_eq!(
        format!("{providers:?}"),
        "ProviderCounters { tags_issued: 1, registrations_denied: 2, chunks_served: 3, nacks: 4, \
         tags_renewed: 5 }"
    );
    assert_eq!(
        format!("{providers:#?}"),
        "ProviderCounters {\n    tags_issued: 1,\n    registrations_denied: 2,\n    \
         chunks_served: 3,\n    nacks: 4,\n    tags_renewed: 5,\n}"
    );

    let drops = DropTotals {
        dangling_face: 1,
        reverse_face: 2,
        lossy: 3,
        link_down: 4,
        node_down: 5,
        rate_limited: 6,
        face_capped: 7,
        pit_full: 8,
    };
    assert_eq!(
        format!("{drops:?}"),
        "DropTotals { dangling_face: 1, reverse_face: 2, lossy: 3, link_down: 4, node_down: 5, \
         rate_limited: 6, face_capped: 7, pit_full: 8 }"
    );
    assert_eq!(
        format!("{drops:#?}"),
        "DropTotals {\n    dangling_face: 1,\n    reverse_face: 2,\n    lossy: 3,\n    \
         link_down: 4,\n    node_down: 5,\n    rate_limited: 6,\n    face_capped: 7,\n    \
         pit_full: 8,\n}"
    );
    let undefended = DropTotals {
        rate_limited: 0,
        face_capped: 0,
        pit_full: 0,
        ..drops
    };
    assert_eq!(
        format!("{undefended:?}"),
        "DropTotals { dangling_face: 1, reverse_face: 2, lossy: 3, link_down: 4, node_down: 5 }"
    );
    assert_eq!(
        format!("{undefended:#?}"),
        "DropTotals {\n    dangling_face: 1,\n    reverse_face: 2,\n    lossy: 3,\n    \
         link_down: 4,\n    node_down: 5,\n}"
    );
}

#[test]
fn timeseries_jsonl_matches_the_hand_written_writer_it_replaced() {
    let row = |tick: u64| SampleRow {
        tick,
        t_ns: 1_000 * (tick + 1),
        queue_depth: 40 + tick,
        sent: 100 * (tick + 1),
        delivered: 70 * (tick + 1),
        drops: DropTotals {
            dangling_face: 1 + tick,
            reverse_face: 2 + 2 * tick,
            lossy: 3 + 3 * tick,
            link_down: 4 + 4 * tick,
            node_down: 5 + 5 * tick,
            rate_limited: 6 + 6 * tick,
            face_capped: 7 + 7 * tick,
            pit_full: 8 + 8 * tick,
        },
        pit_records: 30 + tick,
        cs_entries: 20 + tick,
        bf_set_bits: 300 + 50 * tick,
        bf_bits: 4_000,
        bf_fpp_fp: (1 << 30) * (tick + 1),
        bf_occ_max_fp: (1 << 29) * (tick + 1),
        bf_resets: 2 + tick,
        bf_rotations: 5 + 3 * tick,
        bf_routers: 4,
    };
    assert_eq!(
        timeseries_to_jsonl("pin", &[row(0), row(1)]),
        "{\"label\":\"pin\",\"tick\":0,\"t_ns\":1000,\"queue_depth\":40,\"in_flight\":23,\
         \"sent\":100,\"delivered\":70,\"d_sent\":100,\"d_delivered\":70,\
         \"drops_dangling_face\":1,\"drops_reverse_face\":2,\"drops_lossy\":3,\
         \"drops_link_down\":4,\"drops_node_down\":5,\"drops_rate_limited\":6,\
         \"drops_face_capped\":7,\"drops_pit_full\":8,\"d_drops_dangling_face\":1,\
         \"d_drops_reverse_face\":2,\"d_drops_lossy\":3,\"d_drops_link_down\":4,\
         \"d_drops_node_down\":5,\"d_drops_rate_limited\":6,\"d_drops_face_capped\":7,\
         \"d_drops_pit_full\":8,\"pit_records\":30,\"cs_entries\":20,\"bf_set_bits\":300,\
         \"bf_occupancy\":0.075,\"bf_fpp_mean\":0.0625,\"bf_occ_max\":0.125,\"bf_resets\":2,\
         \"bf_rotations\":5}\n\
         {\"label\":\"pin\",\"tick\":1,\"t_ns\":2000,\"queue_depth\":41,\"in_flight\":46,\
         \"sent\":200,\"delivered\":140,\"d_sent\":100,\"d_delivered\":70,\
         \"drops_dangling_face\":2,\"drops_reverse_face\":4,\"drops_lossy\":6,\
         \"drops_link_down\":8,\"drops_node_down\":10,\"drops_rate_limited\":12,\
         \"drops_face_capped\":14,\"drops_pit_full\":16,\"d_drops_dangling_face\":1,\
         \"d_drops_reverse_face\":2,\"d_drops_lossy\":3,\"d_drops_link_down\":4,\
         \"d_drops_node_down\":5,\"d_drops_rate_limited\":6,\"d_drops_face_capped\":7,\
         \"d_drops_pit_full\":8,\"pit_records\":31,\"cs_entries\":21,\"bf_set_bits\":350,\
         \"bf_occupancy\":0.0875,\"bf_fpp_mean\":0.125,\"bf_occ_max\":0.25,\"bf_resets\":3,\
         \"bf_rotations\":8}\n"
    );
}

/// Storage is one inline `u64` per counter — no `Vec`, `String` or map
/// per set — so the structs the fleets hold by the hundred thousand
/// (one `OpCounters` per router, one `SampleRow` per tick and shard) are
/// exactly as large as the hand-written ones were, plus `OpCounters`'
/// `reset_requests`, the fold that replaced each router's list of
/// requests per reset.
#[test]
fn generated_storage_is_as_small_as_the_hand_written_structs() {
    assert_eq!(size_of::<OpCounters>(), 16 * 8);
    assert_eq!(size_of::<SampleRow>(), 22 * 8);
}

/// Checks one set against `$raw`, a list of contributions (each a list of
/// per-counter values): builds the sets, folds them first to last and in
/// the rotated-and-reversed order `$rotate` picks, and compares both with
/// the per-counter fold the schema declares.
macro_rules! check_set {
    ($set:ty, $raw:expr, $rotate:expr) => {{
        let schema = <$set>::SCHEMA;
        let mut sets: Vec<$set> = Vec::new();
        for raw in $raw.iter() {
            let mut set = <$set>::default();
            for (i, slot) in set.values_mut().into_iter().enumerate() {
                // Contributions agree on an identity by construction.
                *slot = match schema[i].merge {
                    Merge::Same => $raw[0][i],
                    Merge::Add | Merge::Max => raw[i],
                };
            }
            sets.push(set);
        }
        let expected: Vec<u64> = (0..schema.len())
            .map(|i| {
                let column = sets.iter().map(|set| set.values()[i]);
                match schema[i].merge {
                    Merge::Add => column.sum(),
                    Merge::Max | Merge::Same => column.max().expect("at least one"),
                }
            })
            .collect();
        let mut order: Vec<&$set> = sets.iter().collect();
        for _ in 0..2 {
            let mut folded = order[0].clone();
            for set in &order[1..] {
                folded.merge(set);
            }
            prop_assert_eq!(folded.values().to_vec(), expected.clone());
            prop_assert_eq!(folded.total(), expected.iter().sum::<u64>());
            order.rotate_left($rotate % sets.len());
            order.reverse();
        }
    }};
}

proptest! {
    #[test]
    fn merging_in_any_order_is_the_declared_per_counter_fold(
        raw in prop::collection::vec(prop::collection::vec(0u64..1 << 32, 16), 1..6),
        rotate in 0usize..6,
    ) {
        check_set!(OpCounters, raw, rotate);
        check_set!(ProviderCounters, raw, rotate);
        check_set!(DropTotals, raw, rotate);
        check_set!(LifecycleTotals, raw, rotate);
        check_set!(SampleRow, raw, rotate);
        check_set!(RunSummary, raw, rotate);
    }
}
