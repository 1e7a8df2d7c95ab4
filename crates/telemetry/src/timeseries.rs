//! Deterministic sim-time sampling: the in-flight counterpart of the
//! end-of-run [`RunManifest`](crate::manifest::RunManifest), for the
//! dynamics end-of-run aggregates cannot show — filter occupancy
//! climbing toward a reset, PIT growth under loss.
//!
//! Enabled by `Scenario::sample_every` (CLI `--sample-every SECS`), a
//! periodic `SampleTick` event from a reserved source — mirrored into
//! every shard at identical instants with identical keys, like purges and
//! faults — has each plane snapshot one [`SampleRow`]: queue depth,
//! in-flight Interests, cumulative sends, deliveries and per-reason
//! drops, PIT records, CS entries, and per-router filter occupancy,
//! estimated FPP, resets and rotations. Every field is an integer merged
//! by its declared rule (cumulative counters **add**, fixed-point maxima
//! **max**, the tick and its time must agree), and queue depth is counted
//! partition-invariantly (pending events plus outbox backlog, minus each
//! non-zero shard's mirrored-schedule surplus), so the merged series of a
//! K-sharded run is byte-identical to the sequential run's — the rows are
//! a golden artifact, exactly like reports and metric JSONL
//! (`tests/observability.rs`). Ratios and per-tick deltas are derived
//! only at export time, after the merge, from integer fields; the float
//! formatting itself is Rust's shortest-round-trip `{}`, so equal
//! integers always render equal bytes. Disabled, the default, the sampler
//! schedules nothing, and the rows stay out of the report's `Debug` dump.

use std::sync::LazyLock;

use crate::json::{JsonObject, Value};
use crate::schema::DropTotals;

/// Fixed-point scale for ratios carried in `u64` fields (`2^32`).
const FP_ONE: u64 = 1 << 32;

/// Converts a ratio in `[0, 1]` to `2^32` fixed point.
pub fn ratio_to_fp(r: f64) -> u64 {
    (r * FP_ONE as f64) as u64
}

crate::counter_set! {
    /// One sim-time sample. All counter fields are cumulative totals as of
    /// the tick's timestamp; instantaneous gauges (queue depth, PIT/CS/BF
    /// state) are the state *at* the tick. `merge` folds another shard's
    /// contribution for the same tick into this row and panics if the two
    /// disagree on `tick` or `t_ns` — shards sample on the same
    /// deterministic cadence, so a mismatch is a synchronization bug.
    #[derive(Clone, Default, PartialEq, Eq)]
    pub struct SampleRow {
        /// Sample index (0-based).
        tick: Same, Always;
        /// Sim-time of the sample in nanoseconds.
        t_ns: Same, Always;
        /// Events pending in the engine at the tick (sharded runs sum each
        /// shard's partition-invariant contribution).
        queue_depth: Add, Always;
        /// Packets accepted onto links so far (cumulative).
        sent: Add, Always;
        /// Packet deliveries handled so far (cumulative).
        delivered: Add, Always;
        /// PIT records across owned routers at the tick.
        pit_records: Add, Always;
        /// Content-store entries across owned routers at the tick.
        cs_entries: Add, Always;
        /// Bloom-filter bits set across owned routers at the tick.
        bf_set_bits: Add, Always;
        /// Total Bloom-filter bits across owned routers (the occupancy
        /// denominator; constant per run, summed per shard).
        bf_bits: Add, Always;
        /// Sum over owned routers of estimated FPP in `2^32` fixed point.
        bf_fpp_fp: Add, Always;
        /// Max over owned routers of BF occupancy in `2^32` fixed point.
        bf_occ_max_fp: Max, Always;
        /// Bloom-filter resets so far across owned routers (cumulative).
        bf_resets: Add, Always;
        /// Generation rotations so far across owned routers (cumulative;
        /// zero under the monolithic-reset validation-cache policy).
        bf_rotations: Add, Always;
        /// Routers contributing BF fields (the `bf_fpp_fp` denominator).
        bf_routers: Add, Always;
    }
    with {
        /// Cumulative drops by reason.
        drops: DropTotals;
    }
}

impl SampleRow {
    /// Interests/Data in flight at the tick: accepted onto a link but
    /// neither handled nor dropped in flight. Send-side drops
    /// (dangling face, lossy, link down, rate limited, face capped)
    /// happen *before* `sent` counts, and PIT evictions are state (not
    /// packets), so only the delivery-side reasons subtract.
    pub fn in_flight(&self) -> u64 {
        self.sent
            .saturating_sub(self.delivered)
            .saturating_sub(self.drops.reverse_face)
            .saturating_sub(self.drops.node_down)
    }

    /// Aggregate BF occupancy (set bits over total bits), 0 when no
    /// router contributed.
    pub fn bf_occupancy(&self) -> f64 {
        if self.bf_bits == 0 {
            0.0
        } else {
            self.bf_set_bits as f64 / self.bf_bits as f64
        }
    }

    /// Mean estimated FPP across contributing routers.
    pub fn bf_fpp_mean(&self) -> f64 {
        if self.bf_routers == 0 {
            0.0
        } else {
            self.bf_fpp_fp as f64 / self.bf_routers as f64 / FP_ONE as f64
        }
    }

    /// Max BF occupancy across contributing routers.
    pub fn bf_occ_max(&self) -> f64 {
        self.bf_occ_max_fp as f64 / FP_ONE as f64
    }
}

/// Merges per-shard time series element-wise (shard 0's rows first,
/// then each later shard folded in). All series must have the same
/// length — every shard takes every tick.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn merge_timeseries(series: &[Vec<SampleRow>]) -> Vec<SampleRow> {
    let Some((first, rest)) = series.split_first() else {
        return Vec::new();
    };
    let mut merged = first.clone();
    for shard in rest {
        assert_eq!(
            merged.len(),
            shard.len(),
            "shards took different sample counts"
        );
        for (row, other) in merged.iter_mut().zip(shard) {
            row.merge(other);
        }
    }
    merged
}

/// Feeds `put` the columns of one `timeseries.jsonl` line after `label`,
/// in file order: the one written definition of the layout, which
/// [`TIMESERIES_KEYS`] and [`timeseries_to_jsonl`] both run. `prev` is
/// the previous tick's row (all zero before the first).
fn columns(row: &SampleRow, prev: &SampleRow, put: &mut dyn FnMut(&str, Value<'_>)) {
    use Value::{F64, U64};
    put("tick", U64(row.tick));
    put("t_ns", U64(row.t_ns));
    put("queue_depth", U64(row.queue_depth));
    put("in_flight", U64(row.in_flight()));
    cumulative(
        &["sent", "delivered"],
        &[row.sent, row.delivered],
        &[prev.sent, prev.delivered],
        put,
    );
    cumulative(
        &DropTotals::SCHEMA.map(|m| m.key),
        &row.drops.values(),
        &prev.drops.values(),
        put,
    );
    put("pit_records", U64(row.pit_records));
    put("cs_entries", U64(row.cs_entries));
    put("bf_set_bits", U64(row.bf_set_bits));
    put("bf_occupancy", F64(row.bf_occupancy()));
    put("bf_fpp_mean", F64(row.bf_fpp_mean()));
    put("bf_occ_max", F64(row.bf_occ_max()));
    put("bf_resets", U64(row.bf_resets));
    put("bf_rotations", U64(row.bf_rotations));
}

/// A run of cumulative counters: every value under its key, then every
/// per-tick delta under `d_<key>`.
fn cumulative(keys: &[&str], now: &[u64], was: &[u64], put: &mut dyn FnMut(&str, Value<'_>)) {
    for (key, &now) in keys.iter().zip(now) {
        put(key, Value::U64(now));
    }
    for ((key, &now), &was) in keys.iter().zip(now).zip(was) {
        put(&format!("d_{key}"), Value::U64(now - was));
    }
}

/// Keys every `timeseries.jsonl` line carries, in file order.
pub static TIMESERIES_KEYS: LazyLock<Vec<String>> = LazyLock::new(|| {
    let mut keys = vec!["label".to_string()];
    let zero = SampleRow::default();
    columns(&zero, &zero, &mut |key, _| keys.push(key.to_string()));
    keys
});

/// Renders one labeled time series as JSONL (one line per tick, with a
/// trailing newline per line). Per-tick deltas are computed against
/// the previous row (the first row's deltas are its cumulative
/// values). Deterministic: integer fields and shortest-round-trip
/// float formatting only.
pub fn timeseries_to_jsonl(label: &str, rows: &[SampleRow]) -> String {
    let mut out = String::new();
    let zero = SampleRow::default();
    let mut prev = &zero;
    for row in rows {
        let mut o = JsonObject::new();
        o.field_str("label", label);
        columns(row, prev, &mut |key, value| {
            o.field(key, value);
        });
        out.push_str(&o.finish());
        out.push('\n');
        prev = row;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tick: u64) -> SampleRow {
        SampleRow {
            tick,
            t_ns: tick * 1_000,
            queue_depth: 5,
            sent: 10 * (tick + 1),
            delivered: 8 * (tick + 1),
            drops: DropTotals {
                reverse_face: tick,
                ..DropTotals::default()
            },
            pit_records: 3,
            cs_entries: 2,
            bf_set_bits: 100,
            bf_bits: 1_000,
            bf_fpp_fp: ratio_to_fp(0.25),
            bf_occ_max_fp: ratio_to_fp(0.1),
            bf_routers: 1,
            ..SampleRow::default()
        }
    }

    #[test]
    fn in_flight_subtracts_delivery_side_losses_only() {
        let r = SampleRow {
            sent: 100,
            delivered: 80,
            drops: DropTotals {
                reverse_face: 5,
                node_down: 3,
                lossy: 99, // send-side: already excluded from `sent`
                ..DropTotals::default()
            },
            ..SampleRow::default()
        };
        assert_eq!(r.in_flight(), 12);
    }

    #[test]
    fn merge_adds_counters_and_maxes_occupancy() {
        let mut a = row(0);
        let mut b = row(0);
        b.bf_occ_max_fp = ratio_to_fp(0.9);
        a.merge(&b);
        assert_eq!(a.sent, 20);
        assert_eq!(a.bf_bits, 2_000);
        assert_eq!(a.bf_routers, 2);
        assert_eq!(a.bf_occ_max_fp, ratio_to_fp(0.9));
        assert_eq!(a.bf_occupancy(), 0.1);
    }

    #[test]
    #[should_panic(expected = "disagree on `tick`")]
    fn merge_rejects_tick_mismatch() {
        row(0).merge(&row(1));
    }

    #[test]
    fn merge_timeseries_is_elementwise() {
        let merged = merge_timeseries(&[vec![row(0), row(1)], vec![row(0), row(1)]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].sent, 20);
        assert_eq!(merged[1].sent, 40);
        assert!(merge_timeseries(&[]).is_empty());
    }

    #[test]
    fn jsonl_carries_every_key_and_deltas() {
        let text = timeseries_to_jsonl("tactic", &[row(0), row(1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for key in TIMESERIES_KEYS.iter() {
            for line in &lines {
                assert!(line.contains(&format!("\"{key}\":")), "{key} in {line}");
            }
        }
        // First row's delta is its cumulative value; second is the diff.
        assert!(lines[0].contains("\"d_sent\":10"));
        assert!(lines[1].contains("\"d_sent\":10"));
        assert!(lines[0].contains("\"sent\":10"));
        assert!(lines[1].contains("\"sent\":20"));
    }

    /// A leaf added to [`SampleRow`] cannot stay out of the export
    /// silently: only the raw inputs of the three derived ratios do.
    #[test]
    fn every_declared_leaf_is_exported_or_a_ratio_input() {
        let raw = ["bf_bits", "bf_fpp_fp", "bf_occ_max_fp", "bf_routers"];
        for metric in SampleRow::SCHEMA {
            assert_eq!(
                TIMESERIES_KEYS.iter().any(|key| key == metric.key),
                !raw.contains(&metric.key),
                "{}",
                metric.key
            );
        }
    }

    #[test]
    fn ratios_derive_from_fixed_point() {
        let r = row(0);
        assert_eq!(r.bf_occupancy(), 0.1);
        assert!((r.bf_fpp_mean() - 0.25).abs() < 1e-9);
        assert!((r.bf_occ_max() - 0.1).abs() < 1e-9);
        assert_eq!(SampleRow::default().bf_occupancy(), 0.0);
        assert_eq!(SampleRow::default().bf_fpp_mean(), 0.0);
    }
}
