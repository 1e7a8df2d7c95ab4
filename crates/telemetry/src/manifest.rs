//! Per-run provenance records.
//!
//! The experiment runner writes one [`RunManifest`] JSON line per grid
//! cell next to each CSV it produces (`<experiment>.manifest.jsonl`), so
//! every figure stays traceable to the exact (seed, topology, scenario)
//! that produced it.

use crate::json::{JsonObject, Value};
use crate::schema::DropTotals;

crate::counter_set! {
    /// Tag-lifecycle totals of one run (all zero on planes without tags).
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    pub struct LifecycleTotals {
        /// Tags issued to principals that still held an unexpired tag
        /// (issuance/renewal churn at the providers).
        tag_renewals: Add, Always;
        /// Full signature re-validations forced by validation-cache churn —
        /// the router had already validated the tag, but a reset/rotation
        /// evicted the registration (0 unless the scenario tracks them).
        revalidations: Add, Always;
        /// Generation rotations across all routers (0 under the
        /// monolithic-reset cache policy).
        bf_rotations: Add, Always;
    }
}

/// Everything needed to reproduce (and sanity-check) one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// The grid-cell label (experiment-chosen, e.g. `"fig7"`).
    pub label: String,
    /// Topology name (e.g. `"Topo1"`).
    pub topology: String,
    /// The experiment's scenario-identity hash (seeds derive from it).
    pub scenario_id: u64,
    /// Replica index within the grid cell.
    pub run_idx: u64,
    /// The derived RNG seed actually used.
    pub seed: u64,
    /// One-line scenario summary (duration, population, BF geometry).
    pub scenario: String,
    /// Simulated events processed by the engine.
    pub sim_events: u64,
    /// High-water mark of the event queue during the run.
    pub peak_queue_depth: u64,
    /// Wall-clock duration of the run in milliseconds (provenance only —
    /// nondeterministic, never compared byte-for-byte).
    pub wall_ms: u64,
    /// Transport + plane drops by reason.
    pub drops: DropTotals,
    /// Shard (worker-thread) count — 1 for a sequential run.
    pub shards: u64,
    /// Links crossing shard boundaries (0 for a sequential run).
    pub edge_cut: u64,
    /// Synchronization epochs executed (0 for a sequential run).
    pub epochs: u64,
    /// Engine events processed per shard (one entry for sequential).
    pub per_shard_events: Vec<u64>,
    /// Engine queue high-water mark per shard (one entry for sequential).
    pub per_shard_peak_queue: Vec<u64>,
    /// PIT-record high-water mark per shard (one entry for sequential).
    pub per_shard_peak_pit: Vec<u64>,
    /// Content-store high-water mark per shard (one entry for sequential).
    pub per_shard_peak_cs: Vec<u64>,
    /// Tag-lifecycle totals.
    pub lifecycle: LifecycleTotals,
}

impl RunManifest {
    /// Feeds `put` every field of a manifest line in emission order: the
    /// one written definition both [`required_keys`](Self::required_keys)
    /// and [`to_json_line`](Self::to_json_line) run, so the two cannot
    /// drift.
    fn fields<'a>(&'a self, put: &mut dyn FnMut(&'static str, Value<'a>)) {
        put("label", Value::Str(&self.label));
        put("topology", Value::Str(&self.topology));
        put("scenario_id", Value::U64(self.scenario_id));
        put("run_idx", Value::U64(self.run_idx));
        put("seed", Value::U64(self.seed));
        put("scenario", Value::Str(&self.scenario));
        put("sim_events", Value::U64(self.sim_events));
        put("peak_queue_depth", Value::U64(self.peak_queue_depth));
        put("wall_ms", Value::U64(self.wall_ms));
        for (metric, dropped) in DropTotals::SCHEMA.iter().zip(self.drops.values()) {
            put(metric.key, Value::U64(dropped));
        }
        put("shards", Value::U64(self.shards));
        put("edge_cut", Value::U64(self.edge_cut));
        put("epochs", Value::U64(self.epochs));
        put("per_shard_events", Value::U64s(&self.per_shard_events));
        put(
            "per_shard_peak_queue",
            Value::U64s(&self.per_shard_peak_queue),
        );
        put("per_shard_peak_pit", Value::U64s(&self.per_shard_peak_pit));
        put("per_shard_peak_cs", Value::U64s(&self.per_shard_peak_cs));
        for (metric, total) in LifecycleTotals::SCHEMA.iter().zip(self.lifecycle.values()) {
            put(metric.key, Value::U64(total));
        }
    }

    /// Keys every manifest line carries, in emission order.
    pub fn required_keys() -> Vec<&'static str> {
        let mut keys = Vec::new();
        RunManifest::default().fields(&mut |key, _| keys.push(key));
        keys
    }

    /// Renders one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObject::new();
        self.fields(&mut |key, value| {
            o.field(key, value);
        });
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_required_key_in_pinned_order() {
        let m = RunManifest {
            label: "fig7".into(),
            topology: "Topo1".into(),
            scenario_id: 42,
            run_idx: 1,
            seed: 0xDEAD,
            scenario: "duration=60s clients=10".into(),
            sim_events: 1000,
            peak_queue_depth: 37,
            wall_ms: 12,
            drops: DropTotals {
                dangling_face: 0,
                reverse_face: 0,
                lossy: 3,
                link_down: 2,
                node_down: 1,
                rate_limited: 7,
                face_capped: 6,
                pit_full: 5,
            },
            shards: 4,
            edge_cut: 12,
            epochs: 900,
            per_shard_events: vec![250, 250, 250, 250],
            per_shard_peak_queue: vec![10, 9, 11, 8],
            per_shard_peak_pit: vec![4, 3, 5, 2],
            per_shard_peak_cs: vec![6, 6, 7, 5],
            lifecycle: LifecycleTotals {
                tag_renewals: 13,
                revalidations: 9,
                bf_rotations: 21,
            },
        };
        let line = m.to_json_line();
        for key in RunManifest::required_keys() {
            assert!(line.contains(&format!("\"{key}\":")), "{key} in {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
        // Manifest lines are diffed byte for byte across commits: the
        // emitted bytes are pinned, key order included.
        assert_eq!(
            line,
            "{\"label\":\"fig7\",\"topology\":\"Topo1\",\"scenario_id\":42,\"run_idx\":1,\
             \"seed\":57005,\"scenario\":\"duration=60s clients=10\",\"sim_events\":1000,\
             \"peak_queue_depth\":37,\"wall_ms\":12,\"drops_dangling_face\":0,\
             \"drops_reverse_face\":0,\"drops_lossy\":3,\"drops_link_down\":2,\
             \"drops_node_down\":1,\"drops_rate_limited\":7,\"drops_face_capped\":6,\
             \"drops_pit_full\":5,\"shards\":4,\"edge_cut\":12,\"epochs\":900,\
             \"per_shard_events\":[250,250,250,250],\"per_shard_peak_queue\":[10,9,11,8],\
             \"per_shard_peak_pit\":[4,3,5,2],\"per_shard_peak_cs\":[6,6,7,5],\
             \"tag_renewals\":13,\"revalidations\":9,\"bf_rotations\":21}"
        );
    }
}
