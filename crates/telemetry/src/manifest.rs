//! Per-run provenance records.
//!
//! The experiment runner writes one [`RunManifest`] JSON line per grid
//! cell next to each CSV it produces (`<experiment>.manifest.jsonl`), so
//! every figure stays traceable to the exact (seed, topology, scenario)
//! that produced it.

use crate::json::JsonObject;

/// Everything needed to reproduce (and sanity-check) one simulation run.
#[derive(Debug, Clone, PartialEq)]
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
    /// Packets dropped because the forwarding state pointed at a face the
    /// topology no longer backs.
    pub drops_dangling_face: u64,
    /// Replies dropped because the reverse face disappeared mid-flight.
    pub drops_reverse_face: u64,
    /// Packets eaten by the fault plan's loss model.
    pub drops_lossy: u64,
    /// Packets dropped on links scheduled down by the fault plan.
    pub drops_link_down: u64,
    /// Packets dropped at nodes crashed by the fault plan.
    pub drops_node_down: u64,
    /// Packets rejected by the per-client token-bucket rate limit.
    pub drops_rate_limited: u64,
    /// Packets rejected by the per-face fairness cap.
    pub drops_face_capped: u64,
    /// Pending records evicted by a bounded PIT.
    pub drops_pit_full: u64,
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
    /// Tags issued to principals that still held an unexpired tag
    /// (issuance/renewal churn at the providers).
    pub tag_renewals: u64,
    /// Full signature re-validations forced by validation-cache churn —
    /// the router had already validated the tag, but a reset/rotation
    /// evicted the registration (0 unless the scenario tracks them).
    pub revalidations: u64,
    /// Generation rotations across all routers (0 under the
    /// monolithic-reset cache policy).
    pub bf_rotations: u64,
}

/// One manifest value, as the JSON writer needs it.
enum Value<'a> {
    Str(&'a str),
    U64(u64),
    U64s(&'a [u64]),
}

/// Reads one field's value out of a manifest.
type Get = fn(&RunManifest) -> Value<'_>;

/// Every manifest line's fields, in emission order: the one table both
/// [`RunManifest::REQUIRED_KEYS`] and [`RunManifest::to_json_line`] are
/// driven from, so the two cannot drift.
const FIELDS: [(&str, Get); 27] = [
    ("label", |m| Value::Str(&m.label)),
    ("topology", |m| Value::Str(&m.topology)),
    ("scenario_id", |m| Value::U64(m.scenario_id)),
    ("run_idx", |m| Value::U64(m.run_idx)),
    ("seed", |m| Value::U64(m.seed)),
    ("scenario", |m| Value::Str(&m.scenario)),
    ("sim_events", |m| Value::U64(m.sim_events)),
    ("peak_queue_depth", |m| Value::U64(m.peak_queue_depth)),
    ("wall_ms", |m| Value::U64(m.wall_ms)),
    ("drops_dangling_face", |m| Value::U64(m.drops_dangling_face)),
    ("drops_reverse_face", |m| Value::U64(m.drops_reverse_face)),
    ("drops_lossy", |m| Value::U64(m.drops_lossy)),
    ("drops_link_down", |m| Value::U64(m.drops_link_down)),
    ("drops_node_down", |m| Value::U64(m.drops_node_down)),
    ("drops_rate_limited", |m| Value::U64(m.drops_rate_limited)),
    ("drops_face_capped", |m| Value::U64(m.drops_face_capped)),
    ("drops_pit_full", |m| Value::U64(m.drops_pit_full)),
    ("shards", |m| Value::U64(m.shards)),
    ("edge_cut", |m| Value::U64(m.edge_cut)),
    ("epochs", |m| Value::U64(m.epochs)),
    ("per_shard_events", |m| Value::U64s(&m.per_shard_events)),
    ("per_shard_peak_queue", |m| {
        Value::U64s(&m.per_shard_peak_queue)
    }),
    ("per_shard_peak_pit", |m| Value::U64s(&m.per_shard_peak_pit)),
    ("per_shard_peak_cs", |m| Value::U64s(&m.per_shard_peak_cs)),
    ("tag_renewals", |m| Value::U64(m.tag_renewals)),
    ("revalidations", |m| Value::U64(m.revalidations)),
    ("bf_rotations", |m| Value::U64(m.bf_rotations)),
];

impl RunManifest {
    /// Keys every manifest line carries, in emission order.
    pub const REQUIRED_KEYS: [&'static str; 27] = {
        let mut keys = [""; 27];
        let mut i = 0;
        while i < keys.len() {
            keys[i] = FIELDS[i].0;
            i += 1;
        }
        keys
    };

    /// Renders one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObject::new();
        for (key, value) in FIELDS {
            match value(self) {
                Value::Str(v) => o.field_str(key, v),
                Value::U64(v) => o.field_u64(key, v),
                Value::U64s(v) => o.field_u64_array(key, v),
            };
        }
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
            drops_dangling_face: 0,
            drops_reverse_face: 0,
            drops_lossy: 3,
            drops_link_down: 2,
            drops_node_down: 1,
            drops_rate_limited: 7,
            drops_face_capped: 6,
            drops_pit_full: 5,
            shards: 4,
            edge_cut: 12,
            epochs: 900,
            per_shard_events: vec![250, 250, 250, 250],
            per_shard_peak_queue: vec![10, 9, 11, 8],
            per_shard_peak_pit: vec![4, 3, 5, 2],
            per_shard_peak_cs: vec![6, 6, 7, 5],
            tag_renewals: 13,
            revalidations: 9,
            bf_rotations: 21,
        };
        let line = m.to_json_line();
        for key in RunManifest::REQUIRED_KEYS {
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
