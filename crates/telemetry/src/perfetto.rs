//! Chrome/Perfetto `trace.json` export.
//!
//! Renders the observability artifacts of a run — shard epoch spans
//! (wall-clock) and sampled counter tracks (sim-time) — in the Chrome
//! trace-event format that `ui.perfetto.dev` and `chrome://tracing`
//! load directly: a `{"traceEvents":[...]}` document of `ph:"X"`
//! complete slices, `ph:"C"` counters, and `ph:"M"` metadata records,
//! timestamps in microseconds.
//!
//! Wall-clock lanes and sim-time counters live in separate trace
//! *processes* (`pid` 1 and 2) so the two timelines never visually
//! interleave. Like `profile.jsonl`, the trace is **non-golden**.

use crate::json::JsonObject;
use crate::profile::EpochSpan;
use crate::timeseries::SampleRow;

/// Trace process id for wall-clock shard lanes.
const PID_SHARDS: u64 = 1;
/// Trace process id for sim-time counter tracks.
const PID_SIM: u64 = 2;

/// Builds a Chrome trace-event document event by event.
#[derive(Debug, Default)]
struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// Names a trace process (`kind` = `process_name`, `tid` 0) or a
    /// trace thread (`thread_name`, one lane in the Perfetto UI): a
    /// `ph:"M"` metadata record.
    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) -> &mut Self {
        let mut args = JsonObject::new();
        args.field_str("name", name);
        let mut o = JsonObject::new();
        o.field_str("ph", "M")
            .field_str("name", kind)
            .field_u64("pid", pid)
            .field_u64("tid", tid)
            .field_raw("args", &args.finish());
        self.events.push(o.finish());
        self
    }

    /// Adds a complete slice (`ph:"X"`): `ts`/`dur` in microseconds,
    /// optional pre-rendered `args` JSON object.
    fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: Option<&str>,
    ) -> &mut Self {
        let mut o = JsonObject::new();
        o.field_str("ph", "X")
            .field_str("name", name)
            .field_u64("pid", pid)
            .field_u64("tid", tid)
            .field_f64("ts", ts_us)
            .field_f64("dur", dur_us);
        if let Some(a) = args {
            o.field_raw("args", a);
        }
        self.events.push(o.finish());
        self
    }

    /// Adds a counter sample (`ph:"C"`): one track named `name` whose
    /// value at `ts_us` is `value`.
    fn counter(&mut self, pid: u64, name: &str, ts_us: f64, value: f64) -> &mut Self {
        let mut args = JsonObject::new();
        args.field_f64("value", value);
        let mut o = JsonObject::new();
        o.field_str("ph", "C")
            .field_str("name", name)
            .field_u64("pid", pid)
            .field_u64("tid", 0)
            .field_f64("ts", ts_us)
            .field_raw("args", &args.finish());
        self.events.push(o.finish());
        self
    }

    /// Closes the document: `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
    fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Renders the standard run trace: one wall-clock lane per shard
/// (epoch slices followed by their barrier waits, from `epochs`) and
/// sim-time counter tracks (queue depth, in-flight, PIT, CS, BF
/// occupancy/FPP) from the sampled `rows`.
pub fn run_trace_json(label: &str, epochs: &[EpochSpan], rows: &[SampleRow]) -> String {
    const NS_PER_US: f64 = 1_000.0;
    let mut t = TraceBuilder::default();
    let shards = format!("{label} shards (wall-clock)");
    t.metadata("process_name", PID_SHARDS, 0, &shards);
    let sampler = format!("{label} sampler (sim-time)");
    t.metadata("process_name", PID_SIM, 0, &sampler);
    let mut named: Vec<u32> = Vec::new();
    for e in epochs {
        if !named.contains(&e.shard) {
            named.push(e.shard);
            let lane = format!("shard {}", e.shard);
            t.metadata("thread_name", PID_SHARDS, u64::from(e.shard), &lane);
        }
        let mut args = JsonObject::new();
        args.field_u64("epoch", e.epoch).field_u64("inbox", e.inbox);
        t.complete(
            PID_SHARDS,
            u64::from(e.shard),
            "epoch",
            e.start_ns as f64 / NS_PER_US,
            e.work_ns as f64 / NS_PER_US,
            Some(&args.finish()),
        );
        if e.wait_ns > 0 {
            t.complete(
                PID_SHARDS,
                u64::from(e.shard),
                "barrier",
                (e.start_ns + e.work_ns) as f64 / NS_PER_US,
                e.wait_ns as f64 / NS_PER_US,
                None,
            );
        }
    }
    for r in rows {
        let ts = r.t_ns as f64 / NS_PER_US;
        t.counter(PID_SIM, "queue_depth", ts, r.queue_depth as f64);
        t.counter(PID_SIM, "in_flight", ts, r.in_flight() as f64);
        t.counter(PID_SIM, "pit_records", ts, r.pit_records as f64);
        t.counter(PID_SIM, "cs_entries", ts, r.cs_entries as f64);
        t.counter(PID_SIM, "bf_occupancy", ts, r.bf_occupancy());
        t.counter(PID_SIM, "bf_fpp_mean", ts, r.bf_fpp_mean());
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_required_fields() {
        let mut t = TraceBuilder::default();
        t.metadata("process_name", 1, 0, "p")
            .metadata("thread_name", 1, 2, "lane")
            .complete(1, 2, "work", 0.5, 2.0, None)
            .counter(2, "depth", 1.0, 3.0);
        let json = t.finish();
        assert_eq!(json.matches("{\"ph\":").count(), 4);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"name\":"] {
            assert!(json.contains(field), "missing {field}");
        }
        assert!(json.contains("\"args\":{\"value\":3}"));
    }

    #[test]
    fn run_trace_renders_one_lane_per_shard_and_counter_tracks() {
        let epochs = [
            EpochSpan {
                shard: 0,
                epoch: 0,
                start_ns: 0,
                work_ns: 1_000,
                wait_ns: 500,
                inbox: 2,
            },
            EpochSpan {
                shard: 1,
                epoch: 0,
                start_ns: 0,
                work_ns: 1_500,
                wait_ns: 0,
                inbox: 0,
            },
        ];
        let rows = [SampleRow {
            tick: 0,
            t_ns: 1_000_000,
            queue_depth: 7,
            ..SampleRow::default()
        }];
        let json = run_trace_json("tactic", &epochs, &rows);
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"shard 1\""));
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"name\":\"barrier\""));
        assert!(json.contains("\"name\":\"bf_occupancy\""));
        assert!(json.contains("\"name\":\"queue_depth\""));
        // shard 1 had no wait: exactly one barrier slice.
        assert_eq!(json.matches("\"name\":\"barrier\"").count(), 1);
    }
}
