//! Renderers for [`MetricsSnapshot`]: a Prometheus-style text exposition and a
//! JSON document, both built from the same snapshot a
//! [`crate::Request::MetricsSnapshot`] envelope carries over the wire.
//!
//! The exposition follows the Prometheus conventions: counters get a `_total`
//! suffix, histograms are **cumulative** with an explicit `+Inf` bucket, and
//! dimensioned series (per lane, per shard) carry labels. Every family is
//! prefixed `mkse_` so a scrape of a mixed fleet stays unambiguous.
//!
//! Bucket upper bounds: the registry buckets durations by `floor(log2(ns))`
//! ([`mkse_core::telemetry::bucket_index`]), so bucket `i` covers
//! `[2^i, 2^(i+1))` ns and its inclusive Prometheus `le` bound is
//! `2^(i+1) − 1`.

use mkse_core::telemetry::MetricsSnapshot;
use std::fmt::Write as _;

/// Inclusive `le` upper bound of log₂ bucket `i` (`2^(i+1) − 1` ns, saturating
/// at `u64::MAX` for the last bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Render a snapshot as Prometheus-style text exposition.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP mkse_telemetry_level Recording level of the registry (0=off, 1=counters, 2=spans).\n\
         # TYPE mkse_telemetry_level gauge\n\
         mkse_telemetry_level{{level=\"{}\"}} {}",
        snapshot.level.name(),
        snapshot.level as u8
    );
    for (name, value) in &snapshot.counters {
        let _ = writeln!(
            out,
            "# TYPE mkse_{name}_total counter\nmkse_{name}_total {value}"
        );
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE mkse_{name} gauge\nmkse_{name} {value}");
    }
    for h in &snapshot.histograms {
        let family = "mkse_stage_duration_ns";
        let _ = writeln!(out, "# TYPE {family} histogram");
        let mut cumulative = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{family}_bucket{{stage=\"{}\",le=\"{}\"}} {cumulative}",
                h.stage,
                bucket_upper_bound(i)
            );
        }
        let _ = writeln!(
            out,
            "{family}_bucket{{stage=\"{}\",le=\"+Inf\"}} {}",
            h.stage, h.count
        );
        let _ = writeln!(out, "{family}_sum{{stage=\"{}\"}} {}", h.stage, h.sum_ns);
        let _ = writeln!(out, "{family}_count{{stage=\"{}\"}} {}", h.stage, h.count);
    }
    for v in &snapshot.values {
        // Unit-free log₂ histograms get their own family per series — they are
        // counts (e.g. batch occupancy), not nanoseconds, so they must never
        // share the stage-duration family.
        let family = format!("mkse_{}", v.series);
        let _ = writeln!(out, "# TYPE {family} histogram");
        let mut cumulative = 0u64;
        for (i, count) in v.buckets.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{family}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper_bound(i)
            );
        }
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", v.count);
        let _ = writeln!(out, "{family}_sum {}", v.sum);
        let _ = writeln!(out, "{family}_count {}", v.count);
    }
    for lane in &snapshot.lanes {
        for (name, value) in [
            ("executed", lane.executed),
            ("stolen", lane.stolen),
            ("failed_steals", lane.failed_steals),
            ("idle_polls", lane.idle_polls),
        ] {
            let _ = writeln!(
                out,
                "mkse_lane_{name}_total{{lane=\"{}\"}} {value}",
                lane.lane
            );
        }
    }
    for shard in &snapshot.shard_caches {
        for (name, value) in [
            ("hits", shard.hits),
            ("misses", shard.misses),
            ("invalidations", shard.invalidations),
        ] {
            let _ = writeln!(
                out,
                "mkse_shard_cache_{name}_total{{shard=\"{}\"}} {value}",
                shard.shard
            );
        }
    }
    for conn in &snapshot.connections {
        for (name, value) in [
            ("frames_in", conn.frames_in),
            ("frames_out", conn.frames_out),
            ("bytes_in", conn.bytes_in),
            ("bytes_out", conn.bytes_out),
        ] {
            let _ = writeln!(
                out,
                "mkse_connection_{name}_total{{connection=\"{}\"}} {value}",
                conn.connection
            );
        }
    }
    out
}

/// Render a snapshot as one JSON document. Every key and every string value is
/// a registry-controlled `snake_case` identifier, so no escaping is needed.
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"level\":\"{}\"", snapshot.level.name());
    let kv_map = |out: &mut String, key: &str, entries: &[(String, u64)]| {
        let _ = write!(out, ",\"{key}\":{{");
        for (i, (name, value)) in entries.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{name}\":{value}");
        }
        out.push('}');
    };
    kv_map(&mut out, "counters", &snapshot.counters);
    kv_map(&mut out, "gauges", &snapshot.gauges);
    let _ = write!(out, ",\"histograms\":[");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
        let _ = write!(
            out,
            "{comma}{{\"stage\":\"{}\",\"count\":{},\"sum_ns\":{},\"buckets\":[{}]}}",
            h.stage,
            h.count,
            h.sum_ns,
            buckets.join(",")
        );
    }
    let _ = write!(out, "],\"values\":[");
    for (i, v) in snapshot.values.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let buckets: Vec<String> = v.buckets.iter().map(|b| b.to_string()).collect();
        let _ = write!(
            out,
            "{comma}{{\"series\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            v.series,
            v.count,
            v.sum,
            buckets.join(",")
        );
    }
    let _ = write!(out, "],\"lanes\":[");
    for (i, l) in snapshot.lanes.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}{{\"lane\":{},\"executed\":{},\"stolen\":{},\"failed_steals\":{},\"idle_polls\":{}}}",
            l.lane, l.executed, l.stolen, l.failed_steals, l.idle_polls
        );
    }
    let _ = write!(out, "],\"shard_caches\":[");
    for (i, s) in snapshot.shard_caches.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}{{\"shard\":{},\"hits\":{},\"misses\":{},\"invalidations\":{}}}",
            s.shard, s.hits, s.misses, s.invalidations
        );
    }
    let _ = write!(out, "],\"connections\":[");
    for (i, c) in snapshot.connections.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}{{\"connection\":{},\"frames_in\":{},\"frames_out\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
            c.connection, c.frames_in, c.frames_out, c.bytes_in, c.bytes_out
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::telemetry::{
        Counter, Gauge, LaneStats, Series, Stage, Telemetry, TelemetryLevel, HISTOGRAM_BUCKETS,
    };

    fn populated_snapshot() -> MetricsSnapshot {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Spans);
        tel.add(Counter::BatchQueries, 3);
        tel.add(Counter::WireBytesOut, 1024);
        tel.set_gauge(Gauge::ScanLanes, 2);
        tel.record_duration(Stage::UnitScan, 5); // bucket 2
        tel.record_duration(Stage::UnitScan, 900); // bucket 9
        tel.record_value(Series::BatchOccupancy, 1); // bucket 0
        tel.record_value(Series::BatchOccupancy, 6); // bucket 2
        tel.record_lane(
            1,
            &LaneStats {
                executed: 4,
                stolen: 2,
                failed_cas: 1,
                idle_polls: 3,
            },
        );
        tel.record_cache_lookup(0, true);
        tel.record_cache_lookup(0, false);
        tel.record_conn_frame_in(3, 96);
        tel.record_conn_frame_out(3, 200);
        tel.snapshot()
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive_log2_edges() {
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(62), (1u64 << 63) - 1);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_labelled() {
        let text = render_prometheus(&populated_snapshot());
        assert!(text.contains("mkse_telemetry_level{level=\"spans\"} 2"));
        assert!(text.contains("# TYPE mkse_batch_queries_total counter"));
        assert!(text.contains("mkse_batch_queries_total 3"));
        assert!(text.contains("mkse_scan_lanes 2"));
        // Cumulative buckets: the 5 ns sample is <= 7, the 900 ns one <= 1023.
        assert!(text.contains("mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"7\"} 1"));
        assert!(text.contains("mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"1023\"} 2"));
        assert!(text.contains("mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"+Inf\"} 2"));
        assert!(text.contains("mkse_stage_duration_ns_count{stage=\"unit_scan\"} 2"));
        assert!(text.contains("mkse_lane_stolen_total{lane=\"1\"} 2"));
        assert!(text.contains("mkse_shard_cache_hits_total{shard=\"0\"} 1"));
        assert!(text.contains("mkse_shard_cache_misses_total{shard=\"0\"} 1"));
        // Unit-free value histograms get their own family: the occupancy 1 is
        // <= 1, the occupancy 6 <= 7, cumulative.
        assert!(text.contains("# TYPE mkse_batch_occupancy histogram"));
        assert!(text.contains("mkse_batch_occupancy_bucket{le=\"1\"} 1"));
        assert!(text.contains("mkse_batch_occupancy_bucket{le=\"7\"} 2"));
        assert!(text.contains("mkse_batch_occupancy_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mkse_batch_occupancy_sum 7"));
        assert!(text.contains("mkse_batch_occupancy_count 2"));
        // Per-connection wire traffic is labelled by connection slot.
        assert!(text.contains("mkse_connection_frames_in_total{connection=\"3\"} 1"));
        assert!(text.contains("mkse_connection_bytes_out_total{connection=\"3\"} 200"));
    }

    #[test]
    fn json_document_is_balanced_and_complete() {
        let snapshot = populated_snapshot();
        let json = render_json(&snapshot);
        assert!(json.starts_with("{\"level\":\"spans\""));
        assert!(json.contains("\"batch_queries\":3"));
        assert!(json.contains("\"stage\":\"unit_scan\""));
        assert!(json.contains("\"lane\":1"));
        assert!(json.contains("\"shard\":0,\"hits\":1,\"misses\":1"));
        assert!(json.contains("\"series\":\"batch_occupancy\",\"count\":2,\"sum\":7"));
        assert!(json.contains(
            "\"connection\":3,\"frames_in\":1,\"frames_out\":1,\"bytes_in\":96,\"bytes_out\":200"
        ));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // An empty registry still renders complete counter/gauge maps.
        let empty = render_json(&Telemetry::new().snapshot());
        assert!(empty.contains("\"requests_served\":0"));
        assert!(empty.contains("\"histograms\":[]"));
    }
}
