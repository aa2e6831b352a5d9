//! Renderers for [`MetricsSnapshot`]: a Prometheus-style text exposition, a
//! JSON document and a compact text listing, all built from the same snapshot
//! a [`crate::Request::MetricsSnapshot`] envelope carries over the wire. Each
//! renderer writes one loop per registry shape: counter (unlabelled and
//! labelled), gauge, log₂ histogram.
//!
//! The exposition follows the Prometheus conventions: counters get a `_total`
//! suffix, histograms are **cumulative** with an explicit `+Inf` bucket, and a
//! labelled counter carries its one label (`lane`, `shard` or `connection`).
//! Every family is prefixed `mkse_` so a scrape of a mixed fleet stays
//! unambiguous.
//!
//! Bucket upper bounds: the registry buckets values by `floor(log2(v))`
//! ([`mkse_core::telemetry::bucket_index`]), so bucket `i` covers
//! `[2^i, 2^(i+1))` and its inclusive Prometheus `le` bound is `2^(i+1) − 1`.

use mkse_core::telemetry::MetricsSnapshot;
use std::fmt::Write as _;

/// Inclusive `le` upper bound of log₂ bucket `i` (`2^(i+1) − 1`, saturating
/// at `u64::MAX` for the last bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// One log₂ histogram as the renderers see it, whatever its unit.
struct Histogram<'a> {
    /// Stage or series name.
    name: &'a str,
    /// Nanoseconds (a stage) rather than a count (a series).
    duration: bool,
    count: u64,
    sum: u64,
    buckets: &'a [u64],
}

/// The snapshot's stage histograms, then its series.
fn histograms(snapshot: &MetricsSnapshot) -> impl Iterator<Item = Histogram<'_>> {
    let stages = snapshot.histograms.iter().map(|h| Histogram {
        name: &h.stage,
        duration: true,
        count: h.count,
        sum: h.sum_ns,
        buckets: &h.buckets,
    });
    let series = snapshot.values.iter().map(|v| Histogram {
        name: &v.series,
        duration: false,
        count: v.count,
        sum: v.sum,
        buckets: &v.buckets,
    });
    stages.chain(series)
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
    let mut family = "";
    for row in &snapshot.labelled {
        if row.name != family {
            family = &row.name;
            let _ = writeln!(out, "# TYPE mkse_{family}_total counter");
        }
        let _ = writeln!(
            out,
            "mkse_{family}_total{{{}=\"{}\"}} {}",
            row.label, row.index, row.value
        );
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE mkse_{name} gauge\nmkse_{name} {value}");
    }
    let mut family = String::new();
    for h in histograms(snapshot) {
        // Durations share one family under a `stage` label; a count series
        // is a family of its own, so no count is ever read as a latency.
        let (name, le, selector) = if h.duration {
            let stage = format!("stage=\"{}\"", h.name);
            let family = "mkse_stage_duration_ns".to_string();
            (family, format!("{stage},"), format!("{{{stage}}}"))
        } else {
            (format!("mkse_{}", h.name), String::new(), String::new())
        };
        if name != family {
            family = name;
            let _ = writeln!(out, "# TYPE {family} histogram");
        }
        let mut cumulative = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cumulative += count;
            let bound = bucket_upper_bound(i);
            let _ = writeln!(out, "{family}_bucket{{{le}le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{family}_bucket{{{le}le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{family}_sum{selector} {}", h.sum);
        let _ = writeln!(out, "{family}_count{selector} {}", h.count);
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
    let _ = write!(out, ",\"labelled\":[");
    for (i, row) in snapshot.labelled.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}{{\"name\":\"{}\",\"label\":\"{}\",\"index\":{},\"value\":{}}}",
            row.name, row.label, row.index, row.value
        );
    }
    out.push(']');
    kv_map(&mut out, "gauges", &snapshot.gauges);
    // Durations under "histograms" (`stage`, `sum_ns`), counts under
    // "values" (`series`, `sum`).
    for (key, duration, name_key, sum_key) in [
        ("histograms", true, "stage", "sum_ns"),
        ("values", false, "series", "sum"),
    ] {
        let _ = write!(out, ",\"{key}\":[");
        for (i, h) in histograms(snapshot)
            .filter(|h| h.duration == duration)
            .enumerate()
        {
            let comma = if i > 0 { "," } else { "" };
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            let _ = write!(
                out,
                "{comma}{{\"{name_key}\":\"{}\",\"count\":{},\"{sum_key}\":{},\"buckets\":[{}]}}",
                h.name,
                h.count,
                h.sum,
                buckets.join(",")
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Render a snapshot as a compact listing, one indented line per nonzero
/// counter (labelled rows as `name{label=index}`), nonzero gauge and recorded
/// histogram (its sample count and mean).
pub fn render_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot.counters.iter().filter(|(_, v)| *v > 0) {
        let _ = writeln!(out, "  {name:<24} {value}");
    }
    for row in &snapshot.labelled {
        let name = format!("{}{{{}={}}}", row.name, row.label, row.index);
        let _ = writeln!(out, "  {name:<24} {}", row.value);
    }
    for (name, value) in snapshot.gauges.iter().filter(|(_, v)| *v > 0) {
        let _ = writeln!(out, "  {name:<24} {value} (gauge)");
    }
    for h in histograms(snapshot) {
        let unit = if h.duration { " ns" } else { "" };
        let mean = h.sum / h.count.max(1);
        let _ = writeln!(
            out,
            "  {:<24} {} samples, avg {mean}{unit}",
            h.name, h.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::telemetry::{
        Counter, Gauge, LabelledCounter, Series, Stage, Telemetry, TelemetryLevel,
        HISTOGRAM_BUCKETS,
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
        for (counter, index, n) in [
            (LabelledCounter::LaneExecuted, 1, 4),
            (LabelledCounter::ShardCacheHits, 0, 1),
            (LabelledCounter::ShardCacheMisses, 0, 1),
            (LabelledCounter::ShardCacheGenerationBumps, 2, 1),
            (LabelledCounter::ConnectionFramesIn, 3, 1),
            (LabelledCounter::ConnectionBytesIn, 3, 96),
            (LabelledCounter::ConnectionFramesOut, 3, 1),
            (LabelledCounter::ConnectionBytesOut, 3, 200),
        ] {
            tel.add_at(counter, index, n);
        }
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
        assert!(text.contains("# TYPE mkse_batch_queries_total counter"));
        assert!(text.contains("# TYPE mkse_lane_executed_total counter"));
        assert!(text.contains("# TYPE mkse_batch_occupancy histogram"));
        assert_eq!(
            text.matches("# TYPE mkse_stage_duration_ns histogram")
                .count(),
            1,
            "one TYPE line per family"
        );
        // Every nonzero series line of the exposition before the registry had
        // one labelled-counter shape, verbatim. Cumulative buckets: the 5 ns
        // sample is <= 7, the 900 ns one <= 1023; the occupancy 1 is <= 1,
        // the occupancy 6 <= 7.
        let pinned = [
            "mkse_telemetry_level{level=\"spans\"} 2",
            "mkse_batch_queries_total 3",
            "mkse_wire_bytes_out_total 1024",
            "mkse_scan_lanes 2",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"7\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"15\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"31\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"63\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"127\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"255\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"511\"} 1",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"1023\"} 2",
            "mkse_stage_duration_ns_bucket{stage=\"unit_scan\",le=\"+Inf\"} 2",
            "mkse_stage_duration_ns_sum{stage=\"unit_scan\"} 905",
            "mkse_stage_duration_ns_count{stage=\"unit_scan\"} 2",
            "mkse_batch_occupancy_bucket{le=\"1\"} 1",
            "mkse_batch_occupancy_bucket{le=\"3\"} 1",
            "mkse_batch_occupancy_bucket{le=\"7\"} 2",
            "mkse_batch_occupancy_bucket{le=\"+Inf\"} 2",
            "mkse_batch_occupancy_sum 7",
            "mkse_batch_occupancy_count 2",
            "mkse_lane_executed_total{lane=\"1\"} 4",
            "mkse_shard_cache_hits_total{shard=\"0\"} 1",
            "mkse_shard_cache_misses_total{shard=\"0\"} 1",
            "mkse_connection_frames_in_total{connection=\"3\"} 1",
            "mkse_connection_frames_out_total{connection=\"3\"} 1",
            "mkse_connection_bytes_in_total{connection=\"3\"} 96",
            "mkse_connection_bytes_out_total{connection=\"3\"} 200",
        ];
        let lines: Vec<&str> = text.lines().collect();
        for line in pinned {
            assert!(lines.contains(&line), "missing: {line}");
        }
        assert!(lines.contains(&"mkse_shard_cache_generation_bumps_total{shard=\"2\"} 1"));
    }

    #[test]
    fn json_document_is_balanced_and_complete() {
        let snapshot = populated_snapshot();
        let json = render_json(&snapshot);
        assert!(json.starts_with("{\"level\":\"spans\""));
        assert!(json.contains("\"batch_queries\":3"));
        assert!(json.contains("\"scan_lanes\":2"));
        assert!(json.contains("\"stage\":\"unit_scan\",\"count\":2,\"sum_ns\":905"));
        assert!(json
            .contains("{\"name\":\"lane_executed\",\"label\":\"lane\",\"index\":1,\"value\":4}"));
        assert!(json.contains(
            "{\"name\":\"shard_cache_hits\",\"label\":\"shard\",\"index\":0,\"value\":1}"
        ));
        assert!(json.contains("\"series\":\"batch_occupancy\",\"count\":2,\"sum\":7"));
        assert!(json.contains(
            "{\"name\":\"connection_bytes_out\",\"label\":\"connection\",\"index\":3,\"value\":200}"
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
        assert!(empty.contains("\"labelled\":[]"));
        assert!(empty.contains("\"histograms\":[]"));
        assert!(empty.contains("\"values\":[]"));
    }

    #[test]
    fn text_listing_names_each_nonzero_metric_once() {
        let text = render_text(&populated_snapshot());
        let line = |prefix: &str| {
            let found: Vec<&str> = text
                .lines()
                .filter(|l| l.trim_start().starts_with(prefix))
                .collect();
            assert_eq!(found.len(), 1, "{prefix}: {found:?}");
            found[0]
                .split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(line("batch_queries "), "3");
        assert_eq!(line("lane_executed{lane=1}"), "4");
        assert_eq!(line("connection_bytes_in{connection=3}"), "96");
        assert_eq!(line("scan_lanes "), "2 (gauge)");
        assert_eq!(line("unit_scan "), "2 samples, avg 452 ns");
        assert_eq!(line("batch_occupancy "), "2 samples, avg 3");
        assert!(
            !text.contains("requests_served"),
            "zero counters are left out"
        );
    }
}
