//! Exporters: Prometheus text exposition, a JSON snapshot document, and the
//! one-screen human report the CLI prints for `--stats`.
//!
//! All three are hand-rolled over [`MetricsSnapshot`]: the workspace has no
//! serialisation dependency to lean on (see `vendor/README.md`).

use crate::metric::{bucket_le, HistogramSnapshot, BUCKETS};
use crate::registry::{FamilySnapshot, MetricKind, MetricsSnapshot, SeriesValue};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema tag written into JSON snapshots.
pub const JSON_SCHEMA: &str = "linrv-obs/1";

fn labels_inline(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out
}

/// `{a="1",b="2"}` or the empty string for unlabeled series.
fn labels_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels_inline(labels))
    }
}

/// `{a="1",le="255"}` — the label block with `le` appended (histograms).
fn labels_block_with_le(labels: &[(String, String)], le: &str) -> String {
    let inner = labels_inline(labels);
    if inner.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{{inner},le=\"{le}\"}}")
    }
}

fn prometheus_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    hist: &HistogramSnapshot,
) {
    let highest = (0..BUCKETS).rev().find(|&i| hist.buckets[i] > 0);
    let mut cumulative = 0u64;
    if let Some(highest) = highest {
        for i in 0..=highest {
            cumulative += hist.buckets[i];
            if hist.buckets[i] == 0 && i != highest {
                continue;
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                labels_block_with_le(labels, &bucket_le(i).to_string())
            );
        }
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {cumulative}",
        labels_block_with_le(labels, "+Inf")
    );
    let _ = writeln!(out, "{name}_sum{} {}", labels_block(labels), hist.sum);
    let _ = writeln!(out, "{name}_count{} {}", labels_block(labels), hist.count);
}

/// Escapes a string for a JSON string literal (no quotes). The same rules as
/// `linrv_trace::json::write_escaped`, kept as a copy because `linrv-obs` has no
/// dependencies of its own.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

fn json_histogram(hist: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    let mut first = true;
    for i in 0..BUCKETS {
        if hist.buckets[i] == 0 {
            continue;
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        let _ = write!(buckets, "[{},{}]", bucket_le(i), hist.buckets[i]);
    }
    buckets.push(']');
    format!(
        "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":{}",
        hist.count,
        hist.sum,
        hist.min.unwrap_or(0),
        hist.max.unwrap_or(0),
        hist.quantile(0.5),
        hist.quantile(0.9),
        hist.quantile(0.99),
        buckets
    )
}

/// Renders `ns` as a human duration (`842ns`, `1.3µs`, `4.5ms`, `2.1s`).
#[must_use]
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.1}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Histogram sample values are durations when the family name says so.
fn is_duration(name: &str) -> bool {
    name.ends_with("_ns")
}

fn fmt_sample(name: &str, value: u64) -> String {
    if is_duration(name) {
        format_ns(value)
    } else {
        value.to_string()
    }
}

fn report_family(out: &mut String, family: &FamilySnapshot) {
    for series in &family.series {
        let id = format!("{}{}", family.name, labels_block(&series.labels));
        match &series.value {
            SeriesValue::Counter(0) => {}
            SeriesValue::Counter(v) => {
                let _ = writeln!(out, "  {id:<52} {v:>10}");
            }
            SeriesValue::Gauge(v) => {
                let _ = writeln!(out, "  {id:<52} {v:>10}");
            }
            SeriesValue::Histogram(h) if h.count == 0 => {}
            SeriesValue::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "  {id:<52} {:>10} {:>9} {:>9} {:>9}",
                    h.count,
                    fmt_sample(&family.name, h.quantile(0.5)),
                    fmt_sample(&family.name, h.quantile(0.99)),
                    fmt_sample(&family.name, h.max.unwrap_or(0)),
                );
            }
        }
    }
}

impl MetricsSnapshot {
    /// The snapshot in Prometheus text exposition format.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.value {
                    SeriesValue::Counter(v) => {
                        let _ =
                            writeln!(out, "{}{} {v}", family.name, labels_block(&series.labels));
                    }
                    SeriesValue::Gauge(v) => {
                        let _ =
                            writeln!(out, "{}{} {v}", family.name, labels_block(&series.labels));
                    }
                    SeriesValue::Histogram(h) => {
                        prometheus_histogram(&mut out, &family.name, &series.labels, h);
                    }
                }
            }
        }
        out
    }

    /// The snapshot as a self-describing JSON document (schema
    /// [`JSON_SCHEMA`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{JSON_SCHEMA}\",\"enabled\":{},\"families\":[",
            self.enabled
        );
        for (i, family) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
                json_escape(&family.name),
                family.kind.as_str(),
                json_escape(&family.help)
            );
            for (j, series) in family.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let labels = json_labels(&series.labels);
                match &series.value {
                    SeriesValue::Counter(v) => {
                        let _ = write!(out, "{{\"labels\":{labels},\"value\":{v}}}");
                    }
                    SeriesValue::Gauge(v) => {
                        let _ = write!(out, "{{\"labels\":{labels},\"value\":{v}}}");
                    }
                    SeriesValue::Histogram(h) => {
                        let _ = write!(out, "{{\"labels\":{labels},{}}}", json_histogram(h));
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("],\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"name\":\"{}\",\"detail\":\"{}\"}}",
                event.seq,
                json_escape(event.name),
                json_escape(&event.detail)
            );
        }
        out.push_str("]}\n");
        out
    }

    /// The one-screen human report: non-zero counters and gauges, histogram
    /// count/p50/p99/max rows, and the tail of the event ring.
    #[must_use]
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let series: usize = self.families.iter().map(|f| f.series.len()).sum();
        let _ = writeln!(
            out,
            "linrv metrics — {}, {} families, {} series",
            if self.enabled { "enabled" } else { "disabled" },
            self.families.len(),
            series,
        );
        let mut histograms = String::new();
        let mut scalars = String::new();
        for family in &self.families {
            match family.kind {
                MetricKind::Histogram => report_family(&mut histograms, family),
                _ => report_family(&mut scalars, family),
            }
        }
        if !scalars.is_empty() {
            let _ = writeln!(out, "  {:<52} {:>10}", "counters / gauges", "value");
            out.push_str(&scalars);
        }
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<52} {:>10} {:>9} {:>9} {:>9}",
                "histograms", "count", "p50", "p99", "max"
            );
            out.push_str(&histograms);
        }
        for event in self.events.iter().rev().take(5).rev() {
            let _ = writeln!(
                out,
                "  event #{:<4} {} {}",
                event.seq, event.name, event.detail
            );
        }
        out
    }

    /// Writes the snapshot to `path`: Prometheus text for `.prom`/`.txt`
    /// extensions, the JSON document otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        let prometheus = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("prom" | "txt" | "prometheus")
        );
        let body = if prometheus {
            self.to_prometheus()
        } else {
            self.to_json()
        };
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("ops_total", "ops").add(7);
        reg.gauge_with("depth", "queue depth", &[("shard", "0")])
            .set(3);
        let h = reg.histogram("lat_ns", "latency");
        h.record(100);
        h.record(2000);
        reg.declare("empty_ns", MetricKind::Histogram, "declared only");
        reg
    }

    #[test]
    fn prometheus_text_has_types_buckets_and_values() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total 7"));
        assert!(text.contains("depth{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 2100"));
        assert!(text.contains("lat_ns_count 2"));
        // Declared-but-empty families still expose their TYPE header.
        assert!(text.contains("# TYPE empty_ns histogram"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("h", "h");
        h.record(1);
        h.record(2);
        h.record(3);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"3\"} 3"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn json_is_schema_tagged_and_escaped() {
        let json = sample_registry().snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"linrv-obs/1\""));
        assert!(json.contains("\"name\":\"ops_total\""));
        assert!(json.contains("\"labels\":{\"shard\":\"0\"}"));
        assert!(json.contains("\"count\":2"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_shows_quantiles_and_skips_empty() {
        let report = sample_registry().snapshot().render_report();
        assert!(report.contains("ops_total"));
        assert!(report.contains("lat_ns"));
        assert!(
            !report.contains("empty_ns"),
            "empty families stay off-screen"
        );
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_500_000), "2.5ms");
        assert_eq!(format_ns(3_000_000_000), "3.0s");
    }
}
