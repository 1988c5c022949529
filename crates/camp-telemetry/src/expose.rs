//! Prometheus-style text exposition (version 0.0.4 format).
//!
//! A tiny builder for `# HELP`/`# TYPE` families and their samples, behind
//! the server's `--metrics-addr` endpoint. Histograms are exposed in
//! *summary* form (quantile-labelled gauges plus `_sum`/`_count`), which
//! keeps scrape output small and matches how the paper reports latencies.

use std::fmt::Write;

use crate::histogram::HistogramSnapshot;

/// The exposition type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Quantile summary of a distribution.
    Summary,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// Builds one exposition document.
///
/// # Examples
///
/// ```
/// use camp_telemetry::{Exposition, MetricKind};
///
/// let mut exp = Exposition::new();
/// exp.family("camp_get_hits_total", "get hits", MetricKind::Counter);
/// exp.int_value("camp_get_hits_total", &[("shard", "0")], 17);
/// let text = exp.render();
/// assert!(text.contains("camp_get_hits_total{shard=\"0\"} 17"));
/// ```
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    #[must_use]
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Emits the `# HELP` and `# TYPE` header for a family. Call once per
    /// family, before its samples.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
    }

    fn labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (key, value)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(key);
            self.out.push_str("=\"");
            for ch in value.chars() {
                match ch {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    other => self.out.push(other),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// One integer-valued sample.
    pub fn int_value(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        self.labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Summary samples for a histogram: `{quantile="…"}` lines for
    /// p50/p90/p99/p999, plus `_sum` and `_count`. Extra labels are
    /// prepended to the quantile label.
    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        for (q, text) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", text));
            self.int_value(name, &with_q, snap.quantile(q));
        }
        self.int_value(&format!("{name}_sum"), labels, snap.sum);
        self.int_value(&format!("{name}_count"), labels, snap.count);
    }

    /// The assembled document.
    #[must_use]
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn families_and_samples_render_in_order() {
        let mut exp = Exposition::new();
        exp.family("camp_items", "live items", MetricKind::Gauge);
        exp.int_value("camp_items", &[], 3);
        let text = exp.render();
        assert!(text.starts_with("# HELP camp_items live items\n# TYPE camp_items gauge\n"));
        assert!(text.contains("camp_items 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut exp = Exposition::new();
        exp.int_value("m", &[("k", "a\"b\\c")], 1);
        assert_eq!(exp.render(), "m{k=\"a\\\"b\\\\c\"} 1\n");
    }

    #[test]
    fn summary_emits_quantiles_sum_count() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let mut exp = Exposition::new();
        exp.family("lat_us", "latency", MetricKind::Summary);
        exp.summary("lat_us", &[("cmd", "get")], &h.snapshot());
        let text = exp.render();
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(
                text.contains(&format!("lat_us{{cmd=\"get\",quantile=\"{q}\"}}")),
                "{text}"
            );
        }
        assert!(text.contains("lat_us_sum{cmd=\"get\"} 5050\n"), "{text}");
        assert!(text.contains("lat_us_count{cmd=\"get\"} 100\n"), "{text}");
    }
}
