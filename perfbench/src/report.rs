//! The benchmark's result: human-readable report lines plus the metrics of
//! the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run (`--trace 0`) on every
/// workload. Their meaning per workload is documented in `README.md`.
/// `latency_us_p99` is printed in the report lines only: on a shared host
/// it moved by more than any usable bound from run to run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("shots_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("modeled_ns_mean", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`) on every
/// workload; a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("micro.decode_us.fast", "us"),
    ("micro.decode_us.escalated", "us"),
    ("predecoder.fast_path_rate", "ratio"),
    ("accel.pus_touched_per_shot", "count"),
    ("accel.active_peak", "count"),
    ("accel.hw_cycles_per_shot", "count"),
    ("accel.bus_reads_per_shot", "count"),
    ("accel.bus_writes_per_shot", "count"),
    ("primal.cpu_obstacles_per_shot", "count"),
    ("extract.us_per_shot", "us"),
    ("setup.graph_s", "s"),
    ("setup.backend_build_s", "s"),
    ("pipeline.efficiency", "ratio"),
    ("pipeline.backends_built", "count"),
    ("stream.ingest_us", "us"),
    ("stream.queue_depth_peak", "count"),
    ("stream.finish_p99_us", "us"),
    ("stream.bank_switches", "count"),
    ("gen.lag_us_p99", "us"),
    ("gen.input_us_per_shot", "us"),
    ("window.seam_redecode_ratio", "ratio"),
    ("window.max_resident_rounds", "count"),
    ("window.finish_us", "us"),
    ("window.backends_built", "count"),
    ("trace.overhead_pct", "%"),
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whether every delivered outcome matched the direct decode of its
    /// input and every shot was delivered exactly once.
    pub correct: bool,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// A report whose per-layer metrics read 0 until the workload sets
    /// them: a layer the workload does not run reads 0.
    pub fn new() -> Self {
        Self {
            correct: true,
            metrics: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            ..Self::default()
        }
    }

    /// Sets a metric's value (its name must be in one of the lists above).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Takes over `section`'s metrics whose names start with one of
    /// `prefixes`, its report lines (indented, under `title`) and its
    /// output checks: `correct` only if both are, and `attempted` and
    /// `failed` summed.
    pub fn adopt(&mut self, title: &str, section: Report, prefixes: &[&str]) {
        self.line(title);
        for line in section.lines {
            self.line(format!("  {line}"));
        }
        for (name, value) in section.metrics {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.insert(name, value);
            }
        }
        self.correct &= section.correct;
        self.attempted += section.attempted;
        self.failed += section.failed;
    }

    /// Adds a human-readable report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Prints the report lines and, last, the JSON result line with the
    /// metric set of this run. Fails if a metric of the set was not
    /// measured.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for line in &self.lines {
            println!("{line}");
        }
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in set {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}
