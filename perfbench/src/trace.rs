//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span and a shot id shared by
//! every span of one shot (or one batch call). They stay in memory while the
//! workload runs and are written out once at the end; a layer's self time is
//! its spans' duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are ns since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub shot: u64,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `instant`.
    pub fn ns_at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, shot: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.record(name, parent, shot, start_ns, start_ns)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Records a span whose times were taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        shot: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            shot,
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded before its end was known.
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Per-name count, total and self time. Children of one span run one
    /// after another on the benchmark thread, so the part of a span they
    /// cover is the sum of their durations (clipped to the parent's).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(covered);
        }
        layers
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"shot\":{}}}",
                span.name, span.start_ns, span.end_ns, span.shot
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let root = tracer.record("shot", None, 7, 100, 200);
        tracer.record("decode", Some(root), 7, 110, 150);
        tracer.record("extract", Some(root), 7, 150, 180);
        let layers = tracer.layer_times();
        assert_eq!(layers["shot"].total_ns, 100);
        assert_eq!(layers["shot"].self_ns, 30);
        assert_eq!(layers["decode"].self_ns, 40);
        assert_eq!(layers["extract"].count, 1);
    }
}
