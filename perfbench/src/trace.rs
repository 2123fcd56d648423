//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions; the program under test carries no tracing. Each span
//! has a request id, a parent, and start/end offsets from the recorder's
//! epoch. A layer's self time is its duration minus the time its child
//! spans cover. Spans are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: calls, inclusive time and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call in milliseconds; 0 with no calls.
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

/// Child coverage of the root spans (one root per request).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    pub requests: usize,
    /// Smallest share of a request's wall time its children cover.
    pub min_share: f64,
    /// Children's share of all requests' wall time together.
    pub total_share: f64,
    /// Wall time no child covers, summed over requests.
    pub residual_ms: f64,
}

/// Spans reserved (and their pages touched) up front, so recording never
/// reallocates or page-faults inside a measured request; a traced run
/// records a few thousand.
const RESERVED_SPANS: usize = 1 << 14;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        let blank = Span {
            request: 0,
            parent: None,
            name: "",
            start_ns: 0,
            end_ns: 0,
        };
        let mut spans = vec![blank; RESERVED_SPANS];
        spans.clear();
        Tracer {
            epoch: Instant::now(),
            spans,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`]. The clock is read last,
    /// so the recorder's own work falls outside the span it opens.
    pub fn begin(&mut self, request: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        self.spans.push(Span {
            request,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        let id = self.spans.len() - 1;
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.start_ns = now;
        span.end_ns = now;
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(request, parent, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of direct children's durations for every span. Children of one
    /// parent run one after another on one thread, so they never overlap.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Calls, inclusive and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<String, LayerTotals> {
        let child = self.child_ns();
        let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name.to_string()).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child[i]);
        }
        out
    }

    /// How much of each root span (a request) its children account for.
    pub fn coverage(&self) -> Coverage {
        let child = self.child_ns();
        let mut cov = Coverage {
            min_share: 1.0,
            ..Coverage::default()
        };
        let (mut wall, mut covered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.dur_ns() == 0 {
                continue;
            }
            let c = child[i].min(s.dur_ns());
            cov.requests += 1;
            cov.min_share = cov.min_share.min(c as f64 / s.dur_ns() as f64);
            wall += s.dur_ns();
            covered += c;
        }
        if wall > 0 {
            cov.total_share = covered as f64 / wall as f64;
            cov.residual_ms = (wall - covered) as f64 / 1e6;
        } else {
            cov.min_share = 0.0;
        }
        cov
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            request,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_and_coverage() {
        let mut t = Tracer::new();
        t.spans = vec![
            span(0, None, "request", 0, 100),
            span(0, Some(0), "exec", 10, 60),
            span(0, Some(1), "optimize", 20, 30),
            span(0, Some(0), "render", 60, 90),
        ];
        let totals = t.layer_totals();
        assert_eq!(totals["exec"].self_ns, 40);
        assert_eq!(totals["exec"].total_ns, 50);
        assert_eq!(totals["request"].self_ns, 20);
        let cov = t.coverage();
        assert_eq!(cov.requests, 1);
        assert!((cov.min_share - 0.8).abs() < 1e-12);
        assert!((cov.residual_ms - 20e-6).abs() < 1e-12);
    }
}
