//! In-memory spans around the calls the harness makes into each layer.
//!
//! Spans are recorded only in the traced pass (`--trace 1`); a disabled
//! tracer reads no clock. They stay in memory until the pass ends and
//! are then written to `benchmark/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.run_cycle_window`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request window (batch) this call served; all spans of one
    /// request share it.
    pub window: u64,
    /// Set after the fact, e.g. `shuffle` on a cycle window during which
    /// a shuffle epoch ran.
    pub tag: Option<&'static str>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is
/// off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name aggregate of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread: same switch, same time origin. Its
    /// spans come back through [`absorb`](Self::absorb).
    pub fn child(&self) -> Self {
        Self {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the finished spans of a [`child`](Self::child).
    pub fn absorb(&mut self, child: Tracer) {
        assert!(child.open.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len() as u32;
        self.spans.extend(child.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, window: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            window,
            tag: None,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            let now = self.now_ns();
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index as usize].end_ns = now;
        }
    }

    pub fn tag(&mut self, id: SpanId, tag: &'static str) {
        if let Some(index) = id.0 {
            self.spans[index as usize].tag = Some(tag);
        }
    }

    /// Aggregates by `name` (`name#tag` for tagged spans).
    pub fn totals(&self) -> BTreeMap<String, SpanTotal> {
        totals(&self.spans)
    }

    /// Total duration of the spans named `name`, tagged or not, in
    /// nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        let named = self.spans.iter().filter(|span| span.name == name);
        named.map(Span::duration_ns).sum()
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req_window_id\":{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.window,
            );
            if let Some(tag) = span.tag {
                let _ = write!(out, ",\"tag\":\"{tag}\"");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// See [`Tracer::totals`].
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<String, SpanTotal> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let key = match span.tag {
            Some(tag) => format!("{}#{tag}", span.name),
            None => span.name.to_string(),
        };
        let total = out.entry(key).or_default();
        total.count += 1;
        total.total_ns += span.duration_ns();
        total.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            window: 0,
            tag: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = vec![
            span("pump", 0, 100, None),
            span("cycle", 10, 60, Some(0)),
            span("seal", 20, 30, Some(1)),
            span("cycle", 60, 90, Some(0)),
        ];
        spans[3].tag = Some("shuffle");
        let totals = totals(&spans);
        assert_eq!(
            totals["pump"],
            SpanTotal {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            totals["cycle"],
            SpanTotal {
                count: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(totals["cycle#shuffle"].total_ns, 30);
        assert_eq!(totals["seal"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 1);
        let inner = tracer.begin("inner", 1);
        tracer.end(inner);
        tracer.tag(outer, "slow");
        tracer.end(outer);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[0].tag, Some("slow"));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("outer", 1);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
