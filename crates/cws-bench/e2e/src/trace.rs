//! The span recorder, its self-time summary and its Chrome trace-event
//! writer.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public API; nothing inside the library is instrumented. A
//! span's name is `layer.call`; the layer is the part before the first dot.
//! Recording never allocates once the [`Tracer`] is set up: spans go into a
//! buffer preallocated at construction, and a full buffer counts the
//! overflow in [`Tracer::dropped`] instead of growing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::json;

/// Marks a root span (no enclosing span).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, in ns from the origin.
    pub start_ns: u64,
    /// End, in ns from the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span served: a pass, epoch or batch index.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped closures
/// and records nothing (no clock reads).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

/// Deepest span nesting the recorder tracks.
const MAX_NESTING: usize = 64;

impl Tracer {
    /// A recorder with room for `capacity` spans, timing from `origin`
    /// (share one origin between the tracers of different threads so their
    /// spans line up), labelled with thread id `thread`.
    #[must_use]
    pub fn new(origin: Instant, capacity: usize, thread: u32) -> Self {
        Self {
            origin,
            enabled: true,
            thread,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(MAX_NESTING),
            dropped: 0,
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        let mut tracer = Self::new(Instant::now(), 0, 0);
        tracer.enabled = false;
        tracer
    }

    /// Turns recording on or off; a tracer built by [`Tracer::disabled`]
    /// has no buffer, so turning it on records only overflow counts.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span `name` for `request`; spans opened by `f`
    /// through the tracer it is handed become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str, request: u64) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() || self.stack.len() == self.stack.capacity() {
            self.dropped += 1;
            return None;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = u32::try_from(self.spans.len()).ok()?;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
            self.stack.pop();
        }
    }

    /// Spans that did not fit the buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (ns) of every span named `name`, in start order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Summed duration (ns) per request of the spans named `name`.
    #[must_use]
    pub fn total_ns_by_request(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut totals = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(span.request).or_insert(0.0) += span.duration_ns() as f64;
        }
        totals
    }
}

/// Count, total time and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

/// Self time per span name across `tracers`. A span's self time is its
/// duration minus the part of it covered by its children; children of one
/// span never overlap (each tracer belongs to one thread), so that part is
/// the sum of their durations.
#[must_use]
pub fn self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, SelfTime> {
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for tracer in tracers {
        let spans = &tracer.spans;
        let mut covered = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                covered[span.parent as usize] += span.duration_ns();
            }
        }
        for (span, covered) in spans.iter().zip(covered) {
            let entry = table.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
    }
    table
}

/// Writes the spans of `tracers` as a Chrome trace-event JSON object (one
/// complete `"ph": "X"` event per span, times in µs), loadable in
/// `chrome://tracing` and Perfetto.
///
/// # Errors
/// Any write error.
pub fn write_chrome_trace<W: Write>(out: &mut W, tracers: &[&Tracer]) -> io::Result<()> {
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for tracer in tracers {
        for (id, span) in tracer.spans.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            let parent =
                if span.parent == NO_PARENT { "null".to_string() } else { span.parent.to_string() };
            write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                json::string(span.name),
                json::string(span.layer()),
                json::number(span.start_ns as f64 / 1e3),
                json::number(span.duration_ns() as f64 / 1e3),
                tracer.thread,
                span.request,
            )?;
        }
    }
    out.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_chrome_output() {
        let mut tracer = Tracer::new(Instant::now(), 8, 3);
        tracer.span("pipeline.pass", 7, |t| {
            t.span("stream.push", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("stream.push", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!(spans[1].layer(), "stream");
        let table = self_times(&[&tracer]);
        let pass = table["pipeline.pass"];
        let push = table["stream.push"];
        assert_eq!((pass.count, push.count), (1, 2));
        assert_eq!(pass.self_ns, pass.total_ns - push.total_ns);
        assert!(push.total_ns >= 4_000_000);

        let mut buffer = Vec::new();
        write_chrome_trace(&mut buffer, &[&tracer]).unwrap();
        let doc = json::parse(std::str::from_utf8(&buffer).unwrap()).unwrap();
        let events = doc.array_field("traceEvents").unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].str_field("ph").unwrap(), "X");
        assert_eq!(events[1].num_field("tid").unwrap(), 3.0);
        assert_eq!(events[1].get("args").unwrap().num_field("parent").unwrap(), 0.0);
    }

    #[test]
    fn a_full_buffer_counts_drops_instead_of_growing() {
        let mut tracer = Tracer::new(Instant::now(), 2, 0);
        for request in 0..5 {
            tracer.span("codec.encode", request, |_| ());
        }
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans.capacity(), 2, "recording must not reallocate");
        assert_eq!(tracer.dropped(), 3);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("codec.encode", 0, |_| 41) + 1, 42);
        assert!(off.spans.is_empty() && off.dropped() == 0);
    }
}
