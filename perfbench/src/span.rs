//! Spans for the traced run, recorded by the benchmark around its own calls
//! into each crate and kept in memory until the run ends.
//!
//! A span has a name (`layer.operation`), a start and end on the tracer's
//! clock, an optional parent and the workload or job id it belongs to. A
//! span's self time is its duration minus the time its children cover.
//!
//! Per-event layers (a miss source is called millions of times per run)
//! are not recorded one span per call: [`TimedSource`] sums its calls and
//! the caller records one *aggregate* child span whose duration is that
//! sum, laid at the parent's start, with the call count attached.

use memscale_types::AppId;
use memscale_workloads::{MissEvent, MissSource};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Workload or job id the span belongs to.
    pub id: String,
    /// Calls folded into the span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time (duration minus children).
    pub self_ns: u64,
    /// Summed call counts.
    pub calls: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds on the tracer's clock at instant `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            id: id.to_string(),
            calls: 1,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        let now = self.at(Instant::now());
        self.spans[idx].end_ns = now;
    }

    /// Span `idx`.
    pub fn span(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Records an aggregate child of `parent`: `calls` calls that took
    /// `ns` nanoseconds in total.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, ns: u64, calls: u64) {
        let start_ns = self.spans[parent].start_ns;
        let id = self.spans[parent].id.clone();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            id,
            calls,
        });
    }

    /// Times `f` as a span and returns its result and span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, parent, id, start, Instant::now());
        (out, idx)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.total_ns += s.ns();
            e.self_ns += s.ns().saturating_sub(children);
            e.calls += s.calls;
        }
        out
    }

    /// Adds each span name's total and self time to `report`, then writes
    /// the spans to `path`.
    ///
    /// # Errors
    ///
    /// The write failure, as text.
    pub fn finish(&self, report: &mut crate::report::Report, path: &Path) -> Result<(), String> {
        for (name, t) in self.layers() {
            report.info(
                &format!("span {name}"),
                t.self_ns as f64 / 1e6,
                "ms self",
                format!(
                    "{:.3} ms total over {} calls",
                    t.total_ns as f64 / 1e6,
                    t.calls
                ),
            );
        }
        self.write_jsonl(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":\"{}\",\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.calls
            )?;
        }
        out.flush()
    }
}

/// Calls and summed host time of the sources a [`TimedSource`] wrapped.
pub type SourceTally = Arc<Mutex<(u64, u64)>>;

/// A miss source that times every `next_event` call of the source it
/// wraps and adds its call count and nanoseconds to a shared tally when
/// the simulation that owns it drops it.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn MissSource + Send>,
    calls: u64,
    ns: u64,
    tally: SourceTally,
}

impl TimedSource {
    /// Wraps every source of `sources`, tallying into `tally`.
    pub fn wrap_all(
        sources: Vec<Box<dyn MissSource + Send>>,
        tally: &SourceTally,
    ) -> Vec<Box<dyn MissSource + Send>> {
        sources
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    calls: 0,
                    ns: 0,
                    tally: Arc::clone(tally),
                }) as Box<dyn MissSource + Send>
            })
            .collect()
    }
}

impl MissSource for TimedSource {
    fn app(&self) -> AppId {
        self.inner.app()
    }

    fn next_event(&mut self) -> Option<MissEvent> {
        let t = Instant::now();
        let ev = self.inner.next_event();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        ev
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        let mut tally = self
            .tally
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tally.0 += self.calls;
        tally.1 += self.ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let parent = t.record("a.run", None, "w", start, Instant::now());
        t.aggregate("b.call", parent, 1_000, 10);
        let layers = t.layers();
        let a = layers["a.run"];
        assert_eq!(a.total_ns - a.self_ns, 1_000);
        assert_eq!(layers["b.call"].calls, 10);
    }
}
