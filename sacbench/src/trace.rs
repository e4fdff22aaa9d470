//! Spans recorded by the traced run around the benchmark's own calls into
//! each layer.  Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// The request (or writer operation) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub thread: u32,
    pub spans: Vec<Span>,
    /// Wall time this thread spent in its traced phase, nanoseconds.
    pub wall_ns: u64,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            wall_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }
}

/// Every thread's spans, merged after the run.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<Tracer>,
}

/// Name of the root span that groups one request's layer spans.
pub const REQUEST: &str = "request";

impl Trace {
    pub fn add(&mut self, tracer: Tracer) {
        self.threads.push(tracer);
    }

    /// Durations in microseconds of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Total microseconds per (thread, request) of the spans called any of
    /// `names`.
    pub fn per_request(&self, names: &[&str]) -> BTreeMap<(u32, u64), f64> {
        let mut totals = BTreeMap::new();
        for t in &self.threads {
            for s in t.spans.iter().filter(|s| names.contains(&s.name)) {
                *totals.entry((t.thread, s.request)).or_default() += s.micros();
            }
        }
        totals
    }

    /// Layer spans are the children of a request span, and the writer's
    /// parentless operation spans.
    fn is_layer(spans: &[Span], s: &Span) -> bool {
        s.name != REQUEST && s.parent.is_none_or(|p| spans[p].name == REQUEST)
    }

    /// The share of the traced threads' wall time that layer spans cover
    /// (overlapping spans of one thread count once).
    pub fn covered_share(&self) -> f64 {
        let mut covered = 0u64;
        let mut wall = 0u64;
        for t in &self.threads {
            let mut intervals: Vec<(u64, u64)> = t
                .spans
                .iter()
                .filter(|s| Trace::is_layer(&t.spans, s))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            intervals.sort_unstable();
            let mut end = 0u64;
            for (s, e) in intervals {
                let s = s.max(end);
                if e > s {
                    covered += e - s;
                    end = e;
                }
            }
            wall += t.wall_ns;
        }
        covered as f64 / wall.max(1) as f64
    }

    /// Writes every span as one JSON line: name, start and end (µs since the
    /// run's origin), parent (index within the thread, or null), request id
    /// and thread.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut n = 0;
        for t in &self.threads {
            for s in &t.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    r#"{{"name":"{}","start_us":{},"end_us":{},"parent":{parent},"request":{},"thread":{}}}"#,
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.request,
                    t.thread
                )?;
                n += 1;
            }
        }
        out.flush()?;
        Ok(n)
    }
}
