//! The benchmark's own spans, recorded around its calls into the
//! program in the traced run. Spans stay in memory and are written out
//! once, when the run ends, as Chrome trace-event JSON (loadable in
//! Perfetto).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (a layer boundary, e.g. `core.run`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span belongs to, if any.
    pub request: Option<u64>,
}

/// An in-memory span recorder. When disabled it records nothing, so the
/// untraced run pays only for the clock reads it needs anyway.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end)` and returns its index (for children), or
    /// `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, records it as a span, and returns its result with the
    /// elapsed seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, None, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Opens a parent span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end;
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                r#"{{"name": "{}", "ph": "X", "pid": 1, "tid": 1, "ts": {}, "dur": {}, "args": {{"id": {}, "parent": {}, "request": {}}}}}{}"#,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                request,
                sep
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}
