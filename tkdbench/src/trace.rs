//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and the request it belongs to.
//! Spans stay in a preallocated vector and are written out once, at the
//! end of a traced run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span whose bounds were taken elsewhere.
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        id
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, req);
        r
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per span name: (count, total µs, self µs), where self time is the
    /// span's duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let own = total - (child_ns[i].min(s.end_ns - s.start_ns)) as f64 / 1e3;
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }
}

/// Write every span as one tab-separated line.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
