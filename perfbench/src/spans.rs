//! Spans recorded around calls into each layer during a traced run.
//!
//! A span has a name, a start and end (ns since the recorder was made), the
//! span that caused it, and the workload pass it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A disabled recorder
//! records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no span" (a root's parent).
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    pass: u32,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    pass: u32,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new workload pass; later spans carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (its end is set by [`Spans::close`]); returns its id,
    /// or 0 when disabled.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.push(name, parent, start_ns, start_ns)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if id != 0 {
            let end = self.now();
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Records an already-timed span; returns its id, or 0 when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.push(name, parent, start_ns, end_ns)
    }

    fn push(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: self.pass,
        });
        self.spans.len() as SpanId
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total and self time (ns) per span name. Self time is a span's
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += total;
            e.1 += total.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON line: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `pass`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.pass
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let root = s.push("pass", 0, 0, 100);
        s.record("core.read", root, 10, 40);
        s.record("core.read", root, 50, 60);
        let t = s.self_times();
        assert_eq!(t["pass"], (100, 60));
        assert_eq!(t["core.read"], (40, 40));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("pass", 0);
        s.close(id);
        s.record("x", 0, 1, 2);
        assert_eq!((id, s.len()), (0, 0));
    }
}
