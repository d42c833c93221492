//! The traced mode's span recorder.
//!
//! A span wraps one call the benchmark makes into a layer: its name, its
//! start and end on a monotonic clock, the span that was open when it
//! began (its parent), and the id of the request it served (a cell, a
//! paging request or a cluster run). Spans stay in memory and are written
//! as JSON lines when the run ends. A disabled recorder keeps nothing, so
//! the timed runs pay one branch per call. The traced run switches its
//! recorder off for every other pass of a workload's timed loop, so the
//! loop's cost with and without spans is measured side by side.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ampom_obs::json::JsonWriter;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.on_fault`.
    pub name: &'static str,
    /// Request the span served.
    pub request: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span store.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts or stops recording; spans already open still close.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = end_ns;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let mut w = JsonWriter::object();
            w.field_u64("id", i as u64);
            w.field_str("name", s.name);
            w.field_u64("request", s.request);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => w.field_u64("parent", p as u64),
                None => w.field_raw("parent", "null"),
            }
            w.field_u64("self_ns", self_ns);
            writeln!(out, "{}", w.close())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true);
        let outer = s.open("outer", 1);
        let inner = s.open("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(inner);
        s.close(outer);
        let [o, i] = [&s.spans()[0], &s.spans()[1]].map(|x| x.end_ns - x.start_ns);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.self_ns(), vec![o - i, i]);
        assert!(i >= 2_000_000);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let o = s.open("x", 0);
        s.close(o);
        assert!(s.spans().is_empty());
    }
}
