//! The traced run's span recorder.
//!
//! A span is one timed call into a layer's public function, recorded
//! from the benchmark's side of the call: name, start, end, and the span
//! that was open around it. All spans of one workload share a trace id.
//! Spans are kept in memory (up to a cap per workload; past it leaf
//! spans are still timed and aggregated, only not stored) and written
//! out when the run ends.
//!
//! Each span name is `layer.what`; a layer's self time is its spans'
//! durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans stored per trace id (per workload); the rest are aggregated
/// only.
const STORE_CAP: usize = 25_000;

/// A registered span name, cheap to pass on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind(usize);

/// One stored span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub trace: u32,
    pub id: u64,
    pub parent: Option<u64>,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

struct Open {
    id: u64,
    kind: Kind,
    start: Instant,
    child_ns: u64,
    children: u64,
}

/// The recorder. One per traced run.
pub struct Tracer {
    origin: Instant,
    trace: u32,
    next_id: u64,
    names: Vec<&'static str>,
    totals: Vec<Totals>,
    stack: Vec<Open>,
    spans: Vec<Span>,
    /// Spans stored under the current trace id.
    stored_in_trace: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            trace: 0,
            next_id: 1,
            names: Vec::new(),
            totals: Vec::new(),
            stack: Vec::new(),
            spans: Vec::new(),
            stored_in_trace: 0,
            dropped: 0,
        }
    }

    /// Registers (or finds) a span name.
    pub fn kind(&mut self, name: &'static str) -> Kind {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return Kind(i);
        }
        self.names.push(name);
        self.totals.push(Totals::default());
        Kind(self.names.len() - 1)
    }

    /// Starts the spans of the next workload under a new trace id.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
        self.stored_in_trace = 0;
    }

    /// Opens a span; pair with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, kind: Kind) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            kind,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
        });
    }

    /// Closes the innermost span and returns its duration in ns.
    #[inline]
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit pairs with enter");
        let dur = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        let t = &mut self.totals[open.kind.0];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.id
        });
        // Spans with children are always kept, so every stored span's
        // parent is in the file too.
        if self.stored_in_trace < STORE_CAP || open.children > 0 {
            self.stored_in_trace += 1;
            let start_ns =
                u64::try_from(open.start.duration_since(self.origin).as_nanos()).unwrap_or(0);
            self.spans.push(Span {
                trace: self.trace,
                id: open.id,
                parent,
                kind: open.kind,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Times `f` as one span of `kind`; returns its result and duration.
    #[inline]
    pub fn time<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> (R, u64) {
        self.enter(kind);
        let r = f();
        let ns = self.exit();
        (r, ns)
    }

    /// Total and self time of every span name, in ns, with counts.
    #[must_use]
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        self.names
            .iter()
            .zip(&self.totals)
            .map(|(&n, t)| (n, t.count, t.total_ns, t.self_ns))
            .collect()
    }

    /// Self time summed per layer (the span name's prefix before the
    /// first `.`), in ns, with span counts.
    #[must_use]
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_layer: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (name, count, _, self_ns) in self.by_name() {
            let layer = name.split('.').next().unwrap_or(name);
            let e = by_layer.entry(layer).or_default();
            e.0 += count;
            e.1 += self_ns;
        }
        by_layer
    }

    /// The per-layer summary table (layer, spans, self time).
    #[must_use]
    pub fn layer_table(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{:<12} {:>12} {:>14}",
            "layer", "spans", "self_time_s"
        )];
        for (layer, (count, self_ns)) in self.self_time_by_layer() {
            lines.push(format!(
                "{layer:<12} {count:>12} {:>14.6}",
                self_ns as f64 / 1e9
            ));
        }
        lines.push(format!(
            "spans stored: {}, timed but not stored: {}",
            self.spans.len(),
            self.dropped
        ));
        lines
    }

    /// Writes the stored spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.id, parent, self.names[s.kind.0], s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// Stored spans (for tests).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.kind("sched.run");
        let inner = t.kind("paging.touch");
        t.enter(outer);
        let (_, inner_ns) = t.time(inner, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = t.exit();
        let rows = t.by_name();
        assert_eq!(rows[0].1, 1);
        assert_eq!(rows[0].2, outer_ns);
        assert_eq!(rows[0].3, outer_ns - inner_ns);
        assert_eq!(rows[1].3, inner_ns);
        let spans = t.spans();
        assert_eq!(
            spans[0].parent,
            Some(spans[1].id),
            "inner closes first, under outer"
        );
        assert_eq!(spans[1].parent, None);
    }
}
