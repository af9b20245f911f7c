//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer (spans inside the program are a later change).
//!
//! A span is `(name, start, end, parent, round)`; the spans of one round
//! share its round id. Nothing is written until the run ends. A layer's
//! *self time* is its span's duration minus the part of that interval
//! its child spans cover — the quantity every per-layer budget in this
//! benchmark sums.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Round id of spans recorded outside any round (set-up).
pub const NO_ROUND: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: NO_ROUND,
        }
    }

    /// A tracer whose `enter`/`exit` are a branch and nothing else — the
    /// end-to-end numbers are always measured with this one.
    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::on() }
    }

    /// Sets the round id stamped on spans entered from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span. Spans close innermost-first; closing out of order
    /// is a bug in the caller.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Renames an open span — for a call whose kind is only known once
    /// it returns (the update that closes a round).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(id) = id.0 {
            self.spans[id as usize].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            *totals.entry(span.name).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(*children);
        }
        totals
    }

    /// Total duration per span name, in nanoseconds (children included).
    pub fn total_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
        }
        totals
    }

    /// Writes the span table as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tround")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let round = if s.round == NO_ROUND { "-".to_string() } else { s.round.to_string() };
            writeln!(out, "{id}\t{}\t{}\t{}\t{parent}\t{round}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on();
        t.set_round(3);
        let outer = t.enter("outer");
        let a = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("inner");
        t.exit(b);
        t.exit(outer);

        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].round, 3);
        let total = t.total_ns_by_name();
        let own = t.self_ns_by_name();
        assert_eq!(own["outer"], total["outer"] - total["inner"]);
        assert!(own["inner"] >= 2_000_000);
        assert!(own["outer"] < total["outer"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
