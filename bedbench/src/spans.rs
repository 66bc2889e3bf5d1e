//! In-memory spans around the library calls of the traced run.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! created), the span that caused it, and the request or batch id it
//! belongs to. Spans stay in memory and are written as JSON lines when the
//! run ends. A disabled recorder still runs the wrapped calls but records
//! nothing, which is what the tracing-overhead comparison runs against.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to pass
    /// as the parent of nested spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(&mut Self, Option<usize>) -> R,
    ) -> R {
        self.span_if(name, parent, req, |rec, id| (f(rec, id), true))
    }

    /// Like [`Self::span`], but keeps the span only when `f` says the call
    /// did its work (a cadence gate that fired, for instance).
    pub fn span_if<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(&mut Self, Option<usize>) -> (R, bool),
    ) -> R {
        if !self.enabled {
            return f(self, None).0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, req, start_ns, end_ns: start_ns });
        let (result, keep) = f(self, Some(id));
        self.spans[id].end_ns = self.now_ns();
        if !keep {
            // Children of a discarded span are discarded with it; the
            // gates wrapped this way start no spans of their own.
            self.spans.truncate(id);
        }
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    pub fn write_json_lines(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (concurrent
/// work under one parent); the covered part is their union, clipped to
/// the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed self time of every span called `name`.
pub fn total_self_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().zip(self_times(spans)).filter(|(s, _)| s.name == name).map(|(_, own)| own).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", parent, req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),  // overlaps the first child by 10
            span(Some(0), 35, 45),  // inside both
            span(Some(0), 90, 120), // runs past the parent's end
            span(Some(1), 15, 20),  // grandchild: charged to span 1 only
        ];
        let own = self_times(&spans);
        // children cover 10..50 and 90..100: 50 of 100
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 20);
        assert_eq!(own[4], 30);
        assert_eq!(own[5], 5);
    }

    #[test]
    fn recorder_nests_and_drops_unkept_spans() {
        let mut rec = Recorder::new(true);
        rec.span("root", None, 7, |rec, id| {
            rec.span("child", id, 7, |_, _| ());
            rec.span_if("gate", id, 7, |_, _| ((), false));
        });
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent, s.req)).collect();
        assert_eq!(names, vec![("root", None, 7), ("child", Some(0), 7)]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("root", None, 0, |_, id| id), None);
        assert!(off.spans().is_empty());
    }
}
