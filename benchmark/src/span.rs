//! Spans recorded by the benchmark around calls into the program's public
//! functions.  They stay in memory while a run measures and are written
//! out as JSON lines when it ends.

use std::io::{self, Write};
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, by index into the same log.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// All logs of one run share `origin`, so their spans line up.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span whose ends were taken elsewhere (a client loop
    /// keeps its timed section free of anything but the call).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's log, keeping its parent links valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A span's duration minus the part of it its children cover.
    /// Children may overlap each other or stick out of the parent; only
    /// the union of their intervals inside the parent is subtracted.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 1,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let log = log_of(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 40);
        assert_eq!(log.self_time_ns(1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let log = log_of(&[
            ("root", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 40, 80, Some(0)),
            ("c", 45, 50, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 30);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let log = log_of(&[
            ("root", 0, 100, None),
            ("child", 20, 80, Some(0)),
            ("grandchild", 30, 50, Some(1)),
        ]);
        assert_eq!(log.self_time_ns(0), 40);
        assert_eq!(log.self_time_ns(1), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let log = log_of(&[
            ("root", 100, 200, None),
            ("early", 50, 120, Some(0)),
            ("late", 190, 400, Some(0)),
            ("outside", 300, 350, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 70);
    }

    #[test]
    fn nesting_through_open_close_and_absorb_keeps_links() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("request", None, 7);
        let (value, _) = log.time("leaf", Some(root), 7, || 41 + 1);
        assert_eq!(value, 42);
        log.close(root);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);

        let mut other = SpanLog::new(Instant::now());
        let r2 = other.open("request", None, 8);
        other.time("leaf", Some(r2), 8, || ());
        other.close(r2);
        log.absorb(other);
        assert_eq!(log.spans().len(), 4);
        assert_eq!(log.spans()[3].parent, Some(2));

        let mut text = Vec::new();
        log.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().nth(3).unwrap().contains("\"parent\":2"));
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
