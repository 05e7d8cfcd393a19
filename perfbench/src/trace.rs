//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into each layer's public
//! API; nothing inside the program is instrumented.  They stay in memory while the benchmark
//! runs and are written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans that belong to no op: standalone replays run under their own root span,
/// so they never inflate an op's span.
pub const REPLAY_OP: u64 = u64::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"engine.window.gossip"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The op this span belongs to ([`REPLAY_OP`] for replays).
    pub op: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; the parent of a new span is the innermost open one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Close every open span now (after an op failed part-way through).
    pub fn close_open(&mut self) {
        while let Some(id) = self.open.last().copied() {
            self.end(id);
        }
    }

    /// Record an already-measured interval as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in start order of their `begin`/`record` calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Build a tracer from explicit spans (used to test the self-time computation).
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    /// Self time of every span: its duration minus the part of its interval that its child
    /// spans cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as a JSON document: one object per span plus its self time.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::from("{\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == REPLAY_OP {
                "\"replay\"".to_string()
            } else {
                s.op.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0, 100): build [10, 30), run [30, 90) with windows [30, 50) and [60, 80);
        // a replay root [100, 140) whose two children overlap on [110, 125).
        let tracer = Tracer::from_spans(vec![
            span("op", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("window", 30, 50, Some(2)),
            span("window", 60, 80, Some(2)),
            span("replay", 100, 140, None),
            span("a", 105, 125, Some(5)),
            span("b", 110, 130, Some(5)),
        ]);
        assert_eq!(tracer.self_times_ns(), vec![20, 20, 20, 20, 20, 15, 20, 20]);
        let total_self: u64 = tracer.self_times_ns()[..5].iter().sum();
        assert_eq!(total_self, 100, "self times of one tree add up to the root");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let tracer = Tracer::from_spans(vec![
            span("root", 10, 20, None),
            span("late", 15, 40, Some(0)),
        ]);
        assert_eq!(tracer.self_times_ns(), vec![5, 25]);
    }

    #[test]
    fn begin_and_end_nest_and_serialize() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("op", 3);
        let child = tracer.begin("child", 3);
        tracer.end(child);
        tracer.end(root);
        let replay = tracer.begin("replay", REPLAY_OP);
        tracer.end(replay);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[2].parent, None);
        let json = tracer.to_json();
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"op\":\"replay\""));
        serde::json::parse(&json).expect("trace output is valid JSON");
    }
}
