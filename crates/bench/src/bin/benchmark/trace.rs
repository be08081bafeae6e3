//! Spans recorded by the benchmark's own code around each call into a
//! layer.  They stay in memory and are written out once, at exit; spans
//! inside the program under test are a later issue (ROADMAP item 2b).

use crate::json::Json;
use std::time::Instant;

/// One timed interval: a call into a layer, or a group of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// How many calls the span covers (micro-timings time many).
    pub calls: Option<u64>,
}

/// Collects the spans of one workload's run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `body` inside a span named `name`, nested under whichever span
    /// is open; returns the span's index and `body`'s result.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> (usize, T) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            calls: None,
        });
        self.open.push(id);
        let result = body(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (id, result)
    }

    /// Records how many calls span `id` covered.
    pub fn set_calls(&mut self, id: usize, calls: u64) {
        self.spans[id].calls = Some(calls);
    }

    /// Lays `stages` (name, seconds) end to end from the start of span
    /// `parent`, as its children.  The engine reports each stage as a
    /// total over the run, not as intervals, so the durations are measured
    /// and the positions are not.
    pub fn synthesize_children(&mut self, parent: usize, stages: &[(&str, f64)]) {
        let mut at = self.spans[parent].start;
        for &(name, seconds) in stages {
            self.spans.push(Span {
                name: name.to_string(),
                start: at,
                end: at + seconds,
                parent: Some(parent),
                calls: None,
            });
            at += seconds;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// A span's duration minus the part its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.seconds(c))
            .sum();
        (self.seconds(id) - children).max(0.0)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        ("name", Json::str(&s.name)),
                        ("start", Json::Num(s.start)),
                        ("end", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("calls", s.calls.map_or(Json::Null, Json::Int)),
                        ("workload", Json::str(&self.workload)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let (root, inner) = t.span("root", |t| {
            let (a, ()) = t.span("a", |_| ());
            t.set_calls(a, 7);
            t.synthesize_children(a, &[("a.x", 0.25), ("a.y", 0.5)]);
            a
        });
        let spans = t.spans();
        assert_eq!(spans[root].parent, None);
        assert_eq!(spans[inner].parent, Some(root));
        assert_eq!(spans[inner].calls, Some(7));
        assert_eq!(spans[3].parent, Some(inner));
        assert_eq!(spans[3].start, spans[2].end, "stages are laid end to end");
        assert!(spans[root].end >= spans[inner].end);
        assert_eq!(t.self_seconds(inner), 0.0, "children cover more than a");
        let json = t.to_json().render();
        assert!(json.contains(r#""name": "a.y""#) && json.contains(r#""workload": "w""#));
    }
}
