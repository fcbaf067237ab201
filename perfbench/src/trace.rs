//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that was open when it began (its parent) and the
//! request it belongs to. Spans stay in memory until the run ends and
//! are then written out as one JSON document. A span's *self time* is
//! its duration minus the part of its interval covered by its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans nest by call order: a span begun while another
/// is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request` and return what
    /// `f` returns.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (milliseconds) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (milliseconds) of every span named `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// The spans as one JSON document, with each span's self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("{\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".to_string(),
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60): self = 70.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,40) and [20,50) overlap: union is [10,50) = 40.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 20, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        // A child running past its parent's end only covers up to it;
        // the grandchild belongs to the child, not the root.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 80, 130),
            span(Some(1), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![80, 20, 30]);
    }

    #[test]
    fn tracer_nests_spans_by_call_order() {
        let mut t = Tracer::default();
        let v = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations_ms("inner").len(), 2);
        let outer_self = t.self_times_ms("outer")[0];
        assert!(outer_self >= 0.0 && outer_self <= t.durations_ms("outer")[0]);
        assert!(t.to_json().contains("\"name\":\"inner\",\"parent\":0"));
    }
}
