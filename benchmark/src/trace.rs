//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself is not instrumented (that is a later issue): a traced
//! pass replays every op as the explicit chain of public calls and wraps each
//! call in a span — name, start, end, parent, and the id of the op it belongs
//! to.  Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON.  A layer's self time is its span minus the part of that
//! interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use qob_server::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sql.compile`, `exec.execute`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// The statement key, on the spans that open an op (empty on the rest).
    pub statement: String,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { enabled: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that records nothing: the same code path with tracing off,
    /// the baseline the tracing overhead is measured against.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.labelled_span(name, op, "", f)
    }

    /// [`Recorder::span`] for the span that opens an op: it also carries the
    /// statement's key, so a trace can be read per statement.
    pub fn labelled_span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        statement: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            statement: statement.to_owned(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured child of the open span: `busy_ns` of work
    /// that happened somewhere inside it (the estimator's accumulated time
    /// inside one `optimize` call), laid out from the parent's start.
    pub fn aggregate_child(&mut self, name: &'static str, op: u64, busy_ns: u64) {
        let Some(&parent) = self.open.last().filter(|_| self.enabled) else { return };
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            op,
            statement: String::new(),
        });
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it, so overlapping children are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the recording thread
/// as `tid`, op id and parent index in `args`.
pub fn chrome_trace(threads: &[Vec<Span>]) -> String {
    let mut events = Vec::new();
    for (tid, spans) in threads.iter().enumerate() {
        for span in spans {
            let mut args = vec![("op", Json::Num(span.op as f64))];
            if let Some(parent) = span.parent {
                args.push(("parent", Json::Num(parent as f64)));
            }
            if !span.statement.is_empty() {
                args.push(("statement", Json::str(span.statement.clone())));
            }
            events.push(Json::obj(vec![
                ("name", Json::str(span.name)),
                ("cat", Json::str(span.name.split('.').next().unwrap_or(span.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("args", Json::obj(args)),
            ]));
        }
    }
    Json::Arr(events).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1, statement: String::new() }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("sql.compile", 10, 30, Some(0)),
            span("exec.execute", 40, 90, Some(0)),
            span("scan", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 20, 30, Some(0)),
        ];
        // The children cover 10..80 = 70, not 50 + 40 + 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_spans_and_shares_the_op_id() {
        let mut rec = Recorder::new();
        rec.span("op", 7, |rec| {
            rec.span("enumerate.optimize", 7, |rec| rec.aggregate_child("cardest.estimate", 7, 5));
            rec.span("exec.execute", 7, |_| ());
        });
        let spans = rec.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None),
                ("enumerate.optimize", Some(0)),
                ("cardest.estimate", Some(1)),
                ("exec.execute", Some(0)),
            ]
        );
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 5);
        let totals = layer_totals(&spans);
        assert_eq!(totals["cardest.estimate"], (5, 1));
    }

    #[test]
    fn a_disabled_recorder_runs_the_code_and_records_nothing() {
        let mut rec = Recorder::disabled();
        let out = rec.span("op", 1, |rec| {
            rec.aggregate_child("cardest.estimate", 1, 5);
            rec.span("exec.execute", 1, |_| 7)
        });
        assert_eq!(out, 7);
        assert!(!rec.is_enabled() && rec.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let doc =
            chrome_trace(&[vec![span("op", 0, 2_000, None), span("x.y", 500, 1_500, Some(0))]]);
        let parsed = Json::parse(&doc).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("x"));
    }
}
