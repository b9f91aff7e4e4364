//! Wall-clock spans around the calls the harness makes into the crates.
//!
//! Spans live in memory for the whole run and are written at exit: as
//! `trace.json` (Chrome trace format, one complete event per span) and as
//! `layers.json` (per span name: calls, total time, self time). A span's self
//! time is its duration minus the part of it its child spans cover. A
//! disabled log records nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer or call name, e.g. `core.deploy.new`.
    pub name: String,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
}

/// The in-memory span log of one workload's traced run.
pub struct SpanLog {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn disabled() -> Self {
        Self::new(false, "")
    }

    /// A recording log; every span carries `workload` as its identifier.
    pub fn enabled(workload: &str) -> Self {
        Self::new(true, workload)
    }

    fn new(enabled: bool, workload: &str) -> Self {
        SpanLog {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, child of the innermost open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace format: one `"ph": "X"` event per span, microseconds.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", s.name.as_str().into()),
                    ("cat", "host".into()),
                    ("ph", "X".into()),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    (
                        "dur",
                        (s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3).into(),
                    ),
                    ("pid", 1u64.into()),
                    ("tid", 1u64.into()),
                    (
                        "args",
                        obj([
                            ("id", id.into()),
                            ("parent", s.parent.into()),
                            ("workload", self.workload.as_str().into()),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".into()),
            (
                "otherData",
                obj([
                    ("workload", self.workload.as_str().into()),
                    ("clock", "wall".into()),
                ]),
            ),
        ])
    }

    /// `layers.json`: per span name, calls and total/self seconds.
    pub fn layers(&self) -> Json {
        let layers = self_times(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                obj([
                    ("name", name.into()),
                    ("calls", t.calls.into()),
                    ("total_s", (t.total_ns as f64 / 1e9).into()),
                    ("self_s", (t.self_ns as f64 / 1e9).into()),
                ])
            })
            .collect();
        obj([
            ("workload", self.workload.as_str().into()),
            ("clock", "wall".into()),
            ("layers", Json::Arr(layers)),
        ])
    }
}

/// Calls and time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover.
    pub self_ns: u64,
}

/// Aggregate `spans` by name. Children are clipped to their parent's interval
/// before being subtracted, so a self time is never negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    let mut by_name: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = by_name.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        // workload [0, 100)
        //   deploy [10, 40)
        //     load   [15, 35)
        //   run    [40, 90)
        //   run    [90, 130)  -- overhangs the parent: clipped to [90, 100)
        let spans = [
            span("workload", None, 0, 100),
            span("deploy", Some(0), 10, 40),
            span("load", Some(1), 15, 35),
            span("run", Some(0), 40, 90),
            span("run", Some(0), 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["workload"],
            LayerTime {
                calls: 1,
                total_ns: 100,
                self_ns: 100 - 30 - 50 - 10
            }
        );
        assert_eq!(
            t["deploy"],
            LayerTime {
                calls: 1,
                total_ns: 30,
                self_ns: 10
            }
        );
        assert_eq!(
            t["load"],
            LayerTime {
                calls: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            t["run"],
            LayerTime {
                calls: 2,
                total_ns: 90,
                self_ns: 90
            }
        );
    }

    #[test]
    fn scopes_nest_and_the_trace_parses_back() {
        let mut log = SpanLog::enabled("w");
        let out = log.scope("outer", |log| {
            log.scope("inner", |_| 1) + log.scope("inner", |_| 2)
        });
        assert_eq!(out, 3);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let trace = Json::parse(&log.chrome_trace().pretty()).expect("trace.json parses");
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(0.0))
        );
        let layers = Json::parse(&log.layers().pretty()).expect("layers.json parses");
        assert_eq!(
            layers.get("layers").and_then(Json::as_arr).unwrap().len(),
            2
        );
    }

    #[test]
    fn a_disabled_log_runs_the_call_and_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.scope("x", |log| log.scope("y", |_| 7)), 7);
        assert!(log.spans().is_empty());
    }
}
