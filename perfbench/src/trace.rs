//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a library layer in a span
//! (name, start, end, parent) under one run id. Spans stay in memory and
//! are written once, at the end, as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto). A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover; the
//! per-layer metrics are sums of self times, so they add back up to the
//! traced wall time.
//!
//! Recording is single-threaded: the spans sit around calls made by the
//! driver thread, which is where the benchmark's own code runs.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.mttkrp`.
    pub name: &'static str,
    /// Start time in seconds since the recorder's epoch.
    pub start_s: f64,
    /// End time in seconds since the recorder's epoch.
    pub end_s: f64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// `end_s - start_s`.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans for one run id.
#[derive(Debug)]
pub struct Recorder {
    run_id: u64,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(run_id: u64) -> Self {
        Recorder {
            run_id,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// The run id every span of this recorder shares.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Seconds since the recorder's epoch.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_s: self.now_s(),
                end_s: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.now_s();
        out
    }

    /// Snapshot of every span recorded so far (open spans have a NaN end).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each child clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_s() - covered(s.start_s, s.end_s, kids))
        .collect()
}

/// Length of `[lo, hi]` covered by the union of `intervals`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Number of spans with this name.
    pub calls: usize,
    /// Sum of their durations (children included).
    pub total_s: f64,
    /// Sum of their self times.
    pub self_s: f64,
}

/// Aggregate spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.duration_s();
        t.self_s += self_s;
    }
    out
}

/// A complete event placed on its own lane (Chrome `tid`); used for
/// MapReduce jobs, which overlap under the DAG scheduler.
#[derive(Debug, Clone)]
pub struct LaneEvent {
    /// Event name.
    pub name: String,
    /// Start in seconds on the recorder's clock.
    pub start_s: f64,
    /// End in seconds on the recorder's clock.
    pub end_s: f64,
}

/// Chrome trace-event JSON for `spans` (thread 1, nested by time) plus
/// `jobs` spread over lanes 2, 3, … so overlapping jobs never share one.
/// `meta` lands in the top-level `otherData` object.
pub fn chrome_trace(run_id: u64, spans: &[Span], jobs: &[LaneEvent], meta: Json) -> Json {
    let us = |s: f64| Json::Num((s * 1e6 * 1000.0).round() / 1000.0);
    let mut events = Vec::with_capacity(spans.len() + jobs.len());
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
        events.push(Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
            ("ph", Json::str("X")),
            ("ts", us(s.start_s)),
            ("dur", us(s.duration_s())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            (
                "args",
                Json::obj([
                    ("run_id", Json::Num(run_id as f64)),
                    ("span", Json::Num(i as f64)),
                    ("parent", parent),
                ]),
            ),
        ]));
    }
    let mut by_start: Vec<&LaneEvent> = jobs.iter().collect();
    by_start.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let mut lane_free: Vec<f64> = Vec::new();
    for j in by_start {
        let lane = match lane_free.iter().position(|&free| free <= j.start_s) {
            Some(l) => l,
            None => {
                lane_free.push(0.0);
                lane_free.len() - 1
            }
        };
        lane_free[lane] = j.end_s;
        events.push(Json::obj([
            ("name", Json::str(&j.name)),
            ("cat", Json::str("mapreduce")),
            ("ph", Json::str("X")),
            ("ts", us(j.start_s)),
            ("dur", us(j.end_s - j.start_s)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num((lane + 2) as f64)),
            ("args", Json::obj([("run_id", Json::Num(run_id as f64))])),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", meta),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn child_covering_part_of_parent_is_subtracted() {
        let spans = vec![
            span("als.run", 0.0, 10.0, None),
            span("core.mttkrp", 2.0, 5.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 7.0).abs() < 1e-12);
        assert!((selfs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 1.0, 9.0, None),
            // Overlaps the next child on [3, 4]; the union is [2, 6].
            span("a", 2.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            // Starts inside the parent and ends after it: clipped to [8, 9].
            span("c", 8.0, 12.0, Some(0)),
            // A grandchild does not reduce the grandparent's self time.
            span("d", 2.5, 3.5, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - (8.0 - 4.0 - 1.0)).abs() < 1e-12);
        assert!((selfs[1] - 1.0).abs() < 1e-12);
        assert!((selfs[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let rec = Recorder::new(7);
        rec.span("als.run", || {
            rec.span("linalg.gram", || ());
            rec.span("linalg.gram", || ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        let totals = totals_by_name(&spans);
        assert_eq!(totals["linalg.gram"].calls, 2);
        let run = totals["als.run"];
        assert!((run.self_s + totals["linalg.gram"].total_s - run.total_s).abs() < 1e-9);
    }

    #[test]
    fn overlapping_jobs_get_separate_lanes() {
        let jobs = vec![
            LaneEvent {
                name: "a".into(),
                start_s: 0.0,
                end_s: 2.0,
            },
            LaneEvent {
                name: "b".into(),
                start_s: 1.0,
                end_s: 3.0,
            },
            LaneEvent {
                name: "c".into(),
                start_s: 2.0,
                end_s: 4.0,
            },
        ];
        let doc = chrome_trace(1, &[], &jobs, Json::Obj(Vec::new())).to_string();
        assert!(doc.contains("\"name\":\"a\",\"cat\":\"mapreduce\",\"ph\":\"X\",\"ts\":0,\"dur\":2000000,\"pid\":1,\"tid\":2"));
        assert!(doc.contains("\"tid\":3"));
        assert!(!doc.contains("\"tid\":4"));
    }
}
