//! The harness's own in-memory span recorder.
//!
//! It wraps the calls the harness makes into the program's public entry
//! points; it records nothing inside the program. Spans are kept in
//! memory and written as a Chrome trace when the run ends.

use landau_obs::json::Json;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one step / round / job.
    pub op: u64,
    /// Chrome-trace thread lane (jobs in flight overlap, so each in-flight
    /// slot draws on its own lane).
    pub lane: u32,
}

/// Span recorder. Off, every method is one branch.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str, op: u64) {
        if !self.on {
            return;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            op,
            lane: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_us();
        if let Some(id) = self.stack.pop() {
            self.spans[id].end_us = now;
        }
    }

    /// Record one call into the program as a leaf span.
    pub fn call<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval measured elsewhere (a job's lifetime, read from
    /// its handle) under `parent`, or under the innermost open span when
    /// `parent` is `None`. Returns the new span's index.
    pub fn record(
        &mut self,
        name: &str,
        (start_us, end_us): (f64, f64),
        parent: Option<usize>,
        op: u64,
        lane: u32,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: parent.or(self.stack.last().copied()),
            op,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in milliseconds, sorted by name.
    pub fn self_ms_by_name(&self) -> Vec<(String, f64, usize)> {
        let selfs = self_times_us(&self.spans);
        let mut by_name = std::collections::BTreeMap::<&str, (f64, usize)>::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += t / 1e3;
            e.1 += 1;
        }
        by_name
            .into_iter()
            .map(|(n, (ms, count))| (n.to_string(), ms, count))
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self, process: &str) -> String {
        let selfs = self_times_us(&self.spans);
        let mut events = vec![Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(1.0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(process.into()))]),
            ),
        ])];
        for (s, self_us) in self.spans.iter().zip(selfs) {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_us)),
                ("dur".into(), Json::Num(s.end_us - s.start_us)),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(f64::from(s.lane))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("op".into(), Json::Num(s.op as f64)),
                        ("self_us".into(), Json::Num(self_us)),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .to_text()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another and
/// may stick out of the parent; only the covered part inside the parent
/// is subtracted, and each instant is subtracted once.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_us: start,
            end_us: end,
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; root also > c [70,90].
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 60.0, Some(0)),
            span(20.0, 30.0, Some(1)),
            span(70.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), [30.0, 40.0, 10.0, 20.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50] and [30,70] cover [10,70] = 60 of the parent;
        // a third sticks out past the parent's end and is clipped to it.
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 50.0, Some(0)),
            span(30.0, 70.0, Some(0)),
            span(90.0, 130.0, Some(0)),
            span(35.0, 40.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 30.0);
    }

    #[test]
    fn recorder_nests_calls_and_stays_empty_when_off() {
        let mut tr = Tracer::new(true);
        tr.enter("run", 0);
        let v = tr.call("step", 7, || 41 + 1);
        tr.exit();
        assert_eq!(v, 42);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 7);
        assert!(tr.spans()[0].end_us >= tr.spans()[1].end_us);
        let parsed = Json::parse(&tr.chrome_trace("t")).expect("chrome trace is JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );

        let mut off = Tracer::new(false);
        off.enter("run", 0);
        assert_eq!(off.call("step", 1, || 5), 5);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
