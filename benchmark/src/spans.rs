//! The benchmark's own span recorder: one span around each call into a
//! layer, kept in memory and written once, at the end, as Chrome
//! trace-event JSON.

use pastix_json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch; `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one operation (or one request) share this id.
    pub op: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged first,
/// so shared sub-intervals are subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, ch)| {
            ch.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in ch.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0u64, 0u64, 0u64));
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, one track per
/// nesting depth so a child draws under its parent.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut depth = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        if let Some(p) = s.parent {
            depth[i] = depth[p] + 1;
        }
    }
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj([
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(depth[i]))),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("op", Json::Num(s.op as f64)),
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
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
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)), // adjacent to b
            span("b", 30, 60, Some(0)),
            span("b.inner", 35, 50, Some(2)), // nested: charged to b, not op
            span("c", 55, 70, Some(0)),       // overlaps b by 5
        ];
        let own = self_times(&spans);
        // op: 100 − |[10,70]| = 40; b: 30 − 15 = 15.
        assert_eq!(own, vec![40, 20, 15, 15, 15]);
        let t = totals_by_name(&spans);
        assert_eq!(t["op"], (1, 100, 40));
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = [span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut r = Recorder::new();
        let op = r.begin("op", None, 7);
        let nd = r.begin("ordering.nd", Some(op), 7);
        r.end(nd);
        r.end(op);
        let j = chrome_trace(r.spans());
        let ev = j.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("tid").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(
            ev[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64()
                .unwrap(),
            0.0
        );
        assert!(Json::parse(&j.compact()).is_ok());
    }
}
