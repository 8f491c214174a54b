//! Per-request distributed tracing: the builder that assembles one
//! serving-session [`TraceLog`] out of request lifecycles and per-batch
//! solve traces.
//!
//! Every request admitted to the [`crate::RequestQueue`] becomes a
//! parent async span (`request`, id = its ticket) on a reserved **serve
//! track** ([`pastix_trace::SERVE_RANK`]), with child stage spans
//! (`queue_wait`, `coalesce`, `analyze` when the pattern had no cached
//! plan, `factorize` on any factor-cache miss, `solve`) nested under the
//! same async id, and a flow arrow from the dispatch point into each
//! solver rank that executed the batch's solve. The per-rank solve
//! traces are merged in with a running per-rank time offset so successive
//! batches occupy disjoint windows of each rank's track.
//!
//! Timestamps on the serve track are the *caller-supplied* virtual
//! clocks of the queue (arrival / dispatch / finish); solver-rank
//! timestamps keep whatever clock the backend recorded. On the sim
//! backend with logical clocks both are pure functions of
//! `(seed, policy)` — so the exported Chrome trace is byte-identical
//! across runs, which `bench_serve` gates.

use crate::session::Lookup;
use pastix_trace::{CommCounters, Event, EventKind, RankTrace, ServeStage, TraceLog, SERVE_RANK};
use std::collections::HashMap;

/// Accumulates one serving session's request spans and solve traces into
/// a single exportable [`TraceLog`].
#[derive(Debug, Default)]
pub struct RequestTrace {
    serve_events: Vec<Event>,
    ranks: Vec<RankTrace>,
    offsets: HashMap<u32, u64>,
    digest: u64,
    next_flow_id: u64,
}

impl RequestTrace {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, at: u64, kind: EventKind) {
        self.serve_events.push(Event { at, kind });
    }

    /// Opens the parent `request` span and its `queue_wait` child at
    /// admission time.
    pub fn begin_request(&mut self, id: u64, arrival_ns: u64) {
        self.push(arrival_ns, EventKind::AsyncBegin { id, stage: ServeStage::Request as u8 });
        self.push(arrival_ns, EventKind::AsyncBegin { id, stage: ServeStage::QueueWait as u8 });
    }

    /// Closes the spans of a request refused at dispatch: it waited in the
    /// queue and went no further.
    pub fn reject_request(&mut self, id: u64, dispatch_ns: u64) {
        self.push(dispatch_ns, EventKind::AsyncEnd { id, stage: ServeStage::QueueWait as u8 });
        self.push(dispatch_ns, EventKind::AsyncEnd { id, stage: ServeStage::Request as u8 });
    }

    /// Records one served batch: closes each request's `queue_wait` at
    /// dispatch, marks the `coalesce` stage (and `factorize` on a factor
    /// miss, preceded by `analyze` when the plan was not cached either),
    /// brackets the `solve` stage between dispatch and finish, merges the
    /// batch's solve trace onto the per-rank tracks, draws one flow arrow
    /// per participating solver rank, and closes the parent spans at
    /// finish.
    pub fn record_batch(
        &mut self,
        ids: &[u64],
        dispatch_ns: u64,
        finish_ns: u64,
        lookup: Lookup,
        solve_trace: &TraceLog,
    ) {
        let stages: &[ServeStage] = match lookup {
            Lookup::Hit => &[],
            Lookup::PlanHit => &[ServeStage::Factorize],
            Lookup::Miss => &[ServeStage::Analyze, ServeStage::Factorize],
        };
        for &id in ids {
            self.push(dispatch_ns, EventKind::AsyncEnd { id, stage: ServeStage::QueueWait as u8 });
            self.push(dispatch_ns, EventKind::AsyncBegin { id, stage: ServeStage::Coalesce as u8 });
            self.push(dispatch_ns, EventKind::AsyncEnd { id, stage: ServeStage::Coalesce as u8 });
            // What ran on a miss ran once for the whole batch; each rider
            // request shows the amortized markers.
            for &stage in stages {
                self.push(dispatch_ns, EventKind::AsyncBegin { id, stage: stage as u8 });
                self.push(dispatch_ns, EventKind::AsyncEnd { id, stage: stage as u8 });
            }
            self.push(dispatch_ns, EventKind::AsyncBegin { id, stage: ServeStage::Solve as u8 });
        }
        self.merge_solve(dispatch_ns, solve_trace);
        for &id in ids {
            self.push(finish_ns, EventKind::AsyncEnd { id, stage: ServeStage::Solve as u8 });
            self.push(finish_ns, EventKind::AsyncEnd { id, stage: ServeStage::Request as u8 });
        }
    }

    /// Appends a batch's solve trace: each rank's events are shifted by
    /// that rank's running offset (so batches never overlap on a track),
    /// and a fresh flow arrow runs from the serve track's dispatch point
    /// to the first event of each rank's new segment.
    fn merge_solve(&mut self, dispatch_ns: u64, trace: &TraceLog) {
        if self.digest == 0 {
            self.digest = trace.digest;
        }
        for rt in &trace.ranks {
            if rt.events.is_empty() {
                continue;
            }
            let flow = self.next_flow_id;
            self.next_flow_id += 1;
            self.push(dispatch_ns, EventKind::FlowStart { id: flow });

            let offset = self.offsets.get(&rt.rank).copied().unwrap_or(0);
            let target = match self.ranks.iter_mut().find(|r| r.rank == rt.rank) {
                Some(t) => t,
                None => {
                    self.ranks.push(RankTrace {
                        rank: rt.rank,
                        events: Vec::new(),
                        dropped_events: 0,
                        comm: CommCounters::default(),
                    });
                    self.ranks.last_mut().unwrap()
                }
            };
            let first_at = rt.events[0].at + offset;
            target.events.push(Event { at: first_at, kind: EventKind::FlowEnd { id: flow } });
            let mut last = first_at;
            for ev in &rt.events {
                let at = ev.at + offset;
                last = last.max(at);
                target.events.push(Event { at, kind: ev.kind });
            }
            self.offsets.insert(rt.rank, last + 1);
            target.dropped_events += rt.dropped_events;
            target.comm.merge(&rt.comm);
        }
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.serve_events.is_empty() && self.ranks.is_empty()
    }

    /// Assembles the final log: the serve track first, then the merged
    /// solver-rank tracks in ascending rank order.
    pub fn finish(mut self) -> TraceLog {
        let mut ranks = Vec::with_capacity(self.ranks.len() + 1);
        ranks.push(RankTrace {
            rank: SERVE_RANK,
            events: std::mem::take(&mut self.serve_events),
            dropped_events: 0,
            comm: CommCounters::default(),
        });
        self.ranks.sort_by_key(|r| r.rank);
        ranks.extend(self.ranks);
        TraceLog { ranks, wall_ns: 0, digest: self.digest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_trace::export::{chrome_trace, validate_chrome_trace};
    use pastix_trace::TaskClass;

    fn solve_trace(rank_events: &[(u32, &[u64])]) -> TraceLog {
        let ranks = rank_events
            .iter()
            .map(|&(rank, ats)| RankTrace {
                rank,
                events: ats
                    .iter()
                    .flat_map(|&at| {
                        [
                            Event {
                                at,
                                kind: EventKind::TaskBegin { task: at as u32, class: TaskClass::Bdiv },
                            },
                            Event {
                                at: at + 1,
                                kind: EventKind::TaskEnd { task: at as u32, class: TaskClass::Bdiv },
                            },
                        ]
                    })
                    .collect(),
                dropped_events: 0,
                comm: CommCounters::default(),
            })
            .collect();
        TraceLog { ranks, wall_ns: 0, digest: 77 }
    }

    #[test]
    fn request_spans_nest_and_validate() {
        let mut rt = RequestTrace::new();
        rt.begin_request(0, 100);
        rt.begin_request(1, 180);
        // Batch of both requests, cache miss, two solver ranks.
        rt.record_batch(&[0, 1], 300, 900, Lookup::Miss, &solve_trace(&[(0, &[0, 4]), (1, &[2])]));
        // Second single-request batch on a hit: rank offsets advance.
        rt.begin_request(2, 950);
        rt.record_batch(&[2], 1000, 1500, Lookup::Hit, &solve_trace(&[(0, &[0])]));
        // Third on a refactorization over a cached plan: no analyze marker.
        rt.begin_request(3, 1550);
        rt.record_batch(&[3], 1600, 1900, Lookup::PlanHit, &TraceLog::default());
        let log = rt.finish();
        assert_eq!(log.ranks[0].rank, SERVE_RANK);
        assert_eq!(log.digest, 77);
        // Rank 0 carries both batches in disjoint windows: the second
        // batch's events sit above the first's (offset = last + 1).
        let r0 = log.ranks.iter().find(|r| r.rank == 0).unwrap();
        let mut prev_end = 0;
        let mut flow_ends = 0;
        for ev in &r0.events {
            if matches!(ev.kind, EventKind::FlowEnd { .. }) {
                flow_ends += 1;
                if flow_ends == 2 {
                    assert!(ev.at > prev_end, "second batch must not overlap the first");
                }
            }
            prev_end = prev_end.max(ev.at);
        }
        assert_eq!(flow_ends, 2);

        let j = chrome_trace(&log);
        validate_chrome_trace(&j).unwrap();
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 request parents + 4 queue_waits + 4 coalesces + 2 analyze +
        // 3 factorize + 4 solves = 21 async begins, all matched.
        let name_count = |ph: &str, name: &str| {
            evs.iter()
                .filter(|e| e.get("ph").unwrap().as_str().ok() == Some(ph))
                .filter(|e| name.is_empty() || e.get("name").unwrap().as_str().ok() == Some(name))
                .count()
        };
        assert_eq!(name_count("b", ""), 21);
        assert_eq!(name_count("b", "analyze"), 2);
        assert_eq!(name_count("b", "factorize"), 3);
        // 3 flow arrows (two ranks in batch 1, one in batch 2).
        assert_eq!(name_count("s", ""), 3);
        // Byte-identical re-export.
        assert_eq!(j.compact(), chrome_trace(&log).compact());
    }

    #[test]
    fn empty_builder_finishes_clean() {
        let log = RequestTrace::new().finish();
        assert_eq!(log.ranks.len(), 1);
        assert!(log.ranks[0].events.is_empty());
        validate_chrome_trace(&chrome_trace(&log)).unwrap();
    }
}
