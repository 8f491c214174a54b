//! The post-run report: joins a recorded [`TraceLog`] against the static
//! [`Schedule`]'s predicted task costs and timeline.
//!
//! This is the validation loop the paper never had at run time: per task,
//! the modeled cost (in calibrated model seconds) next to the measured
//! span (wall nanoseconds); per rank, the compute / communication-wait /
//! idle split of the run; and the schedule's critical-path chain priced
//! both ways. The single scale factor `model_scale_ns` (measured ns per
//! model second, fitted over all matched tasks) is what makes the two
//! unit systems comparable: a task whose `measured / (cost ·
//! model_scale_ns)` ratio strays far from 1 is where the static model and
//! the machine disagree.

use crate::{Event, EventKind, TaskClass, TraceLog};
use pastix_json::{obj, Json};
use pastix_sched::{critical_path_chain, Schedule, TaskGraph};
use std::collections::HashMap;

/// Predicted-vs-measured row for one scheduled task.
#[derive(Debug, Clone, Copy)]
pub struct TaskRow {
    /// Task id.
    pub task: u32,
    /// Executing rank (from the trace; schedule owner if never seen).
    pub proc: u32,
    /// Task class recorded by the span.
    pub class: TaskClass,
    /// Modeled cost (model seconds).
    pub predicted_cost: f64,
    /// Predicted start (model seconds).
    pub predicted_start: f64,
    /// Measured execution time (ns; 0 when the task never appeared).
    pub measured_ns: u64,
    /// Measured begin timestamp (session clock).
    pub measured_at: u64,
}

/// Compute / comm-wait / idle accounting for one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankRow {
    /// Rank id.
    pub rank: u32,
    /// Time inside task spans (ns).
    pub compute_ns: u64,
    /// Time blocked in `recv()` (ns).
    pub wait_ns: u64,
    /// `window_ns - compute - wait`, clamped at 0.
    pub idle_ns: u64,
    /// First-to-last event distance (ns).
    pub window_ns: u64,
    /// Spans recorded.
    pub tasks: u64,
    /// Messages sent / dropped / received.
    pub sends: u64,
    /// Lossy sends dropped by fault injection.
    pub drops: u64,
    /// Messages received.
    pub recvs: u64,
    /// Bytes sent.
    pub send_bytes: u64,
}

/// Aggregated predicted-vs-measured totals for one task class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStat {
    /// Matched tasks of this class.
    pub count: u64,
    /// Σ predicted cost (model seconds).
    pub predicted: f64,
    /// Σ measured span time (ns).
    pub measured_ns: u64,
}

impl ClassStat {
    /// Measured ns per model-second for this class (0 when unmatched).
    pub fn ns_per_cost(&self) -> f64 {
        if self.predicted > 0.0 { self.measured_ns as f64 / self.predicted } else { 0.0 }
    }
}

/// One idle hotspot: the largest inter-event gap on a rank — the place
/// to look when a timeline shows a hole.
#[derive(Debug, Clone)]
pub struct IdleHotspot {
    /// Rank id.
    pub rank: u32,
    /// Gap start (session clock).
    pub start_at: u64,
    /// Gap length (ns under the wall clock).
    pub gap_ns: u64,
    /// What the rank had just finished doing when it went quiet.
    pub after: String,
}

/// The schedule's critical-path chain, priced by model and by trace.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathRow {
    /// Modeled critical-path length (model seconds).
    pub predicted: f64,
    /// Sum of measured spans along the chain (ns).
    pub measured_ns: u64,
    /// The chain, dependency order.
    pub tasks: Vec<u32>,
    /// How many chain tasks had a measured span.
    pub measured_tasks: usize,
}

/// The joined report. Built by [`build_report`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Schedule digest (replay key component).
    pub digest: u64,
    /// Wall time of the SPMD run (ns, from the log).
    pub wall_ns: u64,
    /// Trace makespan: max event timestamp − min event timestamp across
    /// ranks (ns; meaningful under the wall clock with a shared epoch).
    pub span_ns: u64,
    /// Per-task rows, task id order.
    pub tasks: Vec<TaskRow>,
    /// Per-rank rows, rank order.
    pub ranks: Vec<RankRow>,
    /// Critical-path breakdown.
    pub critical: CriticalPathRow,
    /// Σ predicted cost over matched tasks (model seconds).
    pub total_predicted: f64,
    /// Σ measured span time over matched tasks (ns).
    pub total_measured_ns: u64,
    /// Fitted ns-per-model-second scale (0 when nothing matched).
    pub model_scale_ns: f64,
    /// `span_ns / wall_ns`: how much of the run's wall time the trace
    /// accounts for (the ≤5% reconciliation gate of `bench_trace`).
    pub reconciliation: f64,
    /// Per-class predicted-vs-measured totals, indexed by the task-graph
    /// classes (`Comp1d`, `Factor`, `Bdiv`, `Bmod` = indices 0–3).
    pub class_stats: [ClassStat; 4],
    /// Prediction quality under the fitted global scale:
    /// `1 − Σ|measured − predicted·scale| / Σ measured` over matched
    /// tasks (1.0 = the model prices every task exactly).
    pub prediction_fit: f64,
    /// Load imbalance: max rank compute time / mean rank compute time
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Worst idle gap per rank, largest first.
    pub hotspots: Vec<IdleHotspot>,
}

fn class_of_kind(g: &TaskGraph, t: usize) -> TaskClass {
    use pastix_sched::TaskKind;
    match g.kinds[t] {
        TaskKind::Comp1d { .. } => TaskClass::Comp1d,
        TaskKind::Factor { .. } => TaskClass::Factor,
        TaskKind::Bdiv { .. } => TaskClass::Bdiv,
        TaskKind::Bmod { .. } => TaskClass::Bmod,
    }
}

fn event_desc(kind: &EventKind) -> String {
    match *kind {
        EventKind::TaskBegin { task, class } => format!("{} {task} begin", class.name()),
        EventKind::TaskEnd { task, class } => format!("{} {task} end", class.name()),
        EventKind::Send { peer, .. } => format!("send to {peer}"),
        EventKind::SendDropped { peer, .. } => format!("dropped send to {peer}"),
        EventKind::Recv { peer, .. } => format!("recv from {peer}"),
        EventKind::Fence { phase: 0 } => "session begin".to_string(),
        EventKind::Fence { phase: u64::MAX } => "session end".to_string(),
        EventKind::Fence { phase } => format!("fence {phase}"),
        EventKind::Gauge { id, .. } => format!("gauge {}", crate::GaugeId::name_of(id)),
        EventKind::Heartbeat { seq } => format!("heartbeat {seq}"),
        EventKind::AsyncBegin { id, stage } => {
            format!("{} req {id} begin", crate::ServeStage::name_of(stage))
        }
        EventKind::AsyncEnd { id, stage } => {
            format!("{} req {id} end", crate::ServeStage::name_of(stage))
        }
        EventKind::FlowStart { id } => format!("flow {id} start"),
        EventKind::FlowEnd { id } => format!("flow {id} end"),
    }
}

/// Joins `log` against the schedule's predictions.
pub fn build_report(g: &TaskGraph, s: &Schedule, log: &TraceLog) -> TraceReport {
    let n = g.n_tasks();
    let mut measured = vec![0u64; n];
    let mut measured_at = vec![0u64; n];
    let mut run_rank = vec![u32::MAX; n];
    let mut ranks = Vec::with_capacity(log.ranks.len());
    let mut class_stats = [ClassStat::default(); 4];
    let mut hotspots: Vec<IdleHotspot> = Vec::new();
    let mut global_min = u64::MAX;
    let mut global_max = 0u64;
    for rt in &log.ranks {
        let mut row = RankRow {
            rank: rt.rank,
            sends: rt.comm.sends,
            drops: rt.comm.send_drops,
            recvs: rt.comm.recvs,
            send_bytes: rt.comm.send_bytes,
            ..RankRow::default()
        };
        // Open spans by task id (spans of one rank are well nested, but a
        // map keeps the join robust to truncated rings).
        let mut open: HashMap<(u32, u8), u64> = HashMap::new();
        let (mut first, mut last) = (u64::MAX, 0u64);
        let mut prev: Option<&Event> = None;
        let mut worst_gap: Option<IdleHotspot> = None;
        for ev in &rt.events {
            first = first.min(ev.at);
            last = last.max(ev.at);
            if let Some(p) = prev {
                let gap = ev.at.saturating_sub(p.at);
                if worst_gap.as_ref().map(|h| gap > h.gap_ns).unwrap_or(gap > 0) {
                    worst_gap = Some(IdleHotspot {
                        rank: rt.rank,
                        start_at: p.at,
                        gap_ns: gap,
                        after: event_desc(&p.kind),
                    });
                }
            }
            prev = Some(ev);
            match ev.kind {
                EventKind::TaskBegin { task, class } => {
                    open.insert((task, class as u8), ev.at);
                }
                EventKind::TaskEnd { task, class } => {
                    if let Some(b) = open.remove(&(task, class as u8)) {
                        let dt = ev.at.saturating_sub(b);
                        row.compute_ns += dt;
                        row.tasks += 1;
                        let t = task as usize;
                        if t < n && !matches!(class, TaskClass::Scatter | TaskClass::Seq) && !class.is_analyze() {
                            measured[t] += dt;
                            measured_at[t] = b;
                            run_rank[t] = rt.rank;
                        }
                    }
                }
                EventKind::Recv { wait_ns, .. } => row.wait_ns += wait_ns,
                _ => {}
            }
        }
        if first != u64::MAX {
            row.window_ns = last - first;
            global_min = global_min.min(first);
            global_max = global_max.max(last);
        }
        row.idle_ns = row.window_ns.saturating_sub(row.compute_ns + row.wait_ns);
        ranks.push(row);
        if let Some(h) = worst_gap {
            hotspots.push(h);
        }
    }
    hotspots.sort_by_key(|h| std::cmp::Reverse(h.gap_ns));

    let mut tasks = Vec::with_capacity(n);
    let mut total_predicted = 0.0f64;
    let mut total_measured = 0u64;
    for t in 0..n {
        if measured[t] > 0 {
            total_predicted += g.cost[t];
            total_measured += measured[t];
            let c = &mut class_stats[class_of_kind(g, t) as usize];
            c.count += 1;
            c.predicted += g.cost[t];
            c.measured_ns += measured[t];
        }
        tasks.push(TaskRow {
            task: t as u32,
            proc: if run_rank[t] != u32::MAX { run_rank[t] } else { s.task_proc[t] },
            class: class_of_kind(g, t),
            predicted_cost: g.cost[t],
            predicted_start: s.start[t],
            measured_ns: measured[t],
            measured_at: measured_at[t],
        });
    }

    let (cp_value, chain) = critical_path_chain(g);
    let mut cp_measured = 0u64;
    let mut cp_known = 0usize;
    for &t in &chain {
        if measured[t as usize] > 0 {
            cp_measured += measured[t as usize];
            cp_known += 1;
        }
    }

    let model_scale_ns =
        if total_predicted > 0.0 { total_measured as f64 / total_predicted } else { 0.0 };
    let mut abs_err = 0.0f64;
    for t in 0..n {
        if measured[t] > 0 {
            abs_err += (measured[t] as f64 - g.cost[t] * model_scale_ns).abs();
        }
    }
    let prediction_fit =
        if total_measured > 0 { 1.0 - abs_err / total_measured as f64 } else { 0.0 };

    let busy: Vec<u64> =
        ranks.iter().filter(|r| r.window_ns > 0).map(|r| r.compute_ns).collect();
    let imbalance = if busy.is_empty() {
        0.0
    } else {
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean > 0.0 { busy.iter().copied().max().unwrap() as f64 / mean } else { 0.0 }
    };

    let span_ns = if global_min == u64::MAX { 0 } else { global_max - global_min };
    TraceReport {
        digest: log.digest,
        wall_ns: log.wall_ns,
        span_ns,
        tasks,
        ranks,
        critical: CriticalPathRow {
            predicted: cp_value,
            measured_ns: cp_measured,
            tasks: chain,
            measured_tasks: cp_known,
        },
        total_predicted,
        total_measured_ns: total_measured,
        model_scale_ns,
        reconciliation: if log.wall_ns > 0 { span_ns as f64 / log.wall_ns as f64 } else { 0.0 },
        class_stats,
        prediction_fit,
        imbalance,
        hotspots,
    }
}

impl TraceReport {
    /// Serializes the report (the per-task array keeps the `top` largest
    /// measured tasks to bound the file; totals always cover everything).
    pub fn to_json(&self, top: usize) -> Json {
        let mut by_measured: Vec<&TaskRow> =
            self.tasks.iter().filter(|t| t.measured_ns > 0).collect();
        by_measured.sort_by_key(|t| std::cmp::Reverse(t.measured_ns));
        by_measured.truncate(top);
        let task_rows: Vec<Json> = by_measured
            .iter()
            .map(|t| {
                obj([
                    ("task", Json::Num(t.task as f64)),
                    ("class", Json::Str(t.class.name().to_string())),
                    ("proc", Json::Num(t.proc as f64)),
                    ("predicted_cost", Json::Num(t.predicted_cost)),
                    ("measured_ns", Json::Num(t.measured_ns as f64)),
                    (
                        "ratio_vs_model",
                        Json::Num(if self.model_scale_ns > 0.0 && t.predicted_cost > 0.0 {
                            t.measured_ns as f64 / (t.predicted_cost * self.model_scale_ns)
                        } else {
                            0.0
                        }),
                    ),
                ])
            })
            .collect();
        let rank_rows: Vec<Json> = self
            .ranks
            .iter()
            .map(|r| {
                obj([
                    ("rank", Json::Num(r.rank as f64)),
                    ("compute_ns", Json::Num(r.compute_ns as f64)),
                    ("wait_ns", Json::Num(r.wait_ns as f64)),
                    ("idle_ns", Json::Num(r.idle_ns as f64)),
                    ("window_ns", Json::Num(r.window_ns as f64)),
                    ("tasks", Json::Num(r.tasks as f64)),
                    ("sends", Json::Num(r.sends as f64)),
                    ("drops", Json::Num(r.drops as f64)),
                    ("recvs", Json::Num(r.recvs as f64)),
                    ("send_bytes", Json::Num(r.send_bytes as f64)),
                ])
            })
            .collect();
        let class_names = ["comp1d", "factor", "bdiv", "bmod"];
        let class_rows: Vec<Json> = self
            .class_stats
            .iter()
            .zip(class_names)
            .filter(|(c, _)| c.count > 0)
            .map(|(c, name)| {
                obj([
                    ("class", Json::Str(name.to_string())),
                    ("count", Json::Num(c.count as f64)),
                    ("predicted_cost", Json::Num(c.predicted)),
                    ("measured_ns", Json::Num(c.measured_ns as f64)),
                    ("ns_per_cost", Json::Num(c.ns_per_cost())),
                ])
            })
            .collect();
        let hotspot_rows: Vec<Json> = self
            .hotspots
            .iter()
            .map(|h| {
                obj([
                    ("rank", Json::Num(h.rank as f64)),
                    ("start_at", Json::Num(h.start_at as f64)),
                    ("gap_ns", Json::Num(h.gap_ns as f64)),
                    ("after", Json::Str(h.after.clone())),
                ])
            })
            .collect();
        obj([
            ("schedule_digest", Json::Str(format!("{:#018x}", self.digest))),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("trace_span_ns", Json::Num(self.span_ns as f64)),
            ("reconciliation", Json::Num(self.reconciliation)),
            ("prediction_fit", Json::Num(self.prediction_fit)),
            ("imbalance", Json::Num(self.imbalance)),
            ("total_predicted_cost", Json::Num(self.total_predicted)),
            ("total_measured_ns", Json::Num(self.total_measured_ns as f64)),
            ("model_scale_ns_per_cost", Json::Num(self.model_scale_ns)),
            ("class_stats", Json::Arr(class_rows)),
            ("idle_hotspots", Json::Arr(hotspot_rows)),
            (
                "critical_path",
                obj([
                    ("predicted_cost", Json::Num(self.critical.predicted)),
                    ("measured_ns", Json::Num(self.critical.measured_ns as f64)),
                    ("tasks", Json::Num(self.critical.tasks.len() as f64)),
                    ("measured_tasks", Json::Num(self.critical.measured_tasks as f64)),
                ]),
            ),
            ("ranks", Json::Arr(rank_rows)),
            ("top_tasks", Json::Arr(task_rows)),
        ])
    }

    /// Renders the human-oriented tables (`bench_trace` output).
    pub fn render_tables(&self, top: usize) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "trace report  digest={:#018x}  wall={:.3} ms  trace-span={:.3} ms  reconciliation={:.2}%\n",
            self.digest,
            ms(self.wall_ns),
            ms(self.span_ns),
            self.reconciliation * 100.0
        ));
        out.push_str(&format!(
            "matched tasks: predicted={:.type_e$} model-s  measured={:.3} ms  scale={:.3e} ns/model-s\n\n",
            self.total_predicted,
            ms(self.total_measured_ns),
            self.model_scale_ns,
            type_e = 4,
        ));
        out.push_str("rank    compute_ms     wait_ms     idle_ms   tasks    sends   drops   recvs\n");
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>4}  {:>12.3} {:>11.3} {:>11.3} {:>7} {:>8} {:>7} {:>7}\n",
                r.rank,
                ms(r.compute_ns),
                ms(r.wait_ns),
                ms(r.idle_ns),
                r.tasks,
                r.sends,
                r.drops,
                r.recvs
            ));
        }
        out.push_str(&format!(
            "\nload: imbalance (max/mean compute) {:.2}   prediction fit {:.2}%\n",
            self.imbalance,
            self.prediction_fit * 100.0
        ));
        let class_names = ["comp1d", "factor", "bdiv", "bmod"];
        for (c, name) in self.class_stats.iter().zip(class_names) {
            if c.count > 0 {
                out.push_str(&format!(
                    "  {:>7}: {:>6} tasks  measured {:>10.3} ms  {:.3e} ns/model-s\n",
                    name,
                    c.count,
                    ms(c.measured_ns),
                    c.ns_per_cost()
                ));
            }
        }
        if !self.hotspots.is_empty() {
            out.push_str("idle hotspots (worst gap per rank):\n");
            for h in self.hotspots.iter().take(top) {
                out.push_str(&format!(
                    "  rank {:>3}  {:>10.3} ms after {}\n",
                    h.rank,
                    ms(h.gap_ns),
                    h.after
                ));
            }
        }
        out.push_str(&format!(
            "\ncritical path: {} tasks, predicted {:.4} model-s, measured {:.3} ms over {} traced tasks\n\n",
            self.critical.tasks.len(),
            self.critical.predicted,
            ms(self.critical.measured_ns),
            self.critical.measured_tasks
        ));
        let mut by_measured: Vec<&TaskRow> =
            self.tasks.iter().filter(|t| t.measured_ns > 0).collect();
        by_measured.sort_by_key(|t| std::cmp::Reverse(t.measured_ns));
        by_measured.truncate(top);
        out.push_str("task      class   proc   predicted     measured_ms   vs-model\n");
        for t in by_measured {
            let ratio = if self.model_scale_ns > 0.0 && t.predicted_cost > 0.0 {
                t.measured_ns as f64 / (t.predicted_cost * self.model_scale_ns)
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>6}  {:>7} {:>6}  {:>10.4e}  {:>12.4} {:>9.2}x\n",
                t.task,
                t.class.name(),
                t.proc,
                t.predicted_cost,
                ms(t.measured_ns),
                ratio
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommCounters, Event, RankTrace};

    fn tiny_graph() -> (TaskGraph, Schedule) {
        let m = pastix_testsupport::grid_mapping(6, 6, 8, 2, &pastix_sched::SchedOptions::default());
        (m.graph, m.schedule)
    }

    #[test]
    fn report_joins_spans_with_predictions() {
        let (g, s) = tiny_graph();
        // Synthesize a trace: rank 0 runs task 0 for 100 ns.
        let class = class_of_kind(&g, 0);
        let rt = RankTrace {
            rank: 0,
            events: vec![
                Event { at: 10, kind: EventKind::TaskBegin { task: 0, class } },
                Event { at: 110, kind: EventKind::TaskEnd { task: 0, class } },
                Event { at: 120, kind: EventKind::Recv { peer: 1, bytes: 8, kind: 0, wait_ns: 5 } },
            ],
            dropped_events: 0,
            comm: CommCounters { recvs: 1, recv_bytes: 8, ..Default::default() },
        };
        let log = TraceLog { ranks: vec![rt], wall_ns: 120, digest: 7 };
        let rep = build_report(&g, &s, &log);
        assert_eq!(rep.tasks[0].measured_ns, 100);
        assert_eq!(rep.total_measured_ns, 100);
        assert!(rep.model_scale_ns > 0.0);
        assert_eq!(rep.ranks[0].wait_ns, 5);
        assert_eq!(rep.ranks[0].compute_ns, 100);
        assert!(!rep.critical.tasks.is_empty());
        assert!((rep.reconciliation - 110.0 / 120.0).abs() < 1e-12);
        // One matched task: the global fit is exact and its class stat
        // carries the whole measurement.
        assert!((rep.prediction_fit - 1.0).abs() < 1e-12);
        let total_class: u64 = rep.class_stats.iter().map(|c| c.measured_ns).sum();
        assert_eq!(total_class, 100);
        assert!((rep.imbalance - 1.0).abs() < 1e-12);
        assert_eq!(rep.hotspots.len(), 1);
        assert_eq!(rep.hotspots[0].rank, 0);
        // JSON and tables render without panicking and carry the digest.
        let j = rep.to_json(10);
        assert!(j.get("schedule_digest").is_some());
        assert!(rep.render_tables(5).contains("critical path"));
    }
}
