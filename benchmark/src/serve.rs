//! `serve_mixed_closed`: eight closed-loop clients against one
//! `SolverSession` through a `RequestQueue`, three matrices against a
//! two-entry factor cache.

use crate::calibrate::Calibrator;
use crate::inputs::{revalued, serve_run, Input, Rng, ServeRun, SERVE_WARMUP};
use crate::metrics::PROCS;
use crate::pipeline::{verify, Samples, Tracer};
use pastix_graph::{build_problem, Parallelism, ProblemId, SymCsc};
use pastix_serve::{RequestQueue, SessionOptions, SolverSession};
use pastix_solver::{MetricsRegistry, SolverConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Clients, each with one request outstanding.
pub const CLIENTS: usize = 8;
/// Requests of one run (six per client), all against one matrix.
pub const REQUESTS_PER_RUN: usize = 48;
/// Seeded right-hand sides per matrix; requests cycle through them.
const POOL: usize = 8;

/// The three resident-size matrices: (problem, scale), most frequent first.
pub const MATRICES: [(ProblemId, f64); 3] = [
    (ProblemId::Ship001, 0.5),
    (ProblemId::Oilpan, 0.2),
    (ProblemId::X104, 0.05),
];

pub struct ServeSetup {
    /// `[matrix][revalued as usize]`.
    served: Vec<[Input; 2]>,
    pub session: SolverSession<f64>,
    queue: RequestQueue<f64>,
}

pub fn session_options(solver: SolverConfig) -> SessionOptions {
    SessionOptions {
        procs: PROCS,
        capacity: 2,
        max_panel: CLIENTS,
        parallelism: Parallelism::Threads(PROCS),
        solver,
        ..SessionOptions::default()
    }
}

/// A request in flight: its right-hand side's pool column, when it was
/// submitted, and its span.
struct Sent {
    col: usize,
    submitted: Instant,
    span: Option<usize>,
    op: u64,
}

impl ServeSetup {
    /// Builds the matrices, their re-valued copies and right-hand sides
    /// from `seed`, opens a session, and replays the runs that precede
    /// run 0 so the cache is in steady state. Returns the set-up's
    /// calibrated seconds (the preparation and each warm-up run in a
    /// bracket of its own) and the warm-up's failures alongside.
    pub fn new(seed: u64, solver: SolverConfig, cal: &mut Calibrator) -> (Self, f64, u64) {
        let (mut setup, mut secs) = cal.time(|| {
            let mut rng = Rng::new(seed, 0x5E27);
            let served = MATRICES
                .iter()
                .map(|&(id, scale)| {
                    let a = build_problem::<f64>(id, scale);
                    let re = revalued(&a, &mut rng);
                    [
                        Input::new(a, POOL, &mut rng),
                        Input::new(re, POOL, &mut rng),
                    ]
                })
                .collect();
            // A registry of its own: `solver` may be a clone, and clones
            // share their counters.
            let solver = solver.with_metrics(MetricsRegistry::new());
            ServeSetup {
                served,
                session: SolverSession::new(session_options(solver)),
                queue: RequestQueue::new(),
            }
        });
        let mut failed = 0;
        for i in -(SERVE_WARMUP as i64)..0 {
            let run = serve_run(seed, i);
            let (f, run_secs) =
                cal.time(|| setup.run(run, 0, &mut Tracer(None), &mut Samples::default()));
            failed += f;
            secs += run_secs;
        }
        (setup, secs, failed)
    }

    /// The most frequent matrix, for replica calls.
    pub fn main_matrix(&self) -> (&SymCsc<f64>, &[f64]) {
        (&self.served[0][0].a, &self.served[0][0].rhs)
    }

    pub fn matrices(&self) -> impl Iterator<Item = &SymCsc<f64>> {
        self.served.iter().map(|pair| &pair[0].a)
    }

    /// One run: every client sends its six requests against the run's
    /// matrix, the next only after the previous one's answer arrived and
    /// was checked. Latency runs from the moment the client submits to
    /// the moment its batch returns. Samples are keyed by matrix so the
    /// caller can take per-matrix medians. Returns the failed requests.
    pub fn run(&mut self, run: ServeRun, run_id: u64, tracer: &mut Tracer, s: &mut Samples) -> u64 {
        let m = &self.served[run.matrix][usize::from(run.revalued)];
        let n = m.a.n();
        let metrics = self.session.metrics().clone();
        let mut failed = 0u64;
        let run_start = Instant::now();
        for round in 0..REQUESTS_PER_RUN / CLIENTS {
            let mut sent = HashMap::with_capacity(CLIENTS);
            for c in 0..CLIENTS {
                let col = (round * CLIENTS + c) % POOL;
                let op = run_id * REQUESTS_PER_RUN as u64 + (round * CLIENTS + c) as u64;
                let span = tracer.begin("request", None, op);
                let submitted = Instant::now();
                let arrival_ns = submitted.duration_since(run_start).as_nanos() as u64;
                let ticket = self
                    .queue
                    .submit(m.rhs[col * n..(col + 1) * n].to_vec(), arrival_ns);
                sent.insert(
                    ticket,
                    Sent {
                        col,
                        submitted,
                        span,
                        op,
                    },
                );
            }
            let misses_before = metrics.counter("serve.cache.misses");
            let analyze_before = metrics.counter("serve.analyze_ns");
            let factorize_before = metrics.histogram("serve.factorize_ns").map_or(0, |h| h.sum);
            let batch_spans: Vec<_> = sent
                .values()
                .map(|r| tracer.begin("serve.batch", r.span, r.op))
                .collect();
            let dispatch = Instant::now();
            let dispatch_ns = dispatch.duration_since(run_start).as_nanos() as u64;
            // The queue stamps completions with a caller-supplied clock;
            // latency here is taken from the real one, below.
            let done = self
                .queue
                .serve_batch(&mut self.session, &m.a, dispatch_ns, dispatch_ns);
            let finish = Instant::now();
            batch_spans.into_iter().for_each(|b| tracer.end(b));
            sent.values().for_each(|r| tracer.end(r.span));
            let batch_s = finish.duration_since(dispatch).as_secs_f64();
            let done = done.unwrap_or_else(|e| {
                println!("FAILED run {run_id} round {round}: batch refused: {e}");
                Vec::new()
            });
            if metrics.counter("serve.cache.misses") > misses_before {
                s.push(MISS_BATCH[run.matrix], batch_s);
                let analyze_ns = metrics.counter("serve.analyze_ns") - analyze_before;
                s.push(MISS_ANALYZE[run.matrix], analyze_ns as f64 / 1e9);
                let factorize_ns =
                    metrics.histogram("serve.factorize_ns").map_or(0, |h| h.sum) - factorize_before;
                s.push(MISS_FACTORIZE[run.matrix], factorize_ns as f64 / 1e9);
            } else {
                s.push(HIT_BATCH[run.matrix], batch_s);
            }
            s.push("resident_bytes", self.session.resident_bytes() as f64);
            for c in &done {
                let Some(r) = sent.remove(&c.id) else {
                    println!(
                        "FAILED run {run_id}: completion for unknown ticket {}",
                        c.id
                    );
                    failed += 1;
                    continue;
                };
                let col = r.col * n..(r.col + 1) * n;
                match verify(&m.a, &c.x, &m.rhs[col.clone()], &m.exact[col]) {
                    // A failed request counts as missing every latency figure.
                    Ok(()) => s.push(
                        "request_s",
                        finish.duration_since(r.submitted).as_secs_f64(),
                    ),
                    Err(e) => {
                        println!("FAILED run {run_id} ticket {}: {e}", c.id);
                        failed += 1;
                    }
                }
            }
            // Tickets the batch never answered.
            failed += sent.len() as u64;
        }
        s.push("run_s", run_start.elapsed().as_secs_f64());
        failed
    }
}

/// Sample names by matrix (timings, so they end in `_s`).
pub const MISS_BATCH: [&str; 3] = ["m0.miss_batch_s", "m1.miss_batch_s", "m2.miss_batch_s"];
pub const MISS_ANALYZE: [&str; 3] = [
    "m0.miss_analyze_s",
    "m1.miss_analyze_s",
    "m2.miss_analyze_s",
];
pub const MISS_FACTORIZE: [&str; 3] = [
    "m0.miss_factorize_s",
    "m1.miss_factorize_s",
    "m2.miss_factorize_s",
];
pub const HIT_BATCH: [&str; 3] = ["m0.hit_batch_s", "m1.hit_batch_s", "m2.hit_batch_s"];
