//! Allocation-count regression tests for the zero-copy message path.
//!
//! The claims under test (see `pastix_solver::metrics`):
//!
//! 1. factor regions are materialized into an `Arc<[T]>` payload at most
//!    once per producing task **with a remote consumer** — purely local
//!    consumers borrow the finished region in place, and consumer sends
//!    are refcount bumps, so with any fan-out the send count strictly
//!    exceeds the deep-copy count (the seed cloned the region on every
//!    send);
//! 2. under the Fan-Both memory cap, outgoing AUB accumulation buffers are
//!    recycled from applied incoming AUBs instead of freshly allocated.
//!
//! Each run reads its counters from the private `MetricsRegistry` carried
//! by its own `SolverConfig`, so the phases cannot contaminate each other.
//! The suite runs on the simulator, the one backend whose factorization
//! sends messages (a `Threads` factorization runs on the shared-memory
//! executor and has no message path).

use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
use pastix_machine::MachineModel;
use pastix_ordering::{nested_dissection, OrderingOptions};
use pastix_runtime::sim::FaultPlan;
use pastix_sched::{map_and_schedule, DistStrategy, MappingOptions, SchedOptions, TaskKind};
use pastix_solver::metrics::MessagePathMetrics;
use pastix_solver::{Backend, Plan, SolverConfig};
use pastix_symbolic::{analyze, AnalysisOptions};

fn check_zero_copy_on(backend: Backend) {
    // A mixed 1D/2D problem on 8 logical processors: plenty of factor
    // fan-out and cross-processor AUB traffic.
    let a = grid_spd::<f64>(12, 12, 1, Stencil::Star, false, ValueKind::RandomSpd(21));
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 8, ..Default::default() });
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(8);
    let opts = SchedOptions {
        block_size: 4,
        mapping: MappingOptions {
            procs_2d_min: 2.0,
            width_2d_min: 4,
            strategy: DistStrategy::Mixed1d2d,
        },
        ..Default::default()
    };
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    let ap = a.permuted(&an.perm);
    let graph = &mapping.graph;
    let sched = &mapping.schedule;
    // `perm: None`: `ap` is already in elimination order.
    let plan = Plan::from_parts(None, graph.clone(), Some(sched.clone()));
    // The only lawful deep copies: factor-producing tasks with at least
    // one consumer scheduled on a different processor (the `Arc` payload
    // is materialized once for the sends; everything local borrows).
    let n_remote_producers = (0..graph.n_tasks())
        .filter(|&t| matches!(graph.kinds[t], TaskKind::Factor { .. } | TaskKind::Bdiv { .. }))
        .filter(|&t| {
            let p = sched.task_proc[t];
            graph.out_edges(t).iter().any(|&d| sched.task_proc[d as usize] != p)
        })
        .count() as u64;

    // Phase 1: plain fan-in factorization — factor-payload sharing. The
    // run's private registry isolates its counts.
    let fanin = plan
        .factorize(&ap, &SolverConfig::new().with_backend(backend))
        .unwrap();
    let m1 = MessagePathMetrics::from_registry(&fanin.metrics);
    assert!(m1.fac_sends > 0, "expected remote factor traffic: {m1:?}");
    assert!(
        m1.fac_deep_copies <= n_remote_producers,
        "factor regions must be deep-copied at most once per producing task \
         with a remote consumer ({n_remote_producers} such producers): {m1:?}"
    );
    assert!(
        m1.fac_deep_copies < m1.fac_sends,
        "with fan-out, sends must exceed deep copies (seed cloned per send): {m1:?}"
    );

    // Phase 2: punishing Fan-Both memory cap — AUB buffer recycling.
    let fanboth = plan
        .factorize(
            &ap,
            &SolverConfig::new()
                .with_backend(backend)
                .with_aub_memory_limit(Some(16)),
        )
        .unwrap();
    let m2 = MessagePathMetrics::from_registry(&fanboth.metrics);
    assert!(m2.aub_sends > 0, "the cap should force AUB traffic: {m2:?}");
    assert!(
        m2.aub_pool_reuses > 0,
        "flushed/applied AUB payloads must be recycled into outgoing buffers: {m2:?}"
    );
    assert!(
        m2.aub_fresh_allocs + m2.aub_pool_reuses >= m2.aub_sends,
        "every sent AUB consumed an acquired buffer: {m2:?}"
    );

    // The optimization must not change the numbers.
    for (pa, pb) in fanin.panels.iter().zip(&fanboth.panels) {
        for (x, y) in pa.iter().zip(pb) {
            assert!((x - y).abs() < 1e-9, "fan-both deviates: {x} vs {y}");
        }
    }
}

#[test]
fn factor_payloads_are_shared_and_aub_buffers_recycled_sim() {
    check_zero_copy_on(Backend::Sim(FaultPlan::builder(21).build()));
}
