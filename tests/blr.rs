//! End-to-end block-low-rank coverage across execution backends: the
//! tolerance sweep trading factor bytes for accuracy (recovered by
//! iterative refinement), the compressed factor as the dense one
//! truncated, the disabled-compression invariants, and the published
//! `lowrank.*` metrics. Bitwise replay claims for the compressed path
//! live in `plan_parity.rs` on the sim backend; the sweep runs the real
//! thread backends, so accuracy is asserted through residuals.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::{Backend, DynamicOptions};
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions, TaskKind};
use pastix::solver::{BlokView, CompressionConfig, Plan, SolverConfig};
use pastix::symbolic::{analyze, AnalysisOptions};

const PROCS: usize = 3;

/// A grid problem whose separator blocks genuinely compress at loose
/// tolerances (small grids stay near full rank and the sweep would be
/// vacuous).
fn setup() -> (pastix::graph::SymCsc<f64>, Mapping) {
    let a = grid_spd::<f64>(24, 24, 1, Stencil::Star, false, ValueKind::RandomSpd(17));
    let g = a.to_graph();
    let ord = nested_dissection(
        &g,
        &OrderingOptions {
            leaf_size: 16,
            ..Default::default()
        },
    );
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(PROCS);
    let mut opts = SchedOptions::default();
    opts.block_size = 8;
    opts.mapping.strategy = DistStrategy::Mixed1d2d;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 8;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    (a.permuted(&an.perm), mapping)
}

fn backends() -> [(Backend, &'static str); 2] {
    [
        (Backend::Threads, "threads"),
        (
            Backend::Dynamic(DynamicOptions::new().with_workers(PROCS)),
            "dynamic",
        ),
    ]
}

/// Tightening the sweep: looser tolerances must never cost more bytes,
/// the loosest level must actually engage, and iterative refinement
/// recovers full accuracy at every level.
#[test]
fn tolerance_sweep_trades_bytes_for_accuracy() {
    let (ap, mapping) = setup();
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let n = ap.n();
    let xe: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
    let b = rhs_for_solution(&ap, &xe);

    for (backend, name) in backends() {
        let dense = plan
            .factorize(&ap, &SolverConfig::new().with_backend(backend))
            .unwrap();
        let dense_bytes = dense.storage.factor_bytes();
        assert_eq!(dense_bytes, dense.storage.dense_factor_bytes());

        let mut prev_bytes = dense_bytes;
        for tol in [1e-8, 1e-4, 1e-2] {
            let cfg = SolverConfig::new()
                .with_backend(backend)
                .with_compression(CompressionConfig::with_tolerance(tol).min_block(2));
            let run = plan.factorize(&ap, &cfg).unwrap();
            let bytes = run.storage.factor_bytes();
            let diag = format!("backend {name}, tolerance {tol:e}");
            assert!(
                bytes <= prev_bytes,
                "{diag}: loosening the tolerance grew the factor ({bytes} > {prev_bytes})"
            );
            prev_bytes = bytes;

            let refined = run.solve_refined(&ap, &b, &Default::default()).unwrap();
            assert!(
                refined.residual < 1e-8,
                "{diag}: refined residual {}",
                refined.residual
            );

            // The registry mirrors the storage accounting exactly.
            assert_eq!(
                cfg.metrics.counter("lowrank.bytes_saved"),
                dense_bytes - bytes,
                "{diag}: bytes_saved counter disagrees with the storage"
            );
            if run.storage.is_compressed() {
                assert!(cfg.metrics.counter("lowrank.compressed_blocks") > 0, "{diag}");
                assert_eq!(cfg.metrics.gauge("lowrank.factor_bytes"), Some(bytes as f64), "{diag}");
            }
        }
        assert!(
            prev_bytes < dense_bytes,
            "backend {name}: the loosest tolerance never engaged compression"
        );
    }
}

/// Compression is one pass over the finished factor: on the sim backend
/// at one seed, every blok the compressed run keeps dense is the dense
/// run's blok bit for bit, and every low-rank blok is that blok within
/// the tolerance — on the 2D column blocks too. The factor still shrinks
/// and refines to full accuracy.
#[test]
fn compressed_factor_is_the_dense_factor_truncated() {
    let (ap, mapping) = setup();
    let (graph, sym) = (&mapping.graph, &mapping.graph.split.symbol);
    let plan = Plan::from_parts(None, graph.clone(), Some(mapping.schedule.clone()));
    let n = ap.n();
    let xe: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
    let b = rhs_for_solution(&ap, &xe);
    let tol = 1e-2;
    let fp = FaultPlan::builder(0xB1).policy(SchedPolicy::Uniform).build();
    let cfg = SolverConfig::new().with_backend(Backend::Sim(fp));
    let dense = plan.factorize(&ap, &cfg).unwrap();
    let run = plan
        .factorize(&ap, &cfg.with_compression(CompressionConfig::with_tolerance(tol).min_block(2)))
        .unwrap();
    assert!(run.storage.is_compressed(), "nothing compressed");
    assert!(run.storage.factor_bytes() < run.storage.dense_factor_bytes(), "no bytes saved");

    let mut overlays_2d = 0;
    for (k, cb) in sym.cblks.iter().enumerate() {
        let w = cb.width();
        let is_2d = matches!(graph.kinds[graph.head_task_of_cblk[k] as usize], TaskKind::Factor { .. });
        overlays_2d += usize::from(is_2d && run.storage.panel_compression(k).is_some());
        for (local, bk) in (cb.blok_start..cb.blok_end).enumerate() {
            let h = sym.bloks[bk].nrows();
            let BlokView::Dense { data: want, ld: lw } = dense.storage.blok_view(k, local, bk) else {
                panic!("the dense run has a low-rank blok {bk}");
            };
            let want = |i: usize, j: usize| want[i + j * lw];
            match run.storage.blok_view(k, local, bk) {
                BlokView::Dense { data, ld } => {
                    for j in 0..w {
                        for i in 0..h {
                            assert_eq!(data[i + j * ld].to_bits(), want(i, j).to_bits(), "dense blok {bk} ({i},{j})");
                        }
                    }
                }
                BlokView::LowRank(lr) => {
                    let got = lr.decompress();
                    let (mut err, mut norm) = (0.0f64, 0.0f64);
                    for j in 0..w {
                        for i in 0..h {
                            err += (got[i + j * h] - want(i, j)).powi(2);
                            norm += want(i, j).powi(2);
                        }
                    }
                    let (err, norm) = (err.sqrt(), norm.sqrt());
                    assert!(err <= tol * norm * (1.0 + 1e-9), "low-rank blok {bk}: error {err:e}, norm {norm:e}");
                }
            }
        }
    }
    assert!(overlays_2d > 0, "no 2D column block carries an overlay");

    let refined = run.solve_refined(&ap, &b, &Default::default()).unwrap();
    assert!(refined.residual < 1e-8, "refined residual {}", refined.residual);
}

/// Disabled compression (tolerance `0.0` or a default config) leaves the
/// storage dense on every backend: no overlay, identical byte accounting,
/// zero metrics.
#[test]
fn zero_tolerance_stays_dense_on_every_backend() {
    let (ap, mapping) = setup();
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    for (backend, name) in backends() {
        let cfg = SolverConfig::new()
            .with_backend(backend)
            .with_compression(CompressionConfig::with_tolerance(0.0).min_block(2));
        let run = plan.factorize(&ap, &cfg).unwrap();
        assert!(!run.storage.is_compressed(), "backend {name}: tolerance 0 compressed");
        assert_eq!(run.storage.factor_bytes(), run.storage.dense_factor_bytes());
        assert_eq!(cfg.metrics.counter("lowrank.compressed_blocks"), 0);
        assert_eq!(cfg.metrics.counter("lowrank.bytes_saved"), 0);
    }
}
