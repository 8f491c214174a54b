//! Ordering comparison: how much the fill-reducing ordering matters, and
//! how the paper's Scotch-like coupling (ND + halo MD) compares with the
//! MeTiS-like variant (ND + plain MD), pure minimum degree and the
//! natural order.
//!
//! ```sh
//! cargo run --release --example ordering_compare
//! ```

use pastix::graph::{build_problem, Permutation, ProblemId};
use pastix::ordering::{nested_dissection, pure_min_degree, OrderingOptions};
use pastix::symbolic::{analyze, AnalysisOptions};

fn main() {
    println!(
        "{:<10} {:>8} | {:>12} {:>12} {:>12} {:>12}  (NNZ_L)",
        "Problem", "n", "natural", "min degree", "ND+MD", "ND+HaloMD"
    );
    for id in [ProblemId::Quer, ProblemId::Ship001, ProblemId::Thread] {
        let a = build_problem::<f64>(id, 0.03);
        let g = a.to_graph();
        let natural = analyze(&g, &Permutation::identity(g.n()), &AnalysisOptions::default());
        let md = analyze(&g, &pure_min_degree(&g), &AnalysisOptions::default());
        let nd_md = analyze(
            &g,
            &nested_dissection(&g, &OrderingOptions::metis_like()),
            &AnalysisOptions::default(),
        );
        let nd_hmd = analyze(
            &g,
            &nested_dissection(&g, &OrderingOptions::scotch_like()),
            &AnalysisOptions::default(),
        );
        println!(
            "{:<10} {:>8} | {:>12} {:>12} {:>12} {:>12}",
            id.name(),
            a.n(),
            natural.scalar_nnz_offdiag,
            md.scalar_nnz_offdiag,
            nd_md.scalar_nnz_offdiag,
            nd_hmd.scalar_nnz_offdiag,
        );
        println!(
            "{:<10} {:>8} | {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e}  (OPC)",
            "",
            "",
            natural.scalar_opc,
            md.scalar_opc,
            nd_md.scalar_opc,
            nd_hmd.scalar_opc,
        );
    }
    println!("\nExpected shape: natural ≫ pure MD ≳ ND variants; halo-MD ≤ plain-MD leaves.");
}
