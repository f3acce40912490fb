//! **E5** — the approximation theorem (paper slides 29–30, 53): on a
//! compact set of graphs, `MPNN(Ω, sum)` can approximate any continuous
//! embedding whose separation power is bounded by colour refinement.
//!
//! Protocol: train a GNN-101 to regress two per-vertex targets on the
//! same training graphs:
//!
//! * **walk counts of length 3** — a CR-bounded target (determined by
//!   the stable colouring), so the theorem predicts it is learnable to
//!   low error;
//! * **triangle counts per vertex** — *not* CR-bounded (witness: the
//!   C6 / C3⊎C3 pair), so no MPNN can fit it on graphs containing that
//!   witness; the error is bounded below by the variance argument of
//!   slide 31 (see also E12).
//!
//! The experiment reports the trained MSE for both and checks the
//! qualitative shape: learnable ≪ unlearnable. The corpus is packed
//! once into a block-diagonal batch, so an epoch is one forward/backward
//! pass over all six graphs.

use gel_gnn::{eval_vertex_mse_batched, train_vertex_regression_batched, GnnAgg, VertexModel};
use gel_graph::families::{cr_blind_pair, cycle, path, star};
use gel_graph::{BatchedGraphs, Graph};
use gel_hom::subgraph::{triangle_counts_per_vertex, walk_counts};
use gel_tensor::{Adam, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{ExperimentResult, Table};

/// The training corpus for E5: a compact family including the CR-blind
/// witness pair.
fn training_graphs() -> Vec<Graph> {
    let (a, b) = cr_blind_pair();
    vec![a, b, cycle(5), path(6), star(4), gel_graph::families::complete(4)]
}

/// Outcome of one regression run.
#[derive(Debug, Clone, Copy)]
pub struct RegressionOutcome {
    /// Final training MSE.
    pub mse: f64,
}

fn fit(targets: impl Fn(&Graph) -> Vec<f64>, epochs: usize, seed: u64) -> RegressionOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs = training_graphs();
    let batch = BatchedGraphs::pack(graphs.iter());
    let stacked =
        Matrix::from_vec(batch.total_vertices(), 1, graphs.iter().flat_map(&targets).collect());
    let mut model = VertexModel::gnn101(1, 16, 3, 1, GnnAgg::Sum, &mut rng);
    let mut opt = Adam::new(0.01);
    train_vertex_regression_batched(&mut model, &batch, &stacked, &mut opt, epochs);
    RegressionOutcome { mse: eval_vertex_mse_batched(&model, &batch, &stacked) }
}

/// Runs E5; `epochs` controls training length.
pub fn run(epochs: usize) -> ExperimentResult {
    let walks = fit(|g| walk_counts(g, 3), epochs, 0xE5);
    let triangles = fit(triangle_counts_per_vertex, epochs, 0xE5 + 1);

    let mut table = Table::new(&["target", "CR-bounded?", "trained MSE", "prediction"]);
    table.row(&[
        "walks of length 3".into(),
        "yes".into(),
        format!("{:.4}", walks.mse),
        "low error (approximable)".into(),
    ]);
    table.row(&[
        "triangles per vertex".into(),
        "no".into(),
        format!("{:.4}", triangles.mse),
        "error floor ≥ 1/12 on this corpus".into(),
    ]);

    // The C6/C3⊎C3 witness forces a floor: those 12 vertices are all
    // CR-equivalent to each other, so any MPNN predicts one constant c
    // on them; targets are 0 (C6) and 1 (C3⊎C3) ⇒ per-graph MSE at the
    // optimum c=0.5 is 0.25 on each of the 2 witness graphs, i.e. ≥
    // 2·0.25/6 ≈ 0.083 averaged over the 6 training graphs.
    let floor = 2.0 * 0.25 / 6.0;
    let shape_holds = walks.mse < 0.05 && triangles.mse > 0.8 * floor;
    ExperimentResult {
        id: "E5",
        claim: "MPNN(Omega,sum) approximates exactly the CR-bounded embeddings  [slides 29-30, 53]",
        table,
        agreements: usize::from(shape_holds),
        violations: usize::from(!shape_holds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_shape_holds() {
        let result = run(400);
        assert!(result.passed(), "\n{}", result.render());
    }
}
