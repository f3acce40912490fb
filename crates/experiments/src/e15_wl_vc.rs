//! **E15** (extension) — *WL meet VC* (paper slide 28,
//! Morris–Geerts–Tönshoff–Grohe, ICML 2023): the VC dimension of
//! CR-bounded hypothesis classes is governed by the number of graphs
//! distinguishable by colour refinement.
//!
//! Executable instance of the connection: a labelled training set
//! `{(G_i, y_i)}` is *realizable* by a CR-bounded class iff the labels
//! are constant on CR-equivalence classes. We verify both directions
//! empirically:
//!
//! * **shatterable** — CR-distinguishable graphs with arbitrary ±1
//!   labels are fit to 100 % training accuracy;
//! * **not shatterable** — putting opposite labels on a CR-equivalent
//!   pair caps training accuracy at `(m − 1)/m` no matter how long we
//!   train (the class cannot shatter any set containing an equivalent
//!   pair, hence the VC bound).
//!
//! Each training set is packed once into a block-diagonal batch, so an
//! epoch is one forward/backward pass over all of its graphs.

use gel_gnn::{
    eval_graph_accuracy_batched, train_graph_model_batched, GnnAgg, GraphModel, Readout,
};
use gel_graph::families::{cr_blind_pair, cycle, path, star};
use gel_graph::{BatchedGraphs, Graph};
use gel_tensor::{Adam, Loss, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{ExperimentResult, Table};

fn fit_accuracy(data: &[(Graph, Vec<f64>)], epochs: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    // Sum readout: a mean readout would hide graph size (C5 vs C6
    // become indistinguishable), artificially capping the capacity.
    let mut model = GraphModel::gnn101(1, 16, 2, 1, GnnAgg::Sum, Readout::Sum, &mut rng);
    let mut opt = Adam::new(0.02);
    let batch = BatchedGraphs::pack(data.iter().map(|(g, _)| g));
    let targets = Matrix::from_vec(data.len(), 1, data.iter().map(|(_, y)| y[0]).collect());
    train_graph_model_batched(&mut model, &batch, &targets, Loss::BceWithLogits, &mut opt, epochs);
    eval_graph_accuracy_batched(&model, &batch, &targets)
}

/// Runs E15.
pub fn run(epochs: usize) -> ExperimentResult {
    let mut table = Table::new(&["training set", "labels", "fit accuracy", "prediction"]);
    let mut agreements = 0;
    let mut violations = 0;

    // (a) Four CR-distinguishable graphs, adversarial ±1 labels.
    // NOTE: C6 is reserved for the CR-equivalent pair below; the base
    // set must not mention it (labels must stay consistent per graph).
    let distinguishable: Vec<(Graph, Vec<f64>)> = vec![
        (star(4), vec![1.0]),
        (path(5), vec![0.0]),
        (cycle(5), vec![1.0]),
        (cycle(7), vec![0.0]),
    ];
    let acc_a = fit_accuracy(&distinguishable, epochs, 0xE15);
    let ok_a = acc_a == 1.0;
    table.row(&[
        "4 CR-distinct graphs".into(),
        "+,-,+,-".into(),
        format!("{acc_a:.3}"),
        "shatterable (fit = 1.0)".into(),
    ]);

    // (b) Same set plus a CR-equivalent pair with OPPOSITE labels:
    //     capacity capped at 5/6.
    let (c6, tri) = cr_blind_pair();
    let mut blocked = distinguishable.clone();
    blocked.push((c6, vec![1.0]));
    blocked.push((tri, vec![0.0]));
    let acc_b = fit_accuracy(&blocked, epochs, 0xE15 + 1);
    let cap = 5.0 / 6.0;
    let ok_b = acc_b <= cap + 1e-9;
    table.row(&[
        "+ CR-equivalent pair, opposite labels".into(),
        "+,-,+,-,+,-".into(),
        format!("{acc_b:.3}"),
        format!("capped at {cap:.3} (not shatterable)"),
    ]);

    // (c) Control: same pair with EQUAL labels is realizable again.
    let (c6, tri) = cr_blind_pair();
    let mut consistent = distinguishable;
    consistent.push((c6, vec![1.0]));
    consistent.push((tri, vec![1.0]));
    let acc_c = fit_accuracy(&consistent, epochs, 0xE15 + 2);
    let ok_c = acc_c == 1.0;
    table.row(&[
        "+ CR-equivalent pair, equal labels".into(),
        "+,-,+,-,+,+".into(),
        format!("{acc_c:.3}"),
        "realizable again (fit = 1.0)".into(),
    ]);

    for ok in [ok_a, ok_b, ok_c] {
        if ok {
            agreements += 1;
        } else {
            violations += 1;
        }
    }
    ExperimentResult {
        id: "E15",
        claim: "VC capacity of CR-bounded classes = shattering CR-distinct graphs only  [slide 28]",
        table,
        agreements,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_vc_capacity() {
        let result = run(3000);
        assert!(result.passed(), "\n{}", result.render());
    }
}
