//! Empirical risk minimization (paper slides 16–20): given a training
//! set `T ⊆ G × V^p × Y`, a hypothesis class (a model family), and a
//! loss `L`, find `argmin_ξ 1/|T| Σ L(ξ(G_i, v̄_i), Ψ(G_i, v̄_i))` by
//! gradient descent.

use gel_graph::{BatchedGraphs, Graph, Vertex};
use gel_tensor::{accuracy, Loss, Matrix, Optimizer, Parameterized, Scratch};

use crate::models::{GraphModel, VertexModel};

/// A record of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    /// Mean training loss after each epoch.
    pub losses: Vec<f64>,
}

impl TrainLog {
    /// Final training loss.
    pub fn final_loss(&self) -> f64 {
        self.losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// Trains a graph-level model on `(graph, target-row)` examples
/// (slide 16's first training-set example: molecules with yes/no
/// labels).
pub fn train_graph_model(
    model: &mut GraphModel,
    data: &[(Graph, Vec<f64>)],
    loss: Loss,
    opt: &mut dyn Optimizer,
    epochs: usize,
) -> TrainLog {
    // Full-batch ERM (slide 19): accumulate the gradient of
    // 1/|T| Σ L(ξ(G_i), Ψ(G_i)) over the whole training set, then take
    // one optimizer step per epoch — markedly more stable than
    // per-example stepping for the small training sets used here.
    let mut log = TrainLog::default();
    let m = data.len().max(1) as f64;
    let inv_m = 1.0 / m;
    let (mut pred, mut t, mut grad) = (Matrix::default(), Matrix::default(), Matrix::default());
    for _ in 0..epochs {
        model.zero_grads();
        let mut total = 0.0;
        for (g, target) in data {
            model.forward_into(g, &mut pred);
            t.ensure_shape(1, target.len());
            t.row_mut(0).copy_from_slice(target);
            let l = loss.eval_into(&pred, &t, &mut grad);
            grad.map_inplace(|x| x * inv_m);
            model.backward(g, &grad);
            total += l;
        }
        opt.step(model);
        log.losses.push(total / m);
    }
    log
}

/// [`train_graph_model`] over a pre-packed corpus: one forward/backward
/// over the block-diagonal graph per epoch instead of one per example.
/// Row `i` of `targets` is the target for member graph `i`. Computes
/// the same ERM objective (losses average over the batch dimension), so
/// it converges to the same solutions; per-element gradients are
/// mathematically equal to the per-graph path's `grad / m`.
/// `tests/trainer_agreement.rs` checks the two loss curves agree to
/// rounding on the E15 training sets.
pub fn train_graph_model_batched(
    model: &mut GraphModel,
    batch: &BatchedGraphs,
    targets: &Matrix,
    loss: Loss,
    opt: &mut dyn Optimizer,
    epochs: usize,
) -> TrainLog {
    assert_eq!(targets.rows(), batch.num_graphs(), "one target row per member graph");
    let mut log = TrainLog::default();
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    for _ in 0..epochs {
        model.zero_grads();
        model.forward_batched_into(batch, &mut pred);
        let l = loss.eval_into(&pred, targets, &mut grad);
        model.backward_batched(batch, &grad);
        opt.step(model);
        log.losses.push(l);
    }
    log
}

/// Evaluates graph-level classification accuracy (argmax for multi-way
/// targets; zero-threshold on the *logit* for 1-dimensional outputs —
/// the convention paired with [`Loss::BceWithLogits`]).
pub fn eval_graph_accuracy(model: &GraphModel, data: &[(Graph, Vec<f64>)]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut scratch = Scratch::new();
    let mut pred = Matrix::default();
    let mut hits = 0usize;
    for (g, target) in data {
        model.infer_into(g, &mut scratch, &mut pred);
        hits += usize::from(prediction_hits(pred.row(0), target));
    }
    hits as f64 / data.len() as f64
}

/// [`eval_graph_accuracy`] over a pre-packed corpus; row `i` of
/// `targets` is the target of member graph `i`. One batched inference
/// pass replaces the per-graph loop; the per-row predictions are bit
/// for bit those of [`GraphModel::infer`], so the accuracy matches
/// exactly.
pub fn eval_graph_accuracy_batched(
    model: &GraphModel,
    batch: &BatchedGraphs,
    targets: &Matrix,
) -> f64 {
    assert_eq!(targets.rows(), batch.num_graphs(), "one target row per member graph");
    if batch.num_graphs() == 0 {
        return 0.0;
    }
    let mut scratch = Scratch::new();
    let mut pred = Matrix::default();
    model.infer_batched_into(batch, &mut scratch, &mut pred);
    let hits =
        (0..batch.num_graphs()).filter(|&i| prediction_hits(pred.row(i), targets.row(i))).count();
    hits as f64 / batch.num_graphs() as f64
}

/// Shared hit rule: zero-threshold on the logit for 1-dim targets
/// (paired with [`Loss::BceWithLogits`]), argmax agreement otherwise.
fn prediction_hits(pred: &[f64], target: &[f64]) -> bool {
    if target.len() == 1 {
        (pred[0] >= 0.0) == (target[0] >= 0.5)
    } else {
        let am = |r: &[f64]| {
            r.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
        };
        am(pred) == am(target)
    }
}

/// Semi-supervised node classification (slide 16's second example:
/// cora papers with topics): one graph, loss restricted to the
/// training-mask vertices.
pub fn train_node_classifier(
    model: &mut VertexModel,
    g: &Graph,
    targets: &Matrix,
    train_mask: &[Vertex],
    opt: &mut dyn Optimizer,
    epochs: usize,
) -> TrainLog {
    assert_eq!(targets.rows(), g.num_vertices(), "one target row per vertex");
    let mut log = TrainLog::default();
    let mut pred = Matrix::default();
    let mut masked_pred = Matrix::default();
    let mut masked_tgt = Matrix::default();
    let mut grad_masked = Matrix::default();
    let mut grad = Matrix::default();
    for _ in 0..epochs {
        model.zero_grads();
        model.forward_into(g, &mut pred);
        // Masked softmax cross entropy: gather the training rows.
        let m = train_mask.len().max(1);
        masked_pred.ensure_shape(m, pred.cols());
        masked_tgt.ensure_shape(m, pred.cols());
        for (i, &v) in train_mask.iter().enumerate() {
            masked_pred.set_row(i, pred.row(v as usize));
            masked_tgt.set_row(i, targets.row(v as usize));
        }
        let l = Loss::SoftmaxCrossEntropy.eval_into(&masked_pred, &masked_tgt, &mut grad_masked);
        // Scatter gradients back to the full vertex set.
        grad.ensure_shape(pred.rows(), pred.cols());
        grad.fill(0.0);
        for (i, &v) in train_mask.iter().enumerate() {
            grad.set_row(v as usize, grad_masked.row(i));
        }
        model.backward(g, &grad);
        opt.step(model);
        log.losses.push(l);
    }
    log
}

/// Accuracy of a node classifier on the given vertices.
pub fn eval_node_accuracy(
    model: &VertexModel,
    g: &Graph,
    targets: &Matrix,
    mask: &[Vertex],
) -> f64 {
    let pred = model.infer(g);
    let mut masked_pred = Matrix::zeros(mask.len(), pred.cols());
    let mut masked_tgt = Matrix::zeros(mask.len(), pred.cols());
    for (i, &v) in mask.iter().enumerate() {
        masked_pred.set_row(i, pred.row(v as usize));
        masked_tgt.set_row(i, targets.row(v as usize));
    }
    accuracy(&masked_pred, &masked_tgt)
}

/// Link prediction (slide 9: a 2-vertex embedding): scores a pair by
/// the sigmoid of the dot product of the endpoints' vertex embeddings,
/// trained with binary cross entropy on positive/negative pairs.
pub struct LinkPredictor {
    /// The underlying vertex-embedding model.
    pub encoder: VertexModel,
}

impl LinkPredictor {
    /// Scores every pair in `pairs` ∈ (0, 1).
    pub fn score(&self, g: &Graph, pairs: &[(Vertex, Vertex)]) -> Vec<f64> {
        let z = self.encoder.infer(g);
        pairs
            .iter()
            .map(|&(u, v)| {
                let dot: f64 =
                    z.row(u as usize).iter().zip(z.row(v as usize)).map(|(a, b)| a * b).sum();
                1.0 / (1.0 + (-dot).exp())
            })
            .collect()
    }

    /// One epoch of BCE training over labelled pairs
    /// (`label ∈ {0.0, 1.0}`). Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        g: &Graph,
        pairs: &[((Vertex, Vertex), f64)],
        opt: &mut dyn Optimizer,
    ) -> f64 {
        self.encoder.zero_grads();
        let z = self.encoder.forward(g);
        let n = z.rows();
        let d = z.cols();
        let m = pairs.len().max(1) as f64;
        let mut grad_z = Matrix::zeros(n, d);
        let mut total = 0.0;
        for &((u, v), label) in pairs {
            let (u, v) = (u as usize, v as usize);
            let dot: f64 = z.row(u).iter().zip(z.row(v)).map(|(a, b)| a * b).sum();
            let p = 1.0 / (1.0 + (-dot).exp());
            let eps = 1e-12;
            total += -(label * (p.max(eps)).ln() + (1.0 - label) * ((1.0 - p).max(eps)).ln());
            // d(BCE)/d(dot) = p − label; chain to both endpoints.
            let gd = (p - label) / m;
            for c in 0..d {
                grad_z[(u, c)] += gd * z[(v, c)];
                grad_z[(v, c)] += gd * z[(u, c)];
            }
        }
        self.encoder.backward(g, &grad_z);
        opt.step(&mut self.encoder);
        total / m
    }

    /// Classification accuracy at threshold 0.5.
    pub fn eval_accuracy(
        &self,
        g: &Graph,
        positives: &[(Vertex, Vertex)],
        negatives: &[(Vertex, Vertex)],
    ) -> f64 {
        let pos = self.score(g, positives);
        let neg = self.score(g, negatives);
        let hits =
            pos.iter().filter(|&&p| p >= 0.5).count() + neg.iter().filter(|&&p| p < 0.5).count();
        hits as f64 / (pos.len() + neg.len()).max(1) as f64
    }
}

/// Per-vertex regression: fit `targets[v]` with MSE over all vertices
/// of one graph per example. The approximation experiments E5 and E12
/// run [`train_vertex_regression_batched`]; this per-graph loop is its
/// reference.
pub fn train_vertex_regression(
    model: &mut VertexModel,
    data: &[(Graph, Vec<f64>)],
    opt: &mut dyn Optimizer,
    epochs: usize,
) -> TrainLog {
    // Full-batch, like `train_graph_model`.
    let mut log = TrainLog::default();
    let m = data.len().max(1) as f64;
    let inv_m = 1.0 / m;
    let (mut pred, mut t, mut grad) = (Matrix::default(), Matrix::default(), Matrix::default());
    for _ in 0..epochs {
        model.zero_grads();
        let mut total = 0.0;
        for (g, target) in data {
            model.forward_into(g, &mut pred);
            assert_eq!(pred.cols(), 1, "regression expects 1-dim output");
            t.ensure_shape(target.len(), 1);
            t.data_mut().copy_from_slice(target);
            let l = Loss::Mse.eval_into(&pred, &t, &mut grad);
            grad.map_inplace(|x| x * inv_m);
            model.backward(g, &grad);
            total += l;
        }
        opt.step(model);
        log.losses.push(total / m);
    }
    log
}

/// [`train_vertex_regression`] over a pre-packed corpus. `targets` is
/// the `total_vertices × 1` row-stack of the member targets. The loss
/// keeps the per-graph normalization of the unbatched path — member
/// `i` contributes `(1/n_i) Σ_{v ∈ G_i} d_v²` and its vertices receive
/// gradient `2 d_v / n_i / m` — so the objective optimized is the same
/// (`tests/trainer_agreement.rs` checks it on the E5 corpus).
pub fn train_vertex_regression_batched(
    model: &mut VertexModel,
    batch: &BatchedGraphs,
    targets: &Matrix,
    opt: &mut dyn Optimizer,
    epochs: usize,
) -> TrainLog {
    assert_eq!(targets.rows(), batch.total_vertices(), "one target row per packed vertex");
    assert_eq!(targets.cols(), 1, "regression expects 1-dim output");
    let mut log = TrainLog::default();
    let m = batch.num_graphs().max(1) as f64;
    let g = batch.graph();
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    for _ in 0..epochs {
        model.zero_grads();
        model.forward_into(g, &mut pred);
        assert_eq!(pred.cols(), 1, "regression expects 1-dim output");
        grad.ensure_shape(pred.rows(), 1);
        let mut total = 0.0;
        for i in 0..batch.num_graphs() {
            let inv_n = 1.0 / batch.graph_size(i).max(1) as f64;
            let mut l = 0.0;
            for v in batch.vertex_range(i) {
                let d = pred[(v, 0)] - targets[(v, 0)];
                l += d * d;
                grad[(v, 0)] = 2.0 * d * inv_n / m;
            }
            total += l * inv_n;
        }
        model.backward(g, &grad);
        opt.step(model);
        log.losses.push(total / m);
    }
    log
}

/// Mean squared error of a vertex regression model over a dataset.
pub fn eval_vertex_mse(model: &VertexModel, data: &[(Graph, Vec<f64>)]) -> f64 {
    let mut scratch = Scratch::new();
    let (mut pred, mut t, mut grad) = (Matrix::default(), Matrix::default(), Matrix::default());
    let mut total = 0.0;
    for (g, target) in data {
        model.infer_into(g, &mut scratch, &mut pred);
        t.ensure_shape(target.len(), 1);
        t.data_mut().copy_from_slice(target);
        total += Loss::Mse.eval_into(&pred, &t, &mut grad);
    }
    total / data.len().max(1) as f64
}

/// [`eval_vertex_mse`] over a pre-packed corpus (`targets` as in
/// [`train_vertex_regression_batched`]): the mean over member graphs of
/// each member's per-vertex MSE, from one batched inference pass.
pub fn eval_vertex_mse_batched(
    model: &VertexModel,
    batch: &BatchedGraphs,
    targets: &Matrix,
) -> f64 {
    assert_eq!(targets.rows(), batch.total_vertices(), "one target row per packed vertex");
    let mut scratch = Scratch::new();
    let mut pred = Matrix::default();
    model.infer_into(batch.graph(), &mut scratch, &mut pred);
    let mut total = 0.0;
    for i in 0..batch.num_graphs() {
        let inv_n = 1.0 / batch.graph_size(i).max(1) as f64;
        let mut l = 0.0;
        for v in batch.vertex_range(i) {
            let d = pred[(v, 0)] - targets[(v, 0)];
            l += d * d;
        }
        total += l * inv_n;
    }
    total / batch.num_graphs().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::GnnAgg;
    use crate::models::{GraphModel, VertexModel};
    use gel_graph::families::{cycle, path, star};
    use gel_tensor::{Activation, Adam};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn graph_classifier_learns_star_vs_cycle() {
        // With Identity activation the network is linear and the origin
        // is a saddle; some init draws collapse into it, so the seed is
        // chosen to start training away from the saddle.
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = GraphModel::gin(1, 8, 2, 1, Activation::Identity, &mut rng);
        model.readout = crate::models::Readout::Mean;
        let data: Vec<(gel_graph::Graph, Vec<f64>)> = vec![
            (star(4), vec![1.0]),
            (cycle(5), vec![0.0]),
            (star(5), vec![1.0]),
            (cycle(6), vec![0.0]),
            (star(6), vec![1.0]),
            (cycle(7), vec![0.0]),
        ];
        let mut opt = Adam::new(0.02);
        let log = train_graph_model(&mut model, &data, Loss::BceWithLogits, &mut opt, 600);
        assert!(log.final_loss() < 0.05, "loss stuck at {}", log.final_loss());
        assert_eq!(eval_graph_accuracy(&model, &data), 1.0);
    }

    #[test]
    fn node_classifier_learns_endpoint_detection() {
        // Classify path vertices as endpoint / interior — degree
        // information, learnable in one layer.
        let mut rng = StdRng::seed_from_u64(8);
        let g = path(8);
        let mut targets = Matrix::zeros(8, 2);
        for v in 0..8 {
            let class = usize::from(v == 0 || v == 7);
            targets[(v, class)] = 1.0;
        }
        let mut model = VertexModel::gnn101(1, 6, 2, 2, GnnAgg::Sum, &mut rng);
        let mut opt = Adam::new(0.02);
        let train_mask: Vec<u32> = vec![0, 1, 2, 7];
        train_node_classifier(&mut model, &g, &targets, &train_mask, &mut opt, 200);
        let all: Vec<u32> = (0..8).collect();
        let acc = eval_node_accuracy(&model, &g, &targets, &all);
        assert!(acc >= 0.99, "accuracy {acc}");
    }

    #[test]
    fn link_predictor_learns_parity_on_labelled_graph() {
        // Predict edges of a path using informative labels.
        let mut rng = StdRng::seed_from_u64(9);
        let g = path(6)
            .with_labels(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0], 2);
        let mut lp =
            LinkPredictor { encoder: VertexModel::gnn101(2, 8, 2, 4, GnnAgg::Sum, &mut rng) };
        let pos: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let neg: Vec<(u32, u32)> = vec![(0, 2), (0, 3), (1, 4), (2, 5), (0, 5)];
        let pairs: Vec<((u32, u32), f64)> =
            pos.iter().map(|&p| (p, 1.0)).chain(neg.iter().map(|&p| (p, 0.0))).collect();
        let mut opt = Adam::new(0.02);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            last = lp.train_epoch(&g, &pairs, &mut opt);
        }
        assert!(last < 0.2, "link loss {last}");
        assert!(lp.eval_accuracy(&g, &pos, &neg) >= 0.9);
    }

    #[test]
    fn vertex_regression_fits_degree() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut model = VertexModel::gnn101(1, 6, 1, 1, GnnAgg::Sum, &mut rng);
        let data: Vec<(gel_graph::Graph, Vec<f64>)> = [star(3), path(5), cycle(4)]
            .into_iter()
            .map(|g| {
                let degs: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
                (g, degs)
            })
            .collect();
        let mut opt = Adam::new(0.02);
        let log = train_vertex_regression(&mut model, &data, &mut opt, 300);
        assert!(log.final_loss() < 0.05, "degree regression stuck at {}", log.final_loss());
        assert!(eval_vertex_mse(&model, &data) < 0.05);
    }
}
