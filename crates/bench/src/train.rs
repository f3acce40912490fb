//! Training workload: a GNN-101 graph classifier on the stars-vs-cycles
//! corpus, trained per graph against block-diagonally batched, plus
//! the steady-state buffer-allocation count of one batched step.
//!
//! Runs pinned to [`TRAIN_THREADS`] threads, the configuration the
//! batching claim is made for, so the number is comparable across
//! machines.

use gel_gnn::{train_graph_model, train_graph_model_batched, GnnAgg, GraphModel, Readout};
use gel_graph::{families, BatchedGraphs, Graph};
use gel_tensor::{buffer_allocs, Adam, Loss, Matrix, Optimizer, Parameterized};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{min_secs_per_iter, ratio, with_threads, Scale, BENCH_SEED};

/// Threads the training workload runs on.
const TRAIN_THREADS: usize = 4;

/// The classification corpus: stars (target 1) and cycles (target 0)
/// on 4 to 23 vertices, 40 graphs.
fn corpus() -> Vec<(Graph, Vec<f64>)> {
    (4..24)
        .flat_map(|k| [(families::star(k), vec![1.0]), (families::cycle(k), vec![0.0])])
        .collect()
}

fn model() -> GraphModel {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    GraphModel::gnn101(1, 16, 3, 1, GnnAgg::Sum, Readout::Sum, &mut rng)
}

/// What the training workload measured.
#[derive(Debug, Clone, Copy)]
pub struct TrainResult {
    /// Threads it ran on.
    pub threads: usize,
    /// Buffer allocations per batched training step after warm-up.
    pub allocs_per_step: f64,
    /// Seconds per epoch, one forward/backward per graph.
    pub per_graph_s: f64,
    /// Seconds per epoch over the block-diagonal batch.
    pub batched_s: f64,
}

impl TrainResult {
    /// Per-graph epoch time over batched epoch time.
    pub fn batched_speedup(&self) -> f64 {
        ratio(self.per_graph_s, self.batched_s)
    }
}

/// Runs the training workload.
pub fn batched_training(scale: Scale) -> TrainResult {
    let data = corpus();
    let batch = BatchedGraphs::pack(data.iter().map(|(g, _)| g));
    let targets = Matrix::from_vec(data.len(), 1, data.iter().map(|(_, t)| t[0]).collect());
    let (rounds, iters) = (3, scale.pick(5, 200));
    with_threads(TRAIN_THREADS, || {
        // Steady-state allocations: the first steps size every
        // persistent buffer and Adam's moments; the counter delta over
        // the remaining steps must be zero.
        let mut m = model();
        let mut opt = Adam::new(0.01);
        let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
        let (warm, steps) = (3u32, 20u32);
        let mut base = 0;
        for step in 0..warm + steps {
            if step == warm {
                base = buffer_allocs();
            }
            m.zero_grads();
            m.forward_batched_into(&batch, &mut pred);
            let _ = Loss::BceWithLogits.eval_into(&pred, &targets, &mut grad);
            m.backward_batched(&batch, &grad);
            opt.step(&mut m);
        }
        let allocs_per_step = (buffer_allocs() - base) as f64 / f64::from(steps);

        let (mut m, mut opt) = (model(), Adam::new(0.01));
        let per_graph_s = min_secs_per_iter(rounds, iters, || {
            let _ = train_graph_model(&mut m, &data, Loss::BceWithLogits, &mut opt, 1);
        });
        let (mut m, mut opt) = (model(), Adam::new(0.01));
        let batched_s = min_secs_per_iter(rounds, iters, || {
            let _ = train_graph_model_batched(
                &mut m,
                &batch,
                &targets,
                Loss::BceWithLogits,
                &mut opt,
                1,
            );
        });
        TrainResult { threads: TRAIN_THREADS, allocs_per_step, per_graph_s, batched_s }
    })
}
