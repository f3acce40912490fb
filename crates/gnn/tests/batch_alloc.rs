//! A batched training step allocates nothing in steady state.
//!
//! This binary holds a single test: it asserts a delta of the
//! process-global `buffer_allocs()` counter, which any concurrently
//! running test in the same binary would also bump.

use gel_gnn::{GnnAgg, GraphModel, Readout};
use gel_graph::{families, BatchedGraphs};
use gel_tensor::{Adam, Loss, Matrix, Optimizer, Parameterized};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steady-state batched training steps allocate nothing: all buffers
/// (scratch pool, layer caches, Adam moments) are sized during warm-up
/// and reused thereafter.
#[test]
fn batched_training_step_is_allocation_free_in_steady_state() {
    let graphs = [
        families::star(5),
        families::cycle(6),
        families::path(4),
        families::complete(5),
        families::cycle(3),
        families::star(9),
    ];
    let batch = BatchedGraphs::pack(&graphs);
    let targets =
        Matrix::from_vec(graphs.len(), 1, (0..graphs.len()).map(|i| (i % 2) as f64).collect());
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut model = GraphModel::gnn101(1, 8, 2, 1, GnnAgg::Sum, Readout::Sum, &mut rng);
    let mut opt = Adam::new(0.01);
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    let (warm, steps) = (3u32, 10u32);
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = gel_tensor::buffer_allocs();
        }
        model.zero_grads();
        model.forward_batched_into(&batch, &mut pred);
        let _ = Loss::BceWithLogits.eval_into(&pred, &targets, &mut grad);
        model.backward_batched(&batch, &grad);
        opt.step(&mut model);
    }
    assert_eq!(
        gel_tensor::buffer_allocs() - base,
        0,
        "batched training step allocated in steady state"
    );
}
