//! Layer-step benchmark: one fused training step (forward + backward +
//! optimizer) for an MLP, comparing the allocating API against the
//! `_into`/scratch hot path, plus the training workload of
//! [`gel_bench::train`] (per-graph vs block-diagonally batched epochs).
//!
//! Run with `cargo bench -p gel-bench --bench layers [-- --smoke]`.
//! `--smoke` shrinks the iteration counts for CI and *asserts* two
//! contracts: the steady-state buffer-allocation counter stays at zero
//! across a `Dense`, a `Gnn101Conv` and a batched GNN-101 training
//! step, and the block-diagonally batched epoch (timed as a min over
//! rounds, pinned to four threads) is no slower than the per-graph
//! epoch.

use gel_bench::train::batched_training;
use gel_bench::{min_secs_per_iter, Scale};
use gel_gnn::{Gnn101Conv, GnnAgg};
use gel_graph::families;
use gel_tensor::{
    buffer_allocs, Activation, Dense, Init, Loss, Matrix, Mlp, Optimizer, Parameterized, Scratch,
    Sgd,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report(name: &str, allocating: f64, into: f64) {
    println!(
        "{name:<40} allocating {:>9.2} µs   _into {:>9.2} µs   speedup {:>5.2}x",
        allocating * 1e6,
        into * 1e6,
        allocating / into.max(1e-12)
    );
}

/// One MLP training step, allocating vs `_into`.
fn bench_mlp(iters: u32) {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let x = Matrix::from_fn(64, 16, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.6);
    let target = Matrix::from_fn(64, 8, |i, j| ((i + j) % 2) as f64);

    let mut model =
        Mlp::new(&[16, 32, 8], Activation::ReLU, Activation::Identity, Init::He, &mut rng);
    let mut opt = Sgd::new(0.01);
    let alloc = min_secs_per_iter(1, iters, || {
        model.zero_grads();
        let pred = model.forward(&x);
        let (_, grad) = Loss::Mse.eval(&pred, &target);
        let _ = model.backward(&grad);
        opt.step(&mut model);
    });

    let mut model =
        Mlp::new(&[16, 32, 8], Activation::ReLU, Activation::Identity, Init::He, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut pred, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let into = min_secs_per_iter(1, iters, || {
        model.zero_grads();
        model.forward_into(&x, &mut scratch, &mut pred);
        let _ = Loss::Mse.eval_into(&pred, &target, &mut grad);
        model.backward_into(&grad, &mut scratch, &mut grad_in);
        opt.step(&mut model);
    });
    report("mlp_16x32x8_step (64 rows)", alloc, into);
}

/// Steady-state allocation counter across a `Dense` training step;
/// must be zero after warm-up.
fn dense_steady_state_allocs(warm: u32, steps: u32) -> u64 {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let x = Matrix::from_fn(32, 8, |i, j| ((i * 13 + j * 5) % 7) as f64 * 0.2 - 0.5);
    let mut layer = Dense::new(8, 8, Activation::Tanh, Init::Xavier, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut out, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = buffer_allocs();
        }
        layer.zero_grads();
        layer.forward_into(&x, &mut out);
        grad.ensure_shape(out.rows(), out.cols());
        grad.fill(1.0);
        layer.backward_into(&grad, &mut scratch, &mut grad_in);
        opt.step(&mut layer);
    }
    buffer_allocs() - base
}

/// Steady-state allocation counter across a `Gnn101Conv` training
/// step; must be zero after warm-up.
fn gnn101_steady_state_allocs(warm: u32, steps: u32) -> u64 {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let g = families::cycle(48);
    let x = Matrix::from_fn(48, 4, |i, j| ((i * 17 + j * 3) % 11) as f64 * 0.1 - 0.4);
    let mut conv = Gnn101Conv::new(4, 4, Activation::Tanh, GnnAgg::Sum, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut out, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = buffer_allocs();
        }
        conv.zero_grads();
        conv.forward_into(&g, &x, &mut scratch, &mut out);
        grad.ensure_shape(out.rows(), out.cols());
        grad.fill(1.0);
        conv.backward_into(&g, &grad, &mut scratch, &mut grad_in);
        opt.step(&mut conv);
    }
    buffer_allocs() - base
}

fn main() {
    let scale = Scale::from_args();
    bench_mlp(scale.pick(5, 200));

    let train = batched_training(scale);
    println!(
        "{:<40} per-graph {:>10.2} µs   batched {:>8.2} µs   speedup {:>5.2}x",
        format!("gnn101_epoch (40 graphs, {} threads)", train.threads),
        train.per_graph_s * 1e6,
        train.batched_s * 1e6,
        train.batched_speedup()
    );
    println!("batched_steady_state_allocs = {} per step", train.allocs_per_step);

    let dense_allocs = dense_steady_state_allocs(3, 20);
    let gnn_allocs = gnn101_steady_state_allocs(3, 20);
    println!("dense_steady_state_allocs  = {dense_allocs} (over 20 steps)");
    println!("gnn101_steady_state_allocs = {gnn_allocs} (over 20 steps)");
    if scale.is_smoke() {
        assert_eq!(dense_allocs, 0, "Dense training step allocated in steady state");
        assert_eq!(gnn_allocs, 0, "Gnn101Conv training step allocated in steady state");
        assert_eq!(train.allocs_per_step, 0.0, "batched training step allocated in steady state");
        let speedup = train.batched_speedup();
        assert!(
            speedup >= 1.0,
            "block-diagonal batching regressed below the per-graph baseline \
             (speedup {speedup:.2}x at {} threads)",
            train.threads
        );
        println!("smoke OK: steady-state training steps are allocation-free");
    }
}
