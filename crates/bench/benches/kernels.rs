//! Tensor-kernel microbenchmarks: the blocked matmul and fused CSR
//! gather workloads of [`gel_bench::kernels`], plus the transpose-fused
//! GEMM variants and a full-width thread-scaling leg.
//!
//! Run with `cargo bench -p gel-bench --bench kernels [-- --smoke]`.
//! Reports GFLOP/s per kernel and a `simd_speedup` ratio (oracle time
//! over blocked time, 1 thread). The gather workload asserts the fused
//! gather is bit-identical to the per-neighbour loop on every run.
//! `--smoke` shrinks the iteration counts for CI and *asserts*
//! `simd_speedup >= 2.0` on the 256³ matmul — the regression gate for
//! the blocked kernel path.

use gel_bench::kernels::{gather, gflops, matmul, test_matrix, timing, GATED_MATMUL};
use gel_bench::{min_secs_per_iter, with_threads, Scale};
use gel_tensor::Matrix;

/// The transpose-fused variants at one size (all on the blocked cores).
fn bench_variants(size: usize, scale: Scale) {
    let (rounds, iters) = timing(scale);
    let a = test_matrix(size, size, 2);
    let b = test_matrix(size, size, 3);
    let bias = vec![0.125; size];
    let mut out = Matrix::zeros(size, size);
    let t = min_secs_per_iter(rounds, iters, || a.t_matmul_into(&b, &mut out));
    let tt = min_secs_per_iter(rounds, iters, || a.matmul_t_into(&b, &mut out));
    let fused = min_secs_per_iter(rounds, iters, || {
        a.matmul_bias_act_into(&b, &bias, gel_tensor::Activation::ReLU, &mut out)
    });
    println!(
        "variants_{size:<2} threads=1   t_matmul {:>7.2}   matmul_t {:>7.2}   bias_act {:>7.2}  (GFLOP/s)",
        gflops(size, size, size, t),
        gflops(size, size, size, tt),
        gflops(size, size, size, fused)
    );
}

fn main() {
    let scale = Scale::from_args();
    let mut speedup_gated = 0.0;
    for size in [64, 128, GATED_MATMUL] {
        let p = matmul(size, scale);
        println!(
            "matmul_{size:<4} threads=1   blocked {:>7.2} GFLOP/s   oracle {:>7.2} GFLOP/s   simd_speedup {:>5.2}x",
            p.blocked_gflops(),
            p.oracle_gflops(),
            p.simd_speedup()
        );
        if size == GATED_MATMUL {
            speedup_gated = p.simd_speedup();
        }
    }
    with_threads(1, || bench_variants(128, scale));
    let g = gather(scale);
    println!(
        "gather_er{}_d{}        fused {:>8.2} µs   per-neighbour {:>8.2} µs   speedup {:>5.2}x",
        g.n,
        g.cols,
        g.fused_s * 1e6,
        g.naive_s * 1e6,
        g.speedup()
    );

    // One full-width leg so thread scaling stays visible in the log.
    let width = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if width > 1 && !scale.is_smoke() {
        let (rounds, iters) = timing(scale);
        let a = test_matrix(256, 256, 0);
        let b = test_matrix(256, 256, 1);
        let mut out = Matrix::zeros(256, 256);
        let t = with_threads(width, || {
            min_secs_per_iter(rounds, iters, || a.matmul_into(&b, &mut out))
        });
        println!("matmul_256  threads={width}   blocked {:>7.2} GFLOP/s", gflops(256, 256, 256, t));
    }

    if scale.is_smoke() {
        assert!(
            speedup_gated >= 2.0,
            "blocked matmul regressed: simd_speedup {speedup_gated:.2}x < 2.0x vs ikj oracle at 256³"
        );
        println!("smoke OK: blocked matmul ≥2x over the ikj oracle (got {speedup_gated:.2}x)");
        println!("smoke OK: fused CSR gather bit-identical to the per-neighbour loop");
    }
}
