//! Tensor-kernel workloads: the register-blocked GEMM core of
//! `gel_tensor::kernels` against the ikj reference oracle
//! (`matmul_ikj_into`), and the fused CSR gather against the
//! per-neighbour axpy loop it replaced.
//!
//! Both run pinned to one thread: the blocked cores are a
//! serial-throughput claim; the parallel split is the same code over
//! row blocks.

use gel_graph::random::erdos_renyi;
use gel_graph::Graph;
use gel_tensor::kernels::matmul_ikj_into;
use gel_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{min_secs_per_iter, ratio, with_threads, Scale, BENCH_SEED};

/// The matmul size the `simd_speedup ≥ 2` gate and the report read.
pub const GATED_MATMUL: usize = 256;

/// `(rounds, iters)` of every timed kernel.
pub fn timing(scale: Scale) -> (u32, u32) {
    scale.pick((2, 2), (5, 20))
}

/// A deterministic `rows × cols` operand; `salt` decorrelates operands.
pub fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + salt * 7) % 23) as f64 * 0.25 - 2.75)
}

/// GFLOP/s of an `m × k` by `k × n` product taking `secs`.
pub fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    ratio((2 * m * k * n) as f64, secs) / 1e9
}

/// Blocked vs oracle square matmul at one size.
#[derive(Debug, Clone, Copy)]
pub struct MatmulPoint {
    /// Side length of both operands.
    pub size: usize,
    /// Seconds per blocked product.
    pub blocked_s: f64,
    /// Seconds per ikj-oracle product.
    pub oracle_s: f64,
}

impl MatmulPoint {
    /// GFLOP/s of the blocked kernel.
    pub fn blocked_gflops(&self) -> f64 {
        gflops(self.size, self.size, self.size, self.blocked_s)
    }

    /// GFLOP/s of the oracle.
    pub fn oracle_gflops(&self) -> f64 {
        gflops(self.size, self.size, self.size, self.oracle_s)
    }

    /// Oracle time over blocked time.
    pub fn simd_speedup(&self) -> f64 {
        ratio(self.oracle_s, self.blocked_s)
    }
}

/// Times the blocked matmul and the oracle at `size`³.
pub fn matmul(size: usize, scale: Scale) -> MatmulPoint {
    let (rounds, iters) = timing(scale);
    let a = test_matrix(size, size, 0);
    let b = test_matrix(size, size, 1);
    let mut out = Matrix::zeros(size, size);
    with_threads(1, || MatmulPoint {
        size,
        blocked_s: min_secs_per_iter(rounds, iters, || a.matmul_into(&b, &mut out)),
        oracle_s: min_secs_per_iter(rounds, iters, || matmul_ikj_into(&a, &b, &mut out)),
    })
}

/// Per-neighbour axpy reference for the fused gather (the loop shape
/// `gel_gnn::agg::sum_forward_into` replaced).
fn naive_gather(g: &Graph, x: &Matrix, out: &mut Matrix) {
    out.ensure_shape(g.num_vertices(), x.cols());
    for v in g.vertices() {
        let row = out.row_mut(v as usize);
        row.fill(0.0);
        for &u in g.out_neighbors(v) {
            for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                *o += xv;
            }
        }
    }
}

/// Fused CSR gather vs the per-neighbour loop on one graph.
#[derive(Debug, Clone, Copy)]
pub struct GatherPoint {
    /// Vertices.
    pub n: usize,
    /// Feature columns.
    pub cols: usize,
    /// Seconds per fused gather.
    pub fused_s: f64,
    /// Seconds per per-neighbour gather.
    pub naive_s: f64,
}

impl GatherPoint {
    /// Per-neighbour time over fused time.
    pub fn speedup(&self) -> f64 {
        ratio(self.naive_s, self.fused_s)
    }
}

/// Times the fused gather and the per-neighbour loop over an
/// Erdős–Rényi graph of mean degree 8, and asserts the two outputs are
/// bit-identical.
pub fn gather(scale: Scale) -> GatherPoint {
    let (rounds, iters) = timing(scale);
    let (n, cols, deg) = (4096, 32, 8.0);
    let g = erdos_renyi(n, deg / n as f64, &mut StdRng::seed_from_u64(BENCH_SEED));
    let x = test_matrix(n, cols, 4);
    let (mut fused, mut naive) = (Matrix::zeros(n, cols), Matrix::zeros(n, cols));
    let point = with_threads(1, || GatherPoint {
        n,
        cols,
        fused_s: min_secs_per_iter(rounds, iters, || {
            gel_gnn::agg::sum_forward_into(&g, &x, &mut fused)
        }),
        naive_s: min_secs_per_iter(rounds, iters, || naive_gather(&g, &x, &mut naive)),
    });
    assert!(fused == naive, "fused CSR gather diverged from the per-neighbour loop");
    point
}
