//! # gel-bench — benchmark workloads (system S9)
//!
//! The one definition of every measured workload. Each workload is a
//! function that returns a plain result struct; the `--smoke` benches
//! under `benches/` print that struct and gate on it, and the
//! `bench_json` binary formats the same structs into the committed
//! `BENCH_parallel.json`, whose key set the `schema_check` binary
//! guards. A number in the report is therefore the number a gate reads.
//!
//! * [`eval`] — the triangle, 4-cycle and 4-clique probes, the hub
//!   graph, the table-density sweep and the worst-case-optimal join
//!   sweep;
//! * [`kernels`] — blocked SIMD matmul vs the ikj oracle, fused CSR
//!   gather vs the per-neighbour loop;
//! * [`train`] — the stars-vs-cycles corpus: batched vs per-graph
//!   training epochs and steady-state buffer allocations;
//! * [`serve`] — the loopback load generator and the serve workload;
//! * [`ingest`] — the R-MAT write-ahead-log ingest pipeline and the
//!   incremental-vs-full recolour comparison.
//!
//! Run a bench with `cargo bench -p gel-bench --bench <name> [-- --smoke]`
//! and the report writer with
//! `cargo run --release -p gel-bench --bin bench_json -- BENCH_parallel.json`.

#![warn(missing_docs)]

use std::time::Instant;

pub mod eval;
pub mod ingest;
pub mod kernels;
pub mod serve;
pub mod train;

/// The seed every workload derives its graphs, matrices and models
/// from, so numbers are comparable across runs and across callers.
pub const BENCH_SEED: u64 = 0xBE;

/// How much work a workload does: `Smoke` is the small CI-gate size,
/// `Full` the size the report is written at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk sizes and iteration counts for the CI `--smoke` gates.
    Smoke,
    /// Full sizes and iteration counts.
    Full,
}

impl Scale {
    /// `Smoke` when the process was started with `--smoke`.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Whether this is the CI gate size.
    pub fn is_smoke(self) -> bool {
        self == Scale::Smoke
    }

    /// `smoke` at [`Scale::Smoke`], `full` at [`Scale::Full`].
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// Minimum per-iteration seconds of `f` over `rounds` timed rounds of
/// `iters` calls each, after one untimed warm-up call (which lowers
/// plans and sizes buffers, so steady state is what is measured). The
/// minimum is robust against one-off scheduler hiccups, which a single
/// timed window is not.
pub fn min_secs_per_iter(rounds: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / f64::from(iters));
    }
    best
}

/// Runs `f` with the rayon pool pinned to `threads`, then restores the
/// default width.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_num_threads(threads);
    let out = f();
    rayon::set_num_threads(0);
    out
}

/// `num / den`, with the denominator floored so a zero time reads as a
/// large ratio instead of infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_warms_up_once_then_runs_rounds_of_iters() {
        let mut calls = 0;
        let secs = min_secs_per_iter(3, 4, || calls += 1);
        assert_eq!(calls, 1 + 3 * 4);
        assert!(secs.is_finite() && secs >= 0.0);
    }
}
