//! Million-edge substrate benchmark: the ingest workload of
//! [`gel_bench::ingest`] — streaming R-MAT ingest through the
//! `gel-store` write-ahead log into an out-of-core CSR segment, plus
//! the incremental colour-refinement comparison.
//!
//! Run with `cargo bench -p gel-bench --bench ingest [-- --smoke]`.
//! Both modes stream over a million edges; `--smoke` uses the smaller
//! graph. Every run asserts the workload's substrate contracts (bounded
//! memory, segment fidelity, incremental == full at 1 and 4 threads,
//! the hub-edit fallback) and that a frontier edit — the streaming
//! append the index exists for — repairs at least 5× faster than the
//! from-scratch recolour.

use gel_bench::ingest::ingest_workload;
use gel_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let r = ingest_workload(scale);
    println!(
        "ingest rmat s{:<2}  {:>9} edges  {:>9} arcs  {:>6.2} s  {:>12.0} edges/s",
        r.scale,
        r.edges,
        r.stats.meta.num_arcs,
        r.ingest_s,
        r.edges_per_s()
    );
    println!(
        "  passes {:<3} peak buffer {:>9} B  (chunk budget {} B + O(n) bookkeeping, n = {})",
        r.stats.passes,
        r.stats.peak_buffer_bytes,
        r.chunk_budget_bytes,
        1u64 << r.scale
    );
    let (eu, ev) = r.frontier;
    let speedup = r.incr_speedup();
    println!(
        "recolor       full {:>9.4} s   frontier edit ({eu},{ev}) {:>12.6} s   speedup {:>8.1}x",
        r.full_recolor_s, r.incr_recolor_s, speedup
    );
    println!(
        "              hub edit ({},{ev}) deg {:<6} {:>12.6} s  (global cascade -> rebuild fallback)",
        r.hub, r.hub_degree, r.hub_s
    );
    assert!(
        speedup >= 5.0,
        "incremental repair must beat a from-scratch recolour 5x on a \
         frontier edit (got {speedup:.1}x)"
    );
    if scale.is_smoke() {
        println!(
            "ingest smoke gates passed: {} edges streamed in bounded memory, \
             incremental == full at 1/4 threads, {speedup:.0}x frontier repair speedup",
            r.edges
        );
    }
}
