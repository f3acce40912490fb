//! Million-edge substrate workload: R-MAT edges streamed through the
//! `gel-store` write-ahead log into an out-of-core CSR segment, then
//! single-edge incremental colour refinement against a from-scratch
//! recolour of the same edited graph.

use std::time::Instant;

use gel_graph::random::rmat_edges;
use gel_graph::DynGraph;
use gel_store::{IngestOptions, IngestStats, Store, Wal};
use gel_wl::IncrementalColoring;

use crate::{with_threads, Scale, BENCH_SEED};

/// Streams `edges` R-MAT edges (scale-`scale` vertex id space) into a
/// WAL and builds the segment `name` from it; returns the ingest stats
/// and the seconds of the whole pipeline (generate → log → CSR).
fn ingest_rmat(
    store: &Store,
    name: &str,
    scale: u32,
    edges: u64,
    opts: IngestOptions,
) -> (IngestStats, f64) {
    let wal_path = store.dir().join(format!("{name}.wal"));
    let t = Instant::now();
    let mut wal = Wal::create(&wal_path).expect("create wal");
    wal.append_meta(1u64 << scale, 1).expect("append meta");
    let mut batch = Vec::with_capacity(4096);
    for (u, v) in rmat_edges(scale, edges, BENCH_SEED) {
        batch.push((u, v));
        if batch.len() == 4096 {
            wal.append_edges(&batch).expect("append edges");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        wal.append_edges(&batch).expect("append edges");
    }
    wal.commit().expect("commit wal");
    let stats = store.ingest_wal(name, &wal_path, opts).expect("build segment");
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&wal_path);
    (stats, secs)
}

/// The two highest-id minimum-degree vertices without self-loops — the
/// sparse frontier of the R-MAT stream (its skew leaves the top of the
/// id space cold). This is where streamed edges touching fresh
/// vertices land, the locality case the incremental index exists for.
fn frontier_pair(g: &DynGraph) -> (u32, u32) {
    let n = g.num_vertices() as u32;
    let min_deg = (0..n).map(|v| g.out_neighbors(v).len()).min().expect("non-empty graph");
    let mut picks = (0..n)
        .rev()
        .filter(|&v| g.out_neighbors(v).len() == min_deg)
        .filter(|&v| g.out_neighbors(v).iter().all(|&u| u != v));
    let u = picks.next().expect("at least one min-degree vertex");
    let v = picks
        .find(|&v| !g.out_neighbors(u).contains(&v))
        .expect("two non-adjacent min-degree vertices");
    (u, v)
}

/// What the ingest workload measured.
#[derive(Debug, Clone, Copy)]
pub struct IngestResult {
    /// log₂ of the vertex id space.
    pub scale: u32,
    /// Edges streamed.
    pub edges: u64,
    /// The segment build's stats.
    pub stats: IngestStats,
    /// Seconds of the streaming pipeline.
    pub ingest_s: f64,
    /// The builder's chunk budget, bytes.
    pub chunk_budget_bytes: usize,
    /// The frontier edge inserted.
    pub frontier: (u32, u32),
    /// Seconds of a from-scratch recolour of the edited graph (min over
    /// 1 and 4 threads).
    pub full_recolor_s: f64,
    /// Seconds of the incremental repair after the frontier edit.
    pub incr_recolor_s: f64,
    /// The highest-degree vertex, which the hub edit touches.
    pub hub: u32,
    /// Its degree.
    pub hub_degree: usize,
    /// Seconds of the incremental repair after the hub edit.
    pub hub_s: f64,
}

impl IngestResult {
    /// Streamed edges per second of pipeline.
    pub fn edges_per_s(&self) -> f64 {
        crate::ratio(self.edges as f64, self.ingest_s)
    }

    /// Full recolour time over incremental frontier-repair time.
    pub fn incr_speedup(&self) -> f64 {
        crate::ratio(self.full_recolor_s, self.incr_recolor_s)
    }
}

/// Runs the ingest workload and asserts the substrate contracts:
///
/// * **Bounded memory** — the builder's buffer high-water mark stays
///   within the chunk budget plus `O(n)` bookkeeping, independent of
///   the edge count (measured, not trusted);
/// * **Fidelity** — the segment header matches the streamed edge set,
///   and the loaded graph passes its CSR invariants (checked on load);
/// * **Incremental = full** — after a frontier edit the repaired
///   colouring equals a from-scratch recolour, computed at 1 and at 4
///   threads, and removing the edge restores the original colouring;
/// * **Fallback** — a hub edit recolours a constant fraction of the
///   graph, so it must trip the global-cascade fallback (repair cost
///   capped at about one rebuild) and still match a fresh recolour.
///
/// Both scales stream over a million edges; `Full` doubles them.
pub fn ingest_workload(scale: Scale) -> IngestResult {
    let (log_n, edges) = scale.pick((17u32, 1u64 << 20), (19, 1 << 21));
    let n = 1u64 << log_n;
    let dir = std::env::temp_dir().join(format!("gel-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    let opts = IngestOptions::default();
    let (stats, ingest_s) = ingest_rmat(&store, "rmat", log_n, edges, opts);

    // Chunk budget + O(n) bookkeeping (degrees, offsets, labels —
    // ≤ 40 B/vertex), never O(m).
    let bound = opts.chunk_budget_bytes as u64 + 40 * n;
    assert!(
        stats.peak_buffer_bytes <= bound,
        "ingest peak {} exceeds budget+bookkeeping bound {bound}",
        stats.peak_buffer_bytes
    );
    let meta = store.meta("rmat").expect("segment header");
    assert_eq!(meta.n as u64, n);
    assert!(meta.symmetric, "edge streaming produces a symmetric graph");
    assert!(meta.num_arcs as u64 <= 2 * edges, "dedup can only shrink the arc set");
    let g = store.open_graph("rmat").expect("open segment");
    let _ = std::fs::remove_dir_all(&dir);
    let dyng = DynGraph::from_graph(&g);

    let (eu, ev) = frontier_pair(&dyng);
    let mut edited = dyng.clone();
    edited.insert_edge(eu, ev);
    let mut full_recolor_s = f64::INFINITY;
    let mut fresh = Vec::new();
    for threads in [1, 4] {
        with_threads(threads, || {
            let t = Instant::now();
            let c = IncrementalColoring::from_dyn(edited.clone());
            full_recolor_s = full_recolor_s.min(t.elapsed().as_secs_f64());
            fresh.push(c.stable_coloring());
        });
    }
    assert_eq!(fresh[0], fresh[1], "fresh recolour differs between 1 and 4 threads");

    let mut incr = IncrementalColoring::from_dyn(dyng.clone());
    let t = Instant::now();
    incr.insert_edge(eu, ev);
    let incr_recolor_s = t.elapsed().as_secs_f64();
    assert_eq!(
        incr.stable_coloring(),
        fresh[0],
        "incremental recolour diverged from the from-scratch recolour"
    );
    let baseline = IncrementalColoring::new(&g).stable_coloring();
    incr.remove_edge(eu, ev);
    assert_eq!(incr.stable_coloring(), baseline, "remove must undo insert");

    let hub = (0..n as u32).max_by_key(|&v| dyng.out_neighbors(v).len()).expect("non-empty graph");
    let mut hub_edited = dyng.clone();
    hub_edited.insert_edge(hub, ev);
    let hub_fresh = IncrementalColoring::from_dyn(hub_edited).stable_coloring();
    let t = Instant::now();
    assert!(incr.insert_edge(hub, ev), "hub edge must be new");
    let hub_s = t.elapsed().as_secs_f64();
    assert_eq!(
        incr.stable_coloring(),
        hub_fresh,
        "hub-edit recolour diverged from the from-scratch recolour"
    );
    assert!(
        incr.stats().full_fallbacks >= 1,
        "a hub edit at this scale must trip the cascade fallback"
    );

    IngestResult {
        scale: log_n,
        edges,
        stats,
        ingest_s,
        chunk_budget_bytes: opts.chunk_budget_bytes,
        frontier: (eu, ev),
        full_recolor_s,
        incr_recolor_s,
        hub,
        hub_degree: dyng.out_neighbors(hub).len(),
        hub_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gel_graph::GraphBuilder;

    /// A path 0–1–2–3 plus isolated 4, 5 and a self-looped 6: the
    /// minimum degree is 0, vertex 6 is skipped for its loop, and the
    /// pair is the two highest remaining ids.
    #[test]
    fn frontier_pair_takes_the_highest_loop_free_min_degree_vertices() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v);
        }
        b.add_arc(6, 6);
        let g = DynGraph::from_graph(&b.build());
        assert_eq!(frontier_pair(&g), (5, 4));
    }
}
