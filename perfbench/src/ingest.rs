//! The `ingest-stream` workload, in rounds: a seeded R-MAT stream is
//! written through the WAL, built into a CSR segment and read back;
//! then a batch of edits goes to an `IncrementalColoring` of that
//! graph. One edit in eight continues the R-MAT stream or deletes an
//! earlier edge; those land next to hubs and cascade into the rebuild
//! fallback. The other seven join or split pairs of vertices the
//! stream left isolated (the sparse frontier), which the worklist
//! repairs locally. Both sides of the fallback choice are measured.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use gel_graph::random::rmat_edges;
use gel_graph::{Graph, GraphBuilder};
use gel_store::{IngestOptions, SegmentMeta, Store, Wal};
use gel_wl::IncrementalColoring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{heap_mb, mean, median, quantile, HeapSampler, Report};
use crate::trace::Recorder;
use crate::Args;

/// Vertex ids span `2^SCALE`. At this scale and stream length colour
/// refinement of the ingested graph stabilises after the same number of
/// rounds on every seed tried (1 to 16), so the repair cost does not
/// flip with the seed; at scale 16 it flips between 5 and 6 rounds.
const SCALE: u32 = 15;
/// Edges per ingest: 24 MiB of arcs, three times the default 8 MiB
/// chunk budget, so the builder replays the log in several passes.
const INGEST_EDGES: usize = 1_536_000;
/// Edits generated up front; a run applies as many as its time allows.
const EDITS: usize = 8_000;
/// One edit in `STREAM_EVERY` is a stream edit; the rest are frontier
/// edits. A local repair right after a rebuild runs from cold caches
/// (about 6 us against 1.5 to 3 us for the later ones); with one
/// stream edit in eight the median local repair is a warm one, and the
/// p90 of all repairs lies inside the rebuild class.
const STREAM_EVERY: usize = 8;
/// One stream edit in `DELETE_EVERY` deletes an earlier edge.
const DELETE_EVERY: usize = 4;
/// One frontier edit in `FRONTIER_DELETE_EVERY` splits an earlier
/// frontier pair.
const FRONTIER_DELETE_EVERY: usize = 3;
/// Edits per round, a multiple of [`STREAM_EVERY`] so every batch
/// starts with a stream edit; each batch is checked against a
/// from-scratch colouring.
const EDIT_BATCH: usize = 24;
/// WAL append batch, in edges.
const WAL_BATCH: usize = 4096;
/// `IncrementalColoring::new` runs per run; `setup_s` is their median.
const SETUPS: usize = 9;

#[derive(Clone, Copy)]
enum Edit {
    Insert(u32, u32),
    Delete(u32, u32),
}

pub struct Inputs {
    edges: Vec<(u32, u32)>,
    /// `GraphBuilder` over the same edges: what the segment must hold.
    expected: Graph,
    edits: Vec<Edit>,
}

fn norm(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

pub fn inputs(seed: u64) -> Inputs {
    let n = 1usize << SCALE;
    let mut stream = rmat_edges(SCALE, u64::MAX, seed);
    let edges: Vec<(u32, u32)> = stream.by_ref().take(INGEST_EDGES).collect();
    let mut b = GraphBuilder::new(n);
    for &(u, v) in &edges {
        b.add_edge(u, v);
    }
    let expected = b.build();

    // Stream edits. Present edges without self-loops are the delete
    // candidates.
    let mut present: HashSet<(u32, u32)> =
        edges.iter().filter(|(u, v)| u != v).map(|&(u, v)| norm(u, v)).collect();
    let mut pool: Vec<(u32, u32)> = present.iter().copied().collect();
    pool.sort_unstable();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    let mut stream_edits = Vec::with_capacity(EDITS.div_ceil(STREAM_EVERY));
    while stream_edits.len() < EDITS.div_ceil(STREAM_EVERY) {
        if stream_edits.len() % DELETE_EVERY == DELETE_EVERY - 1 {
            let (u, v) = pool.swap_remove(rng.gen_range(0..pool.len()));
            present.remove(&(u, v));
            stream_edits.push(Edit::Delete(u, v));
        } else {
            // The next streamed edge that is new to the graph.
            let (u, v) = stream
                .by_ref()
                .map(|(u, v)| norm(u, v))
                .find(|&(u, v)| u != v && !present.contains(&(u, v)))
                .expect("an endless stream yields a new edge");
            present.insert((u, v));
            pool.push((u, v));
            stream_edits.push(Edit::Insert(u, v));
        }
    }

    // Frontier edits: pairs of vertices that are isolated in the
    // ingested graph and no stream edit touches.
    let mut touched = vec![false; n];
    for e in &stream_edits {
        let (Edit::Insert(u, v) | Edit::Delete(u, v)) = *e;
        touched[u as usize] = true;
        touched[v as usize] = true;
    }
    let mut free: Vec<u32> = (0..n as u32)
        .filter(|&v| expected.out_neighbors(v).is_empty() && !touched[v as usize])
        .collect();
    assert!(free.len() >= 64, "R-MAT scale {SCALE} leaves only {} isolated vertices", free.len());
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut stream_edits = stream_edits.into_iter();
    let mut edits = Vec::with_capacity(EDITS);
    while edits.len() < EDITS {
        if edits.len() % STREAM_EVERY == 0 {
            edits.push(stream_edits.next().expect("one stream edit in STREAM_EVERY"));
            continue;
        }
        let frontier = edits.len() - edits.len() / STREAM_EVERY - 1;
        let split = frontier % FRONTIER_DELETE_EVERY == FRONTIER_DELETE_EVERY - 1;
        if (split || free.len() < 2) && !pairs.is_empty() {
            let (u, v) = pairs.swap_remove(rng.gen_range(0..pairs.len()));
            free.extend([u, v]);
            edits.push(Edit::Delete(u, v));
        } else {
            let u = free.swap_remove(rng.gen_range(0..free.len()));
            let v = free.swap_remove(rng.gen_range(0..free.len()));
            pairs.push(norm(u, v));
            edits.push(Edit::Insert(u, v));
        }
    }
    Inputs { edges, expected, edits }
}

/// What the measured rounds saw.
#[derive(Default)]
struct Log {
    ingest_s: Vec<f64>,
    append_s: Vec<f64>,
    build_s: Vec<f64>,
    open_s: Vec<f64>,
    wal_bytes: u64,
    segment_bytes: u64,
    passes: u32,
    peak_buffer_bytes: u64,
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    /// The same edits again, split by whether the repair stayed local
    /// or fell back to a rebuild.
    local_ms: Vec<f64>,
    fallback_ms: Vec<f64>,
    /// Mean repair time per edit of each batch.
    batch_ms: Vec<f64>,
    recolor_ms: Vec<f64>,
    /// Edits applied so far; the next round starts at this index.
    edits: usize,
}

impl Log {
    fn measured_s(&self) -> f64 {
        let edit_ms: f64 = self.insert_ms.iter().chain(&self.delete_ms).sum();
        self.ingest_s.iter().sum::<f64>() + edit_ms / 1e3
    }
}

fn expected_meta(g: &Graph) -> SegmentMeta {
    SegmentMeta {
        n: g.num_vertices(),
        label_dim: g.label_dim(),
        num_arcs: g.num_arcs(),
        symmetric: g.is_symmetric(),
    }
}

/// Writes the stream through the WAL, builds the segment and reads it
/// back, then checks the result outside the timed section.
fn ingest_once(
    inputs: &Inputs,
    store: &Store,
    rec: &mut Recorder,
    log: &mut Log,
    report: &mut Report,
) {
    let wal_path = store.dir().join("rmat.wal");
    let t0 = Instant::now();
    let (stats, g) = rec.request("ingest.iteration", log.ingest_s.len() as u64, |rec| {
        let t = Instant::now();
        let mut wal = rec.stage("store.wal.append", || {
            let mut wal = Wal::create(&wal_path).expect("create WAL");
            wal.append_meta(1u64 << SCALE, 1).expect("append WAL meta");
            for chunk in inputs.edges.chunks(WAL_BATCH) {
                wal.append_edges(chunk).expect("append WAL edges");
            }
            wal
        });
        rec.stage("store.wal.commit", || wal.commit().expect("commit WAL"));
        log.append_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let stats = rec.stage("store.ingest.build", || {
            store.ingest_wal("rmat", &wal_path, IngestOptions::default())
        });
        log.build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let g = rec.stage("store.segment.open", || store.open_graph("rmat"));
        log.open_s.push(t.elapsed().as_secs_f64());
        (stats, g)
    });
    log.ingest_s.push(t0.elapsed().as_secs_f64());
    // The header and the graph read back match the streamed edge set.
    let want = expected_meta(&inputs.expected);
    let ok = match (stats, g) {
        (Ok(stats), Ok(g)) => {
            log.passes = stats.passes;
            log.peak_buffer_bytes = stats.peak_buffer_bytes;
            stats.meta == want
                && store.meta("rmat").is_ok_and(|m| m == want)
                && g == inputs.expected
        }
        _ => false,
    };
    report.op(ok);
    log.wal_bytes = file_len(&wal_path);
    log.segment_bytes = store.segment_path("rmat").map_or(0, |p| file_len(&p));
    let _ = std::fs::remove_file(&wal_path);
    let _ = store.remove("rmat");
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Applies the next [`EDIT_BATCH`] edits to `coloring`, timing each,
/// then compares the colouring with a from-scratch one. A mismatch
/// fails every edit of the batch; so does an edit that changed nothing.
fn edit_batch(
    inputs: &Inputs,
    coloring: &mut IncrementalColoring,
    rec: &mut Recorder,
    inject_fault: bool,
    log: &mut Log,
    report: &mut Report,
) {
    let batch = log.edits..(log.edits + EDIT_BATCH).min(inputs.edits.len());
    let mut unchanged = 0u64;
    let mut batch_ms = 0.0;
    for i in batch.clone() {
        let edit = inputs.edits[i];
        let fallbacks = coloring.stats().full_fallbacks;
        let t = Instant::now();
        let changed = rec.request("wl.edit", i as u64, |rec| match edit {
            Edit::Insert(u, v) => rec.stage("wl.incr.insert", || coloring.insert_edge(u, v)),
            Edit::Delete(u, v) => rec.stage("wl.incr.delete", || coloring.remove_edge(u, v)),
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match edit {
            Edit::Insert(..) => log.insert_ms.push(ms),
            Edit::Delete(..) => log.delete_ms.push(ms),
        }
        batch_ms += ms;
        if coloring.stats().full_fallbacks == fallbacks {
            log.local_ms.push(ms);
        } else {
            log.fallback_ms.push(ms);
        }
        unchanged += u64::from(!changed);
    }
    log.edits = batch.end;
    log.batch_ms.push(batch_ms / batch.len() as f64);
    let t = Instant::now();
    let fresh = rec.request("wl.check", batch.end as u64, |rec| {
        rec.stage("wl.full.recolor", || IncrementalColoring::from_dyn(coloring.graph().clone()))
    });
    log.recolor_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let mut got = coloring.stable_coloring();
    if inject_fault && log.recolor_ms.len() == 1 {
        got.colors[0][0] ^= 1;
    }
    let n = batch.len() as u64;
    report.absorb_ops(n, if got == fresh.stable_coloring() { unchanged } else { n });
}

/// How long [`run_rounds`] goes on.
enum Until {
    Rounds(usize),
    /// Seconds of measured (timed) work.
    Seconds(f64),
}

/// Measured rounds, each one ingest and one edit batch, so both halves
/// of the workload sample the whole run.
fn run_rounds(
    inputs: &Inputs,
    store: &Store,
    coloring: &mut IncrementalColoring,
    rec: &mut Recorder,
    until: Until,
    inject_fault: bool,
    report: &mut Report,
) -> Log {
    let mut log = Log::default();
    let more = |log: &Log| match until {
        Until::Rounds(k) => log.ingest_s.len() < k,
        Until::Seconds(s) => log.measured_s() < s,
    };
    while more(&log) && log.edits < inputs.edits.len() {
        ingest_once(inputs, store, rec, &mut log, report);
        edit_batch(inputs, coloring, rec, inject_fault, &mut log, report);
    }
    log
}

/// Builds the starting colouring [`SETUPS`] times; returns the last and
/// the median build time.
fn set_up(inputs: &Inputs) -> (IncrementalColoring, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(IncrementalColoring::new(&inputs.expected));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

pub fn run(args: &Args, inputs: &Inputs, work_dir: &Path, report: &mut Report) {
    let heap_baseline = heap_mb();
    let store = Store::open(work_dir.join("store")).expect("open store in the work directory");
    let (mut coloring, setup_s) = set_up(inputs);

    if !args.trace {
        let mut off = Recorder::new(false, Instant::now());
        let heap = HeapSampler::start(heap_baseline);
        let log = run_rounds(
            inputs,
            &store,
            &mut coloring,
            &mut off,
            Until::Seconds(args.seconds),
            args.inject_fault,
            report,
        );
        let (heap_mb, samples) = heap.median_mb();
        report.add("heap_mb", heap_mb, "MiB", samples);
        report.add("setup_s", setup_s, "s", SETUPS);
        report.add(
            "throughput",
            inputs.edges.len() as f64 / median(&log.ingest_s),
            "1/s",
            log.ingest_s.len(),
        );
        report.add("latency_p50_ms", median(&log.batch_ms), "ms", log.batch_ms.len());
        return;
    }

    // Traced run: untraced rounds on half the time, then as many rounds
    // again, from the same starting colouring, with spans on.
    let epoch = Instant::now();
    let mut off = Recorder::new(false, epoch);
    let mut plain_coloring = IncrementalColoring::new(&inputs.expected);
    let t = Instant::now();
    let plain = run_rounds(
        inputs,
        &store,
        &mut plain_coloring,
        &mut off,
        Until::Seconds(args.seconds / 2.0),
        false,
        report,
    );
    let untraced_wall = t.elapsed().as_secs_f64();
    let mut plain_ms: Vec<f64> = plain.insert_ms.iter().chain(&plain.delete_ms).copied().collect();
    plain_ms.sort_by(f64::total_cmp);
    report.add("wl.incr.p90_ms", quantile(&plain_ms, 0.9), "ms", plain_ms.len());

    let mut rec = Recorder::new(true, epoch);
    let before = coloring.stats();
    let t = Instant::now();
    let log = run_rounds(
        inputs,
        &store,
        &mut coloring,
        &mut rec,
        Until::Rounds(plain.ingest_s.len()),
        false,
        report,
    );
    let traced_wall = t.elapsed().as_secs_f64();
    let after = coloring.stats();

    let e = inputs.edges.len() as f64;
    let k = log.ingest_s.len();
    report.add("store.wal.append_s", median(&log.append_s), "s", k);
    report.add("store.wal.bytes_per_edge", log.wal_bytes as f64 / e, "B", 1);
    report.add("store.ingest.build_s", median(&log.build_s), "s", k);
    report.add("store.ingest.passes", f64::from(log.passes), "count", 1);
    report.add("store.ingest.peak_buffer_bytes", log.peak_buffer_bytes as f64, "B", 1);
    report.add("store.segment.bytes_per_edge", log.segment_bytes as f64 / e, "B", 1);
    report.add("store.segment.open_s", median(&log.open_s), "s", k);
    report.add("wl.incr.repair_ms_insert", mean(&log.insert_ms), "ms", log.insert_ms.len());
    report.add("wl.incr.repair_ms_delete", mean(&log.delete_ms), "ms", log.delete_ms.len());
    report.add(
        "wl.incr.local_repair_us",
        median_or_zero(&log.local_ms) * 1e3,
        "us",
        log.local_ms.len(),
    );
    report.add(
        "wl.incr.fallback_repair_ms",
        median_or_zero(&log.fallback_ms),
        "ms",
        log.fallback_ms.len(),
    );
    let edits = log.edits.max(1) as f64;
    let fallbacks = (after.full_fallbacks - before.full_fallbacks) as f64;
    report.add("wl.incr.fallback_ratio", fallbacks / edits, "ratio", log.edits);
    let repaired = (after.repaired_vertices - before.repaired_vertices) as f64;
    report.add("wl.incr.repaired_vertices", repaired / edits, "1/edit", log.edits);
    report.add("wl.full.recolor_ms", median(&log.recolor_ms), "ms", log.recolor_ms.len());
    report.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio", 2);
    report.trace = Some(rec);
}
