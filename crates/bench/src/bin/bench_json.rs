//! Writes the machine-readable benchmark report, `BENCH_parallel.json`.
//!
//! Usage:
//! `cargo run --release -p gel-bench --bin bench_json -- [--full] <path>`
//!
//! * `--full` adds the 40-vertex CFI(K4) pair to the experiment corpus.
//!
//! The report (`"schema_version": 9`) holds:
//!
//! * the experiment suite's wall-clock: per experiment, and for the
//!   whole suite on the default (parallel) schedule and pinned to one
//!   thread, after one untimed warm-up pass;
//! * a fixed-key per-experiment `metrics` object and suite-wide `obs`
//!   totals from the one-thread leg, which runs the experiments one at a
//!   time with gel-obs state reset between them, so every delta is
//!   attributable to one experiment. The top-level `wl_cache` object
//!   and the `obs.wl_cache_*` mirror derive from the same counters, so
//!   they always agree;
//! * every workload of this crate at [`Scale::Full`], each formatted
//!   from the same result struct its `--smoke` bench gates on: the
//!   training workload (`allocs_per_step`, `*_suite_s` per epoch,
//!   `batched_speedup`), `density_sweep`, `kernels`, `wco`, `serve` and
//!   `ingest`.
//!
//! CI guards the key set with the `schema_check` binary. With the `obs`
//! feature off (`--no-default-features`) the gel-obs metric values are
//! zero but the schema is unchanged.

use std::fmt::Write as _;
use std::time::Instant;

use gel_bench::{eval, ingest, kernels, ratio, serve, train, Scale};
use gel_experiments::report::json_escape;
use gel_obs::Snapshot;

/// Fixed-key per-experiment metrics object from one experiment's
/// gel-obs delta. The key set is part of the schema, so it never
/// depends on which metrics happened to fire — absent metrics read as
/// zero.
fn metrics_json(serial_wall_s: f64, m: &Snapshot) -> String {
    let hits = m.counter("wl.cache.hits");
    let misses = m.counter("wl.cache.misses");
    format!(
        "{{\"serial_wall_s\": {:.6}, \"kernel_s\": {:.6}, \"wl_refine_s\": {:.6}, \
         \"gnn_forward_s\": {:.6}, \"gnn_backward_s\": {:.6}, \"gnn_infer_s\": {:.6}, \
         \"wl_cache_hits\": {}, \"wl_cache_misses\": {}, \"wl_cache_hit_rate\": {:.4}, \
         \"buffer_allocs\": {}, \"dispatch_parallel\": {}, \"dispatch_serial\": {}}}",
        serial_wall_s,
        m.leaf_span_total("tensor.").secs,
        m.leaf_span_total("wl.refine").secs,
        m.leaf_span_total("gnn.forward").secs,
        m.leaf_span_total("gnn.backward").secs,
        m.leaf_span_total("gnn.infer").secs,
        hits,
        misses,
        hit_rate(hits, misses),
        m.counter("tensor.buffer_allocs"),
        dispatch(m, "parallel"),
        dispatch(m, "serial"),
    )
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    }
}

/// Tensor-kernel plus rayon-region dispatch decisions of one kind.
fn dispatch(m: &Snapshot, kind: &str) -> u64 {
    m.counter(&format!("tensor.dispatch.{kind}")) + m.counter(&format!("rayon.dispatch.{kind}"))
}

/// The `obs` object: suite-wide gel-obs totals.
fn obs_json(t: &Snapshot) -> String {
    let (hits, misses) = (t.counter("wl.cache.hits"), t.counter("wl.cache.misses"));
    let wl_rounds = t.counter("wl.refine.rounds");
    format!(
        "{{\"wl_cache_hits\": {hits}, \"wl_cache_misses\": {misses}, \
         \"wl_cache_evictions\": {}, \
         \"wl_cache_hit_rate\": {:.4}, \"buffer_allocs\": {}, \"scratch_takes\": {}, \
         \"scratch_pool_peak\": {:.0}, \"kernel_s\": {:.6}, \"wl_refine_s\": {:.6}, \
         \"kwl_rounds\": {wl_rounds}, \"kwl_renames_s\": {:.6}, \"wl_allocs_per_round\": {:.3}, \
         \"wl_init_allocs\": {}, \
         \"eval_s\": {:.6}, \"eval_allocs_per_probe\": {:.3}, \"eval_plan_nodes\": {}, \
         \"eval_sparse_s\": {:.6}, \"eval_sparse_nnz\": {}, \"eval_dense_fallbacks\": {}, \
         \"eval_wco_joins\": {}, \"eval_wco_seeks\": {}, \
         \"dispatch_parallel\": {}, \"dispatch_serial\": {}}}",
        t.counter("wl.cache.evictions"),
        hit_rate(hits, misses),
        t.counter("tensor.buffer_allocs"),
        t.counter("tensor.scratch.takes"),
        t.gauge("tensor.scratch.pool_peak").max(0.0),
        t.leaf_span_total("tensor.").secs,
        t.leaf_span_total("wl.refine").secs,
        t.leaf_span_total("wl.rename").secs,
        t.counter("wl.scratch.allocs") as f64 / wl_rounds.max(1) as f64,
        t.counter("wl.scratch.init_allocs"),
        t.leaf_span_total("eval.").secs,
        t.counter("eval.slab.allocs") as f64 / t.counter("eval.calls").max(1) as f64,
        t.counter("eval.plan.nodes"),
        t.leaf_span_total("sparse.").secs,
        t.counter("eval.sparse.nnz"),
        t.counter("eval.sparse.fallbacks"),
        t.counter("eval.wco.joins"),
        t.counter("eval.wco.seeks"),
        dispatch(t, "parallel"),
        dispatch(t, "serial"),
    )
}

/// `items` formatted one per line by `row`, comma-separated.
fn rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
    items.iter().map(|i| format!("      {}", row(i))).collect::<Vec<_>>().join(",\n")
}

fn density_json(s: &eval::DensitySweep) -> String {
    let points = rows(&s.points, |p| {
        format!(
            "{{\"n\": {}, \"density\": {}, \"dense_s\": {:.9}, \"sparse_s\": {:.9}, \
             \"speedup\": {:.3}}}",
            p.n,
            p.density,
            p.dense_s,
            p.sparse_s,
            p.speedup()
        )
    });
    let crossover = rows(&s.crossover, |(p, n)| {
        let n = n.map_or_else(|| "null".to_string(), |n| n.to_string());
        format!("{{\"density\": {p}, \"crossover_n\": {n}}}")
    });
    format!(
        "{{\"threads\": 1, \"probe\": \"triangle_gel3\",\n    \"rows\": [\n{points}\n    ],\n    \
         \"crossover\": [\n{crossover}\n    ]}}"
    )
}

fn kernels_json(m: &kernels::MatmulPoint, g: &kernels::GatherPoint) -> String {
    format!(
        "{{\"threads\": 1, \"matmul_n\": {}, \"blocked_gflops\": {:.3}, \
         \"oracle_gflops\": {:.3}, \"simd_speedup\": {:.3}, \"gather_fused_s\": {:.9}, \
         \"gather_naive_s\": {:.9}, \"gather_speedup\": {:.3}}}",
        m.size,
        m.blocked_gflops(),
        m.oracle_gflops(),
        m.simd_speedup(),
        g.fused_s,
        g.naive_s,
        g.speedup(),
    )
}

fn wco_json(s: &eval::WcoSweep) -> String {
    let points = rows(&s.points, |p| {
        format!(
            "{{\"probe\": \"{}\", \"graph\": \"{}\", \"n\": {}, \"binary_s\": {:.9}, \
             \"wco_s\": {:.9}, \"speedup\": {:.3}}}",
            p.probe,
            p.graph,
            p.n,
            p.binary_s,
            p.wco_s,
            p.speedup()
        )
    });
    format!(
        "{{\"threads\": 1,\n    \"rows\": [\n{points}\n    ],\n    \
         \"hub_speedup\": {:.3}, \"wco_joins\": {}, \"wco_seeks\": {}}}",
        s.hub_speedup(),
        s.joins,
        s.seeks
    )
}

fn serve_json(r: &serve::ServeResult) -> String {
    let (cold, warm, batched) = (&r.cold, &r.warm, &r.batched);
    format!(
        "{{\"clients\": {}, \"requests\": {}, \
         \"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \"cold_rps\": {:.1}, \
         \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}, \"warm_rps\": {:.1}, \
         \"warm_hit_rate\": {:.4}, \"warm_plan_builds\": {}, \
         \"batched_p50_us\": {:.1}, \"batched_p99_us\": {:.1}, \"batched_rps\": {:.1}, \
         \"batched_plan_builds\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"plans\": {}}}",
        serve::CLIENTS,
        cold.requests + warm.requests + batched.requests,
        cold.p50_us,
        cold.p99_us,
        cold.throughput_rps,
        warm.p50_us,
        warm.p99_us,
        warm.throughput_rps,
        warm.hit_rate(),
        warm.plan_builds,
        batched.p50_us,
        batched.p99_us,
        batched.throughput_rps,
        batched.plan_builds,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.evictions,
        r.stats.plans,
    )
}

fn ingest_json(r: &ingest::IngestResult) -> String {
    // The workload asserts the incremental colouring equals the full
    // recolour, so a report exists only when it does.
    format!(
        "{{\"scale\": {}, \"edges\": {}, \"arcs\": {}, \"ingest_s\": {:.6}, \
         \"edges_per_s\": {:.0}, \"passes\": {}, \"peak_buffer_bytes\": {}, \
         \"chunk_budget_bytes\": {}, \"full_recolor_s\": {:.6}, \
         \"incr_recolor_s\": {:.9}, \"incr_speedup\": {:.1}, \"incr_matches_full\": true}}",
        r.scale,
        r.edges,
        r.stats.meta.num_arcs,
        r.ingest_s,
        r.edges_per_s(),
        r.stats.passes,
        r.stats.peak_buffer_bytes,
        r.chunk_budget_bytes,
        r.full_recolor_s,
        r.incr_recolor_s,
        r.incr_speedup(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: bench_json [--full] <path>");
        std::process::exit(2);
    };
    let corpus =
        if full { gel_experiments::full_corpus() } else { gel_experiments::light_corpus() };
    let suite = || {
        let results = gel_experiments::run_all_instrumented(full);
        let _ = gel_experiments::e10_recipe::lattice_figure(&corpus);
        results
    };

    // One untimed warm-up pass so neither timed leg pays first-run
    // costs (allocator, page cache); then the one-thread leg, which is
    // the instrumented one.
    gel_wl::clear_cache();
    let _ = suite();
    gel_wl::clear_cache();
    let t = Instant::now();
    let instrumented = gel_bench::with_threads(1, suite);
    let suite_serial_s = t.elapsed().as_secs_f64();

    // The default (parallel) schedule over the same scope.
    gel_wl::clear_cache();
    let t0 = Instant::now();
    let timed = gel_experiments::run_all_timed(full);
    let t_lat = Instant::now();
    let _ = gel_experiments::e10_recipe::lattice_figure(&corpus);
    let lattice_s = t_lat.elapsed().as_secs_f64();
    let suite_parallel_s = t0.elapsed().as_secs_f64();
    assert_eq!(instrumented.len(), timed.len(), "both legs run the same schedule");

    let scale = Scale::Full;
    let train = train::batched_training(scale);
    let density = eval::density_sweep(scale);
    let matmul = kernels::matmul(kernels::GATED_MATMUL, scale);
    let gather = kernels::gather(scale);
    let wco = eval::wco_sweep(scale);
    let serve = serve::serve_workload(scale);
    let ingest = ingest::ingest_workload(scale);

    let mut totals = Snapshot::default();
    for (_, _, m) in &instrumented {
        totals.absorb(m);
    }

    let mut out = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(out, "  \"{key}\": {value},");
    };
    field("schema_version", "9".into());
    field("obs_enabled", cfg!(feature = "obs").to_string());
    field("threads", rayon::current_num_threads().to_string());
    field("full_corpus", full.to_string());
    field("suite_parallel_s", format!("{suite_parallel_s:.6}"));
    field("suite_serial_s", format!("{suite_serial_s:.6}"));
    field("suite_speedup", format!("{:.3}", ratio(suite_serial_s, suite_parallel_s)));
    field("lattice_figure_s", format!("{lattice_s:.6}"));
    field("hot_path_threads", train.threads.to_string());
    field("allocs_per_step", format!("{:.3}", train.allocs_per_step));
    field("unbatched_suite_s", format!("{:.6}", train.per_graph_s));
    field("batched_suite_s", format!("{:.6}", train.batched_s));
    field("batched_speedup", format!("{:.3}", train.batched_speedup()));
    field("density_sweep", density_json(&density));
    field("kernels", kernels_json(&matmul, &gather));
    field("wco", wco_json(&wco));
    field("serve", serve_json(&serve));
    field("ingest", ingest_json(&ingest));
    field(
        "wl_cache",
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            totals.counter("wl.cache.hits"),
            totals.counter("wl.cache.misses"),
            totals.counter("wl.cache.evictions")
        ),
    );
    field("obs", obs_json(&totals));
    let experiments = timed
        .iter()
        .zip(&instrumented)
        .map(|((r, secs), (_, serial_secs, delta))| {
            format!(
                "    {{\"id\": \"{}\", \"wall_s\": {secs:.6}, \"passed\": {}, \"claim\": \"{}\",\n     \
                 \"metrics\": {}}}",
                r.id,
                r.passed(),
                json_escape(r.claim),
                metrics_json(*serial_secs, delta),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let _ = write!(out, "  \"experiments\": [\n{experiments}\n  ]\n}}\n");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote benchmark JSON to {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
