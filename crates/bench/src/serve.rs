//! Serve workload: a loopback load generator for [`gel_serve::Server`]
//! and the scenario it drives — 8 concurrent clients round-robining the
//! E4/E9 expression set against one server, cold, warm, then the same
//! warm workload shipped as `EvalBatch` frames.
//!
//! Latencies are measured per request around the full frame round
//! trip (encode → TCP → decode), which is what a real caller
//! experiences.

use std::time::Instant;

use gel_graph::random::{erdos_renyi, with_random_real_labels};
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::Expr;
use gel_serve::{Client, ClientError, ServeOptions, Server, StatsReply};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Scale, BENCH_SEED};

/// Concurrent client connections of the serve workload.
pub const CLIENTS: usize = 8;

/// What a load run measured.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Round trips completed (all of them — a failed request aborts
    /// the run with an error instead).
    pub requests: u64,
    /// Median round-trip latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile round-trip latency, microseconds.
    pub p99_us: f64,
    /// Completed round trips per wall-clock second.
    pub throughput_rps: f64,
    /// Plan-cache hits over the run (server-side delta).
    pub cache_hits: u64,
    /// Plan-cache misses over the run (server-side delta).
    pub cache_misses: u64,
    /// Plan lowerings over the run ([`gel_lang::eval_plan_builds`]
    /// delta): 0 on a warm cache.
    pub plan_builds: u64,
}

impl LoadReport {
    /// Hit fraction of cache lookups (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The name the workload's graph is registered under.
const GRAPH: &str = "bench";

/// Connects [`CLIENTS`] clients, then has each make
/// `requests_per_client` round trips `trip(client, c, i)`, timing each
/// one. Blocks until every client finishes; any error on any
/// connection fails the whole run, because a load test that silently
/// drops failed requests reports fiction.
fn drive(
    server: &Server,
    requests_per_client: usize,
    trip: impl Fn(&mut Client, usize, usize) -> Result<(), ClientError> + Sync,
) -> Result<LoadReport, ClientError> {
    let stats_before = server.stats();
    let builds_before = gel_lang::eval_plan_builds();

    // Connect everyone first so the measured window contains only
    // request traffic, then fan out.
    let conns = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let results: Vec<Result<Vec<u64>, ClientError>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let trip = &trip;
                s.spawn(move || {
                    let mut lat_ns = Vec::with_capacity(requests_per_client);
                    for i in 0..requests_per_client {
                        let t0 = Instant::now();
                        trip(&mut client, c, i)?;
                        lat_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    Ok(lat_ns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut lat_ns = Vec::with_capacity(CLIENTS * requests_per_client);
    for r in results {
        lat_ns.extend(r?);
    }
    lat_ns.sort_unstable();
    let q = |frac: f64| lat_ns[((lat_ns.len() - 1) as f64 * frac).round() as usize] as f64 / 1e3;
    let stats_after = server.stats();
    Ok(LoadReport {
        requests: lat_ns.len() as u64,
        p50_us: q(0.50),
        p99_us: q(0.99),
        throughput_rps: lat_ns.len() as f64 / wall_secs,
        cache_hits: stats_after.cache_hits - stats_before.cache_hits,
        cache_misses: stats_after.cache_misses - stats_before.cache_misses,
        plan_builds: gel_lang::eval_plan_builds() - builds_before,
    })
}

/// One load run of single-expression `Eval` requests, cycling `exprs`
/// round-robin: client `c`'s `i`-th request is `exprs[(c + i) % len]`,
/// so every client touches every expression and the interleave of
/// distinct plan keys is maximal.
fn run_load(
    server: &Server,
    exprs: &[Expr],
    requests_per_client: usize,
) -> Result<LoadReport, ClientError> {
    drive(server, requests_per_client, |client, c, i| {
        client.eval(GRAPH, &exprs[(c + i) % exprs.len()]).map(drop)
    })
}

/// Like [`run_load`], but each round trip is one `EvalBatch` frame
/// carrying every expression (client `c`'s rotated to start at
/// `exprs[c % len]`), so the per-round-trip framing and scheduling
/// overhead amortizes across the batch. `requests` in the report counts
/// batch round trips.
fn run_load_batched(
    server: &Server,
    exprs: &[Expr],
    requests_per_client: usize,
) -> Result<LoadReport, ClientError> {
    // Each rotation, built outside the timed trips.
    let len = exprs.len();
    let batches: Vec<Vec<Expr>> =
        (0..len).map(|r| (0..len).map(|j| exprs[(r + j) % len].clone()).collect()).collect();
    drive(server, requests_per_client, |client, c, _| {
        client.eval_batch(GRAPH, &batches[c % len]).map(drop)
    })
}

/// What the serve workload measured.
#[derive(Debug, Clone, Copy)]
pub struct ServeResult {
    /// First pass: every plan lowers once.
    pub cold: LoadReport,
    /// Second pass over a warm plan cache.
    pub warm: LoadReport,
    /// The warm pass again, all expressions per `EvalBatch` frame.
    pub batched: LoadReport,
    /// Server counters after all three passes.
    pub stats: StatsReply,
}

/// Runs the serve workload and asserts the serving-layer contracts:
/// every request completes, the cold pass lowers exactly one plan per
/// distinct expression however many clients race to submit it, and the
/// warm and batched passes are all cache hits that lower nothing.
pub fn serve_workload(scale: Scale) -> ServeResult {
    const LABEL_DIM: usize = 2;
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let g = erdos_renyi(24, 0.2, &mut rng);
    let g = with_random_real_labels(&g, LABEL_DIM, &mut rng);
    // Deep-shared WL-simulation DAGs, the workload the plan cache
    // exists for.
    let exprs = [cr_graph_expr(LABEL_DIM, 6), k_wl_graph_expr(2, LABEL_DIM, 2)];

    let server = Server::bind(ServeOptions {
        max_inflight: CLIENTS,
        plan_cache_cap: 16,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    server.register_graph(GRAPH, g).expect("register");
    let requests_per_client = scale.pick(8, 64);

    let cold = run_load(&server, &exprs, requests_per_client).expect("cold load run");
    let warm = run_load(&server, &exprs, requests_per_client).expect("warm load run");
    let batched = run_load_batched(&server, &exprs, requests_per_client).expect("batched load run");
    let stats = server.stats();
    server.shutdown();

    let expected = (CLIENTS * requests_per_client) as u64;
    for (phase, r) in [("cold", &cold), ("warm", &warm), ("batched", &batched)] {
        assert_eq!(r.requests, expected, "{phase} phase dropped requests");
    }
    assert_eq!(cold.plan_builds, exprs.len() as u64, "cold phase must lower one plan per expr");
    for (phase, r) in [("warm", &warm), ("batched", &batched)] {
        assert_eq!(r.plan_builds, 0, "{phase} requests must not lower new plans");
        assert_eq!(r.cache_misses, 0, "{phase} phase must be all hits");
    }
    ServeResult { cold, warm, batched, stats }
}
