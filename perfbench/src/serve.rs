//! The `serve-wl` and `serve-joins` workloads: a closed loop of two
//! blocking connections against a loopback `gel-serve` server, and, for
//! the traced run, the same request bytes sent in-process through the
//! stage functions in the order `server::handle_request` calls them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gel_graph::random::{erdos_renyi, with_random_real_labels};
use gel_graph::{Graph, GraphBuilder};
use gel_lang::random_expr::{random_gel_graph, RandomExprConfig};
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::{build, check_against_graph, expr_dag_hash, Agg, EvalEngine, Expr, Func};
use gel_serve::proto::{decode_request, encode_request, encode_response};
use gel_serve::{
    Checkout, Client, ErrorCode, PlanCache, PlanKey, Request, Response, ServeOptions, Server,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    heap_mb, mean, median, windowed_quantile, HeapSampler, Report, TAIL_Q, TAIL_WINDOWS,
};
use crate::trace::Recorder;
use crate::Args;

/// Client connections (= cores of the reference machine).
const CONNS: usize = 2;
/// Distinct fresh probes on `serve-wl`: 48 times the default plan-cache
/// capacity, so every probe request misses and evicts, and a run hardly
/// sends any probe twice. The cached probe plans are most of the
/// server's memory; a pool this large keeps their mean size, and so
/// `heap_mb`, from following the seed.
const PROBES: usize = 1536;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// One workload's generated inputs and their expected responses.
pub struct Inputs {
    graphs: Vec<(String, Graph)>,
    /// One eval request per distinct expression.
    requests: Vec<Request>,
    /// Pre-encoded request payloads (the in-process path's input).
    payloads: Vec<Vec<u8>>,
    /// Direct `EvalEngine` result of each request, as the server's
    /// response frame would carry it.
    expected: Vec<Response>,
    expected_bytes: Vec<Vec<u8>>,
    /// Requests evaluated once, cold, during set-up.
    repeated: Vec<usize>,
    /// Request `i` of connection `c` is `requests[schedule(c, i)]`.
    schedule: fn(usize, u64) -> usize,
}

fn eval_request(graph: &str, expr: Expr) -> Request {
    Request::Eval { graph: graph.to_string(), expr }
}

// Each connection owns the keys of its repeated requests. The server
// serialises requests for one cached engine, and two connections
// drifting in and out of phase on shared keys made latency bistable
// from run to run (p95 on `serve-wl` flipped between 12 and 16 ms over
// ten seeds).

/// `serve-wl` request `i` of connection `c`: three in four are the
/// connection's WL-simulation readout (`cr_graph_expr` on connection 0,
/// `k_wl_graph_expr` on connection 1), the fourth is its next fresh
/// probe (the connections draw from opposite halves of the pool).
fn wl_schedule(c: usize, i: u64) -> usize {
    if i % 4 == 3 {
        2 + ((c * PROBES / CONNS) as u64 + i / 4) as usize % PROBES
    } else {
        c
    }
}

/// `serve-joins` request slots of one connection, as indices into the
/// request list (`er` then `hub`; triangle, 4-cycle, 4-clique; closed
/// then per-vertex) of its closed queries; connection 1 sends the
/// per-vertex query (the next index) instead. The hub 4-cycle fills 4
/// of the 9 slots. Sorted by cost the requests fall into classes of
/// nearly equal latency; with equal weights the median would sit on the
/// cliff between two classes and flip between them from run to run.
/// With these weights it sits inside the hub 4-cycle class, whose graph
/// does not depend on the seed.
const JOIN_SLOTS: [usize; 9] = [0, 2, 4, 6, 10, 8, 8, 8, 8];

/// `serve-joins`: round-robin over [`JOIN_SLOTS`].
fn joins_schedule(c: usize, i: u64) -> usize {
    JOIN_SLOTS[(i % JOIN_SLOTS.len() as u64) as usize] + c
}

pub fn wl_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = with_random_real_labels(&erdos_renyi(24, 0.2, &mut rng), 2, &mut rng);
    let mut exprs = vec![cr_graph_expr(2, 6), k_wl_graph_expr(2, 2, 2)];
    // Probes sampled for the graph's label dimension. Rejection keeps
    // the stream seeded, so every request is a well-typed eval.
    let cfg = RandomExprConfig { label_dim: g.label_dim(), ..RandomExprConfig::default() };
    while exprs.len() < 2 + PROBES {
        let e = random_gel_graph(&cfg, 3, &mut rng);
        if check_against_graph(&e, &g).is_ok() && e.validate().is_ok() {
            exprs.push(e);
        }
    }
    let requests = exprs.into_iter().map(|e| eval_request("wl", e)).collect();
    finish_inputs(vec![("wl".into(), g)], requests, vec![0, 1], wl_schedule)
}

/// The skewed hub instance of the wco sweep: vertex 0 fans into a block
/// of mids, every mid fans into a shared leaf block, and every 20th
/// leaf closes back into every 11th mid.
fn hub_graph(n: usize) -> Graph {
    let mids = 1u32..=(n as u32 / 3);
    let leaves = (n as u32 / 3 + 1)..=(n as u32 - 2);
    let mut b = GraphBuilder::new(n);
    for m in mids.clone() {
        b.add_arc(0, m);
        for l in leaves.clone() {
            b.add_arc(m, l);
        }
    }
    for (i, l) in leaves.enumerate() {
        if i % 20 == 0 {
            for m in mids.clone().step_by(11) {
                b.add_arc(l, m);
            }
        }
    }
    b.build()
}

/// The join shapes: (name, arcs over variables 1..=k).
const SHAPES: [(&str, &[(u8, u8)]); 3] = [
    ("triangle", &[(1, 2), (2, 3), (1, 3)]),
    ("cycle4", &[(1, 2), (2, 3), (3, 4), (1, 4)]),
    ("clique4", &[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
];

/// `Σ Π E(a,b)` over the shape's arcs; variable 1 stays free when
/// `per_vertex`.
fn join_expr(arcs: &[(u8, u8)], per_vertex: bool) -> Expr {
    let k = arcs.iter().map(|&(a, b)| a.max(b)).max().expect("non-empty shape");
    let over = ((if per_vertex { 2 } else { 1 })..=k).collect();
    let atoms = arcs.iter().map(|&(a, b)| build::edge(a, b)).collect::<Vec<_>>();
    build::agg_over(
        Agg::Sum,
        over,
        build::apply(Func::Mul { arity: atoms.len(), dim: 1 }, atoms),
        None,
    )
}

fn pattern(arcs: &[(u8, u8)]) -> Graph {
    let k = arcs.iter().map(|&(a, b)| a.max(b)).max().expect("non-empty shape") as usize;
    let mut b = GraphBuilder::new(k);
    for &(a, c) in arcs {
        b.add_arc(u32::from(a) - 1, u32::from(c) - 1);
    }
    b.build()
}

/// Erdős–Rényi in its G(n, m) form: `m` distinct edges drawn uniformly.
/// Fixing the edge count at its G(n, p) expectation keeps the join
/// costs from following the edge count from seed to seed (the 4-cycle
/// eval time spreads 20% over seeds in G(256, 0.03), 3% in G(256, 979)).
fn gnm(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut seen = std::collections::HashSet::with_capacity(m);
    let mut b = GraphBuilder::new(n);
    while seen.len() < m {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v && seen.insert((u.min(v), u.max(v))) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

pub fn joins_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    // ER(256, 0.03) with its expected 979 edges.
    let graphs = vec![("er".to_string(), gnm(256, 979, &mut rng)), ("hub".into(), hub_graph(128))];
    let mut requests = Vec::new();
    for (name, _) in &graphs {
        for (_, arcs) in SHAPES {
            requests.push(eval_request(name, join_expr(arcs, false)));
            requests.push(eval_request(name, join_expr(arcs, true)));
        }
    }
    finish_inputs(graphs, requests, (0..12).collect(), joins_schedule)
}

/// Join counts must equal `gel_hom`'s homomorphism counts: the closed
/// query exactly, the per-vertex query summed over vertices.
pub fn joins_agree_with_hom_counts(inputs: &Inputs) -> bool {
    let mut ok = true;
    let mut i = 0;
    for (_, g) in &inputs.graphs {
        for (_, arcs) in SHAPES {
            let homs = gel_hom::faq::hom_count(&pattern(arcs), g);
            let closed = table_data(&inputs.expected[i]).map(|d| d[0]);
            let per_vertex = table_data(&inputs.expected[i + 1]).map(|d| d.iter().sum::<f64>());
            ok &= closed == Some(homs) && per_vertex == Some(homs);
            i += 2;
        }
    }
    ok
}

fn table_data(r: &Response) -> Option<&[f64]> {
    match r {
        Response::Table { data, .. } => Some(data),
        _ => None,
    }
}

fn finish_inputs(
    graphs: Vec<(String, Graph)>,
    requests: Vec<Request>,
    repeated: Vec<usize>,
    schedule: fn(usize, u64) -> usize,
) -> Inputs {
    let by_name: HashMap<&str, &Graph> = graphs.iter().map(|(n, g)| (n.as_str(), g)).collect();
    let mut expected = Vec::with_capacity(requests.len());
    let mut payloads = Vec::with_capacity(requests.len());
    let mut expected_bytes = Vec::with_capacity(requests.len());
    for req in &requests {
        let Request::Eval { graph, expr } = req else { unreachable!("only eval requests") };
        let g = by_name[graph.as_str()];
        let t = EvalEngine::new().eval_owned(expr, g);
        let resp = Response::Table {
            vars: t.vars().to_vec(),
            dim: t.dim() as u32,
            n: g.num_vertices() as u32,
            data: t.data().to_vec(),
        };
        let mut p = Vec::new();
        encode_request(req, &mut p);
        payloads.push(p);
        let mut b = Vec::new();
        encode_response(&resp, &mut b);
        expected_bytes.push(b);
        expected.push(resp);
    }
    Inputs { graphs, requests, payloads, expected, expected_bytes, repeated, schedule }
}

/// Bit-for-bit equality of a served table with the expected one.
fn same_table(got: &Response, want: &Response) -> bool {
    match (got, want) {
        (
            Response::Table { vars, dim, n, data },
            Response::Table { vars: v2, dim: d2, n: n2, data: data2 },
        ) => {
            vars == v2
                && dim == d2
                && n == n2
                && data.len() == data2.len()
                && data.iter().zip(data2).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        _ => false,
    }
}

/// Binds a server, registers the graphs, connects the clients and
/// evaluates each repeated expression once (cold). Returns the server,
/// its clients, the elapsed seconds and whether every cold table was
/// right.
fn set_up(inputs: &Inputs) -> (Server, Vec<Client>, f64, bool) {
    let t0 = Instant::now();
    let server = Server::bind(ServeOptions::default()).expect("bind loopback server");
    for (name, g) in &inputs.graphs {
        server.register_graph(name, g.clone()).expect("register graph");
    }
    let mut clients: Vec<Client> =
        (0..CONNS).map(|_| Client::connect(server.local_addr()).expect("connect")).collect();
    let mut ok = true;
    for &r in &inputs.repeated {
        let resp = clients[0].call(&inputs.requests[r]);
        ok &= resp.is_ok_and(|resp| same_table(&resp, &inputs.expected[r]));
    }
    (server, clients, t0.elapsed().as_secs_f64(), ok)
}

fn shut_down(server: Server, clients: Vec<Client>) {
    // Closing the connections first lets their handler threads exit.
    drop(clients);
    server.shutdown();
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ConnLog {
    latencies_ns: Vec<u64>,
    /// When each successful request completed.
    done: Vec<Instant>,
    attempted: u64,
    failed: u64,
    busy: u64,
}

/// The closed loop: each connection sends its next request when the
/// previous reply has arrived and been checked, until `deadline`.
fn tcp_loop(
    inputs: &Inputs,
    server: &Server,
    clients: Vec<Client>,
    deadline: Instant,
    inject_fault: bool,
) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let r = (inputs.schedule)(c, i);
                        log.attempted += 1;
                        let t0 = Instant::now();
                        let result = client.call(&inputs.requests[r]);
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        let ok = match result {
                            Ok(mut resp) => {
                                if inject_fault && c == 0 && i == 5 {
                                    corrupt(&mut resp);
                                }
                                if matches!(resp, Response::Error { code: ErrorCode::Busy, .. }) {
                                    log.busy += 1;
                                }
                                same_table(&resp, &inputs.expected[r])
                            }
                            Err(_) => {
                                // A transport error leaves the stream
                                // position unknown: reconnect.
                                match Client::connect(server.local_addr()) {
                                    Ok(fresh) => client = fresh,
                                    Err(_) => {
                                        log.failed += 1;
                                        break;
                                    }
                                }
                                false
                            }
                        };
                        if ok {
                            log.latencies_ns.push(elapsed);
                            log.done.push(Instant::now());
                        } else {
                            log.failed += 1;
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    })
}

/// Windows of the measured loop for `throughput`.
const RATE_WINDOWS: u32 = 10;

/// Requests per second: the median over [`RATE_WINDOWS`] equal windows
/// from `start` to `end` of the successful requests completed in each,
/// so a burst of outside load moves one window, not the figure.
fn windowed_rate(logs: &[ConnLog], start: Instant, end: Instant) -> f64 {
    let width = (end - start) / RATE_WINDOWS;
    let mut counts = vec![0u32; RATE_WINDOWS as usize];
    for t in logs.iter().flat_map(|l| &l.done) {
        let w = ((*t - start).as_secs_f64() / width.as_secs_f64()) as usize;
        counts[w.min(RATE_WINDOWS as usize - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| f64::from(c) / width.as_secs_f64()).collect();
    median(&rates)
}

/// Every connection's request latencies in ms, interleaved window by
/// window, so each tail window covers the same stretch of time on all
/// connections.
fn latencies_ms(logs: &[ConnLog]) -> Vec<f64> {
    let mut lat_ms = Vec::new();
    for w in 0..TAIL_WINDOWS {
        for l in logs {
            let per = l.latencies_ns.len().div_ceil(TAIL_WINDOWS).max(1);
            let chunk = l.latencies_ns.chunks(per).nth(w).unwrap_or(&[]);
            lat_ms.extend(chunk.iter().map(|&ns| ns as f64 / 1e6));
        }
    }
    lat_ms
}

/// Flips the lowest bit of the first cell: the self-check's proof that
/// the output check binds.
fn corrupt(resp: &mut Response) {
    if let Response::Table { data, .. } = resp {
        if let Some(x) = data.first_mut() {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
    }
}

/// The server's request path, stage by stage, through public calls.
struct InProcess<'a> {
    graphs: HashMap<&'a str, &'a Graph>,
    cache: PlanCache,
    max_result_cells: usize,
}

impl<'a> InProcess<'a> {
    fn new(inputs: &'a Inputs) -> InProcess<'a> {
        let opts = ServeOptions::default();
        let me = InProcess {
            graphs: inputs.graphs.iter().map(|(n, g)| (n.as_str(), g)).collect(),
            cache: PlanCache::new(opts.plan_cache_cap, opts.eval_opts),
            max_result_cells: opts.max_result_cells,
        };
        // Same warm state as the server after set-up.
        let mut off = Recorder::new(false, Instant::now());
        let mut out = Vec::new();
        for &r in &inputs.repeated {
            me.handle(&mut off, &inputs.payloads[r], &mut out);
        }
        me
    }

    /// Decode → preflight → DAG hash → checkout → eval → put back →
    /// encode, each a span; the response frame lands in `out`.
    fn handle(&self, rec: &mut Recorder, payload: &[u8], out: &mut Vec<u8>) {
        let req = rec.stage("serve.proto.decode", || decode_request(payload));
        let resp = match req {
            Ok(Request::Eval { graph, expr }) => match self.graphs.get(graph.as_str()) {
                Some(g) => self.eval(rec, g, &expr),
                None => Response::Error { code: ErrorCode::UnknownGraph, msg: graph },
            },
            Ok(_) => Response::Error { code: ErrorCode::Protocol, msg: "not an eval".into() },
            Err(e) => Response::Error { code: ErrorCode::Protocol, msg: e.msg },
        };
        rec.stage("serve.proto.encode", || encode_response(&resp, out));
    }

    fn eval(&self, rec: &mut Recorder, g: &Graph, expr: &Expr) -> Response {
        let pre = rec.stage("core.preflight", || {
            check_against_graph(expr, g).map_err(|e| e.to_string())?;
            let dim = expr.validate().map_err(|e| e.to_string())?;
            let p = expr.free_vars().len() as u32;
            Ok::<u128, String>((g.num_vertices() as u128).pow(p) * dim as u128)
        });
        match pre {
            Ok(cells) if cells <= self.max_result_cells as u128 => {}
            Ok(_) => return Response::Error { code: ErrorCode::TooLarge, msg: String::new() },
            Err(msg) => return Response::Error { code: ErrorCode::Analyze, msg },
        }
        let n = g.num_vertices();
        let dag_hash = rec.stage("core.dag_hash", || expr_dag_hash(expr));
        let key = PlanKey { dag_hash, n, label_dim: g.label_dim() };
        let (mut engine, hit) = match rec.stage("serve.cache.checkout", || self.cache.checkout(key))
        {
            Checkout::Hit(e) => (e, true),
            Checkout::Miss(e) => (e, false),
        };
        let t =
            rec.stage(if hit { "core.exec" } else { "core.lower_exec" }, || engine.eval(expr, g));
        let resp = Response::Table {
            vars: t.vars().to_vec(),
            dim: t.dim() as u32,
            n: n as u32,
            data: t.data().to_vec(),
        };
        rec.stage("serve.cache.put_back", || self.cache.put_back(key, engine));
        resp
    }
}

/// Runs `per_conn[c]` requests (or, when `None`, requests until
/// `deadline`) on each of [`CONNS`] threads through [`InProcess`].
/// Returns per-thread request counts, recorders and (attempted, failed).
fn in_process_loop(
    inputs: &Inputs,
    pipeline: &InProcess,
    traced: bool,
    epoch: Instant,
    per_conn: Option<&[u64]>,
    deadline: Instant,
) -> (Vec<u64>, Vec<Recorder>, u64, u64) {
    let results: Vec<(u64, Recorder, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let budget = per_conn.map(|b| b[c]);
                s.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch);
                    let mut out = Vec::new();
                    let (mut i, mut failed) = (0u64, 0u64);
                    while budget.map_or(Instant::now() < deadline, |b| i < b) {
                        let r = (inputs.schedule)(c, i);
                        rec.request("serve.request", (c as u64) << 48 | i, |rec| {
                            pipeline.handle(rec, &inputs.payloads[r], &mut out)
                        });
                        failed += u64::from(out != inputs.expected_bytes[r]);
                        i += 1;
                    }
                    (i, rec, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("in-process worker panicked")).collect()
    });
    let counts: Vec<u64> = results.iter().map(|r| r.0).collect();
    let attempted = counts.iter().sum();
    let failed = results.iter().map(|r| r.2).sum();
    (counts, results.into_iter().map(|r| r.1).collect(), attempted, failed)
}

/// Snapshot of the always-on evaluator counters.
fn core_counters() -> [u64; 6] {
    [
        gel_lang::eval_plan_builds(),
        gel_lang::eval_wco_joins(),
        gel_lang::eval_wco_seeks(),
        gel_lang::eval_sparse_nnz(),
        gel_lang::eval_dense_fallbacks(),
        gel_lang::eval_slab_allocs(),
    ]
}

pub fn run(args: &Args, inputs: &Inputs, report: &mut Report) {
    let heap_baseline = heap_mb();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((server, clients)) = live.take() {
            shut_down(server, clients);
        }
        let (server, clients, secs, ok) = set_up(inputs);
        report.check_failed |= !ok;
        setups.push(secs);
        live = Some((server, clients));
    }
    let (server, clients) = live.expect("at least one set-up");
    let seconds = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let heap = HeapSampler::start(heap_baseline);
        let start = Instant::now();
        let logs = tcp_loop(inputs, &server, clients, start + seconds, args.inject_fault);
        let end = Instant::now();
        let (heap_mb, samples) = heap.median_mb();
        report.add("heap_mb", heap_mb, "MiB", samples);
        shut_down(server, Vec::new());
        let lat_ms = latencies_ms(&logs);
        for l in &logs {
            report.absorb_ops(l.attempted, l.failed);
            report.busy += l.busy;
        }
        let n = lat_ms.len();
        report.add("setup_s", median(&setups), "s", setups.len());
        report.add("throughput", windowed_rate(&logs, start, end), "1/s", n);
        report.add("latency_p50_ms", median(&lat_ms), "ms", n);
        return;
    }

    // Traced run: a third of the time on the untraced TCP loop, a third
    // on the untraced in-process loop, and the same requests again in
    // process with spans on.
    let third = seconds / 3;
    let start = Instant::now();
    let logs = tcp_loop(inputs, &server, clients, start + third, false);
    shut_down(server, Vec::new());
    let tcp_us: Vec<f64> =
        logs.iter().flat_map(|l| l.latencies_ns.iter().map(|&ns| ns as f64 / 1e3)).collect();
    let tcp_ms = latencies_ms(&logs);
    report.add("serve.p95_ms", windowed_quantile(&tcp_ms, TAIL_Q), "ms", tcp_ms.len());
    for l in &logs {
        report.absorb_ops(l.attempted, l.failed);
        report.busy += l.busy;
    }

    let epoch = Instant::now();
    let untraced = InProcess::new(inputs);
    let t0 = Instant::now();
    let (counts, _, attempted, failed) =
        in_process_loop(inputs, &untraced, false, epoch, None, t0 + third);
    let untraced_wall = t0.elapsed().as_secs_f64();
    report.absorb_ops(attempted, failed);

    let traced = InProcess::new(inputs);
    let (h0, m0, e0) = (traced.cache.hits(), traced.cache.misses(), traced.cache.evictions());
    let c0 = core_counters();
    let t1 = Instant::now();
    let (_, recs, attempted, failed) =
        in_process_loop(inputs, &traced, true, epoch, Some(&counts), t1 + seconds);
    let traced_wall = t1.elapsed().as_secs_f64();
    let c1 = core_counters();
    report.absorb_ops(attempted, failed);

    let mut rec = Recorder::new(true, epoch);
    for r in recs {
        rec.merge(r);
    }
    let requests = attempted.max(1) as f64;
    let times = rec.self_times();
    let per_request_us =
        |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / requests);
    for (metric, span) in [
        ("serve.proto.decode_us", "serve.proto.decode"),
        ("core.preflight_us", "core.preflight"),
        ("core.dag_hash_us", "core.dag_hash"),
        ("serve.cache.checkout_us", "serve.cache.checkout"),
        ("core.exec_us", "core.exec"),
        ("core.lower_exec_us", "core.lower_exec"),
        ("serve.cache.put_back_us", "serve.cache.put_back"),
        ("serve.proto.encode_us", "serve.proto.encode"),
        ("serve.request_self_us", "serve.request"),
    ] {
        report.add(metric, per_request_us(span), "us", attempted as usize);
    }
    let in_process_us: Vec<f64> =
        rec.durations("serve.request").iter().map(|&ns| ns as f64 / 1e3).collect();
    report.add("serve.residual_us", mean(&tcp_us) - mean(&in_process_us), "us", tcp_us.len());
    report.add("serve.tcp_mean_us", mean(&tcp_us), "us", tcp_us.len());

    let mean_bytes = |f: &dyn Fn(usize) -> usize| {
        let mut total = 0usize;
        for (c, &n) in counts.iter().enumerate() {
            total += (0..n).map(|i| f((inputs.schedule)(c, i))).sum::<usize>();
        }
        total as f64 / requests
    };
    report.add(
        "serve.proto.request_bytes",
        mean_bytes(&|r| inputs.payloads[r].len()),
        "B",
        attempted as usize,
    );
    report.add(
        "serve.proto.response_bytes",
        mean_bytes(&|r| inputs.expected_bytes[r].len()),
        "B",
        attempted as usize,
    );
    let (hits, misses) = (traced.cache.hits() - h0, traced.cache.misses() - m0);
    report.add(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    report.add(
        "serve.cache.evictions",
        (traced.cache.evictions() - e0) as f64 / requests,
        "1/req",
        attempted as usize,
    );
    for (i, name) in [
        "core.lower_count",
        "core.wco_joins",
        "core.wco_seeks",
        "core.sparse_nnz",
        "core.dense_fallbacks",
        "core.slab_allocs",
    ]
    .into_iter()
    .enumerate()
    {
        report.add(name, (c1[i] - c0[i]) as f64 / requests, "1/req", attempted as usize);
    }
    report.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio", 2);
    report.trace = Some(rec);
}
