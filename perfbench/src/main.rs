//! gelib's benchmark: one command runs one named workload from a seed,
//! checks every output, and prints each metric with its unit and
//! sample count, then a one-line JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-wl|serve-joins|ingest-stream|suite> \
//!     --seed <n> --seconds <s> --trace <0|1> [--inject-fault]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics; its spans are written to `.perfbench-traces/` at exit.
//! `--inject-fault` corrupts one served table (serve workloads) or one
//! colouring (`ingest-stream`) before its check, to prove the checks
//! bind. `perfbench/METRICS.md` defines every metric.

mod ingest;
mod report;
mod serve;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject_fault: bool,
}

const WORKLOADS: [&str; 4] = ["serve-wl", "serve-joins", "ingest-stream", "suite"];

const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("throughput", "1/s"), ("latency_p50_ms", "ms"), ("heap_mb", "MiB")];

/// Every per-layer metric but the per-experiment wall times, in report
/// order. A traced run prints all of them; a layer the workload does
/// not reach reads 0 (see [`reached_layers`]).
const PER_LAYER: [(&str, &str); 47] = [
    ("serve.proto.decode_us", "us"),
    ("core.preflight_us", "us"),
    ("core.dag_hash_us", "us"),
    ("serve.cache.checkout_us", "us"),
    ("core.exec_us", "us"),
    ("core.lower_exec_us", "us"),
    ("serve.cache.put_back_us", "us"),
    ("serve.proto.encode_us", "us"),
    ("serve.request_self_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.tcp_mean_us", "us"),
    ("serve.p95_ms", "ms"),
    ("serve.proto.request_bytes", "B"),
    ("serve.proto.response_bytes", "B"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "1/req"),
    ("core.lower_count", "1/req"),
    ("core.wco_joins", "1/req"),
    ("core.wco_seeks", "1/req"),
    ("core.sparse_nnz", "1/req"),
    ("core.dense_fallbacks", "1/req"),
    ("core.slab_allocs", "1/req"),
    ("store.wal.append_s", "s"),
    ("store.wal.bytes_per_edge", "B"),
    ("store.ingest.build_s", "s"),
    ("store.ingest.passes", "count"),
    ("store.ingest.peak_buffer_bytes", "B"),
    ("store.segment.bytes_per_edge", "B"),
    ("store.segment.open_s", "s"),
    ("wl.incr.repair_ms_insert", "ms"),
    ("wl.incr.repair_ms_delete", "ms"),
    ("wl.incr.local_repair_us", "us"),
    ("wl.incr.fallback_repair_ms", "ms"),
    ("wl.incr.fallback_ratio", "ratio"),
    ("wl.incr.repaired_vertices", "1/edit"),
    ("wl.full.recolor_ms", "ms"),
    ("wl.incr.p90_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("tensor.loss_ms", "ms"),
    ("tensor.optim_ms", "ms"),
    ("train.residual_ms", "ms"),
    ("train.step_p95_ms", "ms"),
    ("tensor.buffer_allocs", "1/step"),
    ("tensor.gemm_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("ops.failed_ratio", "ratio"),
];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject_fault = false;
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_fault,
    })
}

/// A scratch directory under the working directory, removed on drop
/// (with its parent, once no other run uses it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Inputs are generated, and expected outputs computed, before any
    // timing starts.
    match args.workload.as_str() {
        "serve-wl" => serve::run(args, &serve::wl_inputs(args.seed), &mut report),
        "serve-joins" => {
            let inputs = serve::joins_inputs(args.seed);
            report.check_failed |= !serve::joins_agree_with_hom_counts(&inputs);
            serve::run(args, &inputs, &mut report);
        }
        "ingest-stream" => {
            let work =
                WorkDir(PathBuf::from(".perfbench-work").join(std::process::id().to_string()));
            ingest::run(args, &ingest::inputs(args.seed), &work.0, &mut report);
        }
        "suite" => suite::run(args, &suite::inputs(args.seed), &mut report),
        other => unreachable!("workload {other} passed validation"),
    }
    report
}

/// The declared metrics of a run, in report order: the per-layer set
/// for a traced run (per-experiment wall times included), else the
/// end-to-end set.
fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    }
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(suite::EXPERIMENT_IDS.iter().map(|id| (format!("experiments.{id}.wall_s"), "s")));
    v
}

/// Prefixes of the per-layer metrics of the layers `workload` reaches.
/// A traced run must report each of them; the metrics of the layers it
/// does not reach read 0, with 0 samples.
fn reached_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-wl" | "serve-joins" => &["serve.", "core.", "trace.", "ops."],
        "ingest-stream" => &["store.", "wl.", "trace.", "ops."],
        "suite" => &["gnn.", "tensor.", "train.", "experiments.", "trace.", "ops."],
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Puts the reported metrics in the declared order and checks names
/// and units. Pads the per-layer metrics of layers the workload does
/// not reach with 0; returns the names of any other metric that was
/// not reported.
fn complete(report: &mut Report, args: &Args) -> Result<(), Vec<String>> {
    let declared = declared(args.trace);
    let mut reported = std::mem::take(&mut report.metrics);
    for m in &reported {
        let unit = declared.iter().find(|(n, _)| *n == m.name).map(|&(_, u)| u);
        assert_eq!(
            unit,
            Some(m.unit),
            "metric {} ({}) is not declared with that unit",
            m.name,
            m.unit
        );
    }
    let reached = reached_layers(&args.workload);
    let mut missing = Vec::new();
    for (name, unit) in declared {
        match reported.iter().position(|m| m.name == name) {
            Some(i) => report.metrics.push(reported.swap_remove(i)),
            None if args.trace && !reached.iter().any(|p| name.starts_with(p)) => {
                report.add(name, 0.0, unit, 0)
            }
            None => missing.push(name),
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args);
    if args.trace {
        let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
        report.add("ops.failed_ratio", failed_ratio, "ratio", report.attempted as usize);
    }
    if let Err(missing) = complete(&mut report, &args) {
        eprintln!("perfbench: {} did not report {missing:?}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(rec) = report.trace.take() {
        let path = PathBuf::from(".perfbench-traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = rec.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    report.print();
    ExitCode::SUCCESS
}
