//! Server load benchmark: the serve workload of [`gel_bench::serve`] —
//! 8 concurrent clients driving `gel-serve` over loopback TCP, cold,
//! warm and `EvalBatch`-framed — reporting latency quantiles,
//! throughput, and plan-cache behaviour.
//!
//! Run with `cargo bench -p gel-bench --bench serve [-- --smoke]`.
//! `--smoke` shrinks the request counts for CI. Every run asserts the
//! serving-layer contracts: every request completes, the cold phase
//! lowers exactly one plan per distinct expression, and the warm and
//! batched phases re-lower nothing ([`gel_lang::eval_plan_builds`] is
//! always-on, so the gate binds on the uninstrumented
//! `--no-default-features` leg too).

use gel_bench::serve::{serve_workload, LoadReport, CLIENTS};
use gel_bench::Scale;

fn report(name: &str, r: &LoadReport) {
    println!(
        "{name:<28} {:>7} req {:>9.1} req/s   p50 {:>8.1} µs   p99 {:>8.1} µs   hit {:>5.1}%",
        r.requests,
        r.throughput_rps,
        r.p50_us,
        r.p99_us,
        r.hit_rate() * 100.0
    );
}

fn main() {
    let scale = Scale::from_args();
    let r = serve_workload(scale);
    report(&format!("serve cold ({CLIENTS} clients)"), &r.cold);
    report(&format!("serve warm ({CLIENTS} clients)"), &r.warm);
    report("serve warm batched", &r.batched);
    println!(
        "{:<28} {:>7} plans   {} hits / {} misses / {} evictions",
        "cache", r.stats.plans, r.stats.cache_hits, r.stats.cache_misses, r.stats.evictions
    );
    if scale.is_smoke() {
        println!("serve smoke gates passed: warm cache re-lowered 0 plans (incl. batched)");
    }
}
