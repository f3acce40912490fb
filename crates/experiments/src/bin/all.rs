//! Runs the complete experiment suite and prints every table —
//! regenerates the data recorded in EXPERIMENTS.md.
//!
//! Usage:
//! `cargo run --release -p gel-experiments --bin all [--full]`
//!
//! * `--full` adds the 40-vertex CFI(K4) pair to the corpus.
//!
//! The printed tables are identical at every thread count. The
//! machine-readable benchmark report (`BENCH_parallel.json`) is written
//! by `gel-bench`'s `bench_json` binary.

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let corpus =
        if full { gel_experiments::full_corpus() } else { gel_experiments::light_corpus() };

    gel_wl::clear_cache();
    let results = gel_experiments::run_all(full);
    let lattice = gel_experiments::e10_recipe::lattice_figure(&corpus);

    let mut failed = 0;
    for r in &results {
        println!("{}", r.render());
        if !r.passed() {
            failed += 1;
        }
    }

    println!("## F1 — separation-power lattice (slide 25), measured on the corpus\n");
    println!("{}", lattice.render());

    println!("=== {} experiments, {} failed ===", results.len(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
