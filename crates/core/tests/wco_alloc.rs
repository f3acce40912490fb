//! The warmed wco + sparse-output path never touches the heap.
//!
//! This binary holds a single test behind a counting global allocator,
//! so no concurrent test lowers plans or fills pools meanwhile. The
//! allocator counts only the test thread's allocations while it
//! measures: the test harness's own thread allocates at times of its
//! choosing, and counted process-wide it once read 4 allocations here.
//! The sparse and wco kernels run on the calling thread, so the count
//! still sees every heap allocation of a cached-plan evaluation — the
//! multiway join kernel, its scratch and the sparse root included —
//! not just slab-pool misses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gel_graph::{GraphBuilder, Vertex};
use gel_lang::build::{agg_over, apply, edge};
use gel_lang::{Agg, EvalEngine, EvalOptions, Func};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialized
    /// and without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: the flag is unreadable while the thread tears down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn wco_sparse_output_steady_state_allocs_zero() {
    let mut rng = StdRng::seed_from_u64(99);
    let n = 14;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as Vertex {
        for v in 0..n as Vertex {
            if u != v && rng.gen_bool(0.3) {
                b.add_arc(u, v);
            }
        }
    }
    let labels: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let g = b.build().with_labels(labels, 1);
    // Per-(x1,x4) count of 4-cycles through x1 → x2 → x3 → x4: a
    // cyclic join (wco plan) with a sparse 2-variable root.
    let atoms = vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)];
    let e = agg_over(Agg::Sum, vec![2, 3], apply(Func::Mul { arity: 4, dim: 1 }, atoms), None);
    let opts = EvalOptions {
        sparse: true,
        sparse_min_cells: 0,
        sparse_output: true,
        ..EvalOptions::default()
    };
    let mut eng = EvalEngine::with_options(opts);
    for _ in 0..3 {
        eng.eval(&e, &g); // warm the plan, buffers and scratch
    }
    let joins = gel_lang::eval_wco_joins();
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..10 {
        eng.eval(&e, &g);
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(gel_lang::eval_wco_joins() - joins, 10, "probe must take the wco path");
    assert!(eng.eval(&e, &g).is_sparse(), "root must stay sparse");
    assert_eq!(allocs, 0, "warmed wco/sparse-output path allocated {allocs} times");
}
