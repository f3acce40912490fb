//! What one run prints: metrics with units and sample counts, the
//! attempted/failed op counts, and the one-line JSON result.

use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

/// The result of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (requests, ingests, edits, steps, suite runs).
    pub attempted: u64,
    /// Operations that failed: error frames, transport errors and
    /// output-check mismatches.
    pub failed: u64,
    /// Failed ops that were Busy (admission-control) rejections.
    pub busy: u64,
    /// Set when a whole-run output check failed.
    pub check_failed: bool,
    /// The traced run's spans, written out at exit.
    pub trace: Option<crate::trace::Recorder>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Counts one op and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another report's op counts into this one.
    pub fn absorb_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.check_failed && self.attempted > 0
    }

    /// A human-readable table, then the JSON result as the last line.
    pub fn print(&self) {
        println!("{:<34} {:>16} {:<10} {:>8}", "metric", "value", "unit", "samples");
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {:<10} {:>8}", m.name, m.value, m.unit, m.samples);
        }
        println!("ops attempted {} failed {} (busy {})", self.attempted, self.failed, self.busy);
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // so every digit measured survives.
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
                .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// The `q`-quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Sorts a copy and takes the median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Tail windows per run: a tail quantile is taken in each window of
/// consecutive samples and the median of those is reported, so one
/// burst of outside load moves one window, not the figure.
pub const TAIL_WINDOWS: usize = 5;

/// The tail quantile of request and training-step latencies. p99 swings
/// by ±20% between runs of one seed on a shared 2-core machine (outside
/// load, and requests queueing for the same cached engine); p95 keeps
/// within a few percent and still has hundreds of samples beyond it.
pub const TAIL_Q: f64 = 0.95;

/// The median over [`TAIL_WINDOWS`] consecutive windows of `samples`
/// (in time order) of each window's `q`-quantile.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    let per = samples.len().div_ceil(TAIL_WINDOWS).max(1);
    let tails: Vec<f64> = samples
        .chunks(per)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            quantile(&w, q)
        })
        .collect();
    median(&tails)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    /// glibc ≥ 2.33: allocator statistics summed over every arena.
    fn mallinfo2() -> MallInfo2;
}

/// Bytes on the heap, MiB: chunks in use in every malloc arena plus
/// chunks served by `mmap`. Unlike the resident set it leaves out
/// memory the allocator keeps after a free, which depends on thread
/// timing (the resident set of one `serve-wl` seed varies by 10% from
/// run to run; this by 1%).
pub fn heap_mb() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments, reads the allocator's
    // statistics under the allocator's own locks and returns a plain
    // struct of integers by value; `MallInfo2` matches its C layout.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / f64::from(1u32 << 20)
}

/// Milliseconds between two heap samples.
const HEAP_EVERY_MS: u64 = 20;

/// Samples [`heap_mb`] on a background thread while the measured loops
/// run. The median sample, less a baseline taken once the benchmark's
/// inputs and expected outputs exist and before set-up, is the memory
/// the program holds while it works.
pub struct HeapSampler {
    baseline_mb: f64,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl HeapSampler {
    pub fn start(baseline_mb: f64) -> HeapSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = vec![heap_mb()];
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(HEAP_EVERY_MS));
                samples.push(heap_mb());
            }
            samples
        });
        HeapSampler { baseline_mb, stop, handle }
    }

    /// Stops sampling; returns the median sample less the baseline
    /// (MiB) and the sample count.
    pub fn median_mb(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Release);
        let samples = self.handle.join().expect("heap sampler panicked");
        (median(&samples) - self.baseline_mb, samples.len())
    }
}
