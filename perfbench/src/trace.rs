//! The benchmark's span recorder.
//!
//! A span is one call into a layer, recorded from the benchmark's side
//! of the public API: its name, start, end, parent span and the id of
//! the request (or step) it belongs to. Spans stay in memory and are
//! written out once, when the benchmark exits. A disabled recorder runs
//! each stage closure directly and records nothing, so the untraced
//! loops share the traced loops' code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-thread span store. Threads each own one and merge at the end.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// Time and count of one span name, after subtracting child time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl Recorder {
    /// A recorder; `enabled == false` records nothing. All recorders
    /// of one run share `epoch` so their spans merge on one clock.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder { enabled, epoch, spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of request `request`.
    pub fn request<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.request = request;
        self.span(name, f)
    }

    /// Runs `f` as a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        out
    }

    /// A leaf span around a closure that needs no recorder.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover (children never overlap their siblings,
    /// because one thread records them in sequence).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Moves `other`'s spans into `self` (parent indices rebased).
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes every span as one tab-separated line:
    /// `index parent request name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.request, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true, Instant::now());
        r.request("root", 7, |r| {
            r.stage("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
            r.stage("b", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let t = r.self_times();
        assert_eq!(t["root"].count, 1);
        assert!(t["a"].self_ns >= 2_000_000 && t["b"].self_ns >= 2_000_000);
        let root_total = r.durations("root")[0];
        assert_eq!(t["root"].self_ns + t["a"].self_ns + t["b"].self_ns, root_total);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let x = r.request("root", 1, |r| r.stage("a", || 3));
        assert_eq!(x, 3);
        assert!(r.self_times().is_empty());
    }
}
