//! Spans the benchmark records around its calls into each layer.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began (its cause). Spans stay in memory while the iteration runs and
//! are written out once at the end, so the clock reads are the only
//! cost inside the measured work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span log for one benchmark iteration.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`exit`](Self::exit).
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span named `name`, returning its duration in
    /// seconds with its output.
    pub fn timed<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Summed duration in seconds of the spans named `name` inside
    /// `root` (`root` included).
    pub fn total(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(id, s)| s.name == name && self.is_under(*id, root))
            .map(|(_, s)| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time per span name in seconds — each span's duration minus
    /// the part its children cover — largest first.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*covered);
            *by_name.entry(&s.name).or_default() += own;
        }
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(name, ns)| (name.to_string(), ns as f64 * 1e-9))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The span log as JSON lines: `id`, `name`, `start_ns`, `end_ns`
    /// (from the log's origin) and `parent` (`null` for roots).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new();
        let root = sp.enter("root");
        sp.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let root_s = sp.exit(root);
        // A span outside `root` counts in self time but not under `root`.
        sp.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let selfs: BTreeMap<String, f64> = sp.self_times().into_iter().collect();
        assert!(selfs["root"] < 0.019 && selfs["child"] >= 0.024);
        assert!(sp.total(root, "child") <= root_s);
        assert!((root_s - selfs["root"] - sp.total(root, "child")).abs() < 1e-9);
        assert_eq!(sp.to_jsonl().lines().count(), 3);
    }
}
