//! In-memory span recorder for the traced pass: one span per call into a
//! layer (name, start, end, parent), kept in a `Vec` while the run is
//! timed and written out only after it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span, returned by [`Spans::enter`].
#[must_use = "an entered span must be exited"]
#[derive(Debug)]
pub struct Open(u32);

/// A stack-structured span recorder. Spans nest strictly (the traced
/// replay is single-threaded), so a span's parent is whatever span was
/// open when it was entered.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Open(id)
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.now_ns();
    }

    /// Record `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Wall seconds of the span opened as `open` (already closed).
    pub fn wall_s(&self, open_id: usize) -> f64 {
        let s = &self.spans[open_id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time per span name over spans `from..` (a span's duration
    /// minus the durations of its direct children), in seconds.
    pub fn self_times_since(&self, from: usize) -> BTreeMap<&'static str, f64> {
        assert!(self.stack.is_empty(), "self times need every span closed");
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT && s.parent as usize >= from {
                child_ns[s.parent as usize - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Every span as tab-separated text: `id parent name start_ns end_ns`
    /// (parent `-` for a root), one per line after a header line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(32 * self.spans.len() + 64);
        out.push_str("id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{id}\t");
            if s.parent == NO_PARENT {
                out.push('-');
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, "\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let root = spans.enter("root");
        spans.time("child", || std::thread::sleep(std::time::Duration::from_millis(20)));
        spans.exit(root);
        let own = spans.self_times_since(0);
        assert!(own["child"] >= 0.02);
        assert!(own["root"] < own["child"], "root self time excludes its child");
        assert!((own["root"] + own["child"] - spans.wall_s(0)).abs() < 1e-9);
        let tsv = spans.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.lines().nth(1).unwrap().starts_with("0\t-\troot\t"));
        assert!(tsv.lines().nth(2).unwrap().starts_with("1\t0\tchild\t"));
    }
}
