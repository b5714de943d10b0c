//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program, around its public calls:
//! name, start, end, parent and operation id. They stay in memory and
//! are written out once, when the traced pass ends. A layer's self time
//! is its span's duration minus the time its child spans cover.
//!
//! The simulator's own span profiler (`relsim_obs::span`) is never
//! switched on: it disables the cores' quiet-tick fast path, so its stage
//! shares describe a different program.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Public call the span wraps, e.g. `System::run_traced`.
    pub name: &'static str,
    /// Operation the span belongs to (grid cell, run, request).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `op`.
    pub fn scope<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                op,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Total self time, in nanoseconds, of the spans named `name`: each
    /// span's duration minus the time its direct children cover.
    pub fn self_ns(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]) as f64)
            .fold(0.0, |a, b| a + b)
    }

    /// Write every span as one JSON line: name, op, parent, start, end
    /// (nanoseconds since the tracer's creation).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.scope("outer", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.scope("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.durations_ns("outer")[0];
        let inner = t.durations_ns("inner")[0];
        assert!(inner >= 5e6 && outer >= inner + 2e6);
        assert_eq!(t.self_ns("outer"), outer - inner);
        assert_eq!(t.spans.borrow()[1].parent, Some(0));
    }
}
