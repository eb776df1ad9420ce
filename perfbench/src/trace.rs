//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written out at
//! the end. Every span of one run or statement carries that run's id; a
//! span's parent is the index of the span that caused it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between per-thread tracers so that they can be merged).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be passed to
    /// [`Tracer::close`] and as the parent of its children.
    pub fn open(&mut self, id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(id, name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Appends another tracer's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Shifts every span's id by `by`.
    pub fn offset_ids(&mut self, by: u64) {
        for s in &mut self.spans {
            s.id += by;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it that its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0) += s.dur_ns() - covered;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{i},"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                id: 1,
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                id: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                id: 1,
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                id: 1,
                name: "leaf",
                start_ns: 12,
                end_ns: 20,
                parent: Some(1),
            },
        ];
        let s = t.self_ns();
        assert_eq!(s["run"], 50, "children cover 10..60");
        assert_eq!(s["a"], 22);
        assert_eq!(s["b"], 30);
        assert_eq!(s["leaf"], 8);
    }
}
