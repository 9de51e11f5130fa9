//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's crates.
//!
//! Spans nest strictly (the benchmark is single-threaded), stay in memory
//! while a traced run executes, and are reduced or written out after it:
//! each span's self time is its duration minus the durations of its direct
//! children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.dispatch`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Heap allocations made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What [`Tracer::end`] measured for the span it closed.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    /// Duration, nanoseconds.
    pub ns: u64,
    /// Heap allocations made while the span was open.
    pub allocs: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
    /// Every duration, for percentiles.
    pub durations: Vec<u64>,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().map(|&(idx, _)| idx);
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push((idx, 0));
        // Read the counters last, so the bookkeeping above is not charged
        // to the span.
        let top = self.open.len() - 1;
        self.open[top].1 = alloc::allocations();
        self.spans[idx].start_ns = self.now_ns();
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the benchmark).
    pub fn end(&mut self) -> Closed {
        let end_ns = self.now_ns();
        let allocs_now = alloc::allocations();
        let (idx, allocs_at_begin) = self.open.pop().expect("end() without an open span");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs_now - allocs_at_begin;
        Closed {
            ns: span.duration_ns(),
            allocs: span.allocs,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded, in begin order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Per-name aggregates, sorted by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let self_ns = self.self_times();
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += own;
            entry.allocs += span.allocs;
            entry.durations.push(span.duration_ns());
        }
        out
    }

    /// A human-readable self-time table, one row per span name.
    pub fn render_summary(&self) -> String {
        let mut out = String::from(
            "span                            count     total_ms      self_ms     p50_ns     p99_ns   allocs\n",
        );
        for (name, s) in self.by_name() {
            let mut sorted = s.durations.clone();
            sorted.sort_unstable();
            let _ = writeln!(
                out,
                "{name:<28} {:>9} {:>12.3} {:>12.3} {:>10} {:>10} {:>8}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                stats::nearest_rank(&sorted, 50.0),
                stats::nearest_rank(&sorted, 99.0),
                s.allocs,
            );
        }
        out
    }

    /// Every span as tab-separated values with its self time:
    /// `id parent name start_ns end_ns self_ns allocs`.
    pub fn to_tsv(&self) -> String {
        let self_ns = self.self_times();
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\tallocs\n");
        for (i, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{own}\t{}",
                span.name, span.start_ns, span.end_ns, span.allocs
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.spans = vec![
            Span {
                name: "outer",
                parent: None,
                start_ns: 0,
                end_ns: 100,
                allocs: 0,
            },
            Span {
                name: "mid",
                parent: Some(0),
                start_ns: 10,
                end_ns: 60,
                allocs: 0,
            },
            Span {
                name: "leaf",
                parent: Some(1),
                start_ns: 20,
                end_ns: 40,
                allocs: 0,
            },
            Span {
                name: "mid",
                parent: Some(0),
                start_ns: 70,
                end_ns: 80,
                allocs: 0,
            },
        ];
        assert_eq!(tr.self_times(), vec![40, 30, 20, 10]);
        let by = tr.by_name();
        assert_eq!(by["mid"].count, 2);
        assert_eq!(by["mid"].total_ns, 60);
        assert_eq!(by["mid"].self_ns, 40);
    }

    #[test]
    fn nested_spans_link_parents_and_count_allocations() {
        let mut tr = Tracer::new();
        tr.begin("outer");
        let v = tr.span("inner", || vec![1u8; 64]);
        tr.end();
        assert_eq!(v.len(), 64);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[1].allocs >= 1);
        assert!(tr.spans()[0].allocs >= tr.spans()[1].allocs);
    }
}
