//! Spans around the calls into each layer.
//!
//! Every run, traced or not, goes through the same `open`/`close` calls and
//! reads its timings from what `close` returns; a traced run additionally
//! keeps each span (name, id, parent, unit, start, end, allocations, counts)
//! in memory and writes them out when the workload ends.

use crate::alloc;
use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One kept span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    unit: u32,
    start_ns: u64,
    end_ns: u64,
    /// Allocation calls between open and close, children included.
    allocs: u64,
    /// Timed right after its parent instead of inside it (the benchmark
    /// cannot open spans inside the program): same work, same inputs.
    replayed: bool,
    counts: Vec<(&'static str, f64)>,
}

struct Open {
    start: Instant,
    allocs0: u64,
    id: Option<usize>,
}

/// What `close` hands back.
#[derive(Clone, Copy)]
pub struct Closed {
    /// Wall seconds between open and close.
    pub secs: f64,
    /// The kept span, to hang replayed children on (traced runs only).
    pub id: Option<usize>,
}

/// Per-name totals over a traced run.
#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    /// Seconds between open and close, summed.
    pub inclusive_s: f64,
    /// The same minus the seconds the span's children cover.
    pub self_s: f64,
    /// Allocation calls, children's subtracted.
    pub self_allocs: u64,
}

pub struct Tracer {
    keep: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    unit: u32,
    /// Counts summed over the run, kept in untraced runs too: the
    /// count-derived end-to-end metrics come from here.
    totals: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(keep: bool) -> Self {
        Tracer {
            keep,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn keeps_spans(&self) -> bool {
        self.keep
    }

    /// Spans opened from now on belong to the next unit.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    pub fn open(&mut self, name: &'static str) {
        let parent = self.stack.last().and_then(|o| o.id);
        self.push(name, parent, false);
    }

    /// Opens a span that replays work done inside the already closed
    /// `parent`; no-op parent in untraced runs.
    pub fn open_replayed(&mut self, name: &'static str, parent: Option<usize>) {
        self.push(name, parent, true);
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, replayed: bool) {
        let id = self.keep.then(|| {
            self.spans.push(Span {
                name,
                parent,
                unit: self.unit,
                start_ns: 0,
                end_ns: 0,
                allocs: 0,
                replayed,
                counts: Vec::new(),
            });
            self.spans.len() - 1
        });
        let allocs0 = alloc::snapshot().0;
        // Read the clock last so the bookkeeping above is outside the span.
        self.stack.push(Open {
            start: Instant::now(),
            allocs0,
            id,
        });
    }

    /// Adds `value` to the run total `key` and, in a traced run, to the
    /// innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        *self.totals.entry(key).or_insert(0.0) += value;
        if let Some(id) = self.stack.last().and_then(|o| o.id) {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) -> Closed {
        let end = Instant::now();
        let open = self.stack.pop().expect("close without open");
        if let Some(id) = open.id {
            let span = &mut self.spans[id];
            span.start_ns = (open.start - self.t0).as_nanos() as u64;
            span.end_ns = (end - self.t0).as_nanos() as u64;
            span.allocs = alloc::snapshot().0 - open.allocs0;
        }
        Closed {
            secs: (end - open.start).as_secs_f64(),
            id: open.id,
        }
    }

    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Folds the kept spans into per-name totals.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.inclusive_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
            t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Durations in seconds of every kept span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Every value counted under `key` on a kept span, in span order.
    pub fn counted(&self, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Wall cost of one kept open/close pair, measured on a scratch tracer;
    /// times the span count it is the tracing overhead.
    pub fn calibrate_pair_s() -> f64 {
        const PAIRS: u32 = 20_000;
        let mut scratch = Tracer::new(true);
        let t = Instant::now();
        for _ in 0..PAIRS {
            scratch.open("calibrate");
            scratch.close();
        }
        t.elapsed().as_secs_f64() / f64::from(PAIRS)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("unit", Json::Num(f64::from(s.unit))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("allocs", Json::Num(s.allocs as f64)),
                        ("replayed", Json::Bool(s.replayed)),
                        (
                            "counts",
                            Json::Obj(
                                s.counts
                                    .iter()
                                    .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
