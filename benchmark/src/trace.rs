//! Spans around the benchmark's own calls into each layer, kept in
//! memory and written out when the run ends (`--trace 1` only).

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// Layer names, as the metric prefixes use them, each with the metric
/// its self time is reported under. `bench` is the harness itself (input
/// generation, checking, the root span).
pub const LAYERS: [(&str, &str); 7] = [
    ("facade", "trace.self_ms.facade"),
    ("exhash", "trace.self_ms.exhash"),
    ("core", "trace.self_ms.core"),
    ("rewire", "trace.self_ms.rewire"),
    ("vmsim", "trace.self_ms.vmsim"),
    ("server", "trace.self_ms.server"),
    ("bench", "trace.self_ms.bench"),
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    ops: u64,
}

pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span that encloses later ones; close it with
    /// [`Trace::close`]. Returns its id (the parent of its children).
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            ops: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>, ops: u64) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
            self.spans[id].ops = ops;
        }
    }

    /// Record a finished timed call. The caller took `start` and `end`
    /// around the call for its own measurement, so tracing adds no clock
    /// reads inside the timed region — only this push after it.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        ops: u64,
    ) {
        if self.on {
            let span = Span {
                name,
                layer,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                ops,
            };
            self.spans.push(span);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// `(metric, ms)` per layer: each span's duration minus the part its
    /// child spans cover, summed by the span's layer.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        LAYERS
            .iter()
            .map(|&(layer, metric)| {
                let ns: u64 = self
                    .spans
                    .iter()
                    .zip(&child_ns)
                    .filter(|(span, _)| span.layer == layer)
                    .map(|(span, &kids)| (span.end_ns - span.start_ns).saturating_sub(kids))
                    .sum();
                (metric, ns as f64 / 1e6)
            })
            .collect()
    }

    /// What recording cost this run, as a share of its wall time: the
    /// per-span cost (timed here over 2^16 throw-away records) times the
    /// spans recorded. The alternative — traced wall minus untraced wall
    /// of the same loops — is swamped by this host's run-to-run noise.
    pub fn overhead_frac(&self) -> f64 {
        if !self.on || self.spans.is_empty() {
            return 0.0;
        }
        let mut scratch = Trace::new(true);
        let n = 1u32 << 16;
        let t = Instant::now();
        for _ in 0..n {
            let now = Instant::now();
            scratch.record("calibrate", "bench", None, now, now, 1);
        }
        let per_span_ns = t.elapsed().as_nanos() as f64 / f64::from(n);
        std::hint::black_box(&scratch.spans);
        let wall_ns = self.ns(Instant::now()) as f64;
        per_span_ns * self.spans.len() as f64 / wall_ns
    }

    /// Write `{meta..., "spans": [{id, name, layer, start_ns, end_ns,
    /// parent, ops}]}`; `parent` is a span id or null.
    pub fn write(&self, path: &Path, meta: Vec<(&str, Json)>) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("ops", Json::Num(s.ops as f64)),
                ])
            })
            .collect();
        let mut doc: Vec<(String, Json)> =
            meta.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        doc.push(("spans".to_string(), Json::Arr(spans)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Obj(doc).pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        let root = t.open("run", "bench", None);
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let b = Instant::now();
        t.record("get", "facade", root, a, b, 10);
        t.close(root, 10);
        let by_layer = t.self_ms_by_layer();
        let of = |l: &str| by_layer.iter().find(|(n, _)| n.ends_with(l)).unwrap().1;
        assert!(of(".facade") >= 3.0);
        assert!(of(".bench") < of(".facade"), "root keeps only its own time");
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::new(false);
        let root = t.open("run", "bench", None);
        t.record("x", "bench", root, Instant::now(), Instant::now(), 1);
        t.close(root, 1);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.overhead_frac(), 0.0);
    }
}
