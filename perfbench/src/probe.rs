//! Benchmark-side tracing at the program's public boundaries.
//!
//! A [`Tracer`] records wall-clock spans (nanoseconds since the traced
//! pass began) into a `morph-trace` [`TraceBuffer`]; switched off, its
//! [`Tracer::span`] is a plain call. [`Tracer::wrap`] puts a backend behind
//! [`Traced`], which implements `Backend` by forwarding every method and
//! records one span per `evaluate_layer*` call. Nothing inside the program
//! is instrumented: every span is taken from the outside of a public call.

use morph_core::{
    ArchSpec, Backend, DecisionStore, EnergyReport, LayerEval, Objective, PipelineCaps,
};
use morph_tensor::shape::ConvShape;
use morph_trace::{Phase, Recorder, TraceBuffer, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Instant recorded on a backend's track when a call left its decision
/// store as large as it found it (the answer was already memoized).
pub const STORE_HIT: &str = "store_hit";

/// Span recorder for the traced pass; a no-op when off.
#[derive(Clone)]
pub struct Tracer {
    buf: Option<Arc<TraceBuffer>>,
    t0: Instant,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            buf: None,
            t0: Instant::now(),
        }
    }

    /// A tracer recording into a fresh buffer, clocked from now.
    pub fn on() -> Self {
        Tracer {
            buf: Some(Arc::new(TraceBuffer::new())),
            t0: Instant::now(),
        }
    }

    /// The recorded buffer (`None` when off).
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.buf.as_deref()
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` on `track`.
    pub fn span<T>(&self, track: &str, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(buf) = &self.buf else {
            return f();
        };
        buf.span_begin(track, name, self.now());
        let out = f();
        buf.span_end(track, name, self.now());
        out
    }

    /// Mark an instant on `track`.
    pub fn instant(&self, track: &str, name: &str) {
        if let Some(buf) = &self.buf {
            buf.instant(track, name, self.now());
        }
    }

    /// The backend itself when off, else the backend behind [`Traced`].
    /// Searched backends (those with a decision store) trace on an
    /// `optimizer:` track, fixed ones on an `eyeriss:` track.
    pub fn wrap(&self, inner: Box<dyn Backend>) -> Box<dyn Backend> {
        if self.buf.is_none() {
            return inner;
        }
        let store = inner.decision_store();
        let layer = if store.is_some() {
            "optimizer"
        } else {
            "eyeriss"
        };
        Box::new(Traced {
            track: format!("{layer}:{}", inner.name()),
            inner,
            store,
            tracer: self.clone(),
        })
    }
}

/// A backend that forwards every `Backend` method to `inner`, spanning
/// each evaluation call and marking the calls that did not grow the store.
pub struct Traced {
    inner: Box<dyn Backend>,
    store: Option<Arc<DecisionStore>>,
    track: String,
    tracer: Tracer,
}

impl Traced {
    fn call<T>(&self, name: &str, f: impl FnOnce(&dyn Backend) -> T) -> T {
        let before = self.store.as_ref().map(|s| s.len());
        let out = self
            .tracer
            .span(&self.track, name, || f(self.inner.as_ref()));
        if before.is_some() && before == self.store.as_ref().map(|s| s.len()) {
            self.tracer.instant(&self.track, STORE_HIT);
        }
        out
    }
}

impl Backend for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arch(&self) -> &ArchSpec {
        self.inner.arch()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn evaluate_layer(&self, shape: &ConvShape) -> LayerEval {
        self.call("evaluate_layer", |b| b.evaluate_layer(shape))
    }

    fn evaluate_layer_for(&self, shape: &ConvShape, objective: Objective) -> LayerEval {
        self.call("evaluate_layer_for", |b| {
            b.evaluate_layer_for(shape, objective)
        })
    }

    fn supports_cluster_budget(&self) -> bool {
        self.inner.supports_cluster_budget()
    }

    fn evaluate_layer_budgeted(
        &self,
        shape: &ConvShape,
        objective: Objective,
        clusters: usize,
    ) -> LayerEval {
        self.call("evaluate_layer_budgeted", |b| {
            b.evaluate_layer_budgeted(shape, objective, clusters)
        })
    }

    fn evaluate_layer_budget_sweep(
        &self,
        shape: &ConvShape,
        objective: Objective,
        budgets: &[usize],
    ) -> Vec<LayerEval> {
        self.call("evaluate_layer_budget_sweep", |b| {
            b.evaluate_layer_budget_sweep(shape, objective, budgets)
        })
    }

    fn decision_store(&self) -> Option<Arc<DecisionStore>> {
        self.inner.decision_store()
    }

    fn pipeline_caps(&self) -> PipelineCaps {
        self.inner.pipeline_caps()
    }

    fn run_layer(&self, shape: &ConvShape) -> EnergyReport {
        self.call("run_layer", |b| b.run_layer(shape))
    }
}

/// One closed span of the buffer.
#[derive(Debug)]
pub struct Span {
    /// Track it was recorded on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Begin, ns since the traced pass began.
    pub start: u64,
    /// End, ns since the traced pass began.
    pub end: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// Pair every track's begin/end events into spans (stack discipline per
/// track), in order of their end.
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut open: HashMap<&str, Vec<&TraceEvent>> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.phase {
            Phase::Begin => open.entry(&e.track).or_default().push(e),
            Phase::End => {
                let begin = open
                    .get_mut(e.track.as_str())
                    .and_then(Vec::pop)
                    .expect("spans are closed on the track that opened them");
                out.push(Span {
                    track: e.track.clone(),
                    name: e.name.clone(),
                    start: begin.ts,
                    end: e.ts,
                });
            }
            _ => {}
        }
    }
    out
}

/// Nanoseconds of `outer` covered by at least one of `inner`.
pub fn covered(outer: &Span, inner: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = inner
        .iter()
        .map(|s| (s.start.max(outer.start), s.end.min(outer.end)))
        .filter(|(a, b)| a < b)
        .collect();
    parts.sort_unstable();
    let (mut total, mut reach) = (0, outer.start);
    for (a, b) in parts {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_core::{Morph, PipelineMode, SearchStats, Session};
    use morph_nets::Network;

    /// A small fork/join network the searched backend decides quickly.
    fn mini_inception() -> Network {
        let mut net = Network::new("mini-inception");
        net.conv("stem", ConvShape::new_2d(8, 8, 3, 16, 3, 3).with_pad(1, 0));
        let mut f = net.fork();
        f.branch().conv("b0", ConvShape::new_2d(8, 8, 16, 8, 1, 1));
        f.branch()
            .conv("b1_reduce", ConvShape::new_2d(8, 8, 16, 4, 1, 1))
            .conv("b1_3x3", ConvShape::new_2d(8, 8, 4, 8, 3, 3).with_pad(1, 0));
        f.concat("mix");
        net
    }

    fn run(tracer: &Tracer, mode: PipelineMode) -> (String, Vec<(String, SearchStats)>) {
        let morph: Box<dyn Backend> = Box::new(Morph::builder().build());
        let store = morph.decision_store().unwrap();
        let report = Session::builder()
            .backend_boxed(tracer.wrap(morph))
            .network(mini_inception())
            .threads(1)
            .pipeline(mode)
            .build()
            .run();
        let mut stats: Vec<_> = store
            .entries()
            .into_iter()
            .map(|(k, e)| (format!("{k:?}"), e.stats))
            .collect();
        stats.sort_by(|a, b| a.0.cmp(&b.0));
        (report.to_json_string(), stats)
    }

    #[test]
    fn traced_backend_changes_no_report_and_no_store_entry() {
        for mode in [
            PipelineMode::DagRebalanced,
            PipelineMode::Pareto { power_cap_mw: None },
        ] {
            let tracer = Tracer::on();
            assert_eq!(run(&tracer, mode), run(&Tracer::off(), mode));
            let spans = spans(&tracer.buffer().unwrap().events());
            assert!(spans
                .iter()
                .any(|s| s.name == "evaluate_layer_budget_sweep"));
            assert!(spans.iter().all(|s| s.track == "optimizer:Morph"));
        }
    }

    fn span(start: u64, end: u64) -> Span {
        Span {
            track: "t".into(),
            name: "s".into(),
            start,
            end,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_outer_span() {
        let outer = span(10, 100);
        let a = span(0, 20);
        let b = span(15, 30);
        let c = span(50, 60);
        let d = span(90, 200);
        assert_eq!(covered(&outer, &[&c, &a, &d, &b]), 20 + 10 + 10);
        assert_eq!(covered(&outer, &[]), 0);
    }

    #[test]
    fn spans_pair_nested_begins_and_ends_per_track() {
        let t = Tracer::on();
        t.span("a", "outer", || {
            t.span("b", "x", || ());
            t.span("a", "inner", || ());
        });
        let got = spans(&t.buffer().unwrap().events());
        let names: Vec<_> = got.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["x", "inner", "outer"]);
        assert!(got[2].start <= got[1].start && got[1].end <= got[2].end);
    }
}
