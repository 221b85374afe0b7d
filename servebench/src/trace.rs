//! Timing decorators for traced runs. They implement the library's public
//! traits around the layers the benchmark can reach from outside:
//! [`TimedBackend`] under a cache or fault stack ([`OsnBackend`]),
//! [`TimedApi`] around the session an estimator queries ([`OsnApi`]).
//!
//! Spans are aggregated in memory per layer (count and total
//! nanoseconds) and read once the run ends. A layer's self time is its
//! span total minus the span total of the layer below it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use labelcount_graph::{Epoch, LabelId, NodeId};
use labelcount_osn::{EndpointKind, FetchCost, OsnApi, OsnBackend, SliceRef};

/// Count and total duration of the spans recorded at one boundary.
#[derive(Default)]
pub struct Spans {
    count: AtomicU64,
    ns: AtomicU64,
}

impl Spans {
    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Times every fetch into the wrapped backend.
pub struct TimedBackend<'s, B> {
    inner: B,
    spans: &'s Spans,
}

impl<'s, B> TimedBackend<'s, B> {
    pub fn new(inner: B, spans: &'s Spans) -> Self {
        TimedBackend { inner, spans }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: OsnBackend> OsnBackend for TimedBackend<'_, B> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        self.inner.max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        let t = Instant::now();
        let r = self.inner.fetch_neighbors(u);
        self.spans.record(t);
        r
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        let t = Instant::now();
        let r = self.inner.fetch_labels(u);
        self.spans.record(t);
        r
    }

    fn fetch_neighbors_attempts(&self, u: NodeId) -> (SliceRef<'_, NodeId>, u64) {
        let t = Instant::now();
        let r = self.inner.fetch_neighbors_attempts(u);
        self.spans.record(t);
        r
    }

    fn fetch_labels_attempts(&self, u: NodeId) -> (SliceRef<'_, LabelId>, u64) {
        let t = Instant::now();
        let r = self.inner.fetch_labels_attempts(u);
        self.spans.record(t);
        r
    }

    fn fetch_neighbors_cost(&self, u: NodeId) -> (SliceRef<'_, NodeId>, FetchCost) {
        let t = Instant::now();
        let r = self.inner.fetch_neighbors_cost(u);
        self.spans.record(t);
        r
    }

    fn fetch_labels_cost(&self, u: NodeId) -> (SliceRef<'_, LabelId>, FetchCost) {
        let t = Instant::now();
        let r = self.inner.fetch_labels_cost(u);
        self.spans.record(t);
        r
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        self.inner.epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.inner.label_epoch_of(u)
    }

    fn endpoint_degraded(&self, kind: EndpointKind) -> bool {
        self.inner.endpoint_degraded(kind)
    }
}

/// Times every logical call an estimator makes through the wrapped
/// session.
pub struct TimedApi<'a, A: ?Sized> {
    inner: &'a A,
    spans: &'a Spans,
}

impl<'a, A: OsnApi + ?Sized> TimedApi<'a, A> {
    pub fn new(inner: &'a A, spans: &'a Spans) -> Self {
        TimedApi { inner, spans }
    }
}

impl<A: OsnApi + ?Sized> OsnApi for TimedApi<'_, A> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        let t = Instant::now();
        let r = self.inner.neighbors(u);
        self.spans.record(t);
        r
    }

    fn labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        let t = Instant::now();
        let r = self.inner.labels(u);
        self.spans.record(t);
        r
    }

    fn max_degree_bound(&self) -> usize {
        self.inner.max_degree_bound()
    }

    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }

    fn budget_exhausted(&self) -> bool {
        self.inner.budget_exhausted()
    }
}

/// Nanoseconds one span adds to its parent outside its own measured
/// interval (the clock reads and the accounting around them). A parent's
/// self time is its span minus its children's spans minus this much per
/// child.
pub fn span_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let spans = Spans::default();
    let t = Instant::now();
    for _ in 0..N {
        spans.record(Instant::now());
    }
    let total = t.elapsed().as_nanos() as f64;
    ((total - spans.ns() as f64) / f64::from(N)).max(0.0)
}
