//! Pricing the scheduled workloads' layers: the replay against the
//! report, the probes' unit costs, and the ladder built from both.

use labelcount_osn::{ChurnOsn, OsnBackend};
use labelcount_serve::{GraphKey, ServiceReport, ServiceStatus, ServiceWorkload};

use crate::ladder::{Rung, Settled};
use crate::output::Metrics;
use crate::probes::Arrival;
use crate::replay::{self, Counts, Knobs, ReplaySpans};
use crate::trace::Spans;

/// How many replayed queries reproduced the report, and what the replay
/// counted.
pub struct Mirror {
    pub checked: usize,
    pub matched: usize,
    pub counts: Counts,
}

impl Mirror {
    pub fn exact(&self) -> bool {
        self.matched == self.checked
    }

    pub fn match_ratio(&self) -> f64 {
        self.matched as f64 / self.checked.max(1) as f64
    }
}

/// Replays up to `limit` completed queries of `report`, in id order,
/// through the slice stack over `backend`, and compares each one's
/// logical calls and estimate bits with the report. For a churned graph,
/// `churn` is advanced to each query's arrival tick first.
#[allow(clippy::too_many_arguments)] // the workload's coordinates
pub fn mirror<B: OsnBackend>(
    backend: &B,
    churn: Option<&ChurnOsn>,
    workload: &ServiceWorkload,
    report: &ServiceReport,
    knobs: &Knobs,
    limit: usize,
    spans: Option<&ReplaySpans>,
) -> Mirror {
    let mut m = Mirror {
        checked: 0,
        matched: 0,
        counts: Counts::default(),
    };
    for (req, outcome) in workload.requests.iter().zip(&report.outcomes) {
        if m.checked == limit {
            break;
        }
        let ServiceStatus::Completed(q) = &outcome.status else {
            continue;
        };
        let arrival = req.query.schedule.arrival_tick;
        if let Some(c) = churn {
            c.advance_to(arrival);
        }
        let r = replay::replay_query(
            backend,
            &req.query,
            req.query.hard_budget,
            arrival,
            knobs,
            replay::fault_base(workload.seed, req.graph),
            spans,
            &mut m.counts,
        );
        m.checked += 1;
        let same_estimate =
            r.estimate.map(f64::to_bits) == q.estimate.as_ref().ok().map(|e| e.to_bits());
        if r.logical_calls == q.logical_calls && same_estimate {
            m.matched += 1;
        }
    }
    m
}

/// The arrivals of `workload` as admission sees them, in the scheduler's
/// `(arrival tick, id)` order.
pub fn arrivals(workload: &ServiceWorkload, keys: &[GraphKey]) -> Vec<Arrival> {
    workload
        .scheduled_arrival_order()
        .into_iter()
        .map(|i| {
            let r = &workload.requests[i];
            Arrival {
                id: r.id(),
                tenant: r.tenant,
                queue: keys.iter().position(|k| *k == r.graph).unwrap_or(0),
                hard_budget: r.query.hard_budget,
                tick: r.query.schedule.arrival_tick,
            }
        })
        .collect()
}

/// Unit costs from the probes, in nanoseconds.
pub struct UnitCosts {
    pub l1_hit: f64,
    pub l2_hit: f64,
    pub l2_miss: f64,
    pub fault_fetch: f64,
    pub ram_fetch: f64,
    pub decide: f64,
    pub slice_stack: f64,
    /// What one span costs outside its own interval.
    pub span_overhead: f64,
}

/// Self time per logical call of everything above the session (the
/// estimator and its walk): the `estimate` spans minus the spans of the
/// logical calls inside them and the tracer's own overhead per span.
pub fn estimator_self_ns(counts: &Counts, spans: &ReplaySpans, span_overhead_ns: f64) -> f64 {
    self_ns_per_call(counts.estimate_ns, &spans.api, span_overhead_ns)
}

/// Self time per child span of a parent whose spans total `parent_ns`.
pub fn self_ns_per_call(parent_ns: u64, children: &Spans, span_overhead_ns: f64) -> f64 {
    let calls = children.count().max(1) as f64;
    let self_ns = parent_ns as f64 - children.ns() as f64 - calls * span_overhead_ns;
    (self_ns / calls).max(0.0)
}

/// The rungs every scheduled workload has: admission decisions, slice
/// stack construction, estimator self time, L1 hits, L2 hits, L2 misses
/// into the in-RAM backend, and the fault layer's extra cost per miss.
/// `counts` are the service's (scaled replay counts where the replay is
/// a sample).
pub fn rungs(
    c: &UnitCosts,
    counts: &Counts,
    self_ns: f64,
    decisions: u64,
    slices: u64,
) -> Vec<Rung> {
    let l2_lookups = counts.logical - counts.l1_hits;
    vec![
        Rung::new("admission", decisions as f64, c.decide),
        Rung::new("slice_stack", slices as f64, c.slice_stack),
        Rung::new("estimator_self", counts.logical as f64, self_ns),
        Rung::new("l1_hit", counts.l1_hits as f64, c.l1_hit),
        Rung::new(
            "l2_hit",
            l2_lookups.saturating_sub(counts.misses) as f64,
            c.l2_hit,
        ),
        Rung::new("l2_miss", counts.misses as f64, c.l2_miss),
        Rung::new(
            "fault_layer",
            counts.misses as f64,
            c.fault_fetch - c.ram_fetch,
        ),
    ]
}

/// Publishes the replay-derived layer metrics and the settled ladder.
/// `attempts` is the fault layer's backend attempts for the same work.
pub fn put_layers(
    m: &mut Metrics,
    c: &UnitCosts,
    counts: &Counts,
    self_ns: f64,
    attempts: u64,
    settled: &Settled,
) {
    let l2_lookups = counts.logical - counts.l1_hits;
    m.put("admission.decide_ns", c.decide);
    m.put("scheduler.slice_stack_ns", c.slice_stack);
    m.put("scheduler.residual_ms", settled.residual_ms);
    m.put("estimator.self_ns_per_call", self_ns);
    m.put("l1.hits", counts.l1_hits as f64);
    m.put(
        "l1.hit_ratio",
        counts.l1_hits as f64 / counts.logical.max(1) as f64,
    );
    m.put("l1.stale_evictions", counts.l1_stale as f64);
    m.put("l1.hit_ns", c.l1_hit);
    m.put("l2.lookups", l2_lookups as f64);
    m.put("l2.misses", counts.misses as f64);
    m.put(
        "l2.hit_ratio",
        l2_lookups.saturating_sub(counts.misses) as f64 / l2_lookups.max(1) as f64,
    );
    m.put("l2.stale_evictions", counts.l2_stale as f64);
    m.put("l2.hit_ns", c.l2_hit);
    m.put("l2.miss_ns", c.l2_miss);
    m.put(
        "faults.attempts_per_miss",
        attempts as f64 / counts.misses.max(1) as f64,
    );
    m.put("faults.fetch_ns", c.fault_fetch);
    m.put("backend.ram_fetch_ns", c.ram_fetch);
    m.put("ladder.explained_ratio", settled.explained_ratio);
}
