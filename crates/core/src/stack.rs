//! One query's access stack, built in one place.
//!
//! Every executor runs a query through the same tower: a fault layer
//! ([`AdversarialOsn::with_resilience`]) over the shared backend, one
//! [`SliceSession`] over that — the run's private access cache, armed with
//! the query's hard budget and, for a deadline slice, a tick ceiling — and
//! the estimator on that session. The batch executor
//! ([`crate::workload::run_workload`]) runs the stack once per query; the
//! serving layer's deadline scheduler runs it once per replicate slice.
//! Both go through [`QueryStack::run`], so the tower and the way its
//! counters are read exist once.
//!
//! The session's cache keeps the guards the shared backend returned (a
//! borrow of an in-RAM graph's CSR or of a churned graph's current list
//! through its `ChurnView`, a paged or bare churned backend's own `Arc`),
//! so a miss copies no adjacency and a hit is one hash probe. It
//! bills exactly what an unbounded [`labelcount_osn::CachedOsn`] session
//! over the same fault layer bills
//! (`crates/core/tests/proptest_slice_session.rs`).
//!
//! The stack is private to the run: per-query budgets, retry charges, and
//! fault patterns never leak between queries, and a run's outcome is a
//! pure function of the backend's bytes and the [`Slice`] coordinates.

use labelcount_osn::{
    AdversarialOsn, FaultConfig, OsnApi, OsnBackend, ResilienceConfig, RetryPolicy, SliceSession,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::algorithm::RunConfig;
use crate::request::{QueryOutcome, QuerySpec};

/// The knobs every query's access stack is built from — shared by every
/// query of a workload.
#[derive(Clone, Copy, Debug)]
pub struct QueryStack {
    /// Run parameters (burn-in, thinning) handed to the estimator.
    pub run_config: RunConfig,
    /// Fault model of the stack's fault layer. Its seed is replaced by
    /// each run's [`Slice::fault_seed`], so runs fault independently.
    pub faults: FaultConfig,
    /// Retry policy of the fault layer.
    pub retry: RetryPolicy,
    /// Reactive resilience knobs of the fault layer; `serve_stale` also
    /// lets the stack's session answer from stale entries while an
    /// endpoint is degraded.
    pub resilience: ResilienceConfig,
}

/// Where one run of a query's stack sits: its seeds and its place on the
/// virtual clock. The default is an unscheduled run at tick 0 with no
/// tick ceiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Seed of the run's fault pattern.
    pub fault_seed: u64,
    /// Seed of the estimator's RNG.
    pub rng_seed: u64,
    /// Virtual tick the run starts at: the fault layer's burst process and
    /// circuit breaker read the caller's clock, not the run's private
    /// tick 0.
    pub start_tick: u64,
    /// Latency ticks the run may bill before the estimator's next budget
    /// poll stops it (`None` = uncapped).
    pub tick_ceiling: Option<u64>,
}

/// What one run of a query's stack produced.
#[derive(Clone, Debug)]
pub struct SliceOutcome {
    /// The run in the report's terms. `latency_ticks` is what the run's
    /// session billed, `budget_exhausted` whether its charged-call budget
    /// ran out.
    pub outcome: QueryOutcome,
    /// Whether the tick ceiling was reached — a deadline cut, as opposed
    /// to an exhausted call budget.
    pub ticks_exceeded: bool,
}

impl QueryStack {
    /// Builds `query`'s stack over `shared` for the run at `slice` without
    /// running it: the fault layer seeded and clocked for the slice, under
    /// a fresh [`SliceSession`] armed with the query's hard budget and the
    /// slice's tick ceiling. [`QueryStack::run`] runs the estimator on
    /// exactly this session.
    pub fn session<'s, B: OsnBackend>(
        &self,
        shared: &'s B,
        query: &QuerySpec,
        slice: Slice,
    ) -> SliceSession<'s, B> {
        let faults = FaultConfig {
            seed: slice.fault_seed,
            ..self.faults
        };
        let faults = AdversarialOsn::with_resilience(shared, faults, self.retry, self.resilience);
        faults.set_clock_base(slice.start_tick);
        // Size the maps from the calls the slice can make, the budget plus
        // burn-in within |V|, so that a map seldom grows: a sampled walk
        // step costs a neighbor call and at least one profile call, and
        // exploring a hub can overshoot the budget by the hub's degree in
        // profile calls.
        let num_nodes = shared.num_nodes();
        let reach = query
            .budget
            .saturating_add(self.run_config.burn_in)
            .min(num_nodes);
        let labels = reach.saturating_mul(2).min(num_nodes);
        let session = SliceSession::with_capacity(faults, reach / 2, labels);
        if let Some(b) = query.hard_budget {
            session.set_budget(b);
        }
        if let Some(t) = slice.tick_ceiling {
            session.set_tick_ceiling(t);
        }
        session
    }

    /// Builds `query`'s stack over `shared`, runs the estimator once, and
    /// reads the run's accounting back out of the session and the fault
    /// layer.
    pub fn run<B: OsnBackend>(&self, shared: &B, query: &QuerySpec, slice: Slice) -> SliceOutcome {
        let session = self.session(shared, query, slice);
        let mut rng = StdRng::seed_from_u64(slice.rng_seed);
        let estimate = query.algorithm.estimate(
            &session,
            query.target,
            query.budget,
            &self.run_config,
            &mut rng,
        );
        let ticks_exceeded = session.ticks_exceeded();
        let budget_exhausted = session.budget_remaining() == Some(0);
        let logical_calls = session.api_calls();
        let retry_charges = session.retry_charges();
        let latency_ticks = session.latency_ticks();
        let stale_served = session.stale_served();
        let faults = session.backend().fault_stats();
        SliceOutcome {
            outcome: QueryOutcome {
                id: query.id,
                abbrev: query.algorithm.abbrev(),
                estimate,
                logical_calls,
                retry_charges,
                backend_attempts: faults.attempts,
                rate_limited: faults.rate_limited,
                transient_errors: faults.transient_errors,
                latency_ticks,
                budget_exhausted,
                bursts: faults.bursts,
                breaker_opens: faults.breaker_opens,
                stale_served,
            },
            ticks_exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::algorithms;
    use crate::request::Schedule;
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use labelcount_graph::{LabeledGraph, TargetLabel};
    use labelcount_osn::GraphOsn;

    fn fixture() -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(200, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    fn query(hard_budget: Option<u64>) -> QuerySpec {
        QuerySpec {
            id: 5,
            algorithm: algorithms::all_paper(0.2, 0.5).remove(2),
            target: TargetLabel::new(1.into(), 2.into()),
            budget: 80,
            hard_budget,
            seed: 17,
            schedule: Schedule::default(),
        }
    }

    fn stack(faults: FaultConfig) -> QueryStack {
        QueryStack {
            run_config: RunConfig {
                burn_in: 20,
                thinning_frac: 0.0,
            },
            faults,
            retry: RetryPolicy::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    #[test]
    fn budget_and_tick_ceiling_are_told_apart() {
        let g = fixture();
        let osn = GraphOsn::new(&g);
        let latency = FaultConfig {
            base_latency_ticks: 1,
            ..FaultConfig::clean(6)
        };
        let calls = stack(latency).run(&osn, &query(Some(15)), Slice::default());
        assert!(calls.outcome.estimate.is_err());
        assert!(calls.outcome.budget_exhausted && !calls.ticks_exceeded);
        let ticks = stack(latency).run(
            &osn,
            &query(None),
            Slice {
                tick_ceiling: Some(15),
                ..Slice::default()
            },
        );
        assert!(ticks.outcome.estimate.is_err());
        assert!(ticks.ticks_exceeded && !ticks.outcome.budget_exhausted);
        assert!(ticks.outcome.latency_ticks >= 15);
    }
}
