//! The unified request/outcome surface shared by the single-graph
//! workload runner and the multi-graph serving layer.
//!
//! Before this module, [`QuerySpec`]/`ServiceRequest` and
//! `WorkloadReport`/`ServiceReport` duplicated most of their fields with
//! no shared types: a service request re-declared the algorithm, target,
//! budget, and seed instead of embedding the query, and the serving layer
//! re-wrapped [`QueryOutcome`] rather than reusing it. Every new
//! scheduling knob would have had to land twice. This module is the one
//! surface both layers build on:
//!
//! * [`QuerySpec`] — one estimation query: the estimator, its target and
//!   budgets, its RNG seed, and (new) its [`Schedule`] — when it arrives
//!   on the virtual clock, how long it may run, and at what [`Priority`];
//! * [`QueryOutcome`] — what one executed query produced, embedded as-is
//!   by both `WorkloadReport` and `ServiceStatus::Completed`;
//! * the serving layer's `ServiceRequest` *embeds* a [`QuerySpec`] and
//!   adds only the routing coordinates (tenant, graph), with `From` impls
//!   both ways.
//!
//! # Virtual time
//!
//! All scheduling fields are quoted in **latency ticks** — the simulated
//! time unit `labelcount_osn::AdversarialOsn` bills per fetch attempt.
//! A [`Schedule`] never references wall-clock time, so scheduled runs stay
//! bit-identical across machines, shard counts, and worker counts.

use labelcount_graph::TargetLabel;

use crate::algorithm::Algorithm;
use crate::error::EstimateError;

/// Scheduling priority of a query. The deadline scheduler runs strictly
/// higher-priority runnable work first (FIFO within a class); priorities
/// never affect *what* a query answers, only *when* it runs — and
/// therefore how much virtual time it has left before its deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Scheduled before normal and low work.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Runs only when no higher class is runnable.
    Low,
}

impl Priority {
    /// Scheduling rank: lower runs first.
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// When a query arrives on the virtual clock and how long it may run.
///
/// The default schedule ([`Schedule::immediate`]) arrives at tick 0 with
/// no deadline at normal priority — exactly the pre-scheduler behavior,
/// so unscheduled workloads are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Virtual tick at which the query arrives (it cannot run earlier).
    pub arrival_tick: u64,
    /// Relative deadline: the query must finish within this many ticks of
    /// its arrival or be cancelled into an anytime answer. `None` = no
    /// deadline. `Some(0)` is cancelled the moment it arrives — the
    /// degenerate "answer from whatever you already know" request.
    pub deadline_ticks: Option<u64>,
    /// Scheduling class.
    pub priority: Priority,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::immediate()
    }
}

impl Schedule {
    /// Arrives at tick 0, no deadline, normal priority.
    pub fn immediate() -> Schedule {
        Schedule {
            arrival_tick: 0,
            deadline_ticks: None,
            priority: Priority::Normal,
        }
    }

    /// Arrives at `arrival_tick`, no deadline, normal priority.
    pub fn at(arrival_tick: u64) -> Schedule {
        Schedule {
            arrival_tick,
            ..Schedule::immediate()
        }
    }

    /// Sets the relative deadline.
    #[must_use = "returns the modified schedule"]
    pub fn with_deadline(mut self, deadline_ticks: u64) -> Schedule {
        self.deadline_ticks = Some(deadline_ticks);
        self
    }

    /// The absolute tick the deadline fires at, if any
    /// (`arrival + deadline`, saturating).
    pub fn deadline_tick(&self) -> Option<u64> {
        self.deadline_ticks
            .map(|d| self.arrival_tick.saturating_add(d))
    }
}

/// One estimation query: the estimator plus everything needed to run and
/// bill it. The single-graph workload runner consumes it directly; the
/// serving layer embeds it in a `ServiceRequest` next to the routing
/// coordinates.
pub struct QuerySpec {
    /// Stable query id; results are reported in id order.
    pub id: u64,
    /// The estimator to run.
    pub algorithm: Box<dyn Algorithm>,
    /// The target edge label.
    pub target: TargetLabel,
    /// Sample-size budget (API calls the estimator aims to spend).
    pub budget: usize,
    /// Hard per-query budget on charged neighbor-list calls (logical calls
    /// plus retry charges). `None` = unbudgeted.
    pub hard_budget: Option<u64>,
    /// RNG seed of this query's estimator.
    pub seed: u64,
    /// When the query arrives on the virtual clock, its deadline, and its
    /// priority. [`Schedule::immediate`] for unscheduled execution.
    pub schedule: Schedule,
}

/// What one executed query produced — the outcome core shared by
/// `WorkloadReport` (directly) and `ServiceReport`
/// (inside `ServiceStatus::Completed`).
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The query's id.
    pub id: u64,
    /// Algorithm abbreviation (Table 2).
    pub abbrev: &'static str,
    /// The estimate, or why it could not be produced (a hard budget
    /// exhausted by a hostile API is an expected outcome, not a bug).
    pub estimate: Result<f64, EstimateError>,
    /// Logical API calls the query issued (the clean-world cost).
    pub logical_calls: u64,
    /// Extra billable attempts its misses cost (retries + extra pages) —
    /// what the hostile API added on top.
    pub retry_charges: u64,
    /// Realized backend attempts (first attempts + pages + retries).
    pub backend_attempts: u64,
    /// Rate-limit rejections the query's fetches absorbed.
    pub rate_limited: u64,
    /// Transient errors the query's fetches absorbed.
    pub transient_errors: u64,
    /// Total simulated latency ticks (attempt latencies + backoff +
    /// retry-after waits).
    pub latency_ticks: u64,
    /// Whether the hard budget ran out.
    pub budget_exhausted: bool,
    /// Outage-burst windows the query's fetches ran into.
    pub bursts: u64,
    /// Circuit-breaker trips (closed → open) on the query's stack.
    pub breaker_opens: u64,
    /// Stale cache entries served to the query during degraded windows.
    pub stale_served: u64,
}

impl QueryOutcome {
    /// Total charged API calls: logical + retry charges.
    pub fn charged_calls(&self) -> u64 {
        self.logical_calls + self.retry_charges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_the_unscheduled_behavior() {
        let s = Schedule::default();
        assert_eq!(s.arrival_tick, 0);
        assert_eq!(s.deadline_ticks, None);
        assert_eq!(s.priority, Priority::Normal);
        assert_eq!(s.deadline_tick(), None);
    }

    #[test]
    fn deadline_tick_is_absolute_and_saturating() {
        let s = Schedule::at(100).with_deadline(40);
        assert_eq!(s.deadline_tick(), Some(140));
        let zero = Schedule::at(7).with_deadline(0);
        assert_eq!(zero.deadline_tick(), Some(7), "deadline 0 fires at arrival");
        let huge = Schedule::at(u64::MAX).with_deadline(u64::MAX);
        assert_eq!(huge.deadline_tick(), Some(u64::MAX));
    }

    #[test]
    fn priority_ranks_order_high_first() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.name(), "high");
    }
}
