//! The service's one executor, [`ShardedService::run_scheduled`]: a
//! deterministic discrete-event loop over **virtual latency ticks**, with
//! cancellation, priorities, and anytime answers.
//!
//! * every request carries a [`Schedule`] — an `arrival_tick`, an optional
//!   relative deadline, and a [`Priority`] — stamped by a seeded
//!   [`SchedulePolicy`] through the workload builder; a workload with no
//!   policy stamped runs as [`SchedulePolicy::batch`] (every request at
//!   tick 0, no deadline, one slice per admitted query);
//! * each registered graph runs a **serial discrete-event loop**: a
//!   virtual clock advances by exactly the latency ticks the adversarial
//!   backend bills each execution slice ([`labelcount_osn::FetchCost`]),
//!   never by wall time;
//! * an admitted query executes as [`SchedulePolicy::replicates`]
//!   replicate slices, each one run of the query's [`QueryStack`]; before
//!   each slice the scheduler sets the session's **tick ceiling** to
//!   `deadline − clock`, so the estimator's existing step-boundary budget
//!   poll doubles as the cancellation yield point — no estimator changes,
//!   no preemption;
//! * when a deadline passes, the query is cancelled into an **anytime
//!   answer** ([`ServiceStatus::DeadlineAnytime`]): the running mean ± a
//!   95% CI over the replicates that finished, falling back to the mean of
//!   the answers the graph completed before the deadline when none did.
//!
//! # Cost per event
//!
//! A graph loop sorts its tasks once by `(arrival_tick, id)` and once by
//! `(deadline_tick, id)`, O(n log n) for n admitted tasks. After that every
//! event costs O(1) amortized: an arrival is one cursor step and one push
//! onto its class's FIFO ready queue, a deadline is one cursor step, a pick
//! is the front of the best non-empty queue (finished tasks are dropped
//! from the front lazily, each once), and a slice's priority inversions
//! are counted as the arrival cursor passes the tasks that landed during
//! it. No event scans the task list.
//!
//! A churned graph's loop applies the batches due at the top of each
//! iteration and runs the slice on one [`ChurnView`] opened after that and
//! dropped before the next: a slice takes one read lock in all, and its
//! session keeps borrows of the current lists, so no logical call or miss
//! takes a lock or touches a refcount.
//!
//! # Determinism
//!
//! The event order inside a graph loop is a pure function of `(workload
//! seed, the tasks, their tick costs)`; tick costs are pure hashes
//! ([`labelcount_osn::AdversarialOsn`]); graph loops share no state and
//! derive their seeds from the graph key alone. The [`ServiceReport`] —
//! statuses, anytime answers, and [`SchedulingCounters`] — is therefore
//! **bit-identical at any shard count and any worker count**; shards and
//! workers only decide how many OS threads run the graphs' loops.
//!
//! The graph loops of a call run on one [`replicate`](fn@replicate) pool
//! whose size is the sum over shards of `min(workers, the shard's
//! loops)`. The calling thread is one of its workers, and a worker that
//! finishes a loop takes the next waiting one of any shard. So a call
//! whose admitted tasks sit on one graph spawns no thread, and a
//! two-shard call at one worker spawns one.

use std::collections::VecDeque;

use labelcount_core::{
    EstimateError, Priority, QueryOutcome, QuerySpec, QueryStack, Schedule, Slice, SliceOutcome,
};
use labelcount_osn::{ChurnOsn, ChurnView, GraphOsn, OsnBackend, PagedGraphOsn};
use labelcount_stats::{replicate, replication_seed, RunningStats};

use crate::admission::{unit_hash, AdmissionDecision, AdmissionState};
use crate::router::{GraphKey, TenantId};
use crate::service::{
    AnyEngine, ServiceOutcome, ServiceReport, ServiceRequest, ServiceStatus, ServiceWorkload,
    ServingCounters, ShardedService,
};

/// Stream ids for the scheduler's internal seed derivations.
mod stream {
    pub const GRAPH_FAULT: u64 = 0x5c1d_0001;
    pub const ARRIVAL_GAP: u64 = 0x5c1d_0002;
    pub const PRIORITY: u64 = 0x5c1d_0003;
}

/// A seeded policy that stamps a [`Schedule`] onto every request of a
/// [`ServiceWorkload`] and configures the scheduled run.
///
/// The default policy is the degenerate schedule: everything arrives at
/// tick 0, no deadlines, all-normal priority, four replicates per query.
/// A workload with no policy stamped runs as [`SchedulePolicy::batch`].
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulePolicy {
    /// Mean virtual-tick gap between consecutive arrivals (in id order).
    /// `0` makes every request arrive at tick 0; a positive mean draws
    /// each gap uniformly from `[1, 2·mean − 1]` under a seeded hash.
    /// At most `u64::MAX / 2`; arrival ticks saturate at `u64::MAX`.
    pub mean_interarrival_ticks: u64,
    /// Relative deadline stamped on every request (`None` = no
    /// deadlines). `Some(0)` is the degenerate ask-only-what-you-know
    /// request: cancelled into an anytime answer the moment it arrives.
    pub deadline_ticks: Option<u64>,
    /// Fraction of requests stamped [`Priority::High`].
    pub high_frac: f64,
    /// Fraction of requests stamped [`Priority::Low`].
    pub low_frac: f64,
    /// Replicate slices an admitted query executes; its completed
    /// estimate is the mean over them, and a cancelled query's anytime
    /// answer is the running mean over those that finished.
    pub replicates: usize,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            mean_interarrival_ticks: 0,
            deadline_ticks: None,
            high_frac: 0.0,
            low_frac: 0.0,
            replicates: 4,
        }
    }
}

impl SchedulePolicy {
    /// The plain batch run of an unstamped workload: every request at
    /// tick 0, no deadlines, one slice per admitted query — each query's
    /// stack runs exactly once, within the budget admission reserved.
    pub fn batch() -> SchedulePolicy {
        SchedulePolicy::default().with_replicates(1)
    }

    /// Sets the mean interarrival gap.
    #[must_use = "returns the modified policy"]
    pub fn with_interarrival(mut self, mean_ticks: u64) -> SchedulePolicy {
        self.mean_interarrival_ticks = mean_ticks;
        self
    }

    /// Stamps this relative deadline on every request.
    #[must_use = "returns the modified policy"]
    pub fn with_deadline(mut self, deadline_ticks: u64) -> SchedulePolicy {
        self.deadline_ticks = Some(deadline_ticks);
        self
    }

    /// Sets the priority mix: a seeded `high_frac` of requests run High,
    /// `low_frac` run Low, the rest Normal.
    #[must_use = "returns the modified policy"]
    pub fn with_priorities(mut self, high_frac: f64, low_frac: f64) -> SchedulePolicy {
        self.high_frac = high_frac;
        self.low_frac = low_frac;
        self
    }

    /// Sets the replicate-slice count per admitted query.
    #[must_use = "returns the modified policy"]
    pub fn with_replicates(mut self, replicates: usize) -> SchedulePolicy {
        self.replicates = replicates;
        self
    }

    fn validate(&self) {
        assert!(self.replicates >= 1, "replicates must be >= 1");
        assert!(
            self.mean_interarrival_ticks <= u64::MAX / 2,
            "mean interarrival gap must be at most u64::MAX / 2"
        );
        assert!(
            (0.0..=1.0).contains(&self.high_frac)
                && (0.0..=1.0).contains(&self.low_frac)
                && self.high_frac + self.low_frac <= 1.0,
            "priority fractions must be in [0, 1] and sum to at most 1"
        );
    }

    /// Stamps every request's [`Schedule`] deterministically under the
    /// workload seed: arrival ticks accumulate seeded interarrival gaps in
    /// id order, priorities are a seeded per-request draw, and the
    /// deadline is uniform. Invoked by
    /// [`crate::ServiceWorkloadBuilder::schedule`].
    pub fn stamp(&self, workload: &mut ServiceWorkload) {
        self.validate();
        let gap_seed = replication_seed(workload.seed, stream::ARRIVAL_GAP);
        let prio_seed = replication_seed(workload.seed, stream::PRIORITY);
        let mut clock = 0u64;
        for req in &mut workload.requests {
            let id = req.query.id;
            if self.mean_interarrival_ticks > 0 {
                let span = 2 * self.mean_interarrival_ticks - 1;
                clock = clock.saturating_add(1 + (unit_hash(gap_seed, id) * span as f64) as u64);
            }
            let u = unit_hash(prio_seed, id);
            let priority = if u < self.high_frac {
                Priority::High
            } else if u >= 1.0 - self.low_frac {
                Priority::Low
            } else {
                Priority::Normal
            };
            req.query.schedule = Schedule {
                arrival_tick: clock,
                deadline_ticks: self.deadline_ticks,
                priority,
            };
        }
    }
}

/// Deterministic counters of one scheduled run, merged over every graph's
/// event loop in registration order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulingCounters {
    /// Deadline-carrying queries that completed at or before their
    /// deadline.
    pub deadline_hits: u64,
    /// Queries cancelled into anytime answers when their deadline passed.
    pub cancellations: u64,
    /// Mean slack (deadline tick − completion tick) over the deadline
    /// hits; 0 when nothing hit.
    pub mean_slack_ticks: f64,
    /// Priority inversions: arrivals of higher-priority work that landed
    /// while a lower-priority slice held a graph's loop (non-preemptive
    /// scheduling makes them wait out the slice).
    pub priority_inversions: u64,
}

/// Per-loop counter accumulator (slack kept as a sum until the final
/// merge; wide enough for any number of `u64::MAX` slacks).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct LoopCounters {
    deadline_hits: u64,
    cancellations: u64,
    slack_sum: u128,
    priority_inversions: u64,
}

impl LoopCounters {
    fn absorb(&mut self, other: &LoopCounters) {
        self.deadline_hits += other.deadline_hits;
        self.cancellations += other.cancellations;
        self.slack_sum += other.slack_sum;
        self.priority_inversions += other.priority_inversions;
    }

    fn finish(self) -> SchedulingCounters {
        SchedulingCounters {
            deadline_hits: self.deadline_hits,
            cancellations: self.cancellations,
            mean_slack_ticks: if self.deadline_hits == 0 {
                0.0
            } else {
                self.slack_sum as f64 / self.deadline_hits as f64
            },
            priority_inversions: self.priority_inversions,
        }
    }
}

/// What one graph's event loop decided for one admitted query. The
/// outcome is boxed, as is a running task's total: a loop keeps every
/// admitted task's state until it ends, many tasks of a deep queue are
/// cancelled before their first slice and never fill either, and inline
/// outcomes would nearly double the size of every task state.
enum TaskStatus {
    Done(Box<QueryOutcome>),
    Cancelled {
        completed_replicates: u64,
        anytime: Option<f64>,
        ci_halfwidth: f64,
        cancelled_at_tick: u64,
    },
}

/// The result of one graph's event loop.
struct GraphLoopResult {
    /// `(query id, status)`, in query-id order.
    results: Vec<(u64, TaskStatus)>,
    /// Summary over completed finite estimates, accumulated in id order —
    /// the graph-level anytime answer for shed / quota-rejected requests.
    summary: RunningStats,
    counters: LoopCounters,
}

impl GraphLoopResult {
    /// Assembles a finished loop's tasks in id order, with the
    /// deterministic graph summary over completed finite estimates that
    /// shed requests get as their anytime answer.
    fn collect(tasks: Vec<TaskState>, counters: LoopCounters) -> GraphLoopResult {
        let mut results: Vec<(u64, TaskStatus)> = tasks
            .into_iter()
            .map(|t| {
                let id = t.spec.id;
                (id, t.finished.expect("event loop finished every task"))
            })
            .collect();
        results.sort_by_key(|(id, _)| *id);
        let mut summary = RunningStats::new();
        for (_, st) in &results {
            if let TaskStatus::Done(q) = st {
                if let Ok(e) = q.estimate {
                    if e.is_finite() {
                        summary.push(e);
                    }
                }
            }
        }
        GraphLoopResult {
            results,
            summary,
            counters,
        }
    }

    fn status_of(&self, id: u64) -> &TaskStatus {
        let i = self
            .results
            .binary_search_by_key(&id, |(rid, _)| *rid)
            .expect("admitted query has a scheduled outcome");
        &self.results[i].1
    }
}

/// Live execution state of one admitted query inside a graph loop.
struct TaskState<'a> {
    spec: &'a QuerySpec,
    next_rep: u64,
    stats: RunningStats,
    last_err: Option<EstimateError>,
    budget_exhausted: bool,
    /// The slices run so far, summed: costs add up, `estimate` is the
    /// latest slice's. `None` before the first slice.
    spent: Option<Box<QueryOutcome>>,
    finished: Option<TaskStatus>,
}

impl<'a> TaskState<'a> {
    fn new(spec: &'a QuerySpec) -> TaskState<'a> {
        TaskState {
            spec,
            next_rep: 0,
            stats: RunningStats::new(),
            last_err: None,
            budget_exhausted: false,
            spent: None,
            finished: None,
        }
    }

    /// Folds one slice into the task: a finished replicate adds its
    /// estimate (or error), and every slice adds its costs. Returns the
    /// ticks the slice billed and whether its deadline cut it.
    fn absorb(&mut self, slice: SliceOutcome) -> (u64, bool) {
        let SliceOutcome {
            outcome,
            ticks_exceeded,
        } = slice;
        let ticks_cut = ticks_exceeded && outcome.estimate.is_err();
        match &outcome.estimate {
            Ok(e) => {
                if e.is_finite() {
                    self.stats.push(*e);
                }
                self.next_rep += 1;
            }
            Err(err) if !ticks_cut => {
                // An ordinary failure (e.g. the call budget ran out): the
                // replicate is spent, the query keeps its slot.
                self.budget_exhausted |= outcome.budget_exhausted;
                self.last_err = Some(err.clone());
                self.next_rep += 1;
            }
            Err(_) => {
                // The deadline fired mid-slice; the loop's sweep converts
                // the task once the clock has advanced past its deadline.
            }
        }
        let ticks = outcome.latency_ticks;
        match &mut self.spent {
            None => self.spent = Some(Box::new(outcome)),
            Some(spent) => {
                spent.estimate = outcome.estimate;
                spent.logical_calls += outcome.logical_calls;
                spent.retry_charges += outcome.retry_charges;
                spent.backend_attempts += outcome.backend_attempts;
                spent.rate_limited += outcome.rate_limited;
                spent.transient_errors += outcome.transient_errors;
                spent.latency_ticks += outcome.latency_ticks;
                spent.bursts += outcome.bursts;
                spent.breaker_opens += outcome.breaker_opens;
                spent.stale_served += outcome.stale_served;
            }
        }
        (ticks, ticks_cut)
    }

    /// Runs the task's next replicate slice at `clock` and folds it in
    /// ([`TaskState::absorb`]). The slice's tick allowance is whatever
    /// remains until the deadline; the session's tick ceiling turns the
    /// estimator's step-boundary budget poll into the cancellation yield
    /// point. The loop's sweep guarantees `clock < deadline` here.
    fn run_slice<B: OsnBackend>(
        &mut self,
        shared: &B,
        stack: &QueryStack,
        fault_base: u64,
        clock: u64,
    ) -> (u64, bool) {
        let slice = stack.run(
            shared,
            self.spec,
            Slice {
                fault_seed: replication_seed(
                    replication_seed(fault_base, self.spec.id),
                    self.next_rep,
                ),
                rng_seed: replication_seed(self.spec.seed, self.next_rep),
                // The burst process and breaker run on the loop's virtual
                // clock: a burst raging at tick 10_000 must hit the slice
                // that runs there.
                start_tick: clock,
                // Allowance is slack + 1: `ticks_exceeded` is `>=`, and a
                // slice that bills *exactly* the remaining slack ends ON
                // the deadline — a hit with zero slack, not a miss. Only
                // going strictly past the deadline cuts the slice. A
                // `u64::MAX` deadline saturates to a ceiling never reached.
                tick_ceiling: self.deadline().map(|d| (d - clock).saturating_add(1)),
            },
        );
        self.absorb(slice)
    }

    /// Cancels the task into an anytime answer at the deadline tick it
    /// missed: the running mean ± CI over its finished replicates, falling
    /// back to the mean of `completed`, the finite answers of the graph's
    /// tasks completed so far, when none finished.
    fn cancel(&mut self, deadline: u64, counters: &mut LoopCounters, completed: &RunningStats) {
        counters.cancellations += 1;
        let (anytime, ci) = if self.stats.count() > 0 {
            (Some(self.stats.mean()), ci_halfwidth(&self.stats))
        } else {
            ((completed.count() > 0).then(|| completed.mean()), 0.0)
        };
        self.finished = Some(TaskStatus::Cancelled {
            completed_replicates: self.next_rep,
            anytime,
            ci_halfwidth: ci,
            cancelled_at_tick: deadline,
        });
    }

    /// Completes the task at `clock`, counting a deadline hit if `clock`
    /// is at or before its deadline. The outcome is the slices' summed
    /// costs and the mean over the finite replicate estimates — failing
    /// that the last error, failing that the last slice's own
    /// (non-finite) answer. A finite answer is pushed onto `completed`.
    fn complete(&mut self, clock: u64, counters: &mut LoopCounters, completed: &mut RunningStats) {
        if let Some(d) = self.deadline().filter(|&d| clock <= d) {
            counters.deadline_hits += 1;
            counters.slack_sum += u128::from(d - clock);
        }
        let mut outcome = self
            .spent
            .take()
            .expect("a query that ran its replicates ran a slice");
        if self.stats.count() > 0 {
            outcome.estimate = Ok(self.stats.mean());
        } else if let Some(err) = self.last_err.take() {
            outcome.estimate = Err(err);
        }
        outcome.budget_exhausted = self.budget_exhausted;
        if let Ok(e) = outcome.estimate {
            if e.is_finite() {
                completed.push(e);
            }
        }
        self.finished = Some(TaskStatus::Done(outcome));
    }

    fn arrival(&self) -> u64 {
        self.spec.schedule.arrival_tick
    }

    fn deadline(&self) -> Option<u64> {
        self.spec.schedule.deadline_tick()
    }

    fn rank(&self) -> u8 {
        self.spec.schedule.priority.rank()
    }
}

/// Halfwidth of the normal-approximation 95% confidence interval around
/// `stats`' mean: `1.96·√(s²/n)`, 0 below two samples.
fn ci_halfwidth(stats: &RunningStats) -> f64 {
    if stats.count() < 2 {
        0.0
    } else {
        1.96 * (stats.sample_variance() / stats.count() as f64).sqrt()
    }
}

/// A graph loop's event index, built once per loop so that no event scans
/// the task list (see the module docs' cost per event).
struct EventIndex {
    /// Task indices in `(arrival_tick, id)` order; the first `arrived` of
    /// them have arrived.
    by_arrival: Vec<usize>,
    arrived: usize,
    /// Deadline-carrying task indices in `(deadline_tick, id)` order; the
    /// first `expired` deadlines have been swept.
    by_deadline: Vec<usize>,
    expired: usize,
    /// One FIFO ready queue per [`Priority`], indexed by rank. Tasks enter
    /// in `(arrival_tick, id)` order, so each queue is already in pick
    /// order; finished tasks are dropped lazily from the front.
    ready: [VecDeque<usize>; 3],
}

impl EventIndex {
    fn new(tasks: &[TaskState]) -> EventIndex {
        let mut by_arrival: Vec<usize> = (0..tasks.len()).collect();
        by_arrival.sort_unstable_by_key(|&i| (tasks[i].arrival(), tasks[i].spec.id));
        let mut by_deadline: Vec<usize> = (0..tasks.len())
            .filter(|&i| tasks[i].deadline().is_some())
            .collect();
        by_deadline.sort_unstable_by_key(|&i| (tasks[i].deadline(), tasks[i].spec.id));
        EventIndex {
            by_arrival,
            arrived: 0,
            by_deadline,
            expired: 0,
            ready: Default::default(),
        }
    }

    /// Moves every task that has arrived by `clock` onto its class's ready
    /// queue, and returns how many of them outrank `running_rank`.
    fn arrive(&mut self, tasks: &[TaskState], clock: u64, running_rank: u8) -> u64 {
        let mut outranking = 0;
        while let Some(&i) = self.by_arrival.get(self.arrived) {
            let t = &tasks[i];
            if t.arrival() > clock {
                break;
            }
            outranking += u64::from(t.rank() < running_rank);
            self.ready[usize::from(t.rank())].push_back(i);
            self.arrived += 1;
        }
        outranking
    }

    /// The next task whose deadline the clock has reached, finished or
    /// not, with that deadline.
    fn expire(&mut self, tasks: &[TaskState], clock: u64) -> Option<(usize, u64)> {
        let &i = self.by_deadline.get(self.expired)?;
        let d = tasks[i].deadline().filter(|&d| d <= clock)?;
        self.expired += 1;
        Some((i, d))
    }

    /// The runnable task: the front of the best class with an unfinished
    /// arrived task.
    fn pick(&mut self, tasks: &[TaskState]) -> Option<usize> {
        for queue in &mut self.ready {
            while let Some(&i) = queue.front() {
                if tasks[i].finished.is_none() {
                    return Some(i);
                }
                queue.pop_front();
            }
        }
        None
    }

    /// The arrival tick of the next task still to arrive.
    fn next_arrival(&self, tasks: &[TaskState]) -> Option<u64> {
        let &i = self.by_arrival.get(self.arrived)?;
        Some(tasks[i].arrival())
    }
}

/// What a graph loop serves: the backend its slices read, and the churn
/// it applies between them.
trait LoopBackend {
    /// What one slice reads.
    type View<'a>: OsnBackend
    where
        Self: 'a;

    /// Applies every change due by virtual `tick`. Static graphs have
    /// none.
    fn advance_to(&self, _tick: u64) {}

    /// The read path of one slice. The loop drops it before its next
    /// `advance_to`.
    fn view(&self) -> Self::View<'_>;
}

impl LoopBackend for GraphOsn<'_> {
    type View<'a>
        = &'a Self
    where
        Self: 'a;

    fn view(&self) -> &Self {
        self
    }
}

impl LoopBackend for PagedGraphOsn {
    type View<'a> = &'a Self;

    fn view(&self) -> &Self {
        self
    }
}

/// A slice reads one [`ChurnView`], so it takes the backend's read lock
/// once; holding it is safe because churn lands only at the loop's
/// `advance_to`, after the view of the previous slice is dropped.
impl LoopBackend for ChurnOsn {
    type View<'a> = ChurnView<'a>;

    fn advance_to(&self, tick: u64) {
        ChurnOsn::advance_to(self, tick);
    }

    fn view(&self) -> ChurnView<'_> {
        ChurnOsn::view(self)
    }
}

/// Runs one graph's discrete-event loop to completion. Strictly serial:
/// the loop IS the graph's single virtual timeline, which is what makes
/// the cancellation fallback (and everything else) deterministic: the
/// loop keeps its completed tasks' finite answers in completion order,
/// and a task cancelled before any replicate finished answers with their
/// mean at its deadline.
///
/// Generic over the backend: the in-RAM `labelcount_osn::GraphOsn` and
/// the out-of-core `labelcount_osn::PagedGraphOsn` both serve identical
/// bytes, so the loop's virtual timeline — and every counter derived from
/// it — is backend-independent.
///
/// For dynamic graphs every iteration applies the batches due by the
/// current virtual tick *before* any slice reads the graph. The loop is
/// the graph's single serial timeline, so batches land at deterministic
/// points — between slices, never mid-slice — and the report stays
/// bit-identical at any shard or worker count. Each slice runs on a
/// [`LoopBackend::view`] opened after that iteration's batches.
fn run_graph_loop<B: LoopBackend>(
    backend: &B,
    tasks: &[QuerySpec],
    stack: &QueryStack,
    fault_base: u64,
    replicates: u64,
) -> GraphLoopResult {
    let mut tasks: Vec<TaskState> = tasks.iter().map(TaskState::new).collect();
    let mut index = EventIndex::new(&tasks);
    let mut counters = LoopCounters::default();
    // The finite answers of completed tasks, in completion order: what a
    // task cancelled with no finished replicate answers from. Not the
    // result's id-order `summary`, which sums in another order and counts
    // completions after the cancellation.
    let mut completed = RunningStats::new();
    let mut clock = 0u64;
    // No slice has held the loop yet, so no tick-0 arrival is an inversion.
    index.arrive(&tasks, clock, Priority::High.rank());

    loop {
        // Dynamic graphs: drain the churn schedule up to the current
        // virtual tick. A batch due exactly at a slice boundary is applied
        // before that slice reads a byte.
        backend.advance_to(clock);

        // Cancellation sweep: any unfinished task whose absolute deadline
        // the clock has reached can no longer produce a timely answer —
        // convert it to an anytime answer NOW, at the deadline tick it
        // missed, before any further slice runs. Deadline order, not id
        // order, changes no answer: a cancellation records no estimate.
        while let Some((ti, d)) = index.expire(&tasks, clock) {
            if tasks[ti].finished.is_none() {
                tasks[ti].cancel(d, &mut counters, &completed);
            }
        }

        // Pick the runnable task: arrived, unfinished, best
        // (priority rank, arrival tick, id) — FIFO within a class,
        // non-preemptive. Idle: jump the clock to the next arrival, or
        // stop when every task is finished.
        let Some(ti) = index.pick(&tasks) else {
            let Some(next) = index.next_arrival(&tasks) else {
                break;
            };
            debug_assert!(next > clock, "unfinished arrival in the past");
            clock = next;
            // Nothing held the loop, so no arrival is an inversion.
            index.arrive(&tasks, clock, Priority::High.rank());
            continue;
        };

        // One replicate slice, on a view that drops at the end of this
        // statement. Advance virtual time by exactly what it billed, and
        // charge priority inversions: higher-priority arrivals that landed
        // while this (lower-priority) slice held the loop.
        let (slice_ticks, ticks_cut) =
            tasks[ti].run_slice(&backend.view(), stack, fault_base, clock);
        clock = clock.saturating_add(slice_ticks);
        counters.priority_inversions += index.arrive(&tasks, clock, tasks[ti].rank());

        // A deadline cut consumes the slice but can complete nothing; make
        // sure the clock reached the deadline so the sweep fires (the
        // ceiling guarantees the billed ticks already did).
        if ticks_cut {
            debug_assert!(
                tasks[ti].deadline().is_some_and(|d| clock >= d),
                "tick ceiling fired before the deadline"
            );
            continue;
        }
        if tasks[ti].next_rep >= replicates {
            tasks[ti].complete(clock, &mut counters, &mut completed);
        }
    }
    GraphLoopResult::collect(tasks, counters)
}

impl<'g> ShardedService<'g> {
    /// Runs a multi-tenant workload: virtual-time admission in
    /// `(arrival_tick, id)` order, then one serial discrete-event loop per
    /// graph, then assembly in request-id order with
    /// [`SchedulingCounters`] attached. The loops run on one
    /// [`replicate`](fn@replicate) pool of `Σ min(workers, the shard's
    /// loops)` workers over the shards, the calling thread among them, and
    /// any worker takes any shard's waiting loop. A panic in any loop
    /// propagates with its own payload.
    ///
    /// Requests carry their [`Schedule`]s; stamp them with
    /// [`crate::ServiceWorkloadBuilder::schedule`]. An unstamped workload
    /// runs under [`SchedulePolicy::batch`]. The returned
    /// [`ServiceReport`] is bit-identical at any shard count and any
    /// worker count.
    pub fn run_scheduled(&self, workload: ServiceWorkload, workers: usize) -> ServiceReport {
        let n = workload.requests.len();
        for w in workload.requests.windows(2) {
            assert!(
                w[0].id() < w[1].id(),
                "request ids must be strictly increasing"
            );
        }
        let policy = workload
            .scheduling
            .clone()
            .unwrap_or_else(SchedulePolicy::batch);
        policy.validate();

        // Phase 1 — virtual-time admission, serially in ascending
        // (arrival_tick, id) order against the modelled per-graph queues.
        let order = workload.scheduled_arrival_order();
        let mut admission = AdmissionState::with_rate_limits(
            self.graphs.len(),
            workload.admission,
            workload.quotas.clone(),
            workload.rate_limits.clone(),
            workload.seed,
        );
        enum Decided {
            Known(usize, AdmissionDecision),
            Unknown,
        }
        let mut decisions: Vec<Option<Decided>> = (0..n).map(|_| None).collect();
        for &ri in &order {
            let req = &workload.requests[ri];
            decisions[ri] = Some(match self.graph_index(req.graph) {
                Some(gi) => Decided::Known(
                    gi,
                    admission.decide_scheduled(
                        req.id(),
                        req.tenant,
                        gi,
                        req.query.hard_budget,
                        req.query.schedule.arrival_tick,
                    ),
                ),
                None => Decided::Unknown,
            });
        }

        // Phase 2 — per-graph task lists (id order) and one event loop per
        // graph, all on one pool.
        let ServiceWorkload {
            requests,
            seed,
            run_config,
            faults,
            retry,
            resilience,
            ..
        } = workload;
        let stack = QueryStack {
            run_config,
            faults,
            retry,
            resilience,
        };
        let mut graph_tasks: Vec<Vec<QuerySpec>> =
            (0..self.graphs.len()).map(|_| Vec::new()).collect();
        struct Pending {
            id: u64,
            tenant: TenantId,
            graph: GraphKey,
            shard: usize,
            decided: Decided,
        }
        let mut pending: Vec<Pending> = Vec::with_capacity(n);
        for (ri, req) in requests.into_iter().enumerate() {
            let decided = decisions[ri].take().expect("every request was decided");
            let shard = self.shard_of(req.graph);
            let id = req.id();
            let ServiceRequest {
                tenant,
                graph,
                query,
            } = req;
            if let Decided::Known(gi, AdmissionDecision::Admitted { effective_budget }) = decided {
                graph_tasks[gi].push(QuerySpec {
                    hard_budget: effective_budget,
                    ..query
                });
            }
            pending.push(Pending {
                id,
                tenant,
                graph,
                shard,
                decided,
            });
        }

        // The pool has up to `workers` workers per shard, no more than the
        // shard has loops. Any worker runs any graph's whole loop: loops
        // share nothing, so which worker runs which changes no report.
        let mut shard_loops = vec![0usize; self.router.shards()];
        for (gi, tasks) in graph_tasks.iter().enumerate() {
            shard_loops[self.graphs[gi].1] += usize::from(!tasks.is_empty());
        }
        let threads = shard_loops.iter().map(|&l| l.min(workers.max(1))).sum();
        let fault_root = replication_seed(seed, stream::GRAPH_FAULT);
        let replicates = policy.replicates as u64;
        let reports: Vec<Option<GraphLoopResult>> =
            replicate(self.graphs.len(), threads, 0, |gi, _| {
                let tasks = &graph_tasks[gi];
                if tasks.is_empty() {
                    return None;
                }
                let fault_base = replication_seed(fault_root, self.graphs[gi].0 .0);
                Some(match &self.graphs[gi].2 {
                    AnyEngine::Ram(e) => {
                        run_graph_loop(e.backend(), tasks, &stack, fault_base, replicates)
                    }
                    AnyEngine::Paged(e) => {
                        run_graph_loop(e.backend(), tasks, &stack, fault_base, replicates)
                    }
                    AnyEngine::Churn(e) => {
                        run_graph_loop(e.backend(), tasks, &stack, fault_base, replicates)
                    }
                })
            });

        // Phase 3 — assemble in request-id order, merging loop counters in
        // registration order.
        let mut merged = LoopCounters::default();
        for r in reports.iter().flatten() {
            merged.absorb(&r.counters);
        }
        let anytime = |gi: usize| -> Option<f64> {
            let r = reports[gi].as_ref()?;
            (r.summary.count() > 0).then(|| r.summary.mean())
        };
        let mut outcomes = Vec::with_capacity(n);
        let mut admitted = 0u64;
        let mut shed = 0u64;
        let mut quota_exhausted = 0u64;
        let mut quota_throttled = 0u64;
        let mut per_tenant: Vec<(TenantId, u64)> = Vec::new();
        let mut summary = RunningStats::new();
        for p in pending {
            let status = match p.decided {
                Decided::Unknown => ServiceStatus::UnknownGraph,
                Decided::Known(gi, AdmissionDecision::Admitted { .. }) => {
                    admitted += 1;
                    match per_tenant.iter_mut().find(|(t, _)| *t == p.tenant) {
                        Some((_, c)) => *c += 1,
                        None => per_tenant.push((p.tenant, 1)),
                    }
                    let report = reports[gi].as_ref().expect("admitted graph ran");
                    match report.status_of(p.id) {
                        TaskStatus::Done(q) => {
                            if let Ok(e) = q.estimate {
                                if e.is_finite() {
                                    summary.push(e);
                                }
                            }
                            ServiceStatus::Completed(QueryOutcome::clone(q))
                        }
                        TaskStatus::Cancelled {
                            completed_replicates,
                            anytime,
                            ci_halfwidth,
                            cancelled_at_tick,
                        } => ServiceStatus::DeadlineAnytime {
                            completed_replicates: *completed_replicates,
                            anytime: *anytime,
                            ci_halfwidth: *ci_halfwidth,
                            cancelled_at_tick: *cancelled_at_tick,
                        },
                    }
                }
                Decided::Known(gi, rejected) => {
                    if !per_tenant.iter().any(|(t, _)| *t == p.tenant) {
                        per_tenant.push((p.tenant, 0));
                    }
                    let anytime = anytime(gi);
                    match rejected {
                        AdmissionDecision::Shed { backlog } => {
                            shed += 1;
                            ServiceStatus::Shed { backlog, anytime }
                        }
                        AdmissionDecision::QuotaExhausted => {
                            quota_exhausted += 1;
                            ServiceStatus::QuotaExhausted { anytime }
                        }
                        AdmissionDecision::Throttled => {
                            quota_throttled += 1;
                            ServiceStatus::Throttled { anytime }
                        }
                        AdmissionDecision::Admitted { .. } => unreachable!("matched above"),
                    }
                }
            };
            outcomes.push(ServiceOutcome {
                id: p.id,
                tenant: p.tenant,
                graph: p.graph,
                shard: p.shard,
                status,
            });
        }
        let tenant_fairness = if per_tenant.is_empty() {
            1.0
        } else {
            let max = per_tenant.iter().map(|(_, c)| *c).max().unwrap_or(0);
            let min = per_tenant.iter().map(|(_, c)| *c).min().unwrap_or(0);
            max as f64 / min.max(1) as f64
        };
        ServiceReport {
            outcomes,
            summary,
            serving: ServingCounters {
                shards: self.router.shards() as u64,
                submitted: n as u64,
                admitted,
                shed,
                quota_exhausted,
                quota_throttled,
                tenant_fairness,
            },
            scheduling: Some(merged.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labelcount_core::{Algorithm, RunConfig};
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use labelcount_graph::{LabeledGraph, NodeId, TargetLabel};
    use labelcount_osn::{FaultConfig, GraphOsn, OsnApi, ResilienceConfig, RetryPolicy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::{HashMap, HashSet};
    use std::panic::AssertUnwindSafe;
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn fixture() -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(5);
        let g = barabasi_albert(200, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    /// An unstamped hostile stream over one graph.
    fn batch(n: usize) -> ServiceWorkload {
        ServiceWorkload::mixed_multi_tenant(
            n,
            &[GraphKey(0)],
            2,
            0.3,
            TargetLabel::new(1.into(), 2.into()),
            40,
            11,
            RunConfig {
                burn_in: 20,
                thinning_frac: 0.0,
            },
        )
        .builder()
        .faults(FaultConfig::hostile(11, 0.2), RetryPolicy::default())
        .build()
    }

    fn completed(report: &ServiceReport) -> Vec<&QueryOutcome> {
        report
            .outcomes
            .iter()
            .map(|o| match &o.status {
                ServiceStatus::Completed(q) => q,
                other => panic!("request {} not completed: {other:?}", o.id),
            })
            .collect()
    }

    fn stamped(policy: SchedulePolicy) -> ServiceWorkload {
        ServiceWorkload::mixed_multi_tenant(
            20,
            &[GraphKey(0), GraphKey(1)],
            2,
            0.3,
            TargetLabel::new(1.into(), 2.into()),
            40,
            7,
            RunConfig::default(),
        )
        .builder()
        .schedule(policy)
        .build()
    }

    #[test]
    fn stamp_is_deterministic_and_monotone_in_id_order() {
        let p = SchedulePolicy::default()
            .with_interarrival(10)
            .with_deadline(50)
            .with_priorities(0.3, 0.3);
        let a = stamped(p.clone());
        let b = stamped(p);
        let mut last = 0u64;
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.query.schedule, y.query.schedule, "stamp not reproducible");
            assert!(
                x.query.schedule.arrival_tick > last || x.query.id == 0,
                "arrivals must be strictly increasing under a positive gap"
            );
            last = x.query.schedule.arrival_tick;
            assert_eq!(x.query.schedule.deadline_ticks, Some(50));
        }
    }

    #[test]
    fn zero_interarrival_floods_tick_zero_and_mix_covers_all_priorities() {
        let wl = stamped(SchedulePolicy::default().with_priorities(0.4, 0.4));
        let mut seen = [false; 3];
        for r in &wl.requests {
            assert_eq!(r.query.schedule.arrival_tick, 0);
            seen[r.query.schedule.priority.rank() as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a 40/20/40 mix over 20 requests should hit every class"
        );
    }

    #[test]
    fn invalid_policies_are_rejected() {
        for bad in [
            SchedulePolicy::default().with_replicates(0),
            SchedulePolicy::default().with_priorities(0.8, 0.8),
            SchedulePolicy::default().with_priorities(-0.1, 0.0),
            SchedulePolicy::default().with_interarrival(u64::MAX / 2 + 1),
        ] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bad.stamp(&mut stamped(SchedulePolicy::default()))
            }));
            assert!(caught.is_err(), "policy {bad:?} must be rejected");
        }
    }

    /// `spec`'s first `reps` replicate slices as plain [`QueryStack::run`]s,
    /// one after another on one virtual clock from tick `start`, with the
    /// loop's seeds and no tick ceiling: their outcomes, and the tick the
    /// last one ends on.
    fn replicate_runs(
        osn: &GraphOsn<'_>,
        stack: &QueryStack,
        fault_base: u64,
        spec: &QuerySpec,
        start: u64,
        reps: u64,
    ) -> (Vec<QueryOutcome>, u64) {
        let mut clock = start;
        let outcomes = (0..reps)
            .map(|rep| {
                let slice = Slice {
                    fault_seed: replication_seed(replication_seed(fault_base, spec.id), rep),
                    rng_seed: replication_seed(spec.seed, rep),
                    start_tick: clock,
                    tick_ceiling: None,
                };
                let outcome = stack.run(osn, spec, slice).outcome;
                clock += outcome.latency_ticks;
                outcome
            })
            .collect();
        (outcomes, clock)
    }

    /// `wl`'s requests run one replicate each, one after another from tick
    /// 0, with the loop's seeds for graph 0 ([`replicate_runs`]).
    fn plain_runs(g: &LabeledGraph, wl: &ServiceWorkload) -> Vec<QueryOutcome> {
        let stack = QueryStack {
            run_config: wl.run_config,
            faults: wl.faults,
            retry: wl.retry,
            resilience: wl.resilience,
        };
        let fault_base = replication_seed(
            replication_seed(wl.seed, stream::GRAPH_FAULT),
            GraphKey(0).0,
        );
        let osn = GraphOsn::new(g);
        let mut clock = 0;
        wl.requests
            .iter()
            .flat_map(|req| {
                let (outcomes, end) =
                    replicate_runs(&osn, &stack, fault_base, &req.query, clock, 1);
                clock = end;
                outcomes
            })
            .collect()
    }

    fn assert_same_outcome(got: &QueryOutcome, want: &QueryOutcome) {
        assert_eq!(
            got.estimate.as_ref().map(|e| e.to_bits()).ok(),
            want.estimate.as_ref().map(|e| e.to_bits()).ok(),
            "query {}",
            want.id
        );
        assert_eq!(
            (got.logical_calls, got.retry_charges, got.backend_attempts),
            (
                want.logical_calls,
                want.retry_charges,
                want.backend_attempts
            ),
            "query {}",
            want.id
        );
        assert_eq!(got.latency_ticks, want.latency_ticks, "query {}", want.id);
        assert_eq!(got.stale_served, want.stale_served, "query {}", want.id);
    }

    /// The one-stack contract: an unstamped workload runs as a batch, and
    /// a batch query's outcome is exactly one [`QueryStack::run`] with the
    /// loop's seeds, started at the virtual tick the queries before it
    /// billed up to.
    #[test]
    fn a_batch_query_is_one_plain_stack_run() {
        let g = fixture();
        let mut svc = ShardedService::new(1, 3);
        svc.register(GraphKey(0), &g);
        let report = svc.run_scheduled(batch(6), 1);
        let want = plain_runs(&g, &batch(6));
        for (got, want) in completed(&report).into_iter().zip(&want) {
            assert_same_outcome(got, want);
        }
        assert!(
            want.iter().any(|q| q.latency_ticks > 0),
            "a hostile API must bill ticks"
        );
        let sched = report.scheduling.expect("every run reports scheduling");
        assert_eq!((sched.cancellations, sched.deadline_hits), (0, 0));
    }

    /// A tick-0 request with a `u64::MAX` relative deadline has an
    /// absolute deadline of `u64::MAX`. Its slack + 1 tick ceiling
    /// saturates instead of overflowing, so it completes as exactly one
    /// plain stack run: a deadline hit with all that slack.
    #[test]
    fn a_max_deadline_query_is_one_plain_stack_run() {
        let g = fixture();
        let mut svc = ShardedService::new(1, 3);
        svc.register(GraphKey(0), &g);
        let mut wl = batch(1);
        wl.requests[0].query.schedule = Schedule::immediate().with_deadline(u64::MAX);
        let report = svc.run_scheduled(wl, 1);
        let want = &plain_runs(&g, &batch(1))[0];
        assert_same_outcome(completed(&report)[0], want);
        let sched = report.scheduling.expect("every run reports scheduling");
        assert_eq!((sched.cancellations, sched.deadline_hits), (0, 1));
        assert_eq!(
            sched.mean_slack_ticks,
            (u64::MAX - want.latency_ticks) as f64
        );
    }

    #[test]
    fn huge_interarrival_gaps_saturate_at_the_last_tick() {
        let wl = stamped(SchedulePolicy::default().with_interarrival(u64::MAX / 2));
        let arrivals: Vec<u64> = wl
            .requests
            .iter()
            .map(|r| r.query.schedule.arrival_tick)
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(arrivals.last(), Some(&u64::MAX));
    }

    /// The scan-based loop the indexed [`run_graph_loop`] replaced, kept
    /// as its reference: every iteration scans every task to sweep passed
    /// deadlines (in id order), to pick the runnable task, to count the
    /// slice's priority inversions, and, when idle, to find the next
    /// arrival.
    fn scanning_graph_loop<B: OsnBackend>(
        shared: &B,
        tasks: &[QuerySpec],
        stack: &QueryStack,
        fault_base: u64,
        replicates: u64,
    ) -> GraphLoopResult {
        let mut tasks: Vec<TaskState> = tasks.iter().map(TaskState::new).collect();
        let mut counters = LoopCounters::default();
        let mut completed = RunningStats::new();
        let mut clock = 0u64;
        loop {
            for t in tasks.iter_mut().filter(|t| t.finished.is_none()) {
                if let Some(d) = t.deadline().filter(|&d| clock >= d) {
                    t.cancel(d, &mut counters, &completed);
                }
            }
            let running = tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.finished.is_none() && t.arrival() <= clock)
                .min_by_key(|(_, t)| (t.rank(), t.arrival(), t.spec.id))
                .map(|(i, _)| i);
            let Some(ti) = running else {
                let unfinished = tasks.iter().filter(|t| t.finished.is_none());
                match unfinished.map(|t| t.arrival()).min() {
                    Some(next) => {
                        clock = next;
                        continue;
                    }
                    None => break,
                }
            };
            let (slice_ticks, ticks_cut) = tasks[ti].run_slice(shared, stack, fault_base, clock);
            let before = clock;
            clock = clock.saturating_add(slice_ticks);
            let running_rank = tasks[ti].rank();
            counters.priority_inversions += tasks
                .iter()
                .enumerate()
                .filter(|&(i, t)| {
                    i != ti
                        && t.finished.is_none()
                        && t.rank() < running_rank
                        && t.arrival() > before
                        && t.arrival() <= clock
                })
                .count() as u64;
            if ticks_cut {
                continue;
            }
            let t = &mut tasks[ti];
            if t.finished.is_none() && t.next_rep >= replicates {
                t.complete(clock, &mut counters, &mut completed);
            }
        }
        GraphLoopResult::collect(tasks, counters)
    }

    /// `schedules.len()` seeded queries over graph 0 with hand-set
    /// schedules and hard budgets, in id order.
    fn hand_set(seed: u64, schedules: &[(Schedule, Option<u64>)]) -> Vec<QuerySpec> {
        let target = TargetLabel::new(1.into(), 2.into());
        let wl = ServiceWorkload::mixed_multi_tenant(
            schedules.len(),
            &[GraphKey(0)],
            2,
            0.3,
            target,
            40,
            seed,
            RunConfig::default(),
        );
        wl.requests
            .into_iter()
            .zip(schedules)
            .map(|(r, &(schedule, hard_budget))| QuerySpec {
                schedule,
                hard_budget,
                ..r.query
            })
            .collect()
    }

    /// Every task's status as text, floats as bits.
    fn fingerprints(r: &GraphLoopResult) -> Vec<String> {
        r.results
            .iter()
            .map(|(id, status)| match status {
                TaskStatus::Done(q) => format!(
                    "{id} done {:?} {q:?}",
                    q.estimate.as_ref().map(|e| e.to_bits())
                ),
                TaskStatus::Cancelled {
                    completed_replicates,
                    anytime,
                    ci_halfwidth,
                    cancelled_at_tick,
                } => format!(
                    "{id} cancelled {completed_replicates} {:?} {:#x} {cancelled_at_tick}",
                    anytime.map(f64::to_bits),
                    ci_halfwidth.to_bits()
                ),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The indexed loop reports exactly what the scanning loop does:
        /// statuses, estimate bits, per-query counters, the graph summary
        /// and the scheduling counters. The schedules are hand-set, so
        /// arrivals tie (many at tick 0) and deadlines, 0 and `u64::MAX`
        /// among them, are not monotone in arrival order — orders a
        /// [`SchedulePolicy`] never stamps.
        #[test]
        fn indexed_loop_matches_the_scanning_reference(
            seed in any::<u64>(),
            replicates in 1u64..5,
            codes in proptest::collection::vec((0u64..8, 0u64..8, 0u8..3, 0u64..4), 1..16),
        ) {
            let schedules: Vec<(Schedule, Option<u64>)> = codes
                .iter()
                .map(|&(arrival, deadline, priority, budget)| {
                    let schedule = Schedule {
                        arrival_tick: arrival.saturating_sub(2) * 150,
                        // Zero deadlines are common: they are how a sweep
                        // meets a deadline exactly, at the arrival tick.
                        deadline_ticks: match deadline {
                            0 => None,
                            1 | 2 => Some(0),
                            3 => Some(u64::MAX),
                            d => Some((d - 3) * 500),
                        },
                        priority: [Priority::High, Priority::Normal, Priority::Low]
                            [usize::from(priority)],
                    };
                    (schedule, (budget > 0).then(|| budget * 30))
                })
                .collect();
            let g = fixture();
            let osn = GraphOsn::new(&g);
            let stack = QueryStack {
                run_config: RunConfig { burn_in: 20, thinning_frac: 0.0 },
                faults: FaultConfig::hostile(seed, 0.2),
                retry: RetryPolicy::default(),
                resilience: ResilienceConfig::default(),
            };
            let tasks = hand_set(seed, &schedules);
            let indexed = run_graph_loop(&osn, &tasks, &stack, seed, replicates);
            let scanning = scanning_graph_loop(&osn, &tasks, &stack, seed, replicates);
            prop_assert_eq!(fingerprints(&indexed), fingerprints(&scanning));
            prop_assert_eq!(indexed.counters, scanning.counters);
            prop_assert_eq!(indexed.summary.count(), scanning.summary.count());
            prop_assert_eq!(
                indexed.summary.mean().to_bits(),
                scanning.summary.mean().to_bits()
            );
        }
    }

    /// A cancelled task's anytime answer, bit for bit: the mean of its own
    /// finished replicates ± `1.96·√(s²/k)` when it has k ≥ 2 of them,
    /// even once other tasks have completed; with none, the mean of the
    /// finite answers its graph completed before the cancellation, with
    /// no spread; and `None` when nothing had completed yet.
    #[test]
    fn a_cancelled_task_answers_from_what_finished_before_its_deadline() {
        let g = fixture();
        let osn = GraphOsn::new(&g);
        let stack = QueryStack {
            run_config: RunConfig {
                burn_in: 20,
                thinning_frac: 0.0,
            },
            faults: FaultConfig::hostile(3, 0.2),
            retry: RetryPolicy::default(),
            resilience: ResilienceConfig::default(),
        };
        let (seed, fault_base, replicates) = (3, 3, 3);
        let at = |priority, deadline_ticks| {
            let schedule = Schedule {
                arrival_tick: 0,
                deadline_ticks,
                priority,
            };
            (schedule, None)
        };
        // Every task arrives at tick 0, and the High ones run in id order.
        // A runs to completion; Z then runs and is cut where its second
        // replicate ends; C runs last. Y's deadline fires before any slice
        // runs, X's the moment A completes, so neither ever gets the loop.
        let specs = hand_set(seed, &[at(Priority::High, None); 3]);
        let (_, a_done) = replicate_runs(&osn, &stack, fault_base, &specs[0], 0, replicates);
        let (z_runs, z_cut) = replicate_runs(&osn, &stack, fault_base, &specs[2], a_done, 2);
        let tasks = hand_set(
            seed,
            &[
                at(Priority::High, None),        // A
                at(Priority::Normal, Some(0)),   // Y
                at(Priority::High, Some(z_cut)), // Z
                at(Priority::High, None),        // C
                at(Priority::Low, Some(a_done)), // X
            ],
        );
        let result = run_graph_loop(&osn, &tasks, &stack, fault_base, replicates);

        let done = |id: u64| match result.status_of(id) {
            TaskStatus::Done(q) => *q.estimate.as_ref().expect("task completes"),
            TaskStatus::Cancelled { .. } => panic!("task {id} was cancelled"),
        };
        let cancelled = |id: u64| match result.status_of(id) {
            TaskStatus::Cancelled {
                completed_replicates,
                anytime,
                ci_halfwidth,
                cancelled_at_tick,
            } => (
                *completed_replicates,
                anytime.map(f64::to_bits),
                ci_halfwidth.to_bits(),
                *cancelled_at_tick,
            ),
            TaskStatus::Done(_) => panic!("task {id} completed"),
        };
        let (a, c) = (done(0), done(3));
        assert!(
            a_done > 0 && z_cut > a_done,
            "the hostile API bills no ticks"
        );
        assert!(a.is_finite() && c.is_finite() && a != c, "A {a} and C {c}");
        // X: A's answer alone; C completed after the cancellation.
        assert_eq!(cancelled(4), (0, Some(a.to_bits()), 0, a_done));
        // Y: nothing had completed.
        assert_eq!(cancelled(1), (0, None, 0, 0));
        // Z: its own two replicates, not A's answer.
        let mut own = RunningStats::new();
        for run in &z_runs {
            own.push(*run.estimate.as_ref().expect("Z's replicates finish"));
        }
        assert!(own.mean().is_finite() && own.sample_variance() > 0.0);
        let ci = 1.96 * (own.sample_variance() / 2.0).sqrt();
        assert_eq!(
            cancelled(2),
            (2, Some(own.mean().to_bits()), ci.to_bits(), z_cut)
        );
        assert_eq!(result.counters.cancellations, 3);
    }

    /// An estimator whose every answer is non-finite (an HT estimator on a
    /// degenerate sample can do this).
    struct Degenerate;

    impl Algorithm for Degenerate {
        fn abbrev(&self) -> &'static str {
            "degenerate"
        }

        fn estimate(
            &self,
            osn: &dyn OsnApi,
            _: TargetLabel,
            _: usize,
            _: &RunConfig,
            _: &mut dyn RngCore,
        ) -> Result<f64, EstimateError> {
            osn.neighbors(NodeId(0));
            Ok(f64::INFINITY)
        }
    }

    #[test]
    fn non_finite_replicates_complete_with_their_own_answer() {
        let g = fixture();
        let mut svc = ShardedService::new(1, 3);
        svc.register(GraphKey(0), &g);
        let mut wl = batch(2)
            .builder()
            .schedule(SchedulePolicy::default())
            .build();
        wl.requests[1].query.algorithm = Box::new(Degenerate);
        let report = svc.run_scheduled(wl, 1);
        let outcomes = completed(&report);
        assert_eq!(outcomes[1].estimate, Ok(f64::INFINITY));
        assert_eq!(outcomes[1].logical_calls, 4, "one call per replicate");
        // Non-finite answers stay out of the summary.
        assert_eq!(report.summary.count(), 1);
    }

    /// Records the thread that runs each of its slices, under its graph.
    struct Placed {
        graph: GraphKey,
        seen: Arc<Mutex<Vec<(GraphKey, ThreadId)>>>,
    }

    impl Algorithm for Placed {
        fn abbrev(&self) -> &'static str {
            "placed"
        }

        fn estimate(
            &self,
            osn: &dyn OsnApi,
            _: TargetLabel,
            _: usize,
            _: &RunConfig,
            _: &mut dyn RngCore,
        ) -> Result<f64, EstimateError> {
            let here = std::thread::current().id();
            self.seen.lock().unwrap().push((self.graph, here));
            osn.neighbors(NodeId(0));
            Ok(1.0)
        }
    }

    /// An estimator that panics with a message naming its graph.
    struct Explodes(GraphKey);

    impl Algorithm for Explodes {
        fn abbrev(&self) -> &'static str {
            "explodes"
        }

        fn estimate(
            &self,
            _: &dyn OsnApi,
            _: TargetLabel,
            _: usize,
            _: &RunConfig,
            _: &mut dyn RngCore,
        ) -> Result<f64, EstimateError> {
            panic!("the estimator on graph {} exploded", self.0 .0)
        }
    }

    fn six_keys() -> Vec<GraphKey> {
        (0..6).map(GraphKey).collect()
    }

    /// Six graphs registered over two shards.
    fn two_shards(g: &LabeledGraph) -> ShardedService<'_> {
        let mut svc = ShardedService::new(2, 3);
        for k in six_keys() {
            svc.register(k, g);
        }
        svc
    }

    /// A clean stream over the six graphs that admits every request.
    fn spread() -> ServiceWorkload {
        ServiceWorkload::mixed_multi_tenant(
            24,
            &six_keys(),
            2,
            0.0,
            TargetLabel::new(1.into(), 2.into()),
            40,
            13,
            RunConfig::default(),
        )
    }

    /// The `(graph, thread)` of every slice `wl` runs once each estimator
    /// is swapped for a [`Placed`] one.
    fn placements(
        svc: &ShardedService<'_>,
        mut wl: ServiceWorkload,
        workers: usize,
    ) -> Vec<(GraphKey, ThreadId)> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        for r in &mut wl.requests {
            r.query.algorithm = Box::new(Placed {
                graph: r.graph,
                seen: Arc::clone(&seen),
            });
        }
        svc.run_scheduled(wl, workers);
        let seen = seen.lock().unwrap().clone();
        seen
    }

    #[test]
    fn a_one_graph_call_runs_every_slice_on_the_calling_thread() {
        let g = fixture();
        let mut svc = ShardedService::new(2, 3);
        svc.register(GraphKey(0), &g);
        svc.register(GraphKey(1), &g);
        let me = std::thread::current().id();
        for workers in [1, 4] {
            let seen = placements(&svc, batch(6), workers);
            assert_eq!(seen.len(), 6, "one slice per query");
            assert!(
                seen.iter().all(|&(_, t)| t == me),
                "a slice left the calling thread at workers={workers}"
            );
        }
    }

    /// Which worker runs which loop is up to the pool, so this pins only
    /// that a loop stays on one thread and that a call uses no more
    /// threads than `min(workers, the shard's loops)` summed over shards.
    #[test]
    fn each_loop_runs_on_one_thread_and_a_call_on_at_most_its_shards_workers() {
        let g = fixture();
        let svc = two_shards(&g);
        for workers in [1, 2] {
            let seen = placements(&svc, spread(), workers);
            assert_eq!(seen.len(), 24, "every request is admitted");
            let mut by_graph: HashMap<GraphKey, HashSet<ThreadId>> = HashMap::new();
            for &(graph, t) in &seen {
                by_graph.entry(graph).or_default().insert(t);
            }
            assert!(
                by_graph.values().all(|t| t.len() == 1),
                "a loop ran on two threads at workers={workers}: {by_graph:?}"
            );
            let mut shard_loops = [0usize; 2];
            for &graph in by_graph.keys() {
                shard_loops[svc.shard_of(graph)] += 1;
            }
            let most: usize = shard_loops.iter().map(|&l| l.min(workers)).sum();
            let threads: HashSet<ThreadId> = seen.iter().map(|&(_, t)| t).collect();
            assert!(
                threads.len() <= most,
                "{} threads at workers={workers}, at most {most}",
                threads.len()
            );
        }
    }

    /// Lets graph A's estimator wait, once, until a slice of graph B
    /// starts.
    #[derive(Default)]
    struct Gate {
        b_started: Mutex<bool>,
        signal: Condvar,
        /// Whether A's wait ran out; `None` until A waited.
        a_timed_out: Mutex<Option<bool>>,
    }

    /// A's estimator (`waits`) or B's, both over one [`Gate`].
    struct Rendezvous {
        gate: Arc<Gate>,
        waits: bool,
    }

    impl Algorithm for Rendezvous {
        fn abbrev(&self) -> &'static str {
            "rendezvous"
        }

        fn estimate(
            &self,
            osn: &dyn OsnApi,
            _: TargetLabel,
            _: usize,
            _: &RunConfig,
            _: &mut dyn RngCore,
        ) -> Result<f64, EstimateError> {
            let gate = &self.gate;
            if self.waits {
                let mut timed_out = gate.a_timed_out.lock().unwrap();
                if timed_out.is_none() {
                    let started = gate.b_started.lock().unwrap();
                    let wait = Duration::from_secs(5);
                    let (started, result) = gate
                        .signal
                        .wait_timeout_while(started, wait, |started| !*started)
                        .unwrap();
                    drop(started);
                    *timed_out = Some(result.timed_out());
                }
            } else {
                *gate.b_started.lock().unwrap() = true;
                gate.signal.notify_all();
            }
            osn.neighbors(NodeId(0));
            Ok(1.0)
        }
    }

    /// A and B are the first two keys of one shard, and the other shard
    /// has a loop too, so a one-worker call runs two workers. While A's
    /// loop waits for B, the other worker must take B.
    #[test]
    fn an_idle_worker_takes_a_waiting_loop_of_another_shard() {
        let g = fixture();
        let svc = two_shards(&g);
        let keys = six_keys();
        let on = |shard: usize| -> Vec<GraphKey> {
            let on_shard = keys.iter().filter(|&&k| svc.shard_of(k) == shard);
            on_shard.copied().collect()
        };
        let shard = (0..2).find(|&s| on(s).len() >= 2).expect("six keys");
        let (a, b) = (on(shard)[0], on(shard)[1]);
        assert!(!on(1 - shard).is_empty(), "the other shard has a loop");
        let mut wl = spread();
        let gate = Arc::new(Gate::default());
        for r in wl.requests.iter_mut() {
            if r.graph == a || r.graph == b {
                r.query.algorithm = Box::new(Rendezvous {
                    gate: Arc::clone(&gate),
                    waits: r.graph == a,
                });
            }
        }
        let report = svc.run_scheduled(wl, 1);
        assert_eq!(report.serving.admitted, 24, "every request is admitted");
        let timed_out = *gate.a_timed_out.lock().unwrap();
        assert_eq!(timed_out, Some(false), "A waited out its 5 s for B");
    }

    /// The message `wl` panics with, as `run_scheduled` re-raises it.
    fn panic_message(svc: &ShardedService<'_>, wl: ServiceWorkload) -> String {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| svc.run_scheduled(wl, 1)))
            .expect_err("the estimator panics");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    #[test]
    fn an_estimator_panic_keeps_its_own_message_on_any_thread() {
        let g = fixture();
        // One graph: the calling thread hosts the loop.
        let mut svc = ShardedService::new(1, 3);
        svc.register(GraphKey(0), &g);
        let mut wl = batch(3);
        wl.requests[1].query.algorithm = Box::new(Explodes(GraphKey(0)));
        assert_eq!(panic_message(&svc, wl), "the estimator on graph 0 exploded");
        // Two shards: two workers, the caller and a spawned thread, share
        // the loops, so the loop that explodes may run on either. Each
        // shard explodes in turn.
        let svc = two_shards(&g);
        for shard in 0..2 {
            let mut wl = spread();
            let bad = wl
                .requests
                .iter()
                .map(|r| r.graph)
                .find(|&k| svc.shard_of(k) == shard)
                .expect("both shards serve requests");
            for r in wl.requests.iter_mut().filter(|r| r.graph == bad) {
                r.query.algorithm = Box::new(Explodes(bad));
            }
            assert_eq!(
                panic_message(&svc, wl),
                format!("the estimator on graph {} exploded", bad.0)
            );
        }
    }
}
