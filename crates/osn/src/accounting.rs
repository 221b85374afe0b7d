//! Per-session call accounting, shared by the two session types
//! ([`crate::OsnSession`] over a shared cache and [`crate::SliceSession`]
//! over one slice's private map), so the budget and tick-ceiling rules
//! exist once.

use std::cell::Cell;

use crate::api::FetchCost;

/// One session's counters and stopping rules: logical calls per endpoint,
/// the retry charges and latency ticks its fetches billed, an optional
/// hard budget on charged neighbor-list calls, and an optional tick
/// ceiling. Plain `Cell`s: a session lives on one thread.
#[derive(Default)]
pub(crate) struct SessionAccounting {
    neighbor_calls: Cell<u64>,
    label_calls: Cell<u64>,
    retry_charges: Cell<u64>,
    latency_ticks: Cell<u64>,
    budget: Cell<Option<u64>>,
    tick_ceiling: Cell<Option<u64>>,
}

impl SessionAccounting {
    /// Counts one logical neighbor-list call.
    #[inline]
    pub(crate) fn count_neighbor_call(&self) {
        self.neighbor_calls.set(self.neighbor_calls.get() + 1);
    }

    /// Counts one logical profile call.
    #[inline]
    pub(crate) fn count_label_call(&self) {
        self.label_calls.set(self.label_calls.get() + 1);
    }

    /// Charges a fetch's realized cost beyond its logical call: attempts
    /// past the first become retry charges, and its ticks become latency
    /// ticks. A cache hit charges [`FetchCost::default`], which is free.
    #[inline]
    pub(crate) fn charge(&self, cost: FetchCost) {
        let extra = cost.extra_attempts();
        if extra > 0 {
            self.retry_charges.set(self.retry_charges.get() + extra);
        }
        if cost.ticks > 0 {
            self.latency_ticks
                .set(self.latency_ticks.get() + cost.ticks);
        }
    }

    pub(crate) fn neighbor_calls(&self) -> u64 {
        self.neighbor_calls.get()
    }

    pub(crate) fn label_calls(&self) -> u64 {
        self.label_calls.get()
    }

    /// Logical calls of both kinds.
    pub(crate) fn api_calls(&self) -> u64 {
        self.neighbor_calls.get() + self.label_calls.get()
    }

    pub(crate) fn retry_charges(&self) -> u64 {
        self.retry_charges.get()
    }

    pub(crate) fn latency_ticks(&self) -> u64 {
        self.latency_ticks.get()
    }

    /// Logical calls plus retry charges.
    pub(crate) fn charged_calls(&self) -> u64 {
        self.api_calls() + self.retry_charges.get()
    }

    /// Logical neighbor-list calls plus retry charges — what the budget is
    /// checked against. (Charges are not split per endpoint; they all
    /// weigh on the neighbor-call budget, the currency the paper's
    /// stopping rules are quoted in.)
    fn charged_neighbor_calls(&self) -> u64 {
        self.neighbor_calls.get() + self.retry_charges.get()
    }

    pub(crate) fn set_budget(&self, budget: Option<u64>) {
        self.budget.set(budget);
    }

    pub(crate) fn budget_remaining(&self) -> Option<u64> {
        self.budget
            .get()
            .map(|b| b.saturating_sub(self.charged_neighbor_calls()))
    }

    pub(crate) fn set_tick_ceiling(&self, ticks: Option<u64>) {
        self.tick_ceiling.set(ticks);
    }

    /// Whether the tick ceiling (if any) has been reached.
    pub(crate) fn ticks_exceeded(&self) -> bool {
        match self.tick_ceiling.get() {
            Some(t) => self.latency_ticks.get() >= t,
            None => false,
        }
    }

    /// Either ceiling stops the estimator at its next step-boundary poll:
    /// the charged-call budget (the paper's stopping currency) or the
    /// latency-tick ceiling (a deadline scheduler's slice allowance).
    /// [`SessionAccounting::ticks_exceeded`] tells them apart after the
    /// fact.
    pub(crate) fn budget_exhausted(&self) -> bool {
        if let Some(b) = self.budget.get() {
            if self.charged_neighbor_calls() >= b {
                return true;
            }
        }
        self.ticks_exceeded()
    }
}
