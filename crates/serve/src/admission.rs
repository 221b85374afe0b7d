//! Deterministic admission control: per-tenant quotas and seeded load
//! shedding against a modelled per-shard queue.
//!
//! A real server sheds load based on wall-clock queue depth — which makes
//! every run irreproducible. This module instead decides admission
//! **serially, in virtual-time arrival order, against a modelled queue**:
//! each queue's backlog grows by one per arrival routed to it and drains
//! one item every [`AdmissionConfig::drain_every`] arrivals to that queue,
//! or one per [`AdmissionConfig::service_ticks_per_item`] elapsed ticks.
//! The model is a deterministic function of (config, seed, arrival
//! sequence), so the same workload sheds the same requests at any shard
//! count, worker count, or machine speed. Execution happens *after* the
//! admission pass; slow machines change latencies, never answers.
//!
//! The state is generic over a set of modelled queues. The serving layer
//! deliberately keeps **one queue per registered graph** — not per shard —
//! because graph→queue assignment is placement-independent: resizing the
//! shard fleet moves where admitted work *executes* without changing what
//! is admitted, which is what keeps [`ServiceReport`](crate::ServiceReport)s
//! bit-identical across shard counts.
//!
//! Three outcomes, checked in order:
//!
//! 1. **quota** — the request's tenant has a hard neighbor-call quota
//!    ([`QuotaPolicy`]); a request whose minimum charge cannot fit is
//!    rejected with [`AdmissionDecision::QuotaExhausted`], and an admitted
//!    request *reserves* its budget up front (`min(hard_budget, tenant
//!    remaining)` becomes the effective session budget);
//! 2. **hard shed** — backlog at capacity rejects outright;
//! 3. **probabilistic shed** — above [`AdmissionConfig::shed_start`]
//!    occupancy, requests are shed with probability `((load − start) /
//!    (1 − start))²`, decided by a seeded per-request hash so the choice
//!    is reproducible and unbiased across tenants.

use crate::router::TenantId;
use labelcount_stats::replication_seed;

/// Hash stream for per-request shed coins.
const SHED_STREAM: u64 = 0x5ead_0003;

/// Maps `(seed, x)` to a uniform value in `[0, 1)` — the shed coin.
///
/// Uses the top 53 bits of the mixed hash so every representable value is
/// an exact dyadic rational (no rounding between platforms).
pub(crate) fn unit_hash(seed: u64, x: u64) -> f64 {
    (replication_seed(seed, x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Tuning for the modelled submission queues.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Backlog at which arrivals are shed unconditionally.
    pub queue_capacity: usize,
    /// A modelled queue drains one item every `drain_every` arrivals
    /// routed to it. `1` keeps pace with arrivals (backlog never grows);
    /// larger values model overload building at rate `1 − 1/drain_every`
    /// per arrival. The virtual-time model ignores it when
    /// [`AdmissionConfig::service_ticks_per_item`] is set.
    pub drain_every: usize,
    /// Occupancy fraction (`backlog / queue_capacity`) at which
    /// probabilistic shedding begins. `1.0` disables the probabilistic
    /// band, leaving only the hard capacity limit.
    pub shed_start: f64,
    /// Virtual-time service rate: the modelled queue drains one item per
    /// this many latency ticks ([`AdmissionState::decide_scheduled`]). `0`
    /// (the default) keeps the arrival-count drain model.
    pub service_ticks_per_item: u64,
    /// Maximum modelled queue **wait** (in latency ticks) an arrival will
    /// tolerate: a request whose modelled wait
    /// (`backlog × service_ticks_per_item`) exceeds this is shed — the
    /// admission layer seeing wait *time*, not just queue *depth*. `None`
    /// (the default) disables wait-based shedding.
    pub max_wait_ticks: Option<u64>,
}

impl Default for AdmissionConfig {
    /// A forgiving default: a deep queue that keeps pace with arrivals,
    /// so nothing is shed until a caller opts into tighter limits.
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 1024,
            drain_every: 1,
            shed_start: 0.75,
            service_ticks_per_item: 0,
            max_wait_ticks: None,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) {
        assert!(self.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(self.drain_every >= 1, "drain_every must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.shed_start),
            "shed_start must be in [0, 1]"
        );
    }
}

/// Per-tenant hard quotas on charged neighbor calls.
///
/// A tenant's quota is a budget for the whole service run, charged by the
/// same accounting the per-session budget uses (logical neighbor calls
/// plus fault `retry_charges`). `None` means unmetered.
#[derive(Clone, Debug, Default)]
pub struct QuotaPolicy {
    /// Quota applied to tenants without an explicit override.
    pub default_quota: Option<u64>,
    /// Per-tenant overrides, looked up before the default.
    pub overrides: Vec<(TenantId, u64)>,
}

impl QuotaPolicy {
    /// Unmetered: every tenant may spend freely.
    pub fn unmetered() -> QuotaPolicy {
        QuotaPolicy::default()
    }

    /// The same quota for every tenant.
    pub fn uniform(quota: u64) -> QuotaPolicy {
        QuotaPolicy {
            default_quota: Some(quota),
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces) a per-tenant override.
    pub fn with_override(mut self, tenant: TenantId, quota: u64) -> QuotaPolicy {
        self.overrides.retain(|(t, _)| *t != tenant);
        self.overrides.push((tenant, quota));
        self
    }

    /// The quota applying to `tenant`, if any.
    pub fn quota_for(&self, tenant: TenantId) -> Option<u64> {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, q)| *q)
            .or(self.default_quota)
    }
}

/// A shared per-tenant token bucket limiting the *rate* of charged
/// neighbor calls.
///
/// Where [`QuotaPolicy`] is a hard budget for the whole run, a rate limit
/// is renewable: the bucket holds up to `capacity` call-tokens, refills
/// one token per [`RateLimit::refill_interval_ticks`] elapsed *virtual*
/// ticks, and is drained by the same reservation the quota machinery
/// charges — every concurrent query of a tenant drinks from the one
/// bucket. An arrival finding the bucket empty is rejected with
/// [`AdmissionDecision::Throttled`]; a non-empty bucket additionally caps
/// the effective session budget at the tokens available.
///
/// Refill is driven by the arrival ticks handed to
/// [`AdmissionState::decide_scheduled`]; when every arrival sits at tick 0
/// (an unstamped workload) the bucket never refills and acts as a plain
/// shared cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Maximum tokens the bucket holds (and its initial fill).
    pub capacity: u64,
    /// Virtual ticks per regained token. `0` disables refill.
    pub refill_interval_ticks: u64,
}

/// Per-tenant [`RateLimit`]s, mirroring [`QuotaPolicy`]'s shape.
#[derive(Clone, Debug, Default)]
pub struct RateLimitPolicy {
    /// Limit applied to tenants without an explicit override.
    pub default_limit: Option<RateLimit>,
    /// Per-tenant overrides, looked up before the default.
    pub overrides: Vec<(TenantId, RateLimit)>,
}

impl RateLimitPolicy {
    /// No rate limiting for any tenant.
    pub fn unlimited() -> RateLimitPolicy {
        RateLimitPolicy::default()
    }

    /// The same limit for every tenant.
    pub fn uniform(limit: RateLimit) -> RateLimitPolicy {
        RateLimitPolicy {
            default_limit: Some(limit),
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces) a per-tenant override.
    pub fn with_override(mut self, tenant: TenantId, limit: RateLimit) -> RateLimitPolicy {
        self.overrides.retain(|(t, _)| *t != tenant);
        self.overrides.push((tenant, limit));
        self
    }

    /// The limit applying to `tenant`, if any.
    pub fn limit_for(&self, tenant: TenantId) -> Option<RateLimit> {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, l)| *l)
            .or(self.default_limit)
    }
}

/// What the admission pass decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run it, with this effective hard budget for its session (`None`
    /// when neither the query nor its tenant is budget-limited).
    Admitted {
        /// Effective per-session hard budget after quota reservation.
        effective_budget: Option<u64>,
    },
    /// Rejected by the modelled queue; `backlog` is the depth seen.
    Shed {
        /// Modelled backlog of the target queue at arrival time.
        backlog: usize,
    },
    /// Rejected because the tenant's quota cannot cover the request.
    QuotaExhausted,
    /// Rejected because the tenant's shared token bucket is empty right
    /// now — unlike [`AdmissionDecision::QuotaExhausted`] this is
    /// transient: the bucket refills with virtual time.
    Throttled,
}

/// Mutable state of the admission pass: modelled per-queue backlogs and
/// per-tenant remaining quota.
///
/// Drive it by calling [`AdmissionState::decide_scheduled`] once per
/// request **in `(arrival_tick, request_id)` order** — the order is part
/// of the model.
#[derive(Clone, Debug)]
pub struct AdmissionState {
    config: AdmissionConfig,
    seed: u64,
    queues: Vec<QueueModel>,
    /// Per-tenant remaining quota, populated lazily from the policy.
    remaining: Vec<(TenantId, u64)>,
    policy: QuotaPolicy,
    /// Per-tenant token buckets, populated lazily from the rate policy.
    buckets: Vec<(TenantId, TokenBucket)>,
    rate_policy: RateLimitPolicy,
}

/// Live state of one tenant's token bucket.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    tokens: u64,
    /// Virtual tick up to which refill has been credited; advances in
    /// whole intervals so the fractional remainder carries over.
    refilled_to_tick: u64,
}

/// One modelled submission queue.
#[derive(Clone, Copy, Debug, Default)]
struct QueueModel {
    backlog: usize,
    /// Arrivals since the last drain (arrival-count model).
    since_drain: usize,
    /// Virtual tick up to which the queue has been drained (virtual-time
    /// model; advances in whole service intervals so the fractional
    /// remainder carries over).
    drained_to_tick: u64,
}

impl AdmissionState {
    /// Fresh state for `queues` modelled queues.
    pub fn new(queues: usize, config: AdmissionConfig, policy: QuotaPolicy, seed: u64) -> Self {
        Self::with_rate_limits(queues, config, policy, RateLimitPolicy::unlimited(), seed)
    }

    /// [`AdmissionState::new`] with per-tenant [`RateLimitPolicy`] on top
    /// of the quota policy.
    pub fn with_rate_limits(
        queues: usize,
        config: AdmissionConfig,
        policy: QuotaPolicy,
        rate_policy: RateLimitPolicy,
        seed: u64,
    ) -> Self {
        config.validate();
        AdmissionState {
            config,
            seed,
            queues: vec![QueueModel::default(); queues],
            remaining: Vec::new(),
            policy,
            buckets: Vec::new(),
            rate_policy,
        }
    }

    fn remaining_for(&mut self, tenant: TenantId) -> Option<u64> {
        if let Some((_, r)) = self.remaining.iter().find(|(t, _)| *t == tenant) {
            return Some(*r);
        }
        let quota = self.policy.quota_for(tenant)?;
        self.remaining.push((tenant, quota));
        Some(quota)
    }

    fn charge(&mut self, tenant: TenantId, amount: u64) {
        if let Some((_, r)) = self.remaining.iter_mut().find(|(t, _)| *t == tenant) {
            *r = r.saturating_sub(amount);
        }
    }

    /// Decides one arrival at virtual tick `arrival_tick`: `request_id`
    /// must be unique per request (it salts the shed coin), `queue` is the
    /// modelled queue the request targets, `hard_budget` the query's own
    /// cap (if any). Drive it once per request in ascending
    /// `(arrival_tick, request_id)` order.
    ///
    /// Quota is checked first — a quota rejection must not depend on queue
    /// luck — then the tenant's token bucket, then the modelled queue.
    /// Admission reserves the effective budget against the tenant's quota
    /// and bucket immediately.
    ///
    /// The queue drains one of two ways:
    ///
    /// * when [`AdmissionConfig::service_ticks_per_item`] is positive, one
    ///   item per that many elapsed virtual ticks — backlog is a function
    ///   of *time*, not arrival cadence;
    /// * otherwise one item per [`AdmissionConfig::drain_every`] arrivals,
    ///   whatever the arrival ticks say.
    ///
    /// When [`AdmissionConfig::max_wait_ticks`] is set, an arrival whose
    /// modelled wait (`backlog × service_ticks_per_item`) exceeds it is
    /// shed: the queue is deep enough that the request would blow its
    /// useful lifetime just waiting.
    ///
    /// Everything is a pure function of (config, seed, ordered arrival
    /// sequence) — no wall clock — so scheduled admission is bit-identical
    /// across shard and worker counts like everything else in this module.
    pub fn decide_scheduled(
        &mut self,
        request_id: u64,
        tenant: TenantId,
        queue: usize,
        hard_budget: Option<u64>,
        arrival_tick: u64,
    ) -> AdmissionDecision {
        let effective = match self
            .quota_effective(tenant, hard_budget)
            .and_then(|e| self.rate_effective(tenant, e, arrival_tick))
        {
            Ok(e) => e,
            Err(rejected) => return rejected,
        };

        let ticks_per_item = self.config.service_ticks_per_item;
        let q = &mut self.queues[queue];
        // `> 0` selects the drain *model* (zero = arrival-count), it is
        // not a division guard, so `checked_div` would misstate intent.
        #[allow(clippy::manual_checked_ops)]
        if ticks_per_item > 0 {
            // Virtual-time drain, carrying the sub-interval remainder.
            let elapsed = arrival_tick.saturating_sub(q.drained_to_tick);
            let drained = elapsed / ticks_per_item;
            q.backlog = q.backlog.saturating_sub(drained as usize);
            q.drained_to_tick += drained * ticks_per_item;
            if q.backlog == 0 {
                // An empty queue has nothing left to drain: realign so idle
                // periods are not banked as future drain credit.
                q.drained_to_tick = arrival_tick;
            }
        } else {
            // No service-rate model: keep the arrival-count drain.
            q.since_drain += 1;
            if q.since_drain >= self.config.drain_every {
                q.since_drain = 0;
                q.backlog = q.backlog.saturating_sub(1);
            }
        }
        let wait = q.backlog as u64 * ticks_per_item;
        if let Some(rejected) = self.queue_shed(request_id, queue, wait) {
            return rejected;
        }
        self.admit(tenant, queue, effective)
    }

    /// The quota gate: the effective session budget on success, the
    /// rejection on failure.
    fn quota_effective(
        &mut self,
        tenant: TenantId,
        hard_budget: Option<u64>,
    ) -> Result<Option<u64>, AdmissionDecision> {
        match self.remaining_for(tenant) {
            Some(0) => Err(AdmissionDecision::QuotaExhausted),
            Some(remaining) => match hard_budget {
                // A budgeted query capped to what the tenant can still pay.
                Some(b) => Ok(Some(b.min(remaining))),
                // An unbudgeted query under a metered tenant inherits the
                // tenant's remaining allowance as its session budget.
                None => Ok(Some(remaining)),
            },
            None => Ok(hard_budget),
        }
    }

    /// The token-bucket gate, applied after the quota gate: refills the
    /// tenant's bucket to `now_tick`, rejects on empty, and otherwise caps
    /// the effective budget at the tokens available (so the reservation in
    /// [`AdmissionState::admit`] can never overdraw the bucket).
    fn rate_effective(
        &mut self,
        tenant: TenantId,
        effective: Option<u64>,
        now_tick: u64,
    ) -> Result<Option<u64>, AdmissionDecision> {
        let Some(limit) = self.rate_policy.limit_for(tenant) else {
            return Ok(effective);
        };
        let bucket = match self.buckets.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, b)) => b,
            None => {
                // First sighting: a full bucket, refill clock aligned to
                // now so pre-arrival idleness banks nothing.
                self.buckets.push((
                    tenant,
                    TokenBucket {
                        tokens: limit.capacity,
                        refilled_to_tick: now_tick,
                    },
                ));
                &mut self.buckets.last_mut().expect("just pushed").1
            }
        };
        let elapsed = now_tick.saturating_sub(bucket.refilled_to_tick);
        if let Some(gained) = elapsed.checked_div(limit.refill_interval_ticks) {
            bucket.tokens = bucket.tokens.saturating_add(gained).min(limit.capacity);
            bucket.refilled_to_tick = bucket
                .refilled_to_tick
                .saturating_add(gained.saturating_mul(limit.refill_interval_ticks));
            if bucket.tokens == limit.capacity {
                // A full bucket has nothing left to refill: realign so
                // idle periods are not banked as future tokens.
                bucket.refilled_to_tick = now_tick;
            }
        }
        if bucket.tokens == 0 {
            return Err(AdmissionDecision::Throttled);
        }
        let tokens = bucket.tokens;
        Ok(Some(effective.map_or(tokens, |e| e.min(tokens))))
    }

    /// The shedding gates against an already-drained queue: modelled wait
    /// (when a maximum is configured), hard capacity, then the
    /// probabilistic band.
    fn queue_shed(
        &mut self,
        request_id: u64,
        queue: usize,
        wait_ticks: u64,
    ) -> Option<AdmissionDecision> {
        let backlog_seen = self.queues[queue].backlog;
        if let Some(max) = self.config.max_wait_ticks {
            if wait_ticks > max {
                return Some(AdmissionDecision::Shed {
                    backlog: backlog_seen,
                });
            }
        }
        if backlog_seen >= self.config.queue_capacity {
            return Some(AdmissionDecision::Shed {
                backlog: backlog_seen,
            });
        }
        let load = backlog_seen as f64 / self.config.queue_capacity as f64;
        if self.config.shed_start < 1.0 && load >= self.config.shed_start {
            let over = (load - self.config.shed_start) / (1.0 - self.config.shed_start);
            let p = over * over;
            if unit_hash(replication_seed(self.seed, SHED_STREAM), request_id) < p {
                return Some(AdmissionDecision::Shed {
                    backlog: backlog_seen,
                });
            }
        }
        None
    }

    /// Enqueues in the model and reserves the quota.
    fn admit(
        &mut self,
        tenant: TenantId,
        queue: usize,
        effective: Option<u64>,
    ) -> AdmissionDecision {
        self.queues[queue].backlog += 1;
        if let Some(b) = effective {
            if self.policy.quota_for(tenant).is_some() {
                self.charge(tenant, b);
            }
            if self.rate_policy.limit_for(tenant).is_some() {
                if let Some((_, bucket)) = self.buckets.iter_mut().find(|(t, _)| *t == tenant) {
                    bucket.tokens = bucket.tokens.saturating_sub(b);
                }
            }
        }
        AdmissionDecision::Admitted {
            effective_budget: effective,
        }
    }

    /// Tokens currently in `tenant`'s bucket (`None` when unlimited;
    /// before the first arrival the bucket reads full).
    pub fn rate_tokens_remaining(&self, tenant: TenantId) -> Option<u64> {
        let limit = self.rate_policy.limit_for(tenant)?;
        Some(
            self.buckets
                .iter()
                .find(|(t, _)| *t == tenant)
                .map_or(limit.capacity, |(_, b)| b.tokens),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    fn tight() -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 4,
            drain_every: 4,
            shed_start: 0.5,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn default_config_admits_everything() {
        let mut st =
            AdmissionState::new(2, AdmissionConfig::default(), QuotaPolicy::unmetered(), 7);
        for id in 0..500u64 {
            let d = st.decide_scheduled(id, T0, (id % 2) as usize, None, 0);
            assert_eq!(
                d,
                AdmissionDecision::Admitted {
                    effective_budget: None
                }
            );
        }
    }

    #[test]
    fn overload_builds_and_hard_sheds() {
        // drain_every = 4 on a single shard: net backlog growth 3 per 4
        // arrivals, so capacity 4 is hit quickly and hard-sheds follow.
        let mut st = AdmissionState::new(1, tight(), QuotaPolicy::unmetered(), 11);
        let mut shed = 0;
        let mut admitted = 0;
        for id in 0..64u64 {
            match st.decide_scheduled(id, T0, 0, None, 0) {
                AdmissionDecision::Admitted { .. } => admitted += 1,
                AdmissionDecision::Shed { backlog } => {
                    assert!(backlog <= 4);
                    shed += 1;
                }
                AdmissionDecision::QuotaExhausted | AdmissionDecision::Throttled => unreachable!(),
            }
        }
        assert!(shed > 0, "tight queue never shed");
        assert!(admitted > 0, "tight queue admitted nothing");
    }

    #[test]
    fn shedding_is_deterministic() {
        let run = || {
            let mut st = AdmissionState::new(2, tight(), QuotaPolicy::unmetered(), 99);
            (0..128u64)
                .map(|id| st.decide_scheduled(id, TenantId(id % 3), (id % 2) as usize, Some(50), 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quota_caps_and_exhausts() {
        let policy = QuotaPolicy::uniform(100);
        let mut st = AdmissionState::new(1, AdmissionConfig::default(), policy, 5);
        // First budgeted query reserves 60 of the 100.
        assert_eq!(
            st.decide_scheduled(0, T0, 0, Some(60), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(60)
            }
        );
        // Second wants 60 but only 40 remain: capped, not rejected.
        assert_eq!(
            st.decide_scheduled(1, T0, 0, Some(60), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(40)
            }
        );
        // Quota now zero: rejected outright, independent of queue state.
        assert_eq!(
            st.decide_scheduled(2, T0, 0, Some(1), 0),
            AdmissionDecision::QuotaExhausted
        );
        assert_eq!(
            st.decide_scheduled(3, T0, 0, None, 0),
            AdmissionDecision::QuotaExhausted
        );
        // Another tenant is unaffected.
        assert_eq!(
            st.decide_scheduled(4, T1, 0, Some(10), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(10)
            }
        );
    }

    #[test]
    fn unbudgeted_query_inherits_tenant_remaining() {
        let mut st =
            AdmissionState::new(1, AdmissionConfig::default(), QuotaPolicy::uniform(25), 5);
        assert_eq!(
            st.decide_scheduled(0, T0, 0, None, 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(25)
            }
        );
        assert_eq!(
            st.decide_scheduled(1, T0, 0, None, 0),
            AdmissionDecision::QuotaExhausted
        );
    }

    #[test]
    fn overrides_beat_the_default() {
        let policy = QuotaPolicy::uniform(10).with_override(T1, 1_000);
        assert_eq!(policy.quota_for(T0), Some(10));
        assert_eq!(policy.quota_for(T1), Some(1_000));
        let unmetered = QuotaPolicy::unmetered().with_override(T1, 7);
        assert_eq!(unmetered.quota_for(T0), None);
        assert_eq!(unmetered.quota_for(T1), Some(7));
    }

    #[test]
    fn scheduled_with_zero_service_rate_matches_the_count_model() {
        // service_ticks_per_item = 0 keeps the arrival-count drain, so the
        // decisions are the same whatever the arrival ticks say.
        let mut count = AdmissionState::new(1, tight(), QuotaPolicy::unmetered(), 21);
        let mut sched = AdmissionState::new(1, tight(), QuotaPolicy::unmetered(), 21);
        for id in 0..64u64 {
            let a = count.decide_scheduled(id, T0, 0, Some(40), 0);
            let b = sched.decide_scheduled(id, T0, 0, Some(40), id * 17);
            assert_eq!(a, b, "request {id} diverged");
        }
    }

    #[test]
    fn virtual_time_drain_tracks_elapsed_ticks() {
        // One item drains per 10 ticks. Back-to-back arrivals build
        // backlog; a long gap drains it.
        let cfg = AdmissionConfig {
            queue_capacity: 8,
            shed_start: 1.0,
            service_ticks_per_item: 10,
            ..AdmissionConfig::default()
        };
        let mut st = AdmissionState::new(1, cfg, QuotaPolicy::unmetered(), 3);
        for id in 0..4u64 {
            // All at tick 0: no time passes, nothing drains.
            assert!(matches!(
                st.decide_scheduled(id, T0, 0, None, 0),
                AdmissionDecision::Admitted { .. }
            ));
        }
        assert_eq!(st.queues[0].backlog, 4);
        // 25 ticks later: two full service intervals have elapsed.
        assert!(matches!(
            st.decide_scheduled(4, T0, 0, None, 25),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(st.queues[0].backlog, 3, "25 ticks drain 2 of 4, +1 arrival");
        // The 5-tick remainder carries: 5 more ticks complete interval 3.
        assert!(matches!(
            st.decide_scheduled(5, T0, 0, None, 30),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(st.queues[0].backlog, 3, "remainder carried across calls");
    }

    #[test]
    fn max_wait_sheds_on_modelled_wait_not_depth() {
        // Deep queue (capacity 100, no probabilistic band) but arrivals
        // tolerate at most 25 ticks of modelled wait = 2 queued items at
        // 10 ticks each.
        let cfg = AdmissionConfig {
            queue_capacity: 100,
            shed_start: 1.0,
            service_ticks_per_item: 10,
            max_wait_ticks: Some(25),
            ..AdmissionConfig::default()
        };
        let mut st = AdmissionState::new(1, cfg, QuotaPolicy::unmetered(), 9);
        for id in 0..3u64 {
            assert!(
                matches!(
                    st.decide_scheduled(id, T0, 0, None, 0),
                    AdmissionDecision::Admitted { .. }
                ),
                "request {id} within wait tolerance"
            );
        }
        // Fourth simultaneous arrival would wait 30 ticks behind 3 items.
        assert!(matches!(
            st.decide_scheduled(3, T0, 0, None, 0),
            AdmissionDecision::Shed { backlog: 3 }
        ));
        // After 30 idle ticks the queue drained to zero wait again.
        assert!(matches!(
            st.decide_scheduled(4, T0, 0, None, 30),
            AdmissionDecision::Admitted { .. }
        ));
    }

    #[test]
    fn idle_periods_bank_no_drain_credit() {
        let cfg = AdmissionConfig {
            queue_capacity: 8,
            shed_start: 1.0,
            service_ticks_per_item: 10,
            ..AdmissionConfig::default()
        };
        let mut st = AdmissionState::new(1, cfg, QuotaPolicy::unmetered(), 4);
        // Long idle stretch before the first arrival must not pre-pay for
        // draining work that does not exist yet.
        assert!(matches!(
            st.decide_scheduled(0, T0, 0, None, 1_000),
            AdmissionDecision::Admitted { .. }
        ));
        assert!(matches!(
            st.decide_scheduled(1, T0, 0, None, 1_005),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(
            st.queues[0].backlog, 2,
            "5 ticks after a fresh enqueue drains nothing"
        );
    }

    #[test]
    fn token_bucket_throttles_and_refills_on_virtual_time() {
        // 10-call bucket, one token back per 5 ticks.
        let limit = RateLimit {
            capacity: 10,
            refill_interval_ticks: 5,
        };
        let mut st = AdmissionState::with_rate_limits(
            1,
            AdmissionConfig::default(),
            QuotaPolicy::unmetered(),
            RateLimitPolicy::uniform(limit),
            7,
        );
        // A budgeted query reserves 6 of the 10 tokens.
        assert_eq!(
            st.decide_scheduled(0, T0, 0, Some(6), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(6)
            }
        );
        assert_eq!(st.rate_tokens_remaining(T0), Some(4));
        // The next wants 6 but only 4 remain: capped, not rejected —
        // concurrent queries of a tenant share the one bucket.
        assert_eq!(
            st.decide_scheduled(1, T0, 0, Some(6), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(4)
            }
        );
        // Empty bucket, no time elapsed: throttled (transiently).
        assert_eq!(
            st.decide_scheduled(2, T0, 0, Some(1), 0),
            AdmissionDecision::Throttled
        );
        // Another tenant has its own bucket.
        assert_eq!(
            st.decide_scheduled(3, T1, 0, Some(2), 0),
            AdmissionDecision::Admitted {
                effective_budget: Some(2)
            }
        );
        // 12 ticks later two tokens are back; the unbudgeted query
        // inherits exactly those two.
        assert_eq!(
            st.decide_scheduled(4, T0, 0, None, 12),
            AdmissionDecision::Admitted {
                effective_budget: Some(2)
            }
        );
        // The 2-tick remainder carried: 3 more ticks complete interval 3.
        assert_eq!(
            st.decide_scheduled(5, T0, 0, Some(1), 15),
            AdmissionDecision::Admitted {
                effective_budget: Some(1)
            }
        );
    }

    #[test]
    fn token_bucket_composes_with_quota_and_banks_no_idle_credit() {
        let limit = RateLimit {
            capacity: 100,
            refill_interval_ticks: 1,
        };
        let mut st = AdmissionState::with_rate_limits(
            1,
            AdmissionConfig::default(),
            QuotaPolicy::uniform(30),
            RateLimitPolicy::uniform(limit),
            7,
        );
        // Quota (30) binds below the bucket (100).
        assert_eq!(
            st.decide_scheduled(0, T0, 0, None, 1_000),
            AdmissionDecision::Admitted {
                effective_budget: Some(30)
            }
        );
        // Pre-arrival idleness banked nothing: the bucket was initialized
        // full at tick 1000, not overfull.
        assert_eq!(st.rate_tokens_remaining(T0), Some(70));
        // Quota exhaustion still wins over a healthy bucket.
        assert_eq!(
            st.decide_scheduled(1, T0, 0, Some(1), 1_001),
            AdmissionDecision::QuotaExhausted
        );
    }

    #[test]
    fn unlimited_rate_policy_changes_nothing() {
        let run = |rate: RateLimitPolicy| {
            let mut st =
                AdmissionState::with_rate_limits(2, tight(), QuotaPolicy::uniform(200), rate, 99);
            (0..128u64)
                .map(|id| {
                    st.decide_scheduled(id, TenantId(id % 3), (id % 2) as usize, Some(50), id)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(RateLimitPolicy::unlimited()),
            run(RateLimitPolicy::default())
        );
        // And a bucket too large to bind is also invisible.
        let huge = RateLimitPolicy::uniform(RateLimit {
            capacity: u64::MAX,
            refill_interval_ticks: 1,
        });
        assert_eq!(run(RateLimitPolicy::unlimited()), run(huge));
    }

    #[test]
    fn unit_hash_is_uniformish_and_stable() {
        let a: Vec<f64> = (0..32).map(|x| unit_hash(1, x)).collect();
        let b: Vec<f64> = (0..32).map(|x| unit_hash(1, x)).collect();
        assert_eq!(a, b);
        for &v in &a {
            assert!((0.0..1.0).contains(&v));
        }
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 0.5).abs() < 0.2, "suspicious shed-coin mean {mean}");
    }
}
