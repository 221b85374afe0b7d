//! # labelcount-serve
//!
//! The sharded multi-graph serving layer — the "millions of users" story
//! on top of the single-graph engine stack.
//!
//! One long-lived `labelcount` process holds **many graphs** (tenant
//! datasets, or shards of one giant graph) and serves a multi-tenant
//! stream of estimation queries against them:
//!
//! * [`ShardRouter`] places every [`GraphKey`] on a shard by **consistent
//!   hashing** (a seeded ring of virtual nodes), so placement is
//!   deterministic and resizing the shard set only remaps the keys of the
//!   shards that changed;
//! * [`ShardedService`] owns one [`Engine`](labelcount_core::Engine) —
//!   and therefore one shared L2 `CachedOsn` — **per registered graph,
//!   inside its owning shard**. Shards share nothing: a query for shard 3
//!   never touches a lock, an atomic, or a cache line owned by shard 5;
//! * [`ServiceWorkload`] is the multi-tenant request stream: every request
//!   names a tenant, a graph, and a query, and the service runs an
//!   **admission pass** (in virtual-time arrival order) before any query
//!   executes — per-tenant quotas charged against the same
//!   budget/`retry_charges` machinery that bills individual sessions, and
//!   a bounded modelled submission queue per served graph with seeded
//!   load shedding ([`AdmissionConfig`]);
//! * [`ShardedService::run_scheduled`] is the one executor: a serial
//!   virtual-time loop per graph ([`scheduler`]), which an unstamped
//!   workload runs as a plain batch and a [`SchedulePolicy`] turns
//!   deadline-aware. The loops run on one
//!   [`replicate`](fn@labelcount_stats::replicate) pool of up to `workers`
//!   workers per shard, the calling thread among them, and any worker
//!   takes any shard's waiting loop, so a call that touches one graph
//!   spawns no thread;
//! * shed and quota-rejected queries receive **anytime answers**: the
//!   deterministic report answers them from the summary of their graph's
//!   completed queries, and a query cancelled at its deadline before any
//!   replicate finished gets the mean of the answers its graph had
//!   completed by then.
//!
//! # Determinism
//!
//! The repo's superpower holds end to end: a [`ServiceReport`] is
//! **bit-identical at any shard count and any worker count**. Three design
//! rules make that true:
//!
//! 1. admission decisions are made serially in `(arrival tick, id)` order
//!    against a *modelled* queue (arrivals and a fixed drain rate), never
//!    against wall-clock execution state;
//! 2. every slice of an admitted query runs in its own
//!    [`QueryStack`](labelcount_core::QueryStack) with seeds derived from
//!    (service seed, graph key, query id, replicate) on its graph's
//!    virtual clock — neither its shard nor the thread that runs it
//!    enters the answer;
//! 3. the report aggregates in query-id order, and each graph's loop
//!    accumulates its cancellation fallback in its own completion order,
//!    on its own virtual timeline.

#![warn(missing_docs)]

pub mod admission;
pub mod router;
pub mod scheduler;
pub mod service;

pub use admission::{AdmissionConfig, AdmissionDecision, QuotaPolicy, RateLimit, RateLimitPolicy};
pub use router::{GraphKey, ShardRouter, TenantId};
pub use scheduler::{SchedulePolicy, SchedulingCounters};
pub use service::{
    ServiceOutcome, ServiceReport, ServiceRequest, ServiceStatus, ServiceWorkload,
    ServiceWorkloadBuilder, ServingCounters, ShardedService,
};
