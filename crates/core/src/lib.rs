//! # labelcount-core
//!
//! Estimators for **counting edges with target labels** in online social
//! networks via random walk — the primary contribution of Wu, Long, Fu &
//! Chen (EDBT 2018).
//!
//! Given a target edge label `(t1, t2)`, the number of target edges `F` is
//! estimated from a single random walk over the restricted OSN API:
//!
//! * **NeighborSample** (§4.1, [`neighbor_sample`]) — samples edges
//!   uniformly (each walk step traverses a uniform edge) and applies the
//!   Hansen–Hurwitz ([`NsHansenHurwitz`]) or Horvitz–Thompson
//!   ([`NsHorvitzThompson`]) estimator.
//! * **NeighborExploration** (§4.2, [`neighbor_exploration`]) — samples
//!   nodes from the walk's stationary distribution and, whenever a sampled
//!   node carries one of the target labels, explores its whole
//!   neighborhood to record `T(u)`, the number of incident target edges.
//!   Estimators: Hansen–Hurwitz ([`NeHansenHurwitz`]), Horvitz–Thompson
//!   ([`NeHorvitzThompson`]) and Re-weighted ([`NeReweighted`]).
//! * **Baselines** (§5.1, [`baselines`]) — the five node-count estimators
//!   of Li et al. (ICDE 2015) run on the implicit line graph `G'`:
//!   [`ExRw`], [`ExMhrw`], [`ExMdrw`], [`ExRcmh`], [`ExGmd`].
//! * **Bounds** ([`bounds`]) — the `(ε, δ)`-approximation sample-size
//!   bounds of Theorems 4.1–4.5.
//! * **Extensions** — [`motifs`] estimates label-refined wedge and
//!   triangle counts (the paper's §6 future work); [`size`] estimates
//!   `|V|` and `|E|` via walk collisions (the paper's prior-knowledge
//!   assumption, refs \[11\]/\[23\]), so the pipeline runs even when the OSN
//!   does not publish its size.
//!
//! All estimators implement the object-safe [`Algorithm`] trait so the
//! experiment harness can sweep them uniformly; [`algorithms::all_paper`]
//! returns the ten algorithms of the paper's Table 2. Every estimator
//! takes `&dyn labelcount_osn::OsnApi`, so the same compiled code runs
//! against the direct simulation or the thread-safe cached access layer;
//! [`engine::Engine`] packages the latter — one graph behind a shared
//! cache, serving many (optionally parallel-replicated) queries — and
//! [`workload`] turns it into a multi-query service: N concurrent
//! mixed-algorithm queries with seeded arrival order, per-query budgets,
//! and (optionally) a hostile, fault-injecting API between the estimators
//! and the graph, deterministic at any worker count. Every executor builds
//! a query's access stack through [`stack::QueryStack`].

#![warn(missing_docs)]

pub mod algorithm;
pub mod baselines;
pub mod bounds;
pub mod engine;
pub mod error;
pub mod motifs;
pub mod neighbor_exploration;
pub mod neighbor_sample;
pub mod request;
pub mod size;
pub mod stack;
pub mod workload;

pub use algorithm::{algorithms, Algorithm, RunConfig};
pub use baselines::{ExGmd, ExMdrw, ExMhrw, ExRcmh, ExRw};
pub use bounds::ApproxParams;
pub use engine::Engine;
pub use error::EstimateError;
pub use neighbor_exploration::{NeHansenHurwitz, NeHorvitzThompson, NeReweighted};
pub use neighbor_sample::{NsHansenHurwitz, NsHorvitzThompson};
pub use request::{Priority, QueryOutcome, QuerySpec, Schedule};
pub use stack::{QueryStack, Slice, SliceOutcome};
pub use workload::{run_workload, Workload, WorkloadBuilder, WorkloadReport};
