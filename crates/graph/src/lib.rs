//! # labelcount-graph
//!
//! Labeled-graph substrate for the `labelcount` workspace.
//!
//! This crate provides everything the estimators of Wu et al. (EDBT 2018,
//! *Counting Edges with Target Labels in Online Social Networks via Random
//! Walk*) need from a graph:
//!
//! * [`LabeledGraph`] — an immutable, compressed-sparse-row (CSR) undirected
//!   graph whose nodes carry sets of labels (gender, location, degree bucket,
//!   …), built through [`GraphBuilder`] which removes self-loops and
//!   multi-edges exactly as the paper's preprocessing does.
//! * [`alias`] — O(1) weighted sampling via alias tables (Vose), used for
//!   degree-proportional start nodes (walks started *at* the simple walk's
//!   stationary distribution) and other fixed-weight hot-path draws.
//! * [`components`] — connected components and largest-connected-component
//!   extraction (the paper evaluates on the largest CC of each network).
//! * [`ground_truth`] — exact target-edge counts `F` and per-node incident
//!   target-edge counts `T(u)`, used to compute NRMSE and the theoretical
//!   sample-size bounds.
//! * [`gen`] — synthetic OSN generators (Erdős–Rényi, Barabási–Albert,
//!   Watts–Strogatz, planted communities) substituting for the SNAP/KONECT
//!   snapshots used in the paper (see DESIGN.md §6).
//! * [`labels`] — label-assignment models (binary gender-like, Zipf
//!   location-like with homophily, degree buckets).
//! * [`io`] — plain-text edge-list / label-list readers and writers.
//! * [`paged`] — out-of-core graphs: a fixed-size-page on-disk record
//!   format ([`PagedCsrWriter`]) read back through a pinned-page [`BufferPool`]
//!   with pluggable eviction ([`EvictionPolicy`]), so residency is bounded
//!   by a frame budget instead of `|E|`.
//! * [`motifs`] — exact counts of label-refined wedges and triangles, the
//!   ground truth for the paper's future-work extension (§6).
//! * [`churn`] — dynamic graphs: a seeded, deterministic stream of edge
//!   and label mutations over a copy-on-write [`MutableGraph`], with
//!   per-node-region [`Epoch`] stamps that downstream caches use to
//!   invalidate stale entries.
//!
//! The graph is deliberately *not* exposed to the estimator crates directly;
//! they access it through the restricted-API simulation in `labelcount-osn`,
//! mirroring the paper's assumption that OSNs are only reachable via
//! neighbor-list APIs.

#![warn(missing_docs)]

pub mod alias;
pub mod builder;
pub mod churn;
pub mod components;
pub mod csr;
pub mod gen;
pub mod ground_truth;
pub mod io;
pub mod labels;
pub mod motifs;
pub mod paged;
pub mod stats;

mod ids;

pub use alias::AliasTable;
pub use builder::GraphBuilder;
pub use churn::{ChurnConfig, ChurnEvent, ChurnSchedule, ChurnStats, Epoch, MutableGraph};
pub use csr::LabeledGraph;
pub use ground_truth::{GroundTruth, TargetLabel};
pub use ids::{LabelId, NodeId};
pub use paged::{
    BufferPool, EvictionPolicy, FaultyStorage, PageStore, PagedCsrWriter, PagedError, PagedGraph,
    PagingStats, PoolConfig, StorageFaultConfig,
};
