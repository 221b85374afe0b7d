//! # labelcount-perf
//!
//! The performance subsystem: a scenario-matrix harness that measures the
//! workspace's hot paths and persists the results as schema-versioned
//! `BENCH_<scenario>.json` files at the repository root, so every PR
//! accumulates a perf trajectory and CI can gate regressions.
//!
//! The matrix is **graph family** ([`scenario::Family`]: Barabási–Albert,
//! Erdős–Rényi, loaded edge lists, and the same loaded graph paged
//! out-of-core) × **scale tier** ([`scenario::Tier`]: `smoke` ~2k nodes,
//! `standard` ~200k, `stress` ~2M) × **algorithm** (the ten of the paper's
//! Table 2 plus the motif and graph-size extensions).
//! Per scenario it records walk steps/sec (per-step and batched
//! `steps_into` paths, plus the line graph through the exact O(1) neighbor
//! sampler), API calls consumed, NRMSE against exact ground truth, wall
//! times (including serial vs parallel ground-truth counting), and a
//! counting-allocator peak-RSS proxy.
//!
//! A report ([`report::Report`]) is the JSON tree the scenario writes:
//!
//! | section | holds | compared by |
//! |---|---|---|
//! | `scenario` | identity and parameters, plus the runner's `threads` | name and family matching |
//! | `counters` | one object per phase — `walk`, `algorithms`, `engine`, `workload`, `serving`, `scheduling`, `paging`, `invalidation`, `faults` — and `ground_truth_f`; bit-identical across same-seed runs (tested) | one tree, numbers by their bits; drift warns and names the first differing path |
//! | `measured` | wall times, throughputs, the calibration score, allocator traffic | [`compare`]'s policy table, one rule per gated path |
//!
//! The gate's policy table: the three stepping throughputs and the serial
//! wall times (`total_ms`, `engine_serial_ms`, `workload_serial_ms`,
//! `serving_serial_ms`, `scheduler_ms`, `hit_path_ns`, `page_fault_ns`)
//! are normalized by the calibration score and fail beyond the threshold;
//! `alloc.peak_bytes` fails raw when both sides measured it; the parallel
//! wall times only warn; `engine_parallel_speedup` fails only when both
//! runners are multi-core and the current one is at least as wide.
//! Adding or removing a counter needs no [`SCHEMA_VERSION`] bump; see its
//! docs for what does.
//!
//! Run it with `cargo run -p labelcount-perf -- --tier smoke`; compare with
//! `cargo run -p labelcount-perf -- compare --baseline . --current out/`.

#![warn(missing_docs)]
#![deny(unsafe_code)] // lifted only in alloc_track, the counting allocator

pub mod alloc_track;
pub mod compare;
pub mod json;
pub mod report;
pub mod scenario;

pub use compare::{compare_dirs, Comparison};
pub use report::{Report, SCHEMA_VERSION};
pub use scenario::{run_scenario, Family, ScenarioSpec, Tier, DEFAULT_SEED};
