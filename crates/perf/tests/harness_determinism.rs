//! The harness's core guarantee: same scenario + same seed ⇒ identical
//! deterministic counters (steps, API calls, estimates), end to end
//! through JSON serialization.

use std::path::Path;

use labelcount_perf::json::Json;
use labelcount_perf::report::Report;
use labelcount_perf::scenario::{
    run_scenario, Family, PoolFrames, ScenarioSpec, Tier, DEFAULT_SEED,
};

fn smoke_spec(family: Family, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(family, Tier::Smoke, seed)
}

/// The number at a path under `counters`.
fn c(r: &Report, path: &str) -> f64 {
    r.counter(path)
        .unwrap_or_else(|| panic!("no counter `{path}`"))
}

/// The number at a path under `measured`.
fn m(r: &Report, path: &str) -> f64 {
    r.metric(path)
        .unwrap_or_else(|| panic!("no measurement `{path}`"))
}

/// One phase's section of `counters`.
fn section<'a>(r: &'a Report, name: &str) -> &'a Json {
    r.counters
        .get(name)
        .unwrap_or_else(|| panic!("no counters section `{name}`"))
}

/// Two same-seed runs must agree on every counter. Wall-clock metrics are
/// deliberately not compared.
#[test]
fn smoke_counters_are_identical_across_runs_at_the_same_seed() {
    let spec = smoke_spec(Family::Ba, 7);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);

    assert_eq!(a.meta, b.meta);
    // Every phase's counters — walk, estimates and API calls, the engine's
    // logical/miss/L1 split, the workload's faults and latency ticks,
    // serving, scheduling, paging, invalidation, and faults — compared as
    // one tree, numbers bit for bit.
    assert_eq!(a.counters.first_difference(&b.counters), None);
    for name in [
        "walk",
        "algorithms",
        "engine",
        "workload",
        "serving",
        "scheduling",
        "paging",
        "invalidation",
        "faults",
        "ground_truth_f",
    ] {
        section(&a, name);
    }
}

/// A fresh default run of every family must reproduce the committed
/// baselines' counters bit for bit. `compare` only warns on counter drift,
/// so this is the check that fails when a change moves a counter without
/// regenerating the baselines.
#[test]
fn fresh_smoke_runs_reproduce_the_committed_counters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for family in Family::all() {
        let path = root.join(format!("BENCH_{}_smoke.json", family.name()));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let committed =
            Report::from_json_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = run_scenario(&ScenarioSpec::new(family, Tier::Smoke, DEFAULT_SEED));
        assert_eq!(
            committed.counters.first_difference(&fresh.counters),
            None,
            "{} drifted from a fresh run",
            path.display()
        );
    }
}

/// Counters must survive the BENCH_*.json round trip unchanged, and the
/// batched walk must land on the same node as the per-step walk.
#[test]
fn smoke_report_round_trips_and_batched_walk_agrees() {
    let spec = smoke_spec(Family::Er, 13);
    let report = run_scenario(&spec);

    assert_eq!(
        c(&report, "walk.per_step_end"),
        c(&report, "walk.batched_end")
    );
    // The line walk pays exactly 2 neighbor-list calls per step through the
    // O(1) sampler (plus the calls spent finding a start edge).
    let line_steps = (c(&report, "walk.steps") / 4.0).floor();
    assert!(c(&report, "walk.line_api_calls") >= 2.0 * line_steps);

    let text = report.to_json().to_pretty();
    let parsed = Report::from_json_text(&text).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.file_name(), "BENCH_er_smoke.json");

    // The engine counters survive the round trip and satisfy the
    // cached-access-layer contract: a caching crawler pays at least 30%
    // fewer backend (miss) API calls than the uncached baseline's logical
    // total, and the replicate count matches the estimate vector.
    let e = |key: &str| c(&parsed, &format!("engine.{key}"));
    let engine_estimates = section(&parsed, "engine")
        .get("estimates")
        .and_then(Json::as_arr)
        .expect("engine estimates");
    assert_eq!(e("replicates") as usize, engine_estimates.len());
    assert!(e("miss_api_calls") <= e("logical_api_calls"));
    assert!(
        e("miss_api_calls") <= 0.7 * e("logical_api_calls"),
        "engine cache saved too little: {} misses / {} logical",
        e("miss_api_calls"),
        e("logical_api_calls")
    );
    let expect_rate = (e("logical_api_calls") - e("miss_api_calls")) / e("logical_api_calls");
    assert_eq!(e("hit_rate").to_bits(), expect_rate.to_bits());
    // The cache-hierarchy fields: replicated estimation over a shared
    // graph is repeat-heavy, so the session L1s must absorb a nonzero
    // share of the hits, bounded by the total hit count.
    assert!(e("l1_hits") > 0.0, "engine sessions produced zero L1 hits");
    assert!(e("l1_hits") <= e("logical_api_calls") - e("miss_api_calls"));
    assert!(m(&parsed, "engine_serial_ms") > 0.0);
    assert!(m(&parsed, "engine_parallel_ms") > 0.0);
    assert!(m(&parsed, "engine_parallel_speedup") > 0.0);
    assert!(
        m(&parsed, "hit_path_ns") > 0.0,
        "warm-cache probe must measure a positive per-call cost"
    );

    // The workload section survives the round trip and satisfies the
    // adversarial-service contract: at the default 0.15 fault rate every
    // committed baseline has live fault counters, the realized API cost
    // strictly exceeds the cache's backend misses it wraps, and the
    // latency percentiles are ordered.
    let w = |key: &str| c(&parsed, &format!("workload.{key}"));
    let workload_estimates = section(&parsed, "workload")
        .get("estimates")
        .and_then(Json::as_arr)
        .expect("workload estimates");
    assert_eq!(w("queries") as usize, workload_estimates.len());
    assert!(w("fault_rate") > 0.0);
    assert!(
        w("retry_charges") > 0.0,
        "a hostile API must charge retries"
    );
    assert!(w("rate_limited") + w("transient_errors") > 0.0);
    assert!(w("backend_attempts") > 0.0);
    // attempts = misses + retries + extra pages; misses are not stored,
    // but attempts − charges (= misses) must stay within the logical
    // total the caches absorbed them from.
    assert!(w("backend_attempts") - w("retry_charges") <= w("logical_api_calls"));
    assert!(w("latency_ticks_p50") > 0.0);
    assert!(w("latency_ticks_p50") <= w("latency_ticks_p95"));
    assert!(parsed.meta.threads >= 1);
    assert!(m(&parsed, "workload_serial_ms") > 0.0);
    assert!(m(&parsed, "workload_parallel_ms") > 0.0);
    assert!(m(&parsed, "workload_queries_per_sec") > 0.0);

    // The serving section survives the round trip and satisfies the
    // multi-tenant contract: under the default skew and the phase's tight
    // admission model, every committed baseline admits, sheds, AND
    // quota-rejects — all three paths live in every report the compare
    // gate sees.
    let s = |key: &str| c(&parsed, &format!("serving.{key}"));
    assert_eq!(
        s("requests"),
        s("admitted") + s("shed") + s("quota_exhausted")
    );
    assert!(s("admitted") > 0.0, "serving phase admitted nothing");
    assert!(s("shed") > 0.0, "serving phase never shed");
    assert!(
        s("quota_exhausted") > 0.0,
        "serving phase never hit a quota"
    );
    assert!(s("shards") >= 1.0 && s("tenants") >= 2.0);
    // The heavy hitter is quota-capped while light tenants keep flowing,
    // so admitted counts per tenant can never be perfectly even.
    assert!(s("tenant_fairness") >= 1.0);
    assert!(m(&parsed, "serving_serial_ms") > 0.0);
    assert!(m(&parsed, "serving_parallel_ms") > 0.0);

    // The scheduling section survives the round trip and satisfies the
    // deadline contract: at the default p95 tightness most requests hit
    // their deadline while the tail cancels into anytime answers — both
    // paths live in every report the compare gate sees.
    assert!(
        c(&parsed, "scheduling.deadline_hits") > 0.0,
        "scheduler phase hit no deadlines"
    );
    assert!(
        c(&parsed, "scheduling.cancellations") > 0.0,
        "a p95 deadline must cancel the tail of the stream"
    );
    assert!(c(&parsed, "scheduling.mean_slack_ticks") >= 0.0);
    assert!(m(&parsed, "scheduler_ms") > 0.0);

    // The paging section: in-RAM families never touch the pool, so
    // their counters are all-zero and the fault probe reports 0.0.
    for key in ["page_reads", "pool_hits", "evictions", "pinned_peak"] {
        assert_eq!(c(&parsed, &format!("paging.{key}")), 0.0, "{key}");
    }
    assert_eq!(m(&parsed, "page_fault_ns"), 0.0);
}

/// The out-of-core scenario. Bit-identity of every paged serial pass
/// against its in-RAM twin is asserted *inside* `run_scenario` (the run
/// panics on any divergence), so this test focuses on the paging section:
/// the counters are live at the default tight budget, deterministic
/// across runs, and a roomier budget moves *only* them.
#[test]
fn loaded_paged_scenario_reports_live_deterministic_paging_counters() {
    let spec = smoke_spec(Family::LoadedPaged, 3);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    let p = |r: &Report, key: &str| c(r, &format!("paging.{key}"));
    assert!(p(&a, "page_reads") > 0.0, "paged phases read no pages");
    assert!(p(&a, "pool_hits") > 0.0, "paged phases never hit the pool");
    assert!(p(&a, "evictions") > 0.0, "a tight budget must evict");
    assert!(p(&a, "pinned_peak") >= 1.0);
    assert_eq!(
        section(&a, "paging"),
        section(&b, "paging"),
        "paging counters must be deterministic"
    );
    assert!(
        m(&a, "page_fault_ns") > 0.0,
        "cold-pool probe must measure a positive per-fault cost"
    );

    // An unbounded pool never evicts and re-reads nothing, yet every
    // other deterministic counter — estimates, faults, admission,
    // scheduling — is untouched by the budget.
    let mut roomy_spec = spec;
    roomy_spec.pool_frames = PoolFrames::Unbounded;
    let roomy = run_scenario(&roomy_spec);
    assert_eq!(p(&roomy, "evictions"), 0.0);
    assert!(p(&roomy, "page_reads") <= p(&a, "page_reads"));
    assert!(p(&roomy, "pool_hits") >= p(&a, "pool_hits"));
    for name in [
        "walk",
        "engine",
        "workload",
        "serving",
        "scheduling",
        "ground_truth_f",
    ] {
        assert_eq!(section(&a, name), section(&roomy, name), "{name}");
    }
}

/// The fault rate is part of the deterministic counters: a different rate
/// must change the workload's realized cost (and only the workload — the
/// clean-room phases never see the fault model).
#[test]
fn fault_rate_changes_workload_counters_only() {
    let mut spec = smoke_spec(Family::Ba, 5);
    spec.fault_rate = 0.05;
    let mild = run_scenario(&spec);
    spec.fault_rate = 0.45;
    let rough = run_scenario(&spec);
    let w = |r: &Report, key: &str| c(r, &format!("workload.{key}"));

    assert!(w(&rough, "retry_charges") > w(&mild, "retry_charges"));
    assert!(w(&rough, "backend_attempts") > w(&mild, "backend_attempts"));
    // Faults never alter a query's call *sequence*, but retry charges
    // count against hard budgets, so a rough API can only cut queries
    // short — logical demand never grows with the fault rate.
    assert!(w(&rough, "logical_api_calls") <= w(&mild, "logical_api_calls"));
    assert!(
        w(&rough, "budget_exhausted_queries") >= w(&mild, "budget_exhausted_queries"),
        "a rougher API cannot exhaust fewer budgets"
    );
    // The clean-room phases never see the fault model.
    for name in ["walk", "engine", "ground_truth_f"] {
        assert_eq!(section(&mild, name), section(&rough, name), "{name}");
    }
}

/// Different seeds must actually change the estimates (guards against a
/// harness that ignores its seed, which would make the determinism test
/// vacuous).
#[test]
fn different_seeds_change_estimates() {
    let a = run_scenario(&smoke_spec(Family::Ba, 1));
    let b = run_scenario(&smoke_spec(Family::Ba, 2));
    let estimates = |r: &Report| -> Vec<Option<Json>> {
        section(r, "algorithms")
            .as_arr()
            .expect("algorithms is an array")
            .iter()
            .map(|alg| alg.get("estimates").cloned())
            .collect()
    };
    let differs = estimates(&a) != estimates(&b);
    assert!(differs, "estimates identical across different seeds");
}
