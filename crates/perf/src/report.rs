//! The schema-versioned BENCH_*.json report: the JSON tree a scenario
//! writes, and the checks a file must pass before it is compared.
//!
//! A report splits cleanly into two halves:
//!
//! * `counters` — **deterministic** given (scenario, seed): walk step
//!   counts and end states, per-replication API calls, the estimates
//!   themselves, NRMSE, exact ground truth. Two runs at the same seed must
//!   produce identical `counters`; the harness's determinism test and CI
//!   enforce this. [`crate::scenario::run_scenario`] describes each
//!   counter where it records it.
//! * `measured` — machine-dependent: wall times, steps/sec, allocator
//!   traffic. The regression gate compares only these, with a generous
//!   ratio threshold, by the policy table in [`crate::compare`].

use crate::compare::POLICY;
use crate::json::{Json, JsonError};

/// Version of the BENCH_*.json schema.
///
/// Bump it, and regenerate the committed baselines in the same PR, when
/// what the reader checks changes: a `scenario` field, or a `measured`
/// path that [`crate::compare`]'s policy table gates, is added, removed,
/// renamed, or changes type. `counters` is compared as one tree, so
/// adding or removing a counter needs no bump: `compare` reports it as
/// drift at its path, and the PR that makes the change regenerates the
/// baselines it moves.
pub const SCHEMA_VERSION: u64 = 9;

/// Scenario identity and workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioMeta {
    /// `<family>_<tier>`, e.g. `ba_smoke` — also the file-name stem.
    pub name: String,
    /// Graph family (`ba`, `er`, `loaded`).
    pub family: String,
    /// Scale tier (`smoke`, `standard`, `stress`).
    pub tier: String,
    /// Base RNG seed for the whole scenario.
    pub seed: u64,
    /// Nodes of the built graph.
    pub nodes: u64,
    /// Edges of the built graph.
    pub edges: u64,
    /// API-call budget per estimator replication.
    pub budget: u64,
    /// Burn-in steps per replication.
    pub burn_in: u64,
    /// Estimator replications per algorithm.
    pub reps: u64,
    /// Detected available parallelism of the machine that produced the
    /// report. Machine-dependent (like `measured`) but recorded under
    /// `scenario` so the compare gate can decide whether parallel-speedup
    /// regressions are gateable (both sides multi-core) or informational
    /// (a laptop or CI runner with one core cannot regress a speedup).
    pub threads: u64,
}

/// A complete scenario report.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Schema version (always [`SCHEMA_VERSION`] for freshly produced
    /// reports).
    pub schema_version: u64,
    /// Scenario identity.
    pub meta: ScenarioMeta,
    /// Deterministic counters: an object with one member per phase
    /// (`walk`, `algorithms`, `engine`, …).
    pub counters: Json,
    /// Machine-dependent measurements: an object holding at least every
    /// path the gate's policy table names.
    pub measured: Json,
}

impl Report {
    /// The file name this report is stored under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.meta.name)
    }

    /// The number at a dot-separated path under `counters`, e.g.
    /// `paging.page_reads`.
    pub fn counter(&self, path: &str) -> Option<f64> {
        self.counters.at(path).and_then(Json::as_f64)
    }

    /// The number at a dot-separated path under `measured`, e.g.
    /// `alloc.peak_bytes`.
    pub fn metric(&self, path: &str) -> Option<f64> {
        self.measured.at(path).and_then(Json::as_f64)
    }

    /// Serializes to the schema's JSON tree.
    pub fn to_json(&self) -> Json {
        let m = &self.meta;
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            (
                "scenario",
                Json::obj(vec![
                    ("name", Json::Str(m.name.clone())),
                    ("family", Json::Str(m.family.clone())),
                    ("tier", Json::Str(m.tier.clone())),
                    ("seed", Json::Num(m.seed as f64)),
                    ("nodes", Json::Num(m.nodes as f64)),
                    ("edges", Json::Num(m.edges as f64)),
                    ("budget", Json::Num(m.budget as f64)),
                    ("burn_in", Json::Num(m.burn_in as f64)),
                    ("reps", Json::Num(m.reps as f64)),
                    ("threads", Json::Num(m.threads as f64)),
                ]),
            ),
            ("counters", self.counters.clone()),
            ("measured", self.measured.clone()),
        ])
    }

    /// Parses a report from JSON text. Checks the schema version and every
    /// `scenario` field, that `counters` is an object, and that each
    /// `measured` path the gate reads holds a number; the counters
    /// themselves are not listed here.
    pub fn from_json_text(text: &str) -> Result<Report, ReportError> {
        let v = Json::parse(text)?;
        let schema_version = field_u64(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(ReportError::Schema(format!(
                "schema_version {schema_version} != supported {SCHEMA_VERSION}"
            )));
        }
        let sc = v.get("scenario").ok_or_else(|| miss("scenario"))?;
        let meta = ScenarioMeta {
            name: field_str(sc, "name")?,
            family: field_str(sc, "family")?,
            tier: field_str(sc, "tier")?,
            seed: field_u64(sc, "seed")?,
            nodes: field_u64(sc, "nodes")?,
            edges: field_u64(sc, "edges")?,
            budget: field_u64(sc, "budget")?,
            burn_in: field_u64(sc, "burn_in")?,
            reps: field_u64(sc, "reps")?,
            threads: field_u64(sc, "threads")?,
        };
        let counters = match v.get("counters") {
            Some(c @ Json::Obj(_)) => c.clone(),
            _ => return Err(miss("counters")),
        };
        let measured = v.get("measured").cloned().unwrap_or(Json::Null);
        for (path, _) in POLICY {
            if measured.at(path).and_then(Json::as_f64).is_none() {
                return Err(miss(&format!("measured.{path}")));
            }
        }
        Ok(Report {
            schema_version,
            meta,
            counters,
            measured,
        })
    }
}

/// Errors loading a report.
#[derive(Debug)]
pub enum ReportError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but violates the schema.
    Schema(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(s) => write!(f, "schema error: {s}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

fn miss(path: &str) -> ReportError {
    ReportError::Schema(format!("missing or mistyped field `{path}`"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, ReportError> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| miss(key))
}

fn field_str(v: &Json, key: &str) -> Result<String, ReportError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| miss(key))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A report whose timings scale with `per_step` (throughputs) and
    /// `total_ms` (wall times), over a small fixed counters tree.
    pub(crate) fn sample_report(name: &str, per_step: f64, total_ms: f64) -> Report {
        let counters = Json::parse(
            r#"{
              "walk": {"steps": 100, "per_step_end": 1, "batched_end": 1,
                       "line_end": [0, 1], "line_api_calls": 200},
              "algorithms": [
                {"abbrev": "NeighborSample-HH", "estimates": [6800.5, 7011.25, 6500],
                 "api_calls": 1530, "nrmse": 0.041},
                {"abbrev": "ext-triangles", "estimates": [-1], "api_calls": 400, "nrmse": null}
              ],
              "engine": {"replicates": 4, "estimates": [1, 2], "logical_api_calls": 100,
                         "miss_api_calls": 20, "l1_hits": 60, "hit_rate": 0.8},
              "workload": {"queries": 8, "fault_rate": 0.15, "estimates": [1, -1],
                           "logical_api_calls": 50, "backend_attempts": 14, "retry_charges": 4,
                           "rate_limited": 2, "transient_errors": 2,
                           "budget_exhausted_queries": 1, "latency_ticks_p50": 10,
                           "latency_ticks_p95": 40.5},
              "serving": {"shards": 4, "tenants": 4, "requests": 16, "admitted": 12, "shed": 3,
                          "quota_exhausted": 1, "tenant_fairness": 2.5},
              "scheduling": {"deadline_hits": 10, "cancellations": 4, "mean_slack_ticks": 12.5,
                             "priority_inversions": 1},
              "paging": {"page_reads": 64, "pool_hits": 900, "evictions": 48, "pinned_peak": 3},
              "invalidation": {"churn_batches": 8, "churn_events": 40, "l1_stale_evictions": 12,
                               "l2_stale_evictions": 90, "avoided_invalidations": 6},
              "faults": {"bursts": 5, "breaker_opens": 1, "stale_served": 3,
                         "storage_retries": 0, "quota_throttled": 2},
              "ground_truth_f": 7
            }"#,
        )
        .expect("fixture counters are valid JSON");
        let measured = Json::obj(vec![
            ("total_ms", Json::Num(total_ms)),
            ("per_step_steps_per_sec", Json::Num(per_step)),
            ("batched_steps_per_sec", Json::Num(per_step * 1.2)),
            ("line_steps_per_sec", Json::Num(per_step / 2.0)),
            ("gt_serial_ms", Json::Num(1.0)),
            ("gt_parallel_ms", Json::Num(0.5)),
            ("engine_serial_ms", Json::Num(total_ms / 10.0)),
            ("engine_parallel_ms", Json::Num(total_ms / 30.0)),
            ("engine_parallel_speedup", Json::Num(3.0)),
            ("hit_path_ns", Json::Num(total_ms / 10.0)),
            ("workload_serial_ms", Json::Num(total_ms / 5.0)),
            ("workload_parallel_ms", Json::Num(total_ms / 15.0)),
            ("workload_queries_per_sec", Json::Num(120_000.0 / total_ms)),
            ("serving_serial_ms", Json::Num(total_ms / 4.0)),
            ("serving_parallel_ms", Json::Num(total_ms / 12.0)),
            ("scheduler_ms", Json::Num(total_ms / 6.0)),
            ("page_fault_ns", Json::Num(total_ms / 20.0)),
            ("calibration_ops_per_sec", Json::Num(1.0e8)),
            (
                "alloc",
                Json::obj(vec![
                    ("peak_bytes", Json::Num(0.0)),
                    ("allocs", Json::Num(0.0)),
                    ("measured", Json::Bool(false)),
                ]),
            ),
        ]);
        Report {
            schema_version: SCHEMA_VERSION,
            meta: ScenarioMeta {
                name: name.into(),
                family: "ba".into(),
                tier: "smoke".into(),
                seed: 1,
                nodes: 10,
                edges: 20,
                budget: 5,
                burn_in: 2,
                reps: 1,
                threads: 1,
            },
            counters,
            measured,
        }
    }

    /// The node at a `counters.…` or `measured.…` path.
    pub(crate) fn node<'a>(r: &'a mut Report, path: &str) -> &'a mut Json {
        let (section, rest) = path.split_once('.').expect("path names a section");
        let mut node = match section {
            "counters" => &mut r.counters,
            "measured" => &mut r.measured,
            other => panic!("no report section `{other}`"),
        };
        for key in rest.split('.') {
            node = match node {
                Json::Obj(pairs) => {
                    &mut pairs
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no member `{path}`"))
                        .1
                }
                _ => panic!("`{path}` passes through a non-object"),
            };
        }
        node
    }

    /// The number at a `counters.…` or `measured.…` path.
    pub(crate) fn get(r: &Report, path: &str) -> f64 {
        let value = match path.split_once('.') {
            Some(("counters", rest)) => r.counter(rest),
            Some(("measured", rest)) => r.metric(rest),
            _ => None,
        };
        value.unwrap_or_else(|| panic!("`{path}` is not a number"))
    }

    /// Sets the number at a `counters.…` or `measured.…` path.
    pub(crate) fn set(r: &mut Report, path: &str, value: f64) {
        *node(r, path) = Json::Num(value);
    }

    /// Adds `delta` to the number at a `counters.…` or `measured.…` path.
    pub(crate) fn add(r: &mut Report, path: &str, delta: f64) {
        let value = get(r, path) + delta;
        set(r, path, value);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report("ba_smoke", 1.0e6, 100.0);
        let text = r.to_json().to_pretty();
        let parsed = Report::from_json_text(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json().to_pretty(), text);
        assert_eq!(r.file_name(), "BENCH_ba_smoke.json");
        assert_eq!(parsed.counter("paging.evictions"), Some(48.0));
        assert_eq!(parsed.metric("alloc.peak_bytes"), Some(0.0));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let r = sample_report("ba_smoke", 1.0e6, 100.0);
        let text = r
            .to_json()
            .to_pretty()
            .replace("\"schema_version\": 9", "\"schema_version\": 999");
        match Report::from_json_text(&text) {
            Err(ReportError::Schema(msg)) => assert!(msg.contains("999"), "{msg}"),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let text = "{\"schema_version\": 9}";
        assert!(matches!(
            Report::from_json_text(text),
            Err(ReportError::Schema(_))
        ));
        let good = sample_report("ba_smoke", 1.0e6, 100.0);
        let schema_error =
            |r: &Report, field: &str| match Report::from_json_text(&r.to_json().to_pretty()) {
                Err(ReportError::Schema(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field}: expected schema error, got {other:?}"),
            };

        let text = good.to_json().to_pretty();
        for (from, to) in [
            ("\"threads\": 1", "\"threads\": -1"),
            ("\"name\"", "\"nom\""),
        ] {
            assert!(text.contains(from), "{from}");
            let bad = text.replace(from, to);
            assert!(matches!(
                Report::from_json_text(&bad),
                Err(ReportError::Schema(_))
            ));
        }
        assert!(matches!(
            Report::from_json_text(&text[..text.len() / 2]),
            Err(ReportError::Json(_))
        ));

        let mut r = good.clone();
        r.counters = Json::Arr(vec![]);
        schema_error(&r, "counters");
        let mut r = good.clone();
        *node(&mut r, "measured.hit_path_ns") = Json::Str("fast".into());
        schema_error(&r, "measured.hit_path_ns");
        let mut r = good.clone();
        *node(&mut r, "measured.alloc.peak_bytes") = Json::Null;
        schema_error(&r, "measured.alloc.peak_bytes");
        let mut r = good.clone();
        if let Json::Obj(members) = &mut r.measured {
            members.retain(|(k, _)| k != "page_fault_ns");
        }
        schema_error(&r, "measured.page_fault_ns");

        // Counters and ungated measurements are not listed by the parser:
        // a missing one is drift for `compare`, not a schema error.
        let mut r = good.clone();
        for section in [&mut r.counters, &mut r.measured] {
            if let Json::Obj(members) = section {
                members.retain(|(k, _)| k != "paging" && k != "gt_serial_ms");
            }
        }
        assert!(Report::from_json_text(&r.to_json().to_pretty()).is_ok());
    }
}
