//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is listed here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names, and a
//! self-test keeps the two in step.

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("query_wall_ms_p50", "ms"),
    ("query_wall_ms_p99", "ms"),
    ("latency_ticks_p50", "ticks"),
    ("latency_ticks_p99", "ticks"),
    ("completed_ratio", "ratio"),
    ("charged_calls_per_query", "calls"),
    ("nrmse", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("admission.decisions", "count"),
    ("admission.shed", "count"),
    ("admission.quota_exhausted", "count"),
    ("admission.throttled", "count"),
    ("admission.decide_ns", "ns"),
    ("scheduler.slices", "count"),
    ("scheduler.tasks_per_loop_max", "count"),
    ("scheduler.cancellations", "count"),
    ("scheduler.deadline_hits", "count"),
    ("scheduler.priority_inversions", "count"),
    ("scheduler.residual_ms", "ms"),
    ("scheduler.slice_stack_ns", "ns"),
    ("estimator.logical_calls_per_query", "calls"),
    ("estimator.self_ns_per_call", "ns"),
    ("walk.step_ns", "ns"),
    ("l1.hits", "count"),
    ("l1.hit_ratio", "ratio"),
    ("l1.stale_evictions", "count"),
    ("l1.hit_ns", "ns"),
    ("l2.lookups", "count"),
    ("l2.misses", "count"),
    ("l2.hit_ratio", "ratio"),
    ("l2.stale_evictions", "count"),
    ("l2.hit_ns", "ns"),
    ("l2.miss_ns", "ns"),
    ("faults.backend_attempts", "count"),
    ("faults.attempts_per_miss", "ratio"),
    ("faults.retry_charges", "count"),
    ("faults.rate_limited", "count"),
    ("faults.transient_errors", "count"),
    ("faults.bursts", "count"),
    ("faults.breaker_opens", "count"),
    ("faults.stale_served", "count"),
    ("faults.fetch_ns", "ns"),
    ("backend.ram_fetch_ns", "ns"),
    ("backend.paged_fetch_ns", "ns"),
    ("backend.churn_fetch_ns", "ns"),
    ("pool.page_reads", "count"),
    ("pool.hits", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.evictions", "count"),
    ("pool.pinned_peak", "count"),
    ("pool.fault_ns", "ns"),
    ("churn.batches", "count"),
    ("churn.events", "count"),
    ("churn.avoided_invalidations", "count"),
    ("churn.apply_ns_per_event", "ns"),
    ("setup.load_s", "s"),
    ("setup.paged_write_s", "s"),
    ("setup.register_s", "s"),
    ("process.cpu_util", "ratio"),
    ("process.threads", "count"),
    ("ladder.explained_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("replay.logical_match_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by one run, looked up by catalogue name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name`, which must be in the catalogue.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            valid_name(name) && unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run hands back for printing.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Wall-time metrics to print as a verdict instead of a number,
    /// with the reason (an oversubscribed or starved window).
    pub untrusted: Option<&'static str>,
}

/// Wall-time metrics whose value depends on the CPU share the run got.
const WALL_METRICS: &[&str] = &[
    "queries_per_s",
    "query_wall_ms_p50",
    "query_wall_ms_p99",
    "setup_s",
];

/// Prints the human-readable table (stdout) and, as the last line, the
/// result object with exactly the metrics of `catalogue`. Returns an
/// error naming any catalogue metric the run did not produce or any
/// non-finite value.
pub fn print(result: &RunResult, catalogue: &[(&str, &str)]) -> Result<(), String> {
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = result
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        match result.untrusted {
            Some(why) if WALL_METRICS.contains(name) => {
                println!("{name:<34} {why:>16} {unit} (measured {v})")
            }
            _ => println!("{name:<34} {v:>16.6} {unit}"),
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogue_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_name(n), "illegal metric name {n}");
            assert!(!all[..i].contains(n), "duplicate metric name {n}");
        }
        for bad in ["", ".x", "a b", "p99%", "é"] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(
            listed - workloads,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }
}
