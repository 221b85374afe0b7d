//! The perf-regression gate: compares freshly produced BENCH_*.json files
//! against the committed baselines.
//!
//! Only the machine-dependent `measured` section gates, path by path, by
//! one policy table (`POLICY`) that names each gated path and its rule.
//! Before thresholding, every timing metric is **normalized by the run's
//! calibration score** (`measured.calibration_ops_per_sec`, a fixed
//! pointer-chasing workload measured alongside each scenario): a uniformly
//! slower machine scores proportionally lower on the calibration too, so
//! the normalized ratios cancel and committed baselines transfer across
//! machine generations. After normalization, a throughput metric fails
//! when it drops below `baseline / max_regression`, a wall-time metric
//! when it exceeds `baseline * max_regression`, and the allocator
//! peak-bytes proxy (already machine-independent) fails on the same ratio
//! when both sides measured it. The threshold stays generous (CI default
//! 2.5×) — the gate exists to catch order-of-magnitude cliffs (an
//! accidentally quadratic hot path, a debug assert in a loop), not 10%
//! noise.
//!
//! Deterministic `counters` are compared as one tree, numbers by their
//! bits. Drift (different estimates, API-call counts, step counts, or a
//! counter added or removed) is reported as a **warning** naming the first
//! differing path, not a failure: algorithmic changes legitimately move
//! counters, and the PR that moves them is expected to regenerate the
//! baselines it changes.

use std::path::Path;

use crate::json::Json;
use crate::report::{Report, ReportError};

/// Outcome of comparing one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Scenario name.
    pub scenario: String,
    /// Metric path, e.g. `measured.per_step_steps_per_sec`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether this finding fails the gate (false = warning only).
    pub fatal: bool,
    /// Human-readable explanation.
    pub message: String,
}

/// Result of a whole comparison run.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// All findings, fatal and warnings.
    pub findings: Vec<Finding>,
    /// Scenarios compared.
    pub compared: usize,
}

impl Comparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.fatal)
    }
}

/// How the gate judges one `measured` path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Higher is better. Normalized by calibration; fails beyond the
    /// threshold unless the ratio is degenerate (see `metric_floor`).
    Throughput,
    /// Lower is better, and serial, so calibration can normalize it.
    /// Fails like [`Rule::Throughput`].
    WallTime,
    /// Allocator peak bytes: machine-independent, so compared raw, and
    /// gated only when both runs measured it and the baseline is positive.
    AllocPeak,
    /// Lower is better, but it scales with the runner's core count, which
    /// calibration (a serial workload) cannot correct for: a 2-core runner
    /// legitimately takes longer than an 8-core baseline. Warns only.
    ParallelWallTime,
    /// Higher is better, compared raw. Fails only when the baseline is
    /// multi-core and the current runner has at least as many cores
    /// (`scenario.threads`): there a collapsing speedup is a real
    /// scalability regression, while a laptop, a 1-core container, or a
    /// core-count downgrade of the CI pool keeps the warning.
    Speedup,
}

/// The engine's parallel speedup, read by the baseline-relative rule and
/// by the baseline-free [`min_speedup_findings`] floor.
const SPEEDUP: &str = "engine_parallel_speedup";

/// The gate's policy: each gated path under `measured`, with its rule, in
/// the order findings are reported. Reports missing any of these paths
/// fail to parse.
///
/// `hit_path_ns` (the warm-cache per-call cost) is serial and
/// machine-normalizable, so it gates like the wall times: a cliff there
/// means the hot 97% of logical calls got slower. `page_fault_ns` (the
/// paged scenario's cold-pool fault cost) gates the same way for the
/// out-of-core miss path; in-RAM scenarios report it as `0.0`, which sits
/// below the `_ns` floor and therefore never gates.
///
/// Recorded but not gated: `gt_serial_ms` and `gt_parallel_ms`
/// (sub-millisecond windows at smoke scale), `workload_queries_per_sec`
/// (exactly `queries / workload_parallel_ms`, whose warning already
/// covers any slowdown), `calibration_ops_per_sec` (the machine scale
/// itself), and `alloc.allocs` / `alloc.measured`.
pub(crate) const POLICY: [(&str, Rule); 15] = [
    ("per_step_steps_per_sec", Rule::Throughput),
    ("batched_steps_per_sec", Rule::Throughput),
    ("line_steps_per_sec", Rule::Throughput),
    ("total_ms", Rule::WallTime),
    ("engine_serial_ms", Rule::WallTime),
    ("workload_serial_ms", Rule::WallTime),
    ("serving_serial_ms", Rule::WallTime),
    ("scheduler_ms", Rule::WallTime),
    ("hit_path_ns", Rule::WallTime),
    ("page_fault_ns", Rule::WallTime),
    ("alloc.peak_bytes", Rule::AllocPeak),
    ("engine_parallel_ms", Rule::ParallelWallTime),
    ("workload_parallel_ms", Rule::ParallelWallTime),
    ("serving_parallel_ms", Rule::ParallelWallTime),
    (SPEEDUP, Rule::Speedup),
];

/// The absolute floor below which a metric's value cannot support a ratio
/// verdict. A baseline of `0.0` (a sub-resolution `hit_path_ns` rounding
/// to zero, a scenario too small for the millisecond clock) or the
/// non-finite JSON sentinel (`-1.0`) turns any ratio into noise —
/// `current / 0` is infinite, and a 0.0004 ms → 0.002 ms "5x regression"
/// is timer jitter. Ratios are computed over floored values, and a
/// finding whose baseline or current sits below the floor is downgraded
/// to a warning.
fn metric_floor(metric: &str) -> f64 {
    if metric.ends_with("_ns") {
        // Sub-nanosecond per-call costs are below timer resolution.
        0.5
    } else if metric.ends_with("_ms") {
        // Sub-microsecond wall times are clock-quantization artifacts.
        1e-3
    } else {
        // Throughputs below 1 op/sec only occur as sentinels or division
        // blow-ups.
        1.0
    }
}

/// The machine-speed scale factor: multiplying the current run's
/// throughput by this (or dividing its wall times) expresses it in the
/// baseline machine's units. Falls back to 1 (raw comparison) when either
/// side lacks a positive calibration score.
fn machine_scale(baseline: &Report, current: &Report) -> f64 {
    match (
        baseline.metric("calibration_ops_per_sec"),
        current.metric("calibration_ops_per_sec"),
    ) {
        (Some(b), Some(c)) if b > 0.0 && c > 0.0 => b / c,
        _ => 1.0,
    }
}

/// A gated `measured` value; [`Report::from_json_text`] rejects reports
/// without one.
fn gated(r: &Report, path: &str) -> f64 {
    r.metric(path)
        .expect("reports carry every gated measured path")
}

/// Compares one current report against its baseline.
pub fn compare_reports(baseline: &Report, current: &Report, max_regression: f64) -> Vec<Finding> {
    assert!(max_regression >= 1.0, "threshold must be >= 1");
    let scale = machine_scale(baseline, current);
    let alloc_measured =
        |r: &Report| matches!(r.measured.at("alloc.measured"), Some(Json::Bool(true)));
    let speedup_gateable =
        baseline.meta.threads > 1 && current.meta.threads >= baseline.meta.threads;
    let informational =
        |ratio: f64| format!("regressed {ratio:.2}x (core-count dependent; informational)");
    let mut findings = Vec::new();

    for (path, rule) in POLICY {
        let (base, cur) = (gated(baseline, path), gated(current, path));
        let floor = metric_floor(path);
        // The calibration-scaled rules: a ratio over floored values, which
        // only warns when either side sits below the floor.
        let scaled = |ratio: f64, cur_scaled: f64, [adjective, noun]: [&str; 2]| {
            (ratio > max_regression).then(|| {
                if base < floor || cur_scaled < floor {
                    (false, format!(
                        "{adjective} ratio {ratio:.2}x is degenerate (baseline or current below the {floor:.0e} floor) — warning only"
                    ))
                } else {
                    (true, format!(
                        "{noun} regressed {ratio:.2}x machine-normalized (scale {scale:.2}, limit {max_regression}x)"
                    ))
                }
            })
        };
        // `Some((fatal, message))` when the metric regressed past the limit.
        let verdict = match rule {
            Rule::Throughput => {
                let c = cur * scale;
                scaled(base.max(floor) / c.max(floor), c, ["throughput"; 2])
            }
            Rule::WallTime => {
                let c = cur / scale;
                scaled(
                    c.max(floor) / base.max(floor),
                    c,
                    ["wall-time", "wall time"],
                )
            }
            Rule::AllocPeak => {
                let ratio = cur / base;
                let gateable = alloc_measured(baseline) && alloc_measured(current) && base > 0.0;
                (gateable && ratio > max_regression).then(|| {
                    (
                        true,
                        format!("allocator peak regressed {ratio:.2}x (limit {max_regression}x)"),
                    )
                })
            }
            Rule::ParallelWallTime => {
                let ratio = (cur / scale).max(floor) / base.max(floor);
                (ratio > max_regression).then(|| (false, informational(ratio)))
            }
            Rule::Speedup => {
                let ratio = base / cur;
                (base > 0.0 && cur > 0.0 && cur < base / max_regression).then(|| {
                    if speedup_gateable {
                        (true, format!(
                            "parallel speedup regressed {ratio:.2}x with {} baseline / {} current cores (limit {max_regression}x)",
                            baseline.meta.threads, current.meta.threads
                        ))
                    } else {
                        (false, informational(ratio))
                    }
                })
            }
        };
        if let Some((fatal, message)) = verdict {
            findings.push(Finding {
                scenario: current.meta.name.clone(),
                metric: format!("measured.{path}"),
                baseline: base,
                current: cur,
                fatal,
                message,
            });
        }
    }

    // Counter drift: warn so reviewers notice baselines that need
    // regeneration, but do not fail the gate.
    if let Some(path) = baseline.counters.first_difference(&current.counters) {
        findings.push(Finding {
            scenario: current.meta.name.clone(),
            metric: format!("counters{path}"),
            baseline: f64::NAN,
            current: f64::NAN,
            fatal: false,
            message: "deterministic counters differ from baseline — regenerate BENCH_*.json in this PR if the algorithmic change is intentional".to_string(),
        });
    }
    findings
}

/// Loads `BENCH_*.json` from `dir`, keyed by scenario name.
pub fn load_reports(dir: &Path) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = Report::from_json_text(&text)
            .map_err(|e: ReportError| format!("{}: {e}", path.display()))?;
        reports.push(report);
    }
    Ok(reports)
}

/// Compares every scenario present in **both** directories. A scenario
/// present only in the baseline (removed) or only in the current run (new)
/// is a warning; comparing zero scenarios is fatal (the gate would be
/// vacuous).
pub fn compare_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    max_regression: f64,
) -> Result<Comparison, String> {
    compare_dirs_opts(baseline_dir, current_dir, max_regression, false)
}

/// [`compare_dirs`] with optional **family fallback**: a current scenario
/// with no same-name baseline is compared against a same-family baseline
/// of a different tier, with every finding downgraded to a warning — the
/// tiers measure different scales, so cross-tier ratios inform but must
/// not gate. This is how the nightly standard/stress runs compare against
/// the committed smoke baselines.
pub fn compare_dirs_opts(
    baseline_dir: &Path,
    current_dir: &Path,
    max_regression: f64,
    match_family: bool,
) -> Result<Comparison, String> {
    let baselines = load_reports(baseline_dir)?;
    let currents = load_reports(current_dir)?;
    let mut cmp = Comparison::default();

    for cur in &currents {
        match baselines.iter().find(|b| b.meta.name == cur.meta.name) {
            Some(base) => {
                cmp.compared += 1;
                cmp.findings
                    .extend(compare_reports(base, cur, max_regression));
            }
            None => match baselines
                .iter()
                .find(|b| match_family && b.meta.family == cur.meta.family)
            {
                Some(base) => {
                    cmp.compared += 1;
                    cmp.findings.push(Finding {
                        scenario: cur.meta.name.clone(),
                        metric: "presence".into(),
                        baseline: f64::NAN,
                        current: f64::NAN,
                        fatal: false,
                        message: format!(
                            "tier mismatch: comparing against same-family baseline `{}` — all findings downgraded to warnings",
                            base.meta.name
                        ),
                    });
                    cmp.findings.extend(
                        compare_reports(base, cur, max_regression)
                            .into_iter()
                            .map(|f| Finding { fatal: false, ..f }),
                    );
                }
                None => cmp.findings.push(Finding {
                    scenario: cur.meta.name.clone(),
                    metric: "presence".into(),
                    baseline: f64::NAN,
                    current: f64::NAN,
                    fatal: false,
                    message: "no committed baseline for this scenario — commit its BENCH_*.json"
                        .into(),
                }),
            },
        }
    }
    for base in &baselines {
        if !currents.iter().any(|c| c.meta.name == base.meta.name) {
            cmp.findings.push(Finding {
                scenario: base.meta.name.clone(),
                metric: "presence".into(),
                baseline: f64::NAN,
                current: f64::NAN,
                fatal: false,
                message: "baseline scenario missing from current run".into(),
            });
        }
    }
    if cmp.compared == 0 {
        return Err(format!(
            "no overlapping scenarios between {} and {}",
            baseline_dir.display(),
            current_dir.display()
        ));
    }
    Ok(cmp)
}

/// The multi-core **self-gate** on parallel speedup: every current report
/// produced on a multi-core runner (`scenario.threads > 1`) must show an
/// engine parallel speedup of at least `min_speedup`, or the finding is
/// fatal. Single-core runners (dev containers, laptops pinned to one
/// core) get an informational note instead — they *cannot* exhibit a
/// speedup, so gating them would only teach people to ignore the gate.
///
/// This is deliberately baseline-free: committed baselines regenerated on
/// a single-core machine record `threads = 1`, which keeps the
/// baseline-relative speedup comparison warn-only — but CI's multi-core
/// runners must still prove the parallel path scales *at all*. The
/// absolute floor closes that gap until a multi-core regeneration is
/// committed (promote the `bench-smoke-json` artifact of a CI run).
pub fn min_speedup_findings(current_dir: &Path, min_speedup: f64) -> Result<Vec<Finding>, String> {
    assert!(min_speedup >= 1.0, "speedup floor must be >= 1");
    let currents = load_reports(current_dir)?;
    let mut findings = Vec::new();
    for r in &currents {
        let speedup = gated(r, SPEEDUP);
        if r.meta.threads <= 1 {
            findings.push(Finding {
                scenario: r.meta.name.clone(),
                metric: format!("measured.{SPEEDUP}"),
                baseline: min_speedup,
                current: speedup,
                fatal: false,
                message: "single-core runner: speedup floor not applicable".into(),
            });
        } else if speedup < min_speedup {
            findings.push(Finding {
                scenario: r.meta.name.clone(),
                metric: format!("measured.{SPEEDUP}"),
                baseline: min_speedup,
                current: speedup,
                fatal: true,
                message: format!(
                    "parallel speedup {speedup:.2}x below the {min_speedup:.2}x floor on a {}-core runner",
                    r.meta.threads
                ),
            });
        }
    }
    Ok(findings)
}

/// Renders a comparison as a GitHub-flavored markdown verdict table — the
/// payload the CI perf job appends to `$GITHUB_STEP_SUMMARY` so reviewers
/// see the gate's reasoning without opening the log.
pub fn markdown_summary(cmp: &Comparison, max_regression: f64) -> String {
    let mut out = String::new();
    out.push_str("## Perf regression gate\n\n");
    out.push_str(&format!(
        "**{}** — compared {} scenario(s) at threshold {max_regression}×\n\n",
        if cmp.passed() { "✅ PASS" } else { "❌ FAIL" },
        cmp.compared,
    ));
    if cmp.findings.is_empty() {
        out.push_str("No findings: every measured metric is within threshold and all deterministic counters match their baselines.\n");
        return out;
    }
    out.push_str("| verdict | scenario | metric | baseline | current | note |\n");
    out.push_str("|---|---|---|---:|---:|---|\n");
    for f in &cmp.findings {
        let fmt_num = |x: f64| {
            if x.is_nan() {
                "—".to_string()
            } else {
                format!("{x:.3e}")
            }
        };
        out.push_str(&format!(
            "| {} | {} | `{}` | {} | {} | {} |\n",
            if f.fatal { "❌ FAIL" } else { "⚠️ warn" },
            f.scenario,
            f.metric,
            fmt_num(f.baseline),
            fmt_num(f.current),
            f.message.replace('|', "\\|"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{add, get, node, sample_report as report, set};
    use crate::scenario::Family;

    #[test]
    fn within_threshold_passes() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.5e6, 200.0); // 2x, limit 2.5x
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn throughput_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.3e6, 100.0); // 3.3x down
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric.contains("per_step")));
    }

    #[test]
    fn walltime_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 1.0e6, 300.0); // 3x slower
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.total_ms"));
    }

    #[test]
    fn uniformly_slower_machine_passes_via_calibration() {
        // Current machine is 4x slower across the board — calibration
        // included — so normalized metrics are identical and even a tight
        // threshold passes.
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 0.25e6, 400.0);
        set(
            &mut cur,
            "measured.batched_steps_per_sec",
            get(&base, "measured.batched_steps_per_sec") / 4.0,
        );
        set(
            &mut cur,
            "measured.line_steps_per_sec",
            get(&base, "measured.line_steps_per_sec") / 4.0,
        );
        set(
            &mut cur,
            "measured.calibration_ops_per_sec",
            get(&base, "measured.calibration_ops_per_sec") / 4.0,
        );
        let findings = compare_reports(&base, &cur, 1.2);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn algorithmic_cliff_still_fails_on_a_slower_machine() {
        // Machine is 2x slower, but per-step throughput fell 10x: the 5x
        // machine-normalized drop must trip the 2.5x gate.
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 0.1e6, 200.0);
        set(
            &mut cur,
            "measured.batched_steps_per_sec",
            get(&base, "measured.batched_steps_per_sec") / 2.0,
        );
        set(
            &mut cur,
            "measured.line_steps_per_sec",
            get(&base, "measured.line_steps_per_sec") / 2.0,
        );
        set(
            &mut cur,
            "measured.calibration_ops_per_sec",
            get(&base, "measured.calibration_ops_per_sec") / 2.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            findings
                .iter()
                .any(|f| f.fatal && f.metric.contains("per_step")),
            "{findings:?}"
        );
        assert!(!findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.total_ms"));
    }

    #[test]
    fn missing_calibration_falls_back_to_raw_comparison() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        set(&mut base, "measured.calibration_ops_per_sec", 0.0);
        let cur = report("ba_smoke", 0.3e6, 100.0); // 3.3x down, raw
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().any(|f| f.fatal));
    }

    #[test]
    fn alloc_peak_gates_only_when_measured_on_both_sides() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        for (r, peak_bytes) in [(&mut base, 1 << 20), (&mut cur, 4 << 20)] {
            // 4x growth.
            set(r, "measured.alloc.peak_bytes", f64::from(peak_bytes));
            set(r, "measured.alloc.allocs", 10.0);
            *node(r, "measured.alloc.measured") = Json::Bool(true);
        }
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.alloc.peak_bytes"));

        // Same blow-up but unmeasured on one side: no gate.
        *node(&mut cur, "measured.alloc.measured") = Json::Bool(false);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn hit_path_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        // 3x slower hits.
        set(
            &mut cur,
            "measured.hit_path_ns",
            get(&base, "measured.hit_path_ns") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.hit_path_ns"));
    }

    #[test]
    fn page_fault_cliff_is_fatal_and_zero_is_exempt() {
        let base = report("loaded-paged_smoke", 1.0e6, 100.0);
        let mut cur = report("loaded-paged_smoke", 1.0e6, 100.0);
        // 3x slower faults.
        set(
            &mut cur,
            "measured.page_fault_ns",
            get(&base, "measured.page_fault_ns") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.page_fault_ns"));

        // In-RAM scenarios report 0.0 on both sides: below the _ns floor,
        // so no finding at all.
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut base, "measured.page_fault_ns", 0.0);
        set(&mut cur, "measured.page_fault_ns", 0.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            !findings
                .iter()
                .any(|f| f.metric == "measured.page_fault_ns"),
            "{findings:?}"
        );
    }

    #[test]
    fn paging_counter_drift_warns_but_does_not_fail() {
        let base = report("loaded-paged_smoke", 1.0e6, 100.0);
        let mut cur = report("loaded-paged_smoke", 1.0e6, 100.0);
        add(&mut cur, "counters.paging.evictions", 7.0); // e.g. a different frame budget
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters.paging.evictions");
    }

    #[test]
    fn invalidation_counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        add(&mut cur, "counters.invalidation.l2_stale_evictions", 5.0); // e.g. a different churn rate
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(
            findings[0].metric,
            "counters.invalidation.l2_stale_evictions"
        );
    }

    #[test]
    fn fault_counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        add(&mut cur, "counters.faults.breaker_opens", 2.0); // e.g. a different burst level
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters.faults.breaker_opens");
    }

    #[test]
    fn speedup_floor_gates_multicore_runners_only() {
        let tmp = std::env::temp_dir().join(format!("lcperf_floor_{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();

        // Multi-core runner, collapsed speedup: fatal.
        let mut bad = report("ba_smoke", 1.0e6, 100.0);
        bad.meta.threads = 4;
        set(&mut bad, "measured.engine_parallel_speedup", 1.02);
        std::fs::write(tmp.join(bad.file_name()), bad.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().any(|f| f.fatal), "{findings:?}");

        // Same numbers on a single-core runner: informational only.
        let mut single = bad.clone();
        single.meta.threads = 1;
        std::fs::write(tmp.join(single.file_name()), single.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");

        // Healthy multi-core speedup: no fatal finding.
        let mut good = bad.clone();
        set(&mut good, "measured.engine_parallel_speedup", 2.8);
        std::fs::write(tmp.join(good.file_name()), good.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn serving_walltime_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.serving_serial_ms",
            get(&base, "measured.serving_serial_ms") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.serving_serial_ms"));
        // The parallel serving time is core-count dependent: warn only.
        set(
            &mut cur,
            "measured.serving_serial_ms",
            get(&base, "measured.serving_serial_ms"),
        );
        set(
            &mut cur,
            "measured.serving_parallel_ms",
            get(&base, "measured.serving_parallel_ms") * 4.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.serving_parallel_ms")
            .expect("parallel serving slowdown must be reported");
        assert!(!f.fatal, "{f:?}");
    }

    #[test]
    fn scheduler_walltime_cliff_is_fatal_and_counter_drift_warns() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.scheduler_ms",
            get(&base, "measured.scheduler_ms") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.scheduler_ms"));
        // Scheduling-counter drift (e.g. a different deadline tightness)
        // warns like every other deterministic counter.
        set(
            &mut cur,
            "measured.scheduler_ms",
            get(&base, "measured.scheduler_ms"),
        );
        add(&mut cur, "counters.scheduling.cancellations", 1.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters.scheduling.cancellations");
    }

    #[test]
    fn zero_baseline_walltime_warns_instead_of_gating() {
        // Regression: a baseline `hit_path_ns` of 0.0 (sub-resolution
        // timer rounding) made `current / baseline` infinite; the old
        // `base > 0` guard silently skipped the metric instead, hiding
        // real cliffs. Now the ratio is computed over floored values and
        // the degenerate comparison surfaces as a warning.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.hit_path_ns", 0.0);
        let mut cur = base0.clone();
        set(&mut cur, "measured.hit_path_ns", 50.0);
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.hit_path_ns")
            .expect("degenerate comparison must still be reported");
        assert!(!f.fatal, "zero baseline must not gate: {f:?}");
        assert!(f.message.contains("degenerate"), "{f:?}");
        // No finding carries a non-finite ratio into the message.
        for f in &findings {
            assert!(
                !f.message.contains("inf") && !f.message.contains("NaN"),
                "{f:?}"
            );
        }
    }

    #[test]
    fn near_zero_baseline_jitter_is_not_a_regression() {
        // 0.0004 ms -> 0.002 ms is a 5x raw ratio made entirely of clock
        // quantization; flooring the baseline at 1e-3 ms shrinks it to 2x,
        // under the 2.5x threshold, so the gate stays silent.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.workload_serial_ms", 0.0004);
        let mut cur = base0.clone();
        set(&mut cur, "measured.workload_serial_ms", 0.002);
        set(
            &mut cur,
            "measured.total_ms",
            get(&base, "measured.total_ms"),
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            !findings
                .iter()
                .any(|f| f.metric == "measured.workload_serial_ms"),
            "{findings:?}"
        );
    }

    #[test]
    fn sentinel_baselines_never_produce_fatal_ratio_findings() {
        // The JSON sentinel for non-finite measurements is -1.0; a
        // baseline holding it must never fail the gate with an inf/NaN
        // verdict.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.hit_path_ns", -1.0);
        set(&mut base, "measured.per_step_steps_per_sec", -1.0);
        let cur = base0.clone();
        let findings = compare_reports(&base, &cur, 2.5);
        for f in &findings {
            assert!(
                !f.fatal,
                "sentinel baseline produced a fatal verdict: {f:?}"
            );
        }
    }

    #[test]
    fn markdown_summary_renders_verdicts() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.1e6, 100.0); // 10x throughput cliff
        let cmp = Comparison {
            findings: compare_reports(&base, &cur, 2.5),
            compared: 1,
        };
        let md = markdown_summary(&cmp, 2.5);
        assert!(md.contains("❌ FAIL"), "{md}");
        assert!(md.contains("| verdict | scenario |"), "{md}");
        assert!(md.contains("per_step_steps_per_sec"), "{md}");

        let clean = Comparison {
            findings: vec![],
            compared: 3,
        };
        let md = markdown_summary(&clean, 2.5);
        assert!(md.contains("✅ PASS"), "{md}");
        assert!(md.contains("No findings"), "{md}");
    }

    #[test]
    fn counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut cur, "counters.ground_truth_f", 8.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters.ground_truth_f");
    }

    #[test]
    fn dir_comparison_round_trips_files() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_{}", std::process::id()));
        let base_dir = tmp.join("base");
        let cur_dir = tmp.join("cur");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();

        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.9e6, 110.0);
        std::fs::write(base_dir.join(base.file_name()), base.to_json().to_pretty()).unwrap();
        std::fs::write(cur_dir.join(cur.file_name()), cur.to_json().to_pretty()).unwrap();
        // A brand-new scenario without baseline: warning only.
        let extra = report("er_smoke", 2.0e6, 50.0);
        std::fs::write(cur_dir.join(extra.file_name()), extra.to_json().to_pretty()).unwrap();

        let cmp = compare_dirs(&base_dir, &cur_dir, 2.5).unwrap();
        assert_eq!(cmp.compared, 1);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp.findings.iter().any(|f| f.metric == "presence"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn empty_overlap_is_an_error() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_empty_{}", std::process::id()));
        std::fs::create_dir_all(tmp.join("a")).unwrap();
        std::fs::create_dir_all(tmp.join("b")).unwrap();
        assert!(compare_dirs(&tmp.join("a"), &tmp.join("b"), 2.5).is_err());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn committed_baselines_reserialize_byte_identically_and_match_themselves() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for family in Family::all() {
            let path = root.join(format!("BENCH_{}_smoke.json", family.name()));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let report =
                Report::from_json_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(report.to_json().to_pretty(), text, "{}", path.display());
        }
        let cmp = compare_dirs(&root, &root, 2.5).unwrap();
        assert_eq!(cmp.compared, Family::all().len());
        assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
    }

    #[test]
    fn speedup_gates_fatally_only_when_both_sides_are_multicore() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut cur, "measured.engine_parallel_speedup", 1.0); // 3x collapse vs base's 3.0

        // Single-core baseline (the committed dev-container case): warn.
        base.meta.threads = 1;
        cur.meta.threads = 8;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .expect("speedup collapse must be reported");
        assert!(!f.fatal, "1-core baseline must keep the warning: {f:?}");

        // Multi-core baseline, current runner at least as wide: gate.
        base.meta.threads = 8;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .unwrap();
        assert!(f.fatal, "multi-core speedup collapse must gate: {f:?}");

        // Core-count downgrade (8-core baseline, 2-core runner): the
        // collapse is explained by the hardware — warn, don't gate.
        cur.meta.threads = 2;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .unwrap();
        assert!(
            !f.fatal,
            "core-count downgrade must keep the warning: {f:?}"
        );
        cur.meta.threads = 8;

        // Within threshold: no finding at all.
        set(&mut cur, "measured.engine_parallel_speedup", 2.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(!findings
            .iter()
            .any(|f| f.metric == "measured.engine_parallel_speedup"));
    }

    #[test]
    fn family_fallback_downgrades_tier_mismatch_to_warnings() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_family_{}", std::process::id()));
        let base_dir = tmp.join("base");
        let cur_dir = tmp.join("cur");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();

        let base = report("ba_smoke", 1.0e6, 100.0);
        std::fs::write(base_dir.join(base.file_name()), base.to_json().to_pretty()).unwrap();
        // A standard-tier run with a catastrophic slowdown: would gate
        // fatally against a same-tier baseline.
        let mut cur = report("ba_standard", 0.01e6, 10_000.0);
        cur.meta.tier = "standard".into();
        std::fs::write(cur_dir.join(cur.file_name()), cur.to_json().to_pretty()).unwrap();

        // Strict mode: no overlap at all -> error (the gate would be
        // vacuous).
        assert!(compare_dirs(&base_dir, &cur_dir, 2.5).is_err());

        // Family mode: compared via the smoke baseline, everything
        // downgraded to warnings, gate passes.
        let cmp = compare_dirs_opts(&base_dir, &cur_dir, 2.5, true).unwrap();
        assert_eq!(cmp.compared, 1);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.metric == "presence" && f.message.contains("tier mismatch")));
        assert!(
            cmp.findings
                .iter()
                .any(|f| f.metric.starts_with("measured.") && !f.fatal),
            "the cross-tier regression must still be reported (as a warning): {:?}",
            cmp.findings
        );
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
