//! `labelcount-perf` — the scenario-matrix perf harness CLI.
//!
//! ```text
//! labelcount-perf [--tier smoke|standard|stress]
//!                 [--family ba,er,loaded,loaded-paged]
//!                 [--seed N] [--fault-rate F] [--tenant-skew S]
//!                 [--deadline inf|p95|p50]
//!                 [--pool-frames tight|comfortable|unbounded|N]
//!                 [--churn-rate R] [--burst off|short|long] [--out DIR]
//! labelcount-perf compare --baseline DIR --current DIR [--max-regression X]
//!                 [--match-family] [--min-parallel-speedup X]
//!                 [--markdown-summary FILE]
//! ```
//!
//! The run mode writes one `BENCH_<family>_<tier>.json` per scenario into
//! `--out` (default: the current directory, i.e. the repo root when run via
//! `cargo run`). The compare mode loads both directories and exits non-zero
//! if any scenario's `measured` metrics regressed beyond the threshold.

use std::path::PathBuf;
use std::process::ExitCode;

use labelcount_perf::alloc_track::CountingAlloc;
use labelcount_perf::compare::{compare_dirs_opts, markdown_summary, min_speedup_findings};
use labelcount_perf::scenario::{
    run_scenario, BurstLevel, DeadlineTightness, Family, PoolFrames, ScenarioSpec, Tier,
    DEFAULT_BURST, DEFAULT_CHURN_RATE, DEFAULT_DEADLINE, DEFAULT_FAULT_RATE, DEFAULT_POOL_FRAMES,
    DEFAULT_SEED, DEFAULT_TENANT_SKEW,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    CountingAlloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        cmd_compare(&args[1..])
    } else {
        cmd_run(&args)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("labelcount-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut tier = Tier::Smoke;
    let mut families: Vec<Family> = Family::all().to_vec();
    let mut seed = DEFAULT_SEED;
    let mut fault_rate = DEFAULT_FAULT_RATE;
    let mut tenant_skew = DEFAULT_TENANT_SKEW;
    let mut deadline = DEFAULT_DEADLINE;
    let mut pool_frames = DEFAULT_POOL_FRAMES;
    let mut churn_rate = DEFAULT_CHURN_RATE;
    let mut burst = DEFAULT_BURST;
    let mut out = PathBuf::from(".");

    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--tier" => {
                let v = take_value(args, &mut i, "--tier")?;
                tier = Tier::parse(&v).ok_or_else(|| format!("unknown tier `{v}`"))?;
            }
            "--family" => {
                let v = take_value(args, &mut i, "--family")?;
                families = v
                    .split(',')
                    .map(|s| Family::parse(s.trim()).ok_or_else(|| format!("unknown family `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                let v = take_value(args, &mut i, "--seed")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--fault-rate" => {
                let v = take_value(args, &mut i, "--fault-rate")?;
                fault_rate = v.parse().map_err(|_| format!("bad fault rate `{v}`"))?;
                if !(0.0..1.0).contains(&fault_rate) {
                    return Err("--fault-rate must be in [0, 1)".into());
                }
            }
            "--tenant-skew" => {
                let v = take_value(args, &mut i, "--tenant-skew")?;
                tenant_skew = v.parse().map_err(|_| format!("bad tenant skew `{v}`"))?;
                if !(0.0..=1.0).contains(&tenant_skew) {
                    return Err("--tenant-skew must be in [0, 1]".into());
                }
            }
            "--deadline" => {
                let v = take_value(args, &mut i, "--deadline")?;
                deadline = DeadlineTightness::parse(&v)
                    .ok_or_else(|| format!("unknown deadline tightness `{v}` (inf|p95|p50)"))?;
            }
            "--pool-frames" => {
                let v = take_value(args, &mut i, "--pool-frames")?;
                pool_frames = PoolFrames::parse(&v).ok_or_else(|| {
                    format!("unknown pool budget `{v}` (tight|comfortable|unbounded|N)")
                })?;
            }
            "--churn-rate" => {
                let v = take_value(args, &mut i, "--churn-rate")?;
                churn_rate = v.parse().map_err(|_| format!("bad churn rate `{v}`"))?;
                if !(0.0..=1.0).contains(&churn_rate) {
                    return Err("--churn-rate must be in [0, 1]".into());
                }
            }
            "--burst" => {
                let v = take_value(args, &mut i, "--burst")?;
                burst = BurstLevel::parse(&v)
                    .ok_or_else(|| format!("unknown burst level `{v}` (off|short|long)"))?;
            }
            "--out" => out = PathBuf::from(take_value(args, &mut i, "--out")?),
            "--help" | "-h" => {
                println!("{}", HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
        i += 1;
    }

    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for family in families {
        let spec = ScenarioSpec {
            family,
            tier,
            seed,
            fault_rate,
            tenant_skew,
            deadline,
            pool_frames,
            churn_rate,
            burst,
        };
        eprintln!("running scenario {} ...", spec.name());
        let report = run_scenario(&spec);
        let path = out.join(report.file_name());
        std::fs::write(&path, report.to_json().to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let c = |path: &str| report.counter(path).unwrap_or(f64::NAN);
        let m = |path: &str| report.metric(path).unwrap_or(f64::NAN);
        eprintln!(
            "  serving: {} requests -> {} admitted / {} shed / {} quota-exhausted ({:.1} ms serial / {:.1} ms parallel)",
            c("serving.requests"), c("serving.admitted"), c("serving.shed"),
            c("serving.quota_exhausted"), m("serving_serial_ms"), m("serving_parallel_ms"),
        );
        let (page_reads, pool_hits) = (c("paging.page_reads"), c("paging.pool_hits"));
        if page_reads > 0.0 {
            eprintln!(
                "  paging ({} frames): {page_reads} page reads / {pool_hits} pool hits ({:.1}% hit rate), {} evictions, pinned peak {} ({:.0} ns/fault)",
                pool_frames.label(),
                100.0 * pool_hits / (pool_hits + page_reads).max(1.0),
                c("paging.evictions"), c("paging.pinned_peak"), m("page_fault_ns"),
            );
        }
        eprintln!(
            "  scheduler ({}): {} deadline hits / {} cancellations, mean slack {:.1} ticks, {} inversions ({:.1} ms)",
            deadline.name(), c("scheduling.deadline_hits"), c("scheduling.cancellations"),
            c("scheduling.mean_slack_ticks"), c("scheduling.priority_inversions"), m("scheduler_ms"),
        );
        eprintln!(
            "  churn (rate {churn_rate}): {} batches / {} events -> {} L1 + {} L2 stale evictions, {} avoided",
            c("invalidation.churn_batches"), c("invalidation.churn_events"),
            c("invalidation.l1_stale_evictions"), c("invalidation.l2_stale_evictions"),
            c("invalidation.avoided_invalidations"),
        );
        eprintln!(
            "  faults (burst {}): {} bursts -> {} breaker opens, {} stale served, {} storage retries, {} throttled",
            burst.name(), c("faults.bursts"), c("faults.breaker_opens"), c("faults.stale_served"),
            c("faults.storage_retries"), c("faults.quota_throttled"),
        );
        eprintln!(
            "  {:>10} nodes {:>10} edges | walk {:>12.0} steps/s per-step, {:>12.0} batched, {:>11.0} line | gt {:.1} ms serial / {:.1} ms parallel | {:.0} ms total -> {}",
            report.meta.nodes,
            report.meta.edges,
            m("per_step_steps_per_sec"),
            m("batched_steps_per_sec"),
            m("line_steps_per_sec"),
            m("gt_serial_ms"),
            m("gt_parallel_ms"),
            m("total_ms"),
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut max_regression = 2.5f64;
    let mut match_family = false;
    let mut min_speedup: Option<f64> = None;
    let mut summary_path: Option<PathBuf> = None;

    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => baseline = Some(PathBuf::from(take_value(args, &mut i, "--baseline")?)),
            "--current" => current = Some(PathBuf::from(take_value(args, &mut i, "--current")?)),
            "--max-regression" => {
                let v = take_value(args, &mut i, "--max-regression")?;
                max_regression = v.parse().map_err(|_| format!("bad threshold `{v}`"))?;
                if max_regression < 1.0 {
                    return Err("--max-regression must be >= 1.0".into());
                }
            }
            "--match-family" => match_family = true,
            "--min-parallel-speedup" => {
                let v = take_value(args, &mut i, "--min-parallel-speedup")?;
                let floor: f64 = v.parse().map_err(|_| format!("bad speedup floor `{v}`"))?;
                if floor < 1.0 {
                    return Err("--min-parallel-speedup must be >= 1.0".into());
                }
                min_speedup = Some(floor);
            }
            "--markdown-summary" => {
                summary_path = Some(PathBuf::from(take_value(
                    args,
                    &mut i,
                    "--markdown-summary",
                )?))
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
        i += 1;
    }
    let baseline = baseline.ok_or("compare requires --baseline DIR")?;
    let current = current.ok_or("compare requires --current DIR")?;

    let mut cmp = compare_dirs_opts(&baseline, &current, max_regression, match_family)?;
    if let Some(floor) = min_speedup {
        cmp.findings.extend(min_speedup_findings(&current, floor)?);
    }
    if let Some(path) = &summary_path {
        // Append, not truncate: $GITHUB_STEP_SUMMARY accumulates sections
        // from every step of the job.
        use std::io::Write;
        let md = markdown_summary(&cmp, max_regression);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(md.as_bytes()))
            .map_err(|e| format!("cannot write summary {}: {e}", path.display()))?;
    }
    for f in &cmp.findings {
        let tag = if f.fatal { "FAIL" } else { "warn" };
        if f.baseline.is_nan() {
            eprintln!("[{tag}] {}: {}: {}", f.scenario, f.metric, f.message);
        } else {
            eprintln!(
                "[{tag}] {}: {}: baseline {:.3e}, current {:.3e} — {}",
                f.scenario, f.metric, f.baseline, f.current, f.message
            );
        }
    }
    eprintln!(
        "compared {} scenario(s) at threshold {max_regression}x: {}",
        cmp.compared,
        if cmp.passed() { "PASS" } else { "FAIL" }
    );
    Ok(if cmp.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const HELP: &str = "labelcount-perf — scenario-matrix perf harness

USAGE:
  labelcount-perf [--tier smoke|standard|stress]
                  [--family ba,er,loaded,loaded-paged]
                  [--seed N] [--fault-rate F] [--tenant-skew S]
                  [--deadline inf|p95|p50]
                  [--pool-frames tight|comfortable|unbounded|N]
                  [--churn-rate R] [--burst off|short|long] [--out DIR]
  labelcount-perf compare --baseline DIR --current DIR [--max-regression X]
                  [--match-family] [--min-parallel-speedup X]
                  [--markdown-summary FILE]

Run mode writes one BENCH_<family>_<tier>.json per scenario (default out:
current directory). --fault-rate sets the workload phase's adversarial
fault probability (default 0.15; non-default rates drift the deterministic
counters, which the compare gate reports warn-only). --tenant-skew sets
the serving phase's heavy-hitter probability (default 0.6; same warn-only
drift rule — the nightly serving matrix sweeps it). --deadline sets the
scheduler phase's deadline tightness as a percentile of the unconstrained
run's own tick bills (default p95; same warn-only drift rule — the
nightly deadline matrix sweeps it). --pool-frames sets the loaded-paged
scenario's buffer-pool frame budget (default tight = 16 frames; the
budget moves only counters.paging — estimates stay bit-identical at any
budget — and the nightly matrix sweeps it). --churn-rate sets the
dynamic-graph phase's seeded churn rate (default 0.05; the rate moves
only counters.invalidation — at 0 the churned stack is asserted
bit-identical to the static engine pass — and the nightly matrix sweeps
it). --burst sets the faults phase's outage-burst level (default short;
the level moves only counters.faults — `off` skips the phase and zeroes
the section — and the nightly matrix sweeps it). Compare mode exits 1
if any measured metric regressed more than the threshold (default 2.5x)
against the baseline directory; --match-family additionally compares
scenarios without a same-name baseline against a same-family baseline of
another tier, warnings only. --min-parallel-speedup X fails any *current*
report produced on a multi-core runner whose engine parallel speedup is
below X (a baseline-free self-gate: single-core runners are exempt), and
--markdown-summary FILE appends the verdict table as GitHub-flavored
markdown (pass $GITHUB_STEP_SUMMARY in CI).";
