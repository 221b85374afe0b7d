//! The serving benchmark: three workloads through the public entry points
//! of the labelcount workspace, end-to-end metrics from untraced runs,
//! and a per-layer cost ladder from traced runs. See `README.md` beside
//! this package.
//!
//! ```text
//! servebench --workload <batch-ram|interactive-paged|deep-queue-churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod batch_ram;
mod deep_queue_churn;
mod inputs;
mod interactive_paged;
mod ladder;
mod measure;
mod output;
mod pricing;
mod probes;
mod procfs;
mod replay;
mod scheduled;
mod trace;

use std::process::ExitCode;

use output::{RunResult, END_TO_END, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["batch-ram", "interactive-paged", "deep-queue-churn"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, set only by the benchmark's own tests: every phase
    /// runs, the percentile rule is relaxed, nothing is representative.
    pub tiny: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| format!("bad seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny: false,
        })
    }

    /// Samples a published p99 needs beyond it.
    pub fn min_tail(&self) -> usize {
        if self.tiny {
            0
        } else {
            measure::MIN_TAIL
        }
    }
}

/// Runs one workload and returns its result.
pub fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "batch-ram" => batch_ram::run(args),
        "interactive-paged" => interactive_paged::run(args),
        "deep-queue-churn" => deep_queue_churn::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let printed = run(&args).and_then(|result| {
        if let Some(why) = result.untrusted {
            eprintln!("servebench: wall-time metrics are {why}: see process.cpu_util");
        }
        output::print(&result, if args.trace { PER_LAYER } else { END_TO_END })
    });
    match printed {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.01,
            trace,
            tiny: true,
        }
    }

    #[test]
    fn a_tiny_run_of_every_workload_completes_correctly() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let r = run(&tiny(w, trace)).unwrap_or_else(|e| panic!("{w}: {e}"));
                assert!(r.correct, "{w} (trace {trace}) failed its output checks");
                assert!(r.attempted > 0);
                assert_eq!(r.failed, 0, "{w}");
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                for (name, _) in catalogue {
                    let v = r.metrics.get(name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{w} (trace {trace}) did not measure {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload batch-ram --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload batch-ram --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload batch-ram --seed 1 --trace 0").is_err());
        assert!(parse("--workload batch-ram --seed 1 --seconds 10 --trace 0 --tiny").is_err());
    }
}
