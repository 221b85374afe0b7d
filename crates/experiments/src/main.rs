//! `labelcount-exp` — regenerate any table or figure of the paper.
//!
//! ```text
//! labelcount-exp [IDS...] [--reps N] [--threads N] [--seed S]
//!                [--data-seed S] [--scale F] [--alpha A] [--delta D]
//!                [--out DIR] [--csv] [--list]
//!
//! IDS: any id `--list` prints (table1..table26, fig1, fig2, mixing, the
//!      ablation-* ids, bias-decomposition, and the serving-stack sweeps
//!      resilience, serving, deadlines, eviction, chaos, staleness),
//!      or all, tables, figs (default: table4 — the quickest full sweep)
//! ```
//!
//! Results are printed to stdout and, when `--out` is given, written to
//! `DIR/<id>.txt`; `--csv` additionally writes `DIR/<id>.csv` for the
//! sweep tables (4–17) and the six serving-stack sweeps, for plotting
//! pipelines. `--csv` without `--out` is a usage error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use labelcount_experiments::registry::Registry;
use labelcount_experiments::report::Artifacts;
use labelcount_experiments::runner::SweepConfig;
use labelcount_experiments::tables::Harness;

struct Cli {
    ids: Vec<String>,
    sweep: SweepConfig,
    scale: f64,
    data_seed: u64,
    out: Option<PathBuf>,
    csv: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        ids: Vec::new(),
        sweep: SweepConfig::default(),
        scale: 1.0,
        data_seed: 2018,
        out: None,
        csv: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--reps" => cli.sweep.reps = grab("--reps")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                cli.sweep.threads = grab("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => cli.sweep.seed = grab("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--data-seed" => {
                cli.data_seed = grab("--data-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--scale" => cli.scale = grab("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--alpha" => cli.sweep.alpha = grab("--alpha")?.parse().map_err(|e| format!("{e}"))?,
            "--delta" => cli.sweep.delta = grab("--delta")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => cli.out = Some(PathBuf::from(grab("--out")?)),
            "--csv" => cli.csv = true,
            "--list" => {
                // Generated from the registry: id + one-line description.
                for exp in Registry::paper().iter() {
                    println!("{:<20} {}", exp.id(), exp.description());
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("usage: labelcount-exp [IDS...] [--reps N] [--threads N] [--seed S]");
                println!("                      [--data-seed S] [--scale F] [--alpha A]");
                println!("                      [--delta D] [--out DIR] [--csv] [--list]");
                println!("IDS: any id --list prints, or all, tables, figs (default: table4)");
                println!("--csv also writes DIR/<id>.csv for the experiments that have one");
                println!("(tables 4-17 and the serving-stack sweeps); it needs --out DIR");
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            id => cli.ids.push(id.to_string()),
        }
    }
    if cli.csv && cli.out.is_none() {
        return Err("--csv needs --out DIR: the CSV files are written there".to_string());
    }
    if cli.ids.is_empty() {
        cli.ids.push("table4".to_string());
    }
    Ok(cli)
}

fn expand_ids(ids: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for id in ids {
        match id.as_str() {
            "all" => out.extend(Harness::experiment_ids()),
            "tables" => out.extend(
                Harness::experiment_ids()
                    .into_iter()
                    .filter(|i| i.starts_with("table")),
            ),
            "figs" => {
                out.push("fig1".to_string());
                out.push("fig2".to_string());
            }
            other => out.push(other.to_string()),
        }
    }
    out.dedup();
    out
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let harness = Harness::new(cli.sweep, cli.scale, cli.data_seed);
    let ids = expand_ids(&cli.ids);

    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut failed = false;
    for id in &ids {
        let started = std::time::Instant::now();
        match harness.run(id) {
            Ok(Artifacts { text, csv }) => {
                println!("{text}");
                eprintln!("[{id} took {:.1?}]", started.elapsed());
                if let Some(dir) = &cli.out {
                    let path = dir.join(format!("{id}.txt"));
                    match std::fs::File::create(&path)
                        .and_then(|mut f| f.write_all(text.as_bytes()))
                    {
                        Ok(()) => eprintln!("[wrote {}]", path.display()),
                        Err(e) => {
                            eprintln!("error writing {}: {e}", path.display());
                            failed = true;
                        }
                    }
                    if cli.csv {
                        if let Some(csv) = csv {
                            let path = dir.join(format!("{id}.csv"));
                            match std::fs::File::create(&path)
                                .and_then(|mut f| f.write_all(csv.as_bytes()))
                            {
                                Ok(()) => eprintln!("[wrote {}]", path.display()),
                                Err(e) => {
                                    eprintln!("error writing {}: {e}", path.display());
                                    failed = true;
                                }
                            }
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn csv_without_out_is_a_usage_error() {
        let err = parse(&["staleness", "--csv"])
            .err()
            .expect("--csv alone must fail");
        assert!(err.contains("--out"), "{err}");
        let cli = parse(&["staleness", "--csv", "--out", "dir"]).expect("--csv --out parses");
        assert!(cli.csv);
        assert_eq!(cli.out, Some(PathBuf::from("dir")));
        assert_eq!(cli.ids, ["staleness"]);
        assert!(parse(&["staleness", "--out", "dir"]).is_ok());
    }
}
