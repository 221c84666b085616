//! `e2e_bench`: the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload. The driver form is
//!
//! ```text
//! e2e_bench --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! which prints, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0` (tracing off), the per-layer metrics with
//! `--trace 1` (the separate traced run, which also writes its spans to
//! `target/e2e_bench/trace-<workload>.json`).
//!
//! The subcommands wrap that form for people: `run` and `trace` execute
//! every workload, each in a process of its own (so `setup_s` and
//! `peak_rss_mb` are per workload), `repeat` runs several sets of the
//! same build, and `compare` holds two result files against the bounds
//! in `BENCHMARK.json`. See the README beside this package.

mod affinity;
mod catalog;
mod compare;
mod inputs;
mod json;
mod layers;
mod offline;
mod probe;
mod report;
mod served;
mod spans;
mod stats;

use report::{Outcome, RunOpts};
use spans::SpanBuf;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Where the benchmark writes: span files, result files, the durable
/// workload's store. Relative to the working directory (the root of the
/// checkout), and git-ignored there.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/e2e_bench")
}

const USAGE: &str = "usage:
  e2e_bench --workload W --seed S --seconds T --trace 0|1 [--smoke]
  e2e_bench run     [--seed S] [--seconds T] [--workload W] [--json PATH] [--smoke]
  e2e_bench trace   [--seed S] [--seconds T] [--workload W] [--json PATH] [--smoke]
  e2e_bench repeat  [--sets N] [--runs N] [--seed S] [--seconds T] [--smoke]
  e2e_bench compare A.json B.json";

/// Flags shared by the driver form and the subcommands.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub json: Option<PathBuf>,
    pub sets: usize,
    pub runs: usize,
    pub files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2021,
        seconds: None,
        trace: false,
        smoke: false,
        json: None,
        sets: 2,
        runs: 5,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} expects {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--json" => out.json = Some(PathBuf::from(value("a path")?)),
            "--sets" => {
                out.sets = value("a number")?.parse().map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                out.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => out.files.push(PathBuf::from(file)),
        }
    }
    if let Some(w) = &out.workload {
        if catalog::workload(w).is_none() {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w:?} (known: {})", known.join(", ")));
        }
    }
    Ok(out)
}

impl Args {
    /// Length of the measured phase: as asked, else `run_seconds` of the
    /// manifest for a full run and half a second for a smoke run.
    fn run_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            0.5
        } else {
            compare::manifest_run_seconds().unwrap_or(10.0)
        })
    }
}

/// Runs one workload in this process and prints its result line. An
/// incorrect run still exits 0 in this form: the line says `correct:
/// false`, and a non-zero exit is kept for a run that has no result.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    // Before any thread exists, so that every thread inherits the pin.
    let pin = affinity::Pin::one_cpu();
    let opts = RunOpts { seed: args.seed, seconds: args.run_seconds(), smoke: args.smoke, pin };
    let mut spans = SpanBuf::new(Instant::now(), 1 << 19);
    let mut outcome: Outcome = match (offline::workload(name), served::workload(name)) {
        (Some(w), _) if args.trace => w.trace(&opts, &mut spans),
        (Some(w), _) => w.run(&opts),
        (_, Some(w)) if args.trace => {
            w.trace(&opts, &mut spans).map_err(|e| format!("{name}: {e}"))?
        }
        (_, Some(w)) => w.run(&opts).map_err(|e| format!("{name}: {e}"))?,
        (None, None) => return Err(format!("workload {name} has no implementation")),
    };
    if args.trace {
        // Every per-layer metric is printed on every workload; a layer
        // the workload does not touch reads 0.
        for m in &catalog::PER_LAYER {
            if !outcome.metrics.iter().any(|(n, _)| *n == m.name) {
                outcome.metric(m.name, 0.0);
            }
        }
        let path = out_dir().join(format!("trace-{name}.json"));
        spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.info.push(("spans", spans.len().to_string()));
        outcome.info.push(("span_file", path.display().to_string()));
    }
    outcome.info.push(("pinned_cpu", pin.map_or("none".into(), |p| p.cpu().to_string())));
    println!("{}", outcome.info_line());
    println!("{}", outcome.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat" | "compare")) => (c, &argv[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("one", &argv[..]),
    };
    let result = parse(rest).and_then(|mut args| match command {
        "one" => run_one(&args),
        "run" => compare::run_all(&args),
        "trace" => {
            args.trace = true;
            compare::run_all(&args)
        }
        "repeat" => compare::repeat(&args),
        _ => compare::compare_files(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let a = parse(&argv("--workload serve_churn --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(10.0), true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--seed x",
            "--frobnicate",
            "--workload",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
