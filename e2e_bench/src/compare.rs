//! The subcommands around the single-workload run: `run`/`trace` (every
//! workload, one child process each), `repeat` (several sets of the
//! same build) and `compare` (two result files against the bounds).

use crate::catalog::{self, Better};
use crate::json::{escape, Json};
use crate::report::number;
use crate::stats::{median, spread};
use crate::{out_dir, Args};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `run_seconds` of the manifest in the working directory, if there is
/// one: the length `run` and `repeat` measure for unless told otherwise.
pub fn manifest_run_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    Json::parse(&text).ok()?.get("run_seconds")?.as_f64()
}

/// One workload run as read back from a child or a result file.
#[derive(Debug, Clone)]
struct RunRecord {
    workload: String,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    info: Vec<(String, String)>,
    violations: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl RunRecord {
    fn to_json(&self) -> String {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        let violations: Vec<String> =
            self.violations.iter().map(|v| format!("\"{}\"", escape(v))).collect();
        let metrics: Vec<String> =
            self.metrics.iter().map(|(k, v)| format!("\"{k}\": {}", number(*v))).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"info\": {{{}}}, \"violations\": [{}], \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            info.join(", "),
            violations.join(", "),
            metrics.join(", ")
        )
    }

    fn from_json(doc: &Json) -> Option<RunRecord> {
        let fields = |key: &str| match doc.get(key) {
            Some(Json::Obj(fields)) => Some(fields.clone()),
            _ => None,
        };
        Some(RunRecord {
            workload: doc.get("workload")?.as_str()?.to_owned(),
            seed: doc.get("seed")?.as_f64()? as u64,
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            info: fields("info")?
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_str()?.to_owned())))
                .collect(),
            violations: doc
                .get("violations")?
                .as_array()?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect(),
            metrics: fields("metrics")?
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect(),
        })
    }
}

/// Runs one workload in a child process (this same executable in its
/// driver form) and reads its result back.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .ok_or(format!("the {workload} child ({}) printed no result line", output.status))?;
    let info = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    let mut record = RunRecord {
        workload: workload.to_owned(),
        seed,
        correct: result.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        info: Vec::new(),
        violations: Vec::new(),
        metrics: Vec::new(),
    };
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                record.metrics.push((name.clone(), v));
            }
        }
    }
    if let Json::Obj(fields) = info {
        for (k, v) in fields {
            match v {
                Json::Str(s) => record.info.push((k, s)),
                Json::Arr(items) if k == "violations" => record
                    .violations
                    .extend(items.iter().filter_map(|i| i.as_str().map(str::to_owned))),
                _ => {}
            }
        }
    }
    Ok(record)
}

/// Checks that every name the binary prints is declared in the record's
/// metrics and the other way round.
fn check_names(record: &RunRecord, trace: bool) -> Result<(), String> {
    let declared: Vec<&str> = if trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &declared {
        if !record.metrics.iter().any(|(n, _)| n == name) {
            return Err(format!("{}: declared metric {name} was not printed", record.workload));
        }
    }
    for (name, _) in &record.metrics {
        if !declared.contains(&name.as_str()) {
            return Err(format!("{}: printed metric {name} is not declared", record.workload));
        }
    }
    Ok(())
}

fn print_record(record: &RunRecord) {
    let info =
        |key: &str| record.info.iter().find(|(k, _)| k == key).map_or("-", |(_, v)| v.as_str());
    println!(
        "\n{}  seed {}  {}  failed/attempted {}/{}  schedule {}  warm-up outputs {}",
        record.workload,
        record.seed,
        if record.correct { "correct" } else { "INCORRECT" },
        record.failed,
        record.attempted,
        info("schedule_digest"),
        info("warmup_outputs_digest"),
    );
    if let Some(w) = catalog::workload(&record.workload) {
        println!("  why: {}", w.why);
    }
    for v in &record.violations {
        println!("  violated: {v}");
    }
    let samples = info("latency_samples");
    for (name, value) in &record.metrics {
        let unit = catalog::unit_of(name).unwrap_or("?");
        let beside = if name.starts_with("step_p") {
            format!("  ({samples} samples)")
        } else {
            String::new()
        };
        println!("  {name:<38} {value:>16.4} {unit}{beside}");
    }
}

fn write_set(path: &Path, args: &Args, seconds: f64, records: &[RunRecord]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let runs: Vec<String> = records.iter().map(|r| format!("    {}", r.to_json())).collect();
    let doc = format!(
        "{{\n  \"bench\": \"e2e_bench\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"machine_threads\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.seed,
        number(seconds),
        args.trace,
        args.smoke,
        std::thread::available_parallelism().map_or(1, usize::from),
        runs.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the chosen workloads for every seed in `seeds`, one child each.
fn run_set(args: &Args, seeds: &[u64], seconds: f64) -> Result<Vec<RunRecord>, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut records = Vec::new();
    for &seed in seeds {
        for name in &names {
            let record = run_child(name, seed, seconds, args.trace, args.smoke)?;
            check_names(&record, args.trace)?;
            print_record(&record);
            records.push(record);
        }
    }
    Ok(records)
}

/// `run` / `trace`: every workload once; with `--smoke` the manifest is
/// validated first.
pub fn run_all(args: &Args) -> Result<bool, String> {
    if args.smoke {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        catalog::validate_manifest(&Json::parse(&text)?)?;
        println!("BENCHMARK.json agrees with the binary's tables");
    }
    let seconds = args.run_seconds();
    let records = run_set(args, &[args.seed], seconds)?;
    let default = out_dir().join(if args.trace { "trace.json" } else { "run.json" });
    let path = args.json.clone().unwrap_or(default);
    write_set(&path, args, seconds, &records)?;
    println!("\nwrote {}", path.display());
    Ok(records.iter().all(|r| r.correct))
}

/// `repeat`: `--sets` sets of the same build, each `--runs` seeds of
/// every workload, each later set compared with the first.
pub fn repeat(args: &Args) -> Result<bool, String> {
    if args.sets < 2 || args.runs < 1 {
        return Err("repeat needs --sets >= 2 and --runs >= 1".into());
    }
    let seconds = args.run_seconds();
    let seeds: Vec<u64> = (0..args.runs as u64).map(|i| args.seed + i).collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut all_correct = true;
    for set in 1..=args.sets {
        println!("\n== set {set} of {} ==", args.sets);
        let records = run_set(args, &seeds, seconds)?;
        all_correct &= records.iter().all(|r| r.correct);
        let path = out_dir().join(format!("set-{set}.json"));
        write_set(&path, args, seconds, &records)?;
        paths.push(path);
    }
    let mut agree = true;
    for later in &paths[1..] {
        agree &= compare_paths(&paths[0], later)?;
    }
    Ok(all_correct && agree)
}

pub fn compare_files(args: &Args) -> Result<bool, String> {
    match args.files.as_slice() {
        [a, b] => compare_paths(a, b),
        _ => Err("compare expects two result files".into()),
    }
}

fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs =
        doc.get("runs").and_then(Json::as_array).ok_or(format!("{}: no runs", path.display()))?;
    runs.iter()
        .map(|r| RunRecord::from_json(r).ok_or(format!("{}: malformed run", path.display())))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share by which `new` is worse than `base` (negative = better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Higher => (base - new) / base,
        Better::Lower => (new - base) / base,
    }
}

/// The rule of the choosing-metrics guide: a median worse than the bound
/// is a regression; where the run-to-run spread is wider than the bound
/// the pair is unresolved, unless every run of one side beats every run
/// of the other.
fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worse_by(better, median(a), median(b));
    let wide = [spread(a), spread(b)].into_iter().flatten().any(|s| s > bound);
    let separated = |winner: &[f64], loser: &[f64]| {
        winner.iter().all(|w| loser.iter().all(|l| worse_by(better, *w, *l) > 0.0))
    };
    if worse > bound {
        if wide && !separated(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if wide && !separated(b, a) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares set `b` with base set `a`; true unless something regressed.
fn compare_paths(a: &Path, b: &Path) -> Result<bool, String> {
    let (base, new) = (load(a)?, load(b)?);
    println!(
        "\ncompare: base {} ({} runs), new {} ({} runs)",
        a.display(),
        base.len(),
        b.display(),
        new.len()
    );
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>8} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "worse", "bound", "spread"
    );
    let mut regressed = false;
    for w in &catalog::WORKLOADS {
        let of = |set: &[RunRecord]| -> Vec<RunRecord> {
            set.iter().filter(|r| r.workload == w.name).cloned().collect()
        };
        let (ra, rb) = (of(&base), of(&new));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let mut names: Vec<&str> = Vec::new();
        for (n, _) in ra.iter().flat_map(|r| &r.metrics) {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
        for name in names {
            let values = |set: &[RunRecord]| -> Vec<f64> {
                set.iter()
                    .flat_map(|r| &r.metrics)
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let widest = [spread(&va), spread(&vb)].into_iter().flatten().fold(f64::NAN, f64::max);
            let spread_text =
                if widest.is_nan() { "-".to_owned() } else { format!("{:.1}%", widest * 100.0) };
            let (worse_text, bound_text, verdict) = match catalog::end_to_end(name) {
                Some(m) if ma != 0.0 => {
                    let verdict = judge(m.better, m.bound, &va, &vb);
                    regressed |= verdict == Verdict::Regressed;
                    (
                        format!("{:+.1}%", worse_by(m.better, ma, mb) * 100.0),
                        format!("{:.0}%", m.bound * 100.0),
                        verdict.label(),
                    )
                }
                // Per-layer metrics carry no bound: ratio and base only.
                _ => ("-".to_owned(), "-".to_owned(), "-"),
            };
            let ratio = if ma != 0.0 { format!("{:.3}", mb / ma) } else { "-".to_owned() };
            println!(
                "{:<18} {:<34} {:>14.4} {:>14.4} {:>8} {:>8} {:>7} {:>8}  {}",
                w.name, name, ma, mb, ratio, worse_text, bound_text, spread_text, verdict
            );
        }
        let tally = |set: &[RunRecord]| {
            (
                set.iter().map(|r| r.failed).sum::<u64>(),
                set.iter().map(|r| r.attempted).sum::<u64>(),
            )
        };
        let ((fa, aa), (fb, ab)) = (tally(&ra), tally(&rb));
        let incorrect = rb.iter().filter(|r| !r.correct).count();
        println!("{:<18} failed/attempted: base {fa}/{aa}, new {fb}/{ab}; incorrect new runs: {incorrect}", w.name);
        regressed |= incorrect > 0;
    }
    println!("{}", if regressed { "result: regressed" } else { "result: nothing regressed" });
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_the_spread_rule() {
        use Better::{Higher, Lower};
        let tight_a = [100.0, 101.0, 99.0, 100.5];
        // Inside the bound, tight spread.
        assert_eq!(judge(Higher, 0.05, &tight_a, &[98.0, 99.0, 97.5, 98.5]), Verdict::Ok);
        // Worse than the bound, tight spread.
        assert_eq!(judge(Higher, 0.05, &tight_a, &[90.0, 91.0, 89.0, 90.5]), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.05, &tight_a, &[110.0, 111.0, 109.0, 112.0]), Verdict::Regressed);
        // Spread wider than the bound and the sides overlap: unresolved
        // whether the median moved or not.
        let wide_a = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(
            judge(Higher, 0.05, &wide_a, &[99.0, 119.0, 81.0, 109.0, 91.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Higher, 0.05, &wide_a, &[85.0, 105.0, 70.0, 95.0, 80.0]),
            Verdict::Unresolved
        );
        // Wide, but every new run beats every base run: resolved as ok.
        assert_eq!(judge(Higher, 0.05, &wide_a, &[130.0, 150.0, 125.0, 140.0, 135.0]), Verdict::Ok);
        // Wide, and every new run loses to every base run: regressed.
        assert_eq!(
            judge(Higher, 0.05, &wide_a, &[50.0, 60.0, 40.0, 55.0, 45.0]),
            Verdict::Regressed
        );
        // Single runs have no spread: the bound alone decides.
        assert_eq!(judge(Lower, 0.10, &[100.0], &[105.0]), Verdict::Ok);
        assert_eq!(judge(Lower, 0.10, &[100.0], &[115.0]), Verdict::Regressed);
    }

    #[test]
    fn run_records_round_trip() {
        let record = RunRecord {
            workload: "serve_churn".into(),
            seed: 7,
            correct: false,
            attempted: 10,
            failed: 1,
            info: vec![("schedule_digest".into(), "00ff".into())],
            violations: vec!["parks \"x\"".into()],
            metrics: vec![("steps_per_s".into(), 1234.5), ("setup_s".into(), 0.25)],
        };
        let back = RunRecord::from_json(&Json::parse(&record.to_json()).unwrap()).unwrap();
        assert_eq!(back.workload, record.workload);
        assert_eq!((back.seed, back.correct, back.attempted, back.failed), (7, false, 10, 1));
        assert_eq!(back.info, record.info);
        assert_eq!(back.violations, record.violations);
        assert_eq!(back.metrics, record.metrics);
    }
}
