//! What one workload run produces, and the one-line JSON result the
//! driver reads from the last line of standard output.

use crate::affinity::Pin;
use crate::catalog::unit_of;
use crate::json::escape;
use crate::stats::PhaseStats;

/// How a run was asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// 1/20 of the warm-up work and a single set-up: exercises every
    /// code path of the run, measures nothing worth keeping.
    pub smoke: bool,
    /// The CPU the run is pinned to, if the platform allowed it.
    pub pin: Option<Pin>,
}

impl RunOpts {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Scales a warm-up step count down for smoke runs.
    pub fn warm(&self, steps: usize) -> usize {
        if self.smoke {
            (steps / 20).max(2)
        } else {
            steps
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps issued in the measured phase (and after the restart).
    pub attempted: u64,
    /// Steps that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Broken invariants; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about the run that are not metrics: input and output
    /// digests, sample counts.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in the catalog");
        self.metrics.push((name, value));
    }

    /// Records an invariant; a false `ok` makes the run incorrect.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Notes beside a measured phase's figures what the wall clock saw
    /// over the whole phase, unscaled, and the phase's median slowdown.
    pub fn wall_clock(&mut self, stats: &PhaseStats) {
        self.info.push(("latency_samples", stats.samples.to_string()));
        self.info.push(("windows", stats.windows.to_string()));
        self.info.push(("step_p99_us", format!("{:.1}", stats.p99_ns / 1e3)));
        self.info.push(("host_slowdown", format!("{:.3}", stats.slowdown)));
        self.info.push(("wall_steps_per_s", format!("{:.1}", stats.wall_steps_per_s)));
        self.info.push(("wall_step_p50_us", format!("{:.1}", stats.wall_p50_ns / 1e3)));
        self.info.push(("wall_step_p99_us", format!("{:.1}", stats.wall_p99_ns / 1e3)));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. Values keep every digit they were measured with.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("metric is in the catalog");
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The line printed before the result line, for people and for the
    /// `run` subcommand: the run's facts and its violated invariants.
    pub fn info_line(&self) -> String {
        let fields: Vec<String> =
            self.info.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        let violations: Vec<String> =
            self.violations.iter().map(|v| format!("\"{}\"", escape(v))).collect();
        format!("info {{{}, \"violations\": [{}]}}", fields.join(", "), violations.join(", "))
    }
}

/// A JSON number: finite values as Rust prints them (shortest form that
/// round-trips), anything else as 0 so the line stays parseable.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome { attempted: 10, ..Outcome::default() };
        out.metric("steps_per_s", 1234.5678);
        out.metric("setup_s", f64::NAN);
        let doc = Json::parse(&out.result_line()).unwrap();
        assert_eq!(doc.keys().unwrap(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("steps_per_s").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1234.5678)
        );
        assert_eq!(
            m.get("steps_per_s").and_then(|v| v.get("unit")).and_then(Json::as_str),
            Some("1/s")
        );
        assert_eq!(m.get("setup_s").and_then(|v| v.get("value")).and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn violations_and_failures_make_a_run_incorrect() {
        let mut out = Outcome { attempted: 5, ..Outcome::default() };
        assert!(out.correct());
        out.require(true, || unreachable!());
        out.require(false, || "parks on serve_resident".into());
        assert!(!out.correct());
        assert!(out.info_line().contains("parks on serve_resident"));
        let failed = Outcome { attempted: 5, failed: 1, ..Outcome::default() };
        assert!(!failed.correct());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
