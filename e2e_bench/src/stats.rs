//! Order statistics used by the measured phases and by `compare`.

use crate::probe::Probe;
use hima::serve::percentile;
use std::time::{Duration, Instant};

/// Sorts `samples` and returns the nearest-rank `p`-quantile in
/// nanoseconds (the served path's own definition,
/// `hima::serve::percentile`). Empty input gives 0.
pub fn percentile_ns(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p).as_nanos() as f64
}

/// Median of a small set of floats (mean of the two middle values when
/// the count is even). Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the driver's own spread rule.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The first quartile of `values` (their median below two): the figure
/// a quarter of the windows or slices stay under.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or_else(|| median(values), |q| q.0)
}

/// Windows a measured phase is cut into, unless the workload says
/// otherwise (one whose steps take milliseconds asks for fewer, so that
/// a window still holds the samples a p99 needs).
pub const WINDOWS: usize = 40;

/// Keeps the fastest quarter of `items`: those with the highest `rate`
/// (at least one), fastest first. The per-layer timings use it — slices
/// of a traced comparison, batches of a micro-timing: the box slows a
/// call down and never speeds it up, so the quarter it left alone is the
/// call's own time.
pub fn quiet<T>(mut items: Vec<T>, rate: impl Fn(&T) -> f64) -> Vec<T> {
    items.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    items.truncate((items.len() / 4).max(1));
    items
}

/// Factor that turns a wall time measured at host slowdown `slowdown`
/// (a probe reading ÷ the probe's reference, see `probe`) into time at
/// the reference speed; 1 without a reading.
pub fn scale_of(slowdown: f64) -> f64 {
    if slowdown > 0.0 {
        1.0 / slowdown
    } else {
        1.0
    }
}

fn median_of(slowdowns: impl Iterator<Item = f32>) -> f64 {
    median(&slowdowns.map(f64::from).collect::<Vec<_>>())
}

/// When a timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many latency samples (a fixed warm-up).
    Samples(usize),
    /// Once this much time has passed.
    After(Duration),
}

/// Counts at the moment a window closed.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    samples: usize,
    probes: usize,
    steps: u64,
}

/// One thread's latency samples and host-slowdown readings in time
/// order, cut into equal windows.
pub struct Timeline {
    window: Duration,
    windows: usize,
    next_mark: Instant,
    /// Latency of every sample, saturating at about 4.3 s.
    pub latency_ns: Vec<u32>,
    /// Every probe reading, as a share of the probe's reference.
    pub slowdown: Vec<f32>,
    marks: Vec<Mark>,
    /// Steps completed so far (a grid step completes one per active lane).
    pub steps: u64,
}

impl Timeline {
    /// A timeline starting at `start` whose `windows` windows span `span`.
    pub fn new(start: Instant, span: Duration, windows: usize, capacity: usize) -> Self {
        let window = span / windows as u32;
        Self {
            window,
            windows,
            next_mark: start + window,
            latency_ns: Vec::with_capacity(capacity),
            slowdown: Vec::with_capacity(capacity),
            marks: Vec::with_capacity(windows),
            steps: 0,
        }
    }

    /// The timeline of a phase that ends at `stop`. One that ends after
    /// a sample count has no windows: none ever closes.
    pub fn until(start: Instant, stop: Stop, windows: usize, capacity: usize) -> Self {
        match stop {
            Stop::Samples(n) => Self::new(start, Duration::from_secs(86_400 * 365), 1, n),
            Stop::After(span) => Self::new(start, span, windows, capacity),
        }
    }

    /// Whether a phase that started at `start` is over at `now`.
    pub fn done(&self, stop: Stop, start: Instant, now: Instant) -> bool {
        match stop {
            Stop::Samples(n) => self.latency_ns.len() >= n,
            Stop::After(span) => now.duration_since(start) >= span,
        }
    }

    /// Adds a sample that ended at `end`; it belongs to the window it
    /// ended in.
    pub fn push(&mut self, end: Instant, latency: Duration, steps: u32) {
        while end >= self.next_mark && self.marks.len() < self.windows {
            self.marks.push(Mark {
                samples: self.latency_ns.len(),
                probes: self.slowdown.len(),
                steps: self.steps,
            });
            self.next_mark += self.window;
        }
        self.latency_ns.push(latency.as_nanos().min(u32::MAX as u128) as u32);
        self.steps += steps as u64;
    }

    /// Reads `probe` on this thread; the reading belongs to the window
    /// of the last sample. A probe that fails leaves no reading.
    pub fn calibrate(&mut self, probe: &mut impl Probe) {
        self.slowdown.extend(probe.slowdown());
    }

    /// Samples, slowdown readings and steps of closed window `k`.
    fn window(&self, k: usize) -> (&[u32], &[f32], u64) {
        let from = if k == 0 { Mark::default() } else { self.marks[k - 1] };
        let to = self.marks[k];
        (
            &self.latency_ns[from.samples..to.samples],
            &self.slowdown[from.probes..to.probes],
            to.steps - from.steps,
        )
    }
}

fn widen(ns: &[u32]) -> impl Iterator<Item = u64> + '_ {
    ns.iter().map(|&n| n as u64)
}

/// The end-to-end timings of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Steps per second at the reference speed: the rate a quarter of
    /// the windows beat.
    pub steps_per_s: f64,
    /// Step latency at the reference speed: the p50 and the p99 a
    /// quarter of the windows stay under (each window's nearest-rank
    /// percentile, scaled by that window's median slowdown).
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The same three over the whole phase as the wall clock saw them:
    /// no windows, no scaling.
    pub wall_steps_per_s: f64,
    pub wall_p50_ns: f64,
    pub wall_p99_ns: f64,
    /// Median slowdown reading of the phase (0 without one).
    pub slowdown: f64,
    /// Windows every thread closed (under 2: too short a phase; the
    /// figures are then the whole phase's, scaled by `slowdown`).
    pub windows: usize,
    pub samples: usize,
}

/// The timings of a phase (see `probe` for why they are scaled). The
/// threads' samples are merged window by window; each window's rate, p50
/// and p99 are scaled by the median of the readings taken inside it; the
/// figure is the better quartile over the windows. What disturbs a
/// window — a speed change half-way through, a neighbour flushing the
/// cache — only ever makes it slower than its probe says, so the
/// windows the box left alone sit at the fast end and agree with each
/// other, and the quartile (not the extreme) keeps one lucky window from
/// carrying the figure. `wall` is the whole phase.
pub fn phase_stats(timelines: &[Timeline], wall: Duration) -> PhaseStats {
    let mut all: Vec<u64> = timelines.iter().flat_map(|t| widen(&t.latency_ns)).collect();
    let steps: u64 = timelines.iter().map(|t| t.steps).sum();
    let slowdown = median_of(timelines.iter().flat_map(|t| t.slowdown.iter().copied()));
    let mut stats = PhaseStats {
        wall_steps_per_s: steps as f64 / wall.as_secs_f64(),
        wall_p50_ns: percentile_ns(&mut all, 0.50),
        wall_p99_ns: percentile_ns(&mut all, 0.99),
        slowdown,
        windows: timelines.iter().map(|t| t.marks.len()).min().unwrap_or(0),
        samples: all.len(),
        steps_per_s: 0.0,
        p50_ns: 0.0,
        p99_ns: 0.0,
    };
    let whole = scale_of(slowdown);
    if stats.windows < 2 {
        stats.steps_per_s = stats.wall_steps_per_s / whole;
        stats.p50_ns = stats.wall_p50_ns * whole;
        stats.p99_ns = stats.wall_p99_ns * whole;
        return stats;
    }
    let span = timelines[0].window.as_secs_f64();
    let per_window: Vec<[f64; 3]> = (0..stats.windows)
        .map(|k| {
            let mut merged: Vec<u64> =
                timelines.iter().flat_map(|t| widen(t.window(k).0)).collect();
            let probes: Vec<f32> =
                timelines.iter().flat_map(|t| t.window(k).1.iter().copied()).collect();
            let steps: u64 = timelines.iter().map(|t| t.window(k).2).sum();
            let scale =
                if probes.is_empty() { whole } else { scale_of(median_of(probes.into_iter())) };
            [
                steps as f64 / span / scale,
                percentile_ns(&mut merged, 0.50) * scale,
                percentile_ns(&mut merged, 0.99) * scale,
            ]
        })
        .collect();
    let over_windows = |i: usize| {
        let column: Vec<f64> = per_window.iter().map(|w| w[i]).collect();
        quartiles(&column).expect("at least two windows")
    };
    stats.steps_per_s = over_windows(0).1;
    stats.p50_ns = over_windows(1).0;
    stats.p99_ns = over_windows(2).0;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timeline of 40 windows of 10 ms, one sample per millisecond.
    /// `sample(k)` gives window `k`'s `(latency us, slowdown)`, or
    /// `None` for a window the thread sits out; a zero slowdown means no
    /// reading.
    fn timeline(
        start: Instant,
        steps: u32,
        sample: impl Fn(u64) -> Option<(u64, f32)>,
    ) -> Timeline {
        let ms = Duration::from_millis;
        let mut t = Timeline::new(start, ms(400), WINDOWS, 0);
        for i in 0..=400u64 {
            if let Some((us, slowdown)) = sample(i / 10) {
                t.push(start + ms(i), Duration::from_micros(us), steps);
                if slowdown > 0.0 {
                    t.slowdown.push(slowdown);
                }
            }
        }
        t
    }

    #[test]
    fn windows_are_read_at_the_reference_speed() {
        let start = Instant::now();
        // Every other window the host runs at half speed: the step and
        // the probe both take twice as long, and half the steps fit.
        let mut t = Timeline::new(start, Duration::from_millis(400), WINDOWS, 0);
        for i in 0..=400u64 {
            let slow = (i / 10) % 2 == 1;
            if !slow || i % 2 == 0 {
                let (us, slowdown) = if slow { (200, 2.0) } else { (100, 1.0) };
                t.push(start + Duration::from_millis(i), Duration::from_micros(us), 2);
                t.slowdown.push(slowdown);
            }
        }
        let stats = phase_stats(&[t], Duration::from_millis(400));
        assert_eq!(stats.windows, 40);
        assert_eq!((stats.p50_ns, stats.p99_ns), (100_000.0, 100_000.0));
        assert_eq!(stats.steps_per_s, 2000.0);
        // The wall clock saw the mix.
        assert_eq!(stats.wall_p99_ns, 200_000.0);
        assert!(stats.wall_steps_per_s < 1600.0);
    }

    #[test]
    fn disturbed_windows_do_not_carry_the_figures() {
        let start = Instant::now();
        // Half the windows are slowed five-fold behind the probe's back.
        let t = timeline(start, 1, |k| Some((if k % 2 == 0 { 100 } else { 500 }, 0.5)));
        let stats = phase_stats(&[t], Duration::from_millis(400));
        assert_eq!(stats.slowdown, 0.5);
        // A probe at half its reference reading doubles every time.
        assert_eq!((stats.p50_ns, stats.p99_ns), (200_000.0, 200_000.0));
        assert_eq!(stats.steps_per_s, 500.0);
    }

    #[test]
    fn a_phase_too_short_for_windows_uses_the_whole_phase() {
        let start = Instant::now();
        let mut t = Timeline::new(start, Duration::from_secs(10), WINDOWS, 0);
        for i in 1..=4u64 {
            t.push(start + Duration::from_millis(i), Duration::from_micros(i * 100), 1);
        }
        let stats = phase_stats(&[t], Duration::from_millis(4));
        assert_eq!((stats.windows, stats.samples), (0, 4));
        assert_eq!(stats.steps_per_s, 1000.0);
        assert_eq!(stats.p50_ns, 200_000.0);
        assert_eq!(stats.p99_ns, 400_000.0);
    }

    #[test]
    fn two_threads_merge_window_by_window() {
        let start = Instant::now();
        let a = timeline(start, 1, |_| Some((100, 0.0)));
        // The second thread only works in the even windows, at 300 us.
        let b = timeline(start, 1, |k| (k % 2 == 0).then_some((300, 0.0)));
        let stats = phase_stats(&[a, b], Duration::from_millis(400));
        assert_eq!(stats.windows, 40);
        // Even windows: 10 + 10 steps per 10 ms, and a p99 of 300 us.
        assert_eq!(stats.steps_per_s, 2000.0);
        assert_eq!(stats.p50_ns, 100_000.0);
        assert_eq!(stats.p99_ns, 100_000.0);
        assert_eq!(stats.wall_p99_ns, 300_000.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_ns(&mut [], 0.99), 0.0);
        assert_eq!(percentile_ns(&mut [7], 0.0), 7.0);
        assert_eq!(percentile_ns(&mut [7], 1.0), 7.0);
        // Nearest rank: p50 of an even count is the lower middle value.
        assert_eq!(percentile_ns(&mut [4, 1, 3, 2], 0.5), 2.0);
        assert_eq!(percentile_ns(&mut [4, 1, 3, 2], 1.0), 4.0);
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut hundred, 0.99), 99.0);
        assert_eq!(percentile_ns(&mut hundred, 0.999), 100.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
