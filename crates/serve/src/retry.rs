//! Deterministic retry schedules and deadline-shedding order.
//!
//! Small pure cores live here so both the client (reconnect backoff)
//! and the scheduler (deadline shedding, retry hints) can be
//! property-tested without a socket in sight:
//!
//! * [`RetryPolicy::backoff`] — seeded, jittered, capped exponential
//!   backoff. The jitter for attempt `a` is drawn from
//!   `[base·2^a, base·2^(a+1))`, so consecutive attempts occupy
//!   non-overlapping, increasing ranges: the schedule is **monotone in
//!   the attempt number** despite the jitter, deterministic per seed,
//!   and clamped to the cap.
//! * [`shed_order`] — given queued entries with absolute deadlines,
//!   which are expired at `now`, oldest deadline first. The scheduler's
//!   tick calls it to pick what to shed, so the entries that have waited
//!   past their deadline the longest are rejected first.
//! * `retry_after_ms` — the `Overloaded` retry hint: how long a backlog
//!   takes to drain through a grid at the measured mean tick.

use std::time::Duration;

/// splitmix64 finalizer — the same mixer `hima-chaos` uses; good enough
/// to decorrelate attempts without any RNG state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded, jittered, capped exponential retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base delay: attempt 0 waits in `[base, 2·base)`.
    pub base: Duration,
    /// Hard upper bound on any single delay.
    pub cap: Duration,
    /// Attempts before the caller gives up (connect + resend cycles).
    pub max_attempts: u32,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            max_attempts: 6,
            seed: 0x4849_4D41, // "HIMA"
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based).
    ///
    /// Deterministic in `(seed, attempt)`; non-decreasing in `attempt`;
    /// never exceeds `cap`; never below `min(base, cap)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.base.as_nanos().max(1) as u64;
        let cap = self.cap.as_nanos().min(u64::MAX as u128) as u64;
        // base · 2^attempt, saturating well past any sane cap. A plain
        // shift would silently drop the high bits (slot 0, delay 0) once
        // the doubling overflows, so saturate explicitly.
        let shift = attempt.min(63);
        let slot = if shift > base.leading_zeros() { u64::MAX } else { base << shift };
        let jitter = mix(self.seed ^ mix(attempt as u64)) % slot.max(1);
        let nanos = slot.saturating_add(jitter).min(cap);
        Duration::from_nanos(nanos)
    }
}

/// Returns the ids of expired entries, oldest deadline first.
///
/// `entries` are `(id, deadline)` pairs on any monotone clock (the
/// scheduler passes `Instant`s, the property tests integers); an entry is
/// expired when `deadline <= now`. Ties break by ascending id so the order
/// is total.
pub fn shed_order<T: Ord + Copy>(entries: &[(u64, T)], now: T) -> Vec<u64> {
    let mut expired: Vec<(T, u64)> = entries
        .iter()
        .filter(|&&(_, deadline)| deadline <= now)
        .map(|&(id, deadline)| (deadline, id))
        .collect();
    expired.sort_unstable();
    expired.into_iter().map(|(_, id)| id).collect()
}

/// The retry hint of an `Overloaded` reply, in whole milliseconds: the
/// time `backlog` queued rows take to drain through a `lanes`-lane grid
/// (one row per lane per tick, plus the tick in progress) at
/// `mean_tick_ns` per tick, rounded up and clamped to 1 ms … 30 s.
pub(crate) fn retry_after_ms(backlog: u64, lanes: u64, mean_tick_ns: u64) -> u64 {
    let ticks = backlog / lanes.max(1) + 1;
    ticks.saturating_mul(mean_tick_ns).div_ceil(1_000_000).clamp(1, 30_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_and_capped() {
        let p = RetryPolicy::default();
        let mut last = Duration::ZERO;
        for a in 0..40 {
            let d = p.backoff(a);
            assert!(d >= last, "attempt {a}: {d:?} < {last:?}");
            assert!(d <= p.cap);
            last = d;
        }
        assert_eq!(p.backoff(39), p.cap, "deep attempts pin to the cap");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        let b = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        let c = RetryPolicy { seed: 8, ..RetryPolicy::default() };
        let sched = |p: &RetryPolicy| (0..10).map(|i| p.backoff(i)).collect::<Vec<_>>();
        assert_eq!(sched(&a), sched(&b));
        assert_ne!(sched(&a), sched(&c));
    }

    #[test]
    fn shed_order_is_oldest_first() {
        let entries = [(1, 50), (2, 10), (3, 99), (4, 10), (5, 200)];
        assert_eq!(shed_order(&entries, 99), vec![2, 4, 1, 3]);
        assert_eq!(shed_order(&entries, 9), Vec::<u64>::new());
        assert_eq!(shed_order(&entries, u64::MAX), vec![2, 4, 1, 3, 5]);
    }

    /// The hint grows with the backlog at a sub-millisecond tick (the
    /// case a whole-millisecond tick rounded to the 1 ms floor) and stays
    /// inside 1 ms … 30 s.
    #[test]
    fn the_retry_hint_grows_with_the_backlog() {
        let tick_ns = 200_000;
        let hints: Vec<u64> = [0, 80, 800, 8_000, 80_000].iter().map(|&b| retry_after_ms(b, 8, tick_ns)).collect();
        assert_eq!(hints, [1, 3, 21, 201, 2_001]);
        assert!(hints.windows(2).all(|w| w[0] < w[1]), "{hints:?}");
        assert_eq!(retry_after_ms(u64::MAX, 8, tick_ns), 30_000, "capped");
        assert_eq!(retry_after_ms(1_000, 0, 0), 1, "no tick measured yet, no lanes: the floor");
    }

    #[test]
    fn zero_base_does_not_divide_by_zero() {
        let p = RetryPolicy { base: Duration::ZERO, ..RetryPolicy::default() };
        for a in 0..8 {
            assert!(p.backoff(a) <= p.cap);
        }
    }
}
