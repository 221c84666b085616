//! Property tests for the client resilience primitives: the seeded
//! jittered backoff schedule and the deadline-shedding order.
//!
//! These are the pure functions the fault-tolerance layer leans on —
//! a reconnect loop with a wrong backoff silently hammers a struggling
//! server, and a shedding order that isn't oldest-deadline-first starves
//! the requests closest to their budget. Both are cheap to pin hard.

use hima_serve::{shed_order, RetryPolicy};
use hima_testkit::cases::{check, Gen};
use std::collections::HashSet;
use std::time::Duration;

fn policy(seed: u64, base_ms: u64, cap_ms: u64) -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(base_ms),
        cap: Duration::from_millis(cap_ms),
        max_attempts: 8,
        seed,
    }
}

/// `(session id, deadline)` entries with unique ids and colliding
/// deadlines (ties exercise the id tie-break).
fn entries_from(deadlines: Vec<u64>) -> Vec<(u64, u64)> {
    deadlines.into_iter().zip(1u64..).map(|(d, id)| (id, d)).collect()
}

// The schedule is a pure function of (seed, attempt): two policies
// with equal parameters agree on every attempt.
#[test]
fn backoff_is_deterministic_per_seed() {
    let draw = |g: &mut Gen| (g.range(0u64..u64::MAX), g.range(1u64..500), g.range(1u64..60_000), g.range(0u32..64));
    check("backoff_is_deterministic_per_seed", 48, draw, |(seed, base_ms, cap_ms, attempt)| {
        let a = policy(seed, base_ms, cap_ms);
        let b = policy(seed, base_ms, cap_ms);
        assert_eq!(a.backoff(attempt), b.backoff(attempt));
    });
}

// Later attempts never wait less than earlier ones (monotone
// non-decreasing), even with jitter — the jitter ranges of
// consecutive attempts do not overlap.
#[test]
fn backoff_is_monotone_in_attempt() {
    let draw = |g: &mut Gen| (g.range(0u64..u64::MAX), g.range(1u64..500), g.range(1u64..60_000));
    check("backoff_is_monotone_in_attempt", 48, draw, |(seed, base_ms, cap_ms)| {
        let p = policy(seed, base_ms, cap_ms);
        let mut last = Duration::ZERO;
        for attempt in 0..64 {
            let d = p.backoff(attempt);
            assert!(d >= last, "attempt {}: {:?} < {:?}", attempt, d, last);
            last = d;
        }
    });
}

// No delay ever exceeds the cap, including at attempt counts whose
// uncapped slot would overflow a shift.
#[test]
fn backoff_is_bounded_by_the_cap() {
    let draw = |g: &mut Gen| (g.range(0u64..u64::MAX), g.range(1u64..500), g.range(1u64..60_000), g.range(0u32..1024));
    check("backoff_is_bounded_by_the_cap", 48, draw, |(seed, base_ms, cap_ms, attempt)| {
        let p = policy(seed, base_ms, cap_ms);
        assert!(p.backoff(attempt) <= p.cap);
    });
}

// Different seeds actually jitter: over a spread of attempts, two
// distinct seeds disagree somewhere (thundering herds decorrelate).
#[test]
fn backoff_jitter_depends_on_the_seed() {
    check("backoff_jitter_depends_on_the_seed", 48, |g| g.range(0u64..u64::MAX), |seed| {
        let a = policy(seed, 10, 3_600_000);
        let b = policy(seed ^ 0x5DEE_CE66, 10, 3_600_000);
        let differs = (0..16).any(|n| a.backoff(n) != b.backoff(n));
        assert!(differs);
    });
}

// Shedding returns exactly the expired entries, ordered oldest
// deadline first with session id breaking ties — so the requests
// past their budget longest are answered (with their typed error)
// first, deterministically.
#[test]
fn shed_order_is_oldest_expired_first() {
    let draw = |g: &mut Gen| (g.vec(0..32, |g| g.range(0u64..50)), g.range(0u64..50));
    check("shed_order_is_oldest_expired_first", 48, draw, |(deadlines, now)| {
        let entries = entries_from(deadlines);
        let order = shed_order(&entries, now);

        // Exactly the expired ids, no duplicates, nothing unexpired.
        let expired: HashSet<u64> =
            entries.iter().filter(|(_, d)| *d <= now).map(|(id, _)| *id).collect();
        let shed: HashSet<u64> = order.iter().copied().collect();
        assert_eq!(order.len(), shed.len(), "duplicate ids in shed order");
        assert_eq!(shed, expired);

        // Strictly ascending by (deadline, id).
        let deadline_of = |id: u64| entries.iter().find(|(i, _)| *i == id).unwrap().1;
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                (deadline_of(a), a) < (deadline_of(b), b),
                "{} (deadline {}) shed before {} (deadline {})",
                a, deadline_of(a), b, deadline_of(b)
            );
        }
    });
}
