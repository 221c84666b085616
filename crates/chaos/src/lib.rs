//! Deterministic, seeded fault injection for the HiMA serving stack.
//!
//! A [`FaultPlan`] decides, for every instrumented I/O operation, whether
//! to inject a fault — and which one. The decision is a pure function of
//! `(seed, site, op_index)`: the plan keeps one atomic operation counter
//! per [`FaultSite`], and each consult hashes the seed, the site, and the
//! operation's index through a splitmix-style mixer. Re-running the same
//! workload against the same plan therefore injects the same faults at
//! the same operations, which is what makes chaos tests reproducible
//! instead of flaky. The index a rule sees counts from the moment the
//! plan was last [armed](FaultPlan::arm) (from zero for a plan never
//! re-armed), so a plan held disarmed through a warm-up injects at the
//! same operations of the armed phase however many socket reads and
//! writes the warm-up happened to take.
//!
//! Two ways to schedule a fault compose freely:
//!
//! - **Probabilistic rules** ([`FaultRule::per_mille`]): inject `kind`
//!   on roughly `per_mille`/1000 of the operations inside the rule's
//!   `[from_op, until_op)` window, chosen deterministically by hash.
//! - **Exact schedules** ([`FaultRule::at_ops`]): inject `kind` at the
//!   listed operation indices, exactly.
//!
//! The plan is shared as an `Option<Arc<FaultPlan>>` everywhere it is
//! consumed; `None` means injection is compiled down to a single branch
//! on an option — no counters, no hashing, no atomics. Plans can also be
//! [cleared](FaultPlan::clear) at runtime ("once faults clear, surviving
//! sessions continue bit-identical"), which disables all future
//! injection while keeping the injection counters readable, and
//! re-armed, which starts the rules' operation indices over.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where in the stack an instrumented operation happens.
///
/// Each site has its own operation counter, so a plan targeting (say)
/// store writes is unaffected by how many network reads happen to occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A data write in `hima-store` (snapshot body or log append).
    StoreWrite,
    /// An fsync in `hima-store` (snapshot `sync_all`, log `sync_data`).
    StoreFsync,
    /// A rename in `hima-store` (atomic snapshot publish).
    StoreRename,
    /// A read from a serve connection's socket.
    NetRead,
    /// A write to a serve connection's socket.
    NetWrite,
    /// A group scheduler tick that has work to do.
    SchedTick,
}

impl FaultSite {
    /// Number of distinct sites (sizes the per-site counter arrays).
    pub const COUNT: usize = 6;

    /// All sites, in counter-array order.
    pub const ALL: [FaultSite; Self::COUNT] = [
        FaultSite::StoreWrite,
        FaultSite::StoreFsync,
        FaultSite::StoreRename,
        FaultSite::NetRead,
        FaultSite::NetWrite,
        FaultSite::SchedTick,
    ];

    /// Stable index of this site into per-site arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSite::StoreWrite => 0,
            FaultSite::StoreFsync => 1,
            FaultSite::StoreRename => 2,
            FaultSite::NetRead => 3,
            FaultSite::NetWrite => 4,
            FaultSite::SchedTick => 5,
        }
    }
}

/// What to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with a generic injected I/O error.
    IoError,
    /// Fail the operation as if the disk were full (ENOSPC-shaped).
    Enospc,
    /// Write only the first `keep` bytes of the buffer, then fail.
    /// On a delta log this manufactures a torn record; on a socket, a
    /// torn frame followed by a reset.
    PartialWrite {
        /// Bytes allowed through before the failure.
        keep: usize,
    },
    /// Delay the operation by `micros` before letting it through.
    Latency {
        /// Injected delay in microseconds.
        micros: u64,
    },
    /// Drop the connection (sockets only): the operation fails with a
    /// connection-reset error.
    Reset,
    /// Panic at the site (scheduler only) — exercises supervision.
    Panic,
}

/// One injection rule: a site, an eligibility window over that site's
/// operation indices, and either a probability or an exact schedule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The instrumented site this rule applies to.
    pub site: FaultSite,
    /// The fault injected when this rule fires.
    pub kind: FaultKind,
    /// Fire on roughly this many of every 1000 eligible operations,
    /// chosen deterministically from `(seed, site, op)`. 0 disables the
    /// probabilistic component; 1000 fires on every eligible op.
    pub per_mille: u32,
    /// Operation indices that always fire (in addition to `per_mille`).
    pub at_ops: Vec<u64>,
    /// First operation index (inclusive) the rule is eligible for.
    /// Indices count a site's operations since the plan was last armed.
    pub from_op: u64,
    /// Operation index (exclusive) the rule stops applying at.
    pub until_op: u64,
}

impl FaultRule {
    /// A rule firing on `per_mille`/1000 of all operations at `site`.
    pub fn probabilistic(site: FaultSite, kind: FaultKind, per_mille: u32) -> Self {
        Self { site, kind, per_mille, at_ops: Vec::new(), from_op: 0, until_op: u64::MAX }
    }

    /// A rule firing exactly at the given operation indices of `site`.
    pub fn at(site: FaultSite, kind: FaultKind, ops: impl Into<Vec<u64>>) -> Self {
        Self { site, kind, per_mille: 0, at_ops: ops.into(), from_op: 0, until_op: u64::MAX }
    }

    /// Restricts the rule to operations in `[from, until)`.
    pub fn window(mut self, from: u64, until: u64) -> Self {
        self.from_op = from;
        self.until_op = until;
        self
    }

    fn fires(&self, seed: u64, op: u64) -> bool {
        if op < self.from_op || op >= self.until_op {
            return false;
        }
        if self.at_ops.contains(&op) {
            return true;
        }
        if self.per_mille == 0 {
            return false;
        }
        let h = mix(seed ^ mix(self.site.index() as u64 + 1) ^ mix(op.wrapping_add(0x9E37)));
        (h % 1000) < self.per_mille as u64
    }
}

/// splitmix64 finalizer: a cheap, well-mixed hash for fault decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded, deterministic fault-injection plan.
///
/// Thread-safe and lock-free: sites keep atomic operation counters, and
/// rule evaluation is pure. Share it as `Arc<FaultPlan>`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Publishes `base`: stored with `Release` after it, loaded with
    /// `Acquire` before it.
    armed: AtomicBool,
    ops: [AtomicU64; FaultSite::COUNT],
    /// Each site's operation count when the plan was last armed; rules
    /// see `op − base`.
    base: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
}

impl FaultPlan {
    /// A plan with no rules (injects nothing until rules are added).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            armed: AtomicBool::new(true),
            ops: Default::default(),
            base: Default::default(),
            injected: Default::default(),
        }
    }

    /// Adds a rule (builder-style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Consults the plan for one operation at `site`.
    ///
    /// Always advances the site's operation counter (so
    /// [`ops`](Self::ops) counts the whole workload), then — while armed —
    /// evaluates rules in insertion order on the operation's index since
    /// arming; the first that fires wins.
    pub fn check(&self, site: FaultSite) -> Option<FaultKind> {
        let op = self.ops[site.index()].fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        // An operation counted before a concurrent `arm()` took its base
        // belongs to the disarmed phase.
        let op = op.checked_sub(self.base[site.index()].load(Ordering::Relaxed))?;
        let kind = self
            .rules
            .iter()
            .find(|r| r.site == site && r.fires(self.seed, op))
            .map(|r| r.kind)?;
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// Disarms the plan: future [`check`](Self::check)s inject nothing.
    /// Counters keep advancing and stay readable.
    pub fn clear(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Re-arms a cleared plan and re-bases every site: the next operation
    /// at a site is index 0 to the rules, whatever ran while the plan
    /// was disarmed. [`ops`](Self::ops) and [`injected`](Self::injected)
    /// stay absolute.
    pub fn arm(&self) {
        for (base, ops) in self.base.iter().zip(&self.ops) {
            base.store(ops.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the plan is currently armed.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Operations observed at `site` so far, armed or not.
    pub fn ops(&self, site: FaultSite) -> u64 {
        self.ops[site.index()].load(Ordering::Relaxed)
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across the store sites (write/fsync/rename).
    pub fn injected_disk(&self) -> u64 {
        self.injected(FaultSite::StoreWrite)
            + self.injected(FaultSite::StoreFsync)
            + self.injected(FaultSite::StoreRename)
    }

    /// Total faults injected across the network sites (read/write).
    pub fn injected_net(&self) -> u64 {
        self.injected(FaultSite::NetRead) + self.injected(FaultSite::NetWrite)
    }
}

/// Maps a disk-flavored [`FaultKind`] onto an `io::Error`, sleeping for
/// latency faults. Returns `None` for kinds the caller must realize
/// itself (partial writes need the buffer).
pub fn io_error_for(kind: FaultKind) -> Option<std::io::Error> {
    use std::io::{Error, ErrorKind};
    match kind {
        FaultKind::IoError => Some(Error::other("injected i/o error")),
        FaultKind::Enospc => Some(Error::other("injected ENOSPC: no space left on device")),
        FaultKind::Reset => {
            Some(Error::new(ErrorKind::ConnectionReset, "injected connection reset"))
        }
        FaultKind::Latency { micros } => {
            std::thread::sleep(std::time::Duration::from_micros(micros));
            None
        }
        FaultKind::PartialWrite { .. } | FaultKind::Panic => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exact_schedule_fires_at_listed_ops_only() {
        let plan = FaultPlan::new(7)
            .with_rule(FaultRule::at(FaultSite::StoreWrite, FaultKind::IoError, vec![2, 5]));
        let fired: Vec<bool> =
            (0..8).map(|_| plan.check(FaultSite::StoreWrite).is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false]);
        assert_eq!(plan.injected(FaultSite::StoreWrite), 2);
        assert_eq!(plan.ops(FaultSite::StoreWrite), 8);
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::at(FaultSite::NetWrite, FaultKind::Reset, vec![0]));
        // Ops at other sites must not consume NetWrite's index 0.
        for _ in 0..5 {
            assert!(plan.check(FaultSite::StoreWrite).is_none());
        }
        assert_eq!(plan.check(FaultSite::NetWrite), Some(FaultKind::Reset));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with_rule(FaultRule::probabilistic(
                FaultSite::NetRead,
                FaultKind::IoError,
                250,
            ));
            (0..200).map(|_| plan.check(FaultSite::NetRead).is_some()).collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay the same faults");
        assert_ne!(run(42), run(43), "different seeds should differ");
        let hits = run(42).iter().filter(|&&b| b).count();
        // 250‰ over 200 ops: loosely in range, deterministic anyway.
        assert!((20..=80).contains(&hits), "hit count {hits} implausible for 250/1000");
    }

    #[test]
    fn window_bounds_eligibility() {
        let plan = FaultPlan::new(0).with_rule(
            FaultRule::probabilistic(FaultSite::StoreFsync, FaultKind::Enospc, 1000)
                .window(3, 6),
        );
        let fired: Vec<bool> =
            (0..8).map(|_| plan.check(FaultSite::StoreFsync).is_some()).collect();
        assert_eq!(fired, vec![false, false, false, true, true, true, false, false]);
    }

    #[test]
    fn clear_disarms_but_counters_advance() {
        let plan = FaultPlan::new(9)
            .with_rule(FaultRule::at(FaultSite::StoreWrite, FaultKind::IoError, vec![1]));
        let fired = |n: usize| -> Vec<bool> {
            (0..n).map(|_| plan.check(FaultSite::StoreWrite).is_some()).collect()
        };
        assert_eq!(fired(2), vec![false, true]);
        plan.clear();
        assert!(!plan.armed());
        // However many operations run disarmed — four here, three below —
        // the armed phase fires at its own second operation.
        for disarmed in [4, 3] {
            assert_eq!(fired(disarmed), vec![false; disarmed]);
            plan.arm();
            // Other sites are re-based too, from their own counts.
            assert!(plan.check(FaultSite::NetRead).is_none());
            assert_eq!(fired(3), vec![false, true, false], "after {disarmed} disarmed ops");
            plan.clear();
        }
        // The counters stay absolute.
        assert_eq!(plan.ops(FaultSite::StoreWrite), 2 + 4 + 3 + 3 + 3);
        assert_eq!(plan.injected(FaultSite::StoreWrite), 3);
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultRule::at(FaultSite::SchedTick, FaultKind::Panic, vec![1]))
            .with_rule(FaultRule::probabilistic(
                FaultSite::SchedTick,
                FaultKind::Latency { micros: 1 },
                1000,
            ));
        assert_eq!(plan.check(FaultSite::SchedTick), Some(FaultKind::Latency { micros: 1 }));
        assert_eq!(plan.check(FaultSite::SchedTick), Some(FaultKind::Panic));
    }

    #[test]
    fn plan_is_shareable_across_threads() {
        let plan = Arc::new(FaultPlan::new(11).with_rule(FaultRule::probabilistic(
            FaultSite::NetWrite,
            FaultKind::Reset,
            500,
        )));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&plan);
                std::thread::spawn(move || {
                    (0..100).filter(|_| p.check(FaultSite::NetWrite).is_some()).count()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(plan.ops(FaultSite::NetWrite), 400);
        assert_eq!(plan.injected(FaultSite::NetWrite) as usize, total);
    }

    #[test]
    fn io_error_mapping() {
        assert!(io_error_for(FaultKind::IoError).is_some());
        assert!(io_error_for(FaultKind::Enospc).unwrap().to_string().contains("ENOSPC"));
        assert_eq!(
            io_error_for(FaultKind::Reset).unwrap().kind(),
            std::io::ErrorKind::ConnectionReset
        );
        assert!(io_error_for(FaultKind::Latency { micros: 1 }).is_none());
        assert!(io_error_for(FaultKind::PartialWrite { keep: 3 }).is_none());
    }
}
