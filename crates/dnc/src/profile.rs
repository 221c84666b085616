//! Per-kernel instrumentation used to regenerate the paper's runtime
//! breakdowns (Fig. 4 and Fig. 11(b)).
//!
//! The paper groups DNC work into five categories: content-based weighting,
//! history-based write weighting, history-based read weighting, memory
//! read/write, and the NN (LSTM) itself. [`KernelProfile`] accumulates
//! wall-clock time and invocation counts per fine-grained kernel
//! ([`KernelId`], one per row of Table 1) and can roll them up per category.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Fine-grained DNC kernels — one per row of the paper's Table 1, plus the
/// two halves of the controller that sits outside the memory unit (the
/// LSTM and the projections from its hidden state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelId {
    /// Row/key L2 normalization (content weighting step 1).
    Normalize,
    /// Scaled cosine similarity + softmax (content weighting step 2).
    Similarity,
    /// Retention vector `ψ` from free gates and previous read weights.
    Retention,
    /// Usage vector update.
    Usage,
    /// Usage vector sort (free-list construction).
    UsageSort,
    /// Allocation weighting from the sorted usage.
    Allocation,
    /// Write-weight merge of allocation and content weightings.
    WriteMerge,
    /// External memory write (erase + add).
    MemoryWrite,
    /// Temporal linkage matrix update.
    Linkage,
    /// Precedence vector update.
    Precedence,
    /// Forward/backward weightings through the linkage matrix.
    ForwardBackward,
    /// Read-weight merge of backward/content/forward weightings.
    ReadMerge,
    /// External memory read (`Mᵀ w_r`).
    MemoryRead,
    /// LSTM controller inference.
    Lstm,
    /// The dense projections around the memory unit: hidden state (and
    /// input) to interface vector, `[h ; v_r]` to output.
    Projection,
}

impl KernelId {
    /// All kernels in dataflow order.
    pub const ALL: [KernelId; 15] = [
        KernelId::Lstm,
        KernelId::Projection,
        KernelId::Normalize,
        KernelId::Similarity,
        KernelId::Retention,
        KernelId::Usage,
        KernelId::UsageSort,
        KernelId::Allocation,
        KernelId::WriteMerge,
        KernelId::MemoryWrite,
        KernelId::Linkage,
        KernelId::Precedence,
        KernelId::ForwardBackward,
        KernelId::ReadMerge,
        KernelId::MemoryRead,
    ];

    /// The paper's reporting category for this kernel.
    pub fn category(self) -> KernelCategory {
        match self {
            KernelId::Normalize | KernelId::Similarity => KernelCategory::ContentWeighting,
            KernelId::Retention
            | KernelId::Usage
            | KernelId::UsageSort
            | KernelId::Allocation
            | KernelId::WriteMerge => KernelCategory::HistoryWriteWeighting,
            KernelId::Linkage
            | KernelId::Precedence
            | KernelId::ForwardBackward
            | KernelId::ReadMerge => KernelCategory::HistoryReadWeighting,
            KernelId::MemoryWrite | KernelId::MemoryRead => KernelCategory::MemoryAccess,
            KernelId::Lstm | KernelId::Projection => KernelCategory::Controller,
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The five runtime-breakdown categories of Fig. 4 / Fig. 11(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelCategory {
    /// Normalization + similarity (content-based weighting).
    ContentWeighting,
    /// Retention, usage, usage sort, allocation, write merge.
    HistoryWriteWeighting,
    /// Linkage, precedence, forward-backward, read merge.
    HistoryReadWeighting,
    /// External-memory write and read.
    MemoryAccess,
    /// The NN controller: LSTM and its interface/output projections.
    Controller,
}

impl KernelCategory {
    /// All categories in the paper's reporting order.
    pub const ALL: [KernelCategory; 5] = [
        KernelCategory::HistoryWriteWeighting,
        KernelCategory::HistoryReadWeighting,
        KernelCategory::ContentWeighting,
        KernelCategory::MemoryAccess,
        KernelCategory::Controller,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            KernelCategory::ContentWeighting => "Content-based Weighting",
            KernelCategory::HistoryWriteWeighting => "History-based Wr. Weighting",
            KernelCategory::HistoryReadWeighting => "History-based Rd. Weighting",
            KernelCategory::MemoryAccess => "Write/Read Mem. Access",
            KernelCategory::Controller => "NN (LSTM)",
        }
    }
}

impl fmt::Display for KernelCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated timing/invocation statistics per kernel.
///
/// Sampling is gated: a profile constructed with [`KernelProfile::new`]
/// records, one with `KernelProfile::disabled` (or switched off via
/// `KernelProfile::set_enabled`) makes [`KernelProfile::time`] a pure
/// pass-through that never reads the clock — the serving hot path pays
/// nothing for the instrumentation unless it is explicitly turned on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelProfile {
    nanos: BTreeMap<KernelId, u64>,
    calls: BTreeMap<KernelId, u64>,
    enabled: bool,
}

impl Default for KernelProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for KernelProfile {
    /// Profiles compare by recorded statistics only — whether sampling is
    /// currently switched on is operational state, not data.
    fn eq(&self, other: &Self) -> bool {
        self.nanos == other.nanos && self.calls == other.calls
    }
}

/// A running lap split (see `KernelProfile::laps`).
#[derive(Debug)]
pub struct Laps<'a> {
    profile: &'a mut KernelProfile,
    /// When the previous lap ended; `None` while sampling is off.
    last: Option<Instant>,
}

impl Laps<'_> {
    /// Charges the time since the previous lap (or the start) to `kernel`
    /// and counts it as `calls` invocations: one for a kernel, `R` for a
    /// fused pass doing the work of `R` of them (the memory read of all
    /// heads), none for time that belongs to an invocation already
    /// counted (the quantized datapath charges the rounding of each state
    /// memory to the kernel that stores it).
    pub(crate) fn lap(&mut self, kernel: KernelId, calls: u64) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.profile.record(kernel, now.duration_since(*last).as_nanos() as u64, calls);
            *last = now;
        }
    }
}

impl KernelProfile {
    /// Creates an empty profile with sampling enabled.
    pub fn new() -> Self {
        Self { nanos: BTreeMap::new(), calls: BTreeMap::new(), enabled: true }
    }

    /// Creates an empty profile with sampling switched off: `time` runs
    /// its closure without touching the clock or the maps.
    pub(crate) fn disabled() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    /// Switches wall-clock sampling on or off. Recorded statistics are
    /// kept either way.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Times `f`, attributing the elapsed wall time to `kernel`. When
    /// sampling is disabled this is a plain call to `f` — no
    /// `Instant::now()`, no map traffic.
    pub fn time<T>(&mut self, kernel: KernelId, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(kernel, start.elapsed().as_nanos() as u64, 1);
        out
    }

    /// Starts a lap split of one pass through consecutive kernels (a
    /// memory-unit step): [`Laps::lap`] after each kernel charges it the
    /// time since the previous lap, so a pass of `n` kernels reads the
    /// clock `n + 1` times rather than `2n` — and, the laps being
    /// contiguous, their times add up to the pass. Disabled, no lap reads
    /// the clock or touches the maps.
    pub(crate) fn laps(&mut self) -> Laps<'_> {
        let last = self.enabled.then(Instant::now);
        Laps { profile: self, last }
    }

    /// Adds externally measured time (e.g. from a merged profile).
    pub fn record(&mut self, kernel: KernelId, nanos: u64, calls: u64) {
        *self.nanos.entry(kernel).or_insert(0) += nanos;
        *self.calls.entry(kernel).or_insert(0) += calls;
    }

    /// Total nanoseconds attributed to `kernel`.
    pub fn nanos(&self, kernel: KernelId) -> u64 {
        self.nanos.get(&kernel).copied().unwrap_or(0)
    }

    /// Number of recorded invocations of `kernel`.
    pub fn calls(&self, kernel: KernelId) -> u64 {
        self.calls.get(&kernel).copied().unwrap_or(0)
    }

    /// Total nanoseconds across all kernels.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.values().sum()
    }

    /// Total nanoseconds attributed to a reporting category.
    pub fn category_nanos(&self, cat: KernelCategory) -> u64 {
        self.nanos
            .iter()
            .filter(|(k, _)| k.category() == cat)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Per-category share of total runtime, in `[0, 1]`; zero total yields
    /// all-zero shares.
    pub fn category_shares(&self) -> Vec<(KernelCategory, f64)> {
        let total = self.total_nanos() as f64;
        KernelCategory::ALL
            .iter()
            .map(|&c| {
                let share = if total > 0.0 { self.category_nanos(c) as f64 / total } else { 0.0 };
                (c, share)
            })
            .collect()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &KernelProfile) {
        for (&k, &ns) in &other.nanos {
            *self.nanos.entry(k).or_insert(0) += ns;
        }
        for (&k, &c) in &other.calls {
            *self.calls.entry(k).or_insert(0) += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_partition_all_kernels() {
        for k in KernelId::ALL {
            // Every kernel maps into one of the five reporting categories.
            assert!(KernelCategory::ALL.contains(&k.category()), "{k:?}");
        }
    }

    #[test]
    fn time_accumulates() {
        let mut p = KernelProfile::new();
        let x = p.time(KernelId::Usage, || 21 * 2);
        assert_eq!(x, 42);
        assert_eq!(p.calls(KernelId::Usage), 1);
        p.time(KernelId::Usage, || ());
        assert_eq!(p.calls(KernelId::Usage), 2);
        assert!(p.total_nanos() >= p.nanos(KernelId::Usage));
    }

    #[test]
    fn laps_count_a_fused_pass_as_many_calls_or_none_and_read_no_clock_when_off() {
        let mut p = KernelProfile::new();
        let mut laps = p.laps();
        laps.lap(KernelId::ReadMerge, 1);
        std::hint::black_box(vec![0u8; 64]);
        laps.lap(KernelId::MemoryRead, 4);
        laps.lap(KernelId::MemoryRead, 0);
        assert_eq!(p.calls(KernelId::ReadMerge), 1);
        assert_eq!(p.calls(KernelId::MemoryRead), 4);
        let mut off = KernelProfile::disabled();
        off.laps().lap(KernelId::MemoryRead, 4);
        assert_eq!(off, KernelProfile::new(), "off: no clock read, no stamp");
    }

    #[test]
    fn category_shares_sum_to_one_when_nonempty() {
        let mut p = KernelProfile::new();
        p.record(KernelId::UsageSort, 600, 1);
        p.record(KernelId::MemoryRead, 300, 1);
        p.record(KernelId::Lstm, 100, 1);
        let total: f64 = p.category_shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p.category_nanos(KernelCategory::HistoryWriteWeighting), 600);
    }

    #[test]
    fn empty_profile_has_zero_shares() {
        let p = KernelProfile::new();
        assert_eq!(p.total_nanos(), 0);
        for (_, s) in p.category_shares() {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = KernelProfile::new();
        a.record(KernelId::Linkage, 10, 1);
        let mut b = KernelProfile::new();
        b.record(KernelId::Linkage, 5, 2);
        b.record(KernelId::Retention, 7, 1);
        a.merge(&b);
        assert_eq!(a.nanos(KernelId::Linkage), 15);
        assert_eq!(a.calls(KernelId::Linkage), 3);
        assert_eq!(a.nanos(KernelId::Retention), 7);
    }

    #[test]
    fn disabled_profile_skips_sampling() {
        let mut p = KernelProfile::disabled();
        assert!(!p.enabled);
        let x = p.time(KernelId::Usage, || 7);
        assert_eq!(x, 7, "closure still runs");
        assert_eq!(p.calls(KernelId::Usage), 0);
        assert_eq!(p.total_nanos(), 0);
        p.set_enabled(true);
        p.time(KernelId::Usage, || ());
        assert_eq!(p.calls(KernelId::Usage), 1);
        // Equality ignores the gate: an empty enabled profile equals an
        // empty disabled one.
        assert_eq!(KernelProfile::new(), KernelProfile::disabled());
    }
}
