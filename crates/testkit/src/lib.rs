//! **hima-testkit**: the test support the workspace's suites share,
//! written once. Dev-only, and free of the serve stack, so the serve and
//! store crates' own tests link it without a second copy of themselves.
//!
//! * [`CountingAlloc`] and [`metered`] — per-thread allocation counts; a
//!   binary installs the allocator with one `#[global_allocator]` line,
//! * [`solo_replay`] — the oracle every served suite compares against,
//! * [`params`] and [`spec_grid`] — what the serve, persist and chaos
//!   suites sweep,
//! * [`scratch`], [`wait_until`] and [`ManualClock`] — unique temp paths,
//!   bounded waits, and a clock that moves only when the test moves it,
//! * [`hostile`] — the harness of the decoder suites,
//! * [`reference`](mod@reference) — the sequential model the engine suites compare
//!   against,
//! * [`cases`] — the one generated-case engine: seeded, shrinking,
//!   replayable by re-running the test — and [`ragged_episodes`], the
//!   ragged episode sets the ragged conformance suites draw with it.

mod batch;
pub mod cases;
pub mod hostile;
pub mod reference;
mod strategies;

pub use strategies::ragged_episodes;

use hima_dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};
use hima_tensor::{Backend, Matrix, QFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A global allocator that counts every allocation (alloc, zeroed alloc
/// and realloc) and its requested bytes before delegating to `System`.
///
/// The counters are per thread (const-initialized TLS, which never
/// allocates): other threads, libtest's own among them, allocate at
/// scheduler-dependent times that a process-wide count would pick up.
pub struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What the calling thread asked of the allocator inside [`metered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allocs {
    /// Allocator calls: allocations, zeroed allocations and reallocations.
    pub calls: u64,
    /// Bytes requested (a reallocation counts its new size).
    pub bytes: u64,
}

/// Runs `f` and returns its result with the allocations it made on this
/// thread (all zero unless the binary installs [`CountingAlloc`]).
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let spent = Allocs {
        calls: CALLS.with(Cell::get) - calls,
        bytes: BYTES.with(Cell::get) - bytes,
    };
    (out, spent)
}

/// The geometry the served suites run (`N = 24, W = 6, R = 2, H = 20`,
/// five inputs and outputs): small enough to sweep, sharded three ways.
pub fn params() -> DncParams {
    DncParams::new(24, 6, 2).with_hidden(20).with_io(5, 5)
}

/// The topology × datapath grid the serve, persist and chaos suites
/// sweep, plus a session under the inert `Blocked` label (which the wire
/// spec and the store manifests carry and no kernel reads).
pub fn spec_grid() -> Vec<(&'static str, EngineSpec)> {
    let q16 = Datapath::Quantized(QFormat::q16_16());
    vec![
        ("monolithic/f32", EngineSpec::monolithic()),
        ("sharded(3)/f32", EngineSpec::sharded(3)),
        ("monolithic/Q16.16", EngineSpec::monolithic().with_datapath(q16)),
        ("sharded(3)/Q16.16", EngineSpec::sharded(3).with_datapath(q16)),
        ("monolithic/blocked", EngineSpec::monolithic().with_backend(Backend::Blocked)),
    ]
}

/// The solo-replay oracle: a single-lane engine of `params` × `spec` ×
/// `seed`, stepped alone through `inputs`. Returns the output row of
/// every step and the read row the lane carries after the last one —
/// what a served session fed the same rows must reproduce bit for bit.
pub fn solo_replay(
    params: DncParams,
    spec: EngineSpec,
    seed: u64,
    inputs: &[Vec<f32>],
) -> (Vec<Vec<f32>>, Vec<f32>) {
    let mut engine = EngineBuilder::new(params).with_spec(spec).lanes(1).seed(seed).build();
    let outputs = inputs
        .iter()
        .map(|input| engine.step_batch(&Matrix::from_rows(&[input.as_slice()])).row(0).to_vec())
        .collect();
    (outputs, engine.last_read_row(0).to_vec())
}

/// A path under the OS temp directory that no other call — in this
/// process or another — returns: `tag`, the process id and a counter. Not
/// created; the caller makes a file or a directory of it and removes it
/// on success (strays from a failed run stay in the temp directory).
pub fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hima-{tag}-{}-{n}", std::process::id()))
}

/// Polls `cond` until it holds or `timeout` passes; returns whether it
/// held. For an outcome another thread produces (a group's sweep after
/// its clock moved, a supervisor restart, a connection thread's exit):
/// callers assert on the result instead of sleeping a fixed time and
/// hoping the event came first.
pub fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A clock that stands still, from its creation, until [`advance`d](Self::advance).
/// Clones share one time; [`ManualClock::reader`] is the `Fn() -> Instant`
/// a server takes as its clock.
#[derive(Clone)]
pub struct ManualClock(Arc<Mutex<Instant>>);

impl Default for ManualClock {
    fn default() -> Self {
        Self(Arc::new(Mutex::new(Instant::now())))
    }
}

impl ManualClock {
    /// The instant the clock stands at.
    pub fn now(&self) -> Instant {
        *self.0.lock().unwrap()
    }

    /// Moves the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        *self.0.lock().unwrap() += by;
    }

    /// A reader of this clock, to hand to the code under test.
    pub fn reader(&self) -> impl Fn() -> Instant + Send + Sync + 'static {
        let clock = self.clone();
        move || clock.now()
    }
}

#[cfg(test)]
#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn alloc_alloc_zeroed_and_realloc_are_each_counted() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: each pointer is freed with the layout it was made with.
        unsafe {
            let (p, spent) = metered(|| std::alloc::alloc(layout));
            assert_eq!(spent, Allocs { calls: 1, bytes: 64 }, "alloc");
            let (p, spent) = metered(|| std::alloc::realloc(p, layout, 200));
            assert_eq!(spent, Allocs { calls: 1, bytes: 200 }, "realloc");
            let grown = Layout::from_size_align(200, 8).unwrap();
            let ((), spent) = metered(|| std::alloc::dealloc(p, grown));
            assert_eq!(spent, Allocs::default(), "a free is not an allocation");
            let (z, spent) = metered(|| std::alloc::alloc_zeroed(layout));
            assert_eq!(spent, Allocs { calls: 1, bytes: 64 }, "alloc_zeroed");
            std::alloc::dealloc(z, layout);
        }
    }

    #[test]
    fn another_threads_allocations_are_invisible() {
        let barrier = Arc::new(Barrier::new(2));
        let worker = std::thread::spawn({
            let barrier = Arc::clone(&barrier);
            move || {
                barrier.wait();
                let (block, spent) = metered(|| std::hint::black_box(vec![1u8; 1 << 20]));
                barrier.wait();
                (block.len(), spent)
            }
        });
        // The worker allocates its mebibyte between the two waits.
        let ((), spent) = metered(|| {
            barrier.wait();
            barrier.wait();
        });
        assert_eq!(spent, Allocs::default(), "saw the worker's allocation");
        let (len, theirs) = worker.join().unwrap();
        assert_eq!((len, theirs.calls), (1 << 20, 1));
        assert!(theirs.bytes >= 1 << 20, "the worker's own meter missed its block");
    }

    #[test]
    fn solo_replay_equals_grid_step_on_one_lane_in_bits() {
        let p = params();
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|t| (0..p.input_size).map(|i| ((t * 7 + i * 3) as f32 * 0.31).sin()).collect())
            .collect();
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (label, spec) in spec_grid() {
            let (outputs, read) = solo_replay(p, spec, 42, &inputs);
            let mut engine = EngineBuilder::new(p).with_spec(spec).seed(42).build();
            for (t, (input, got)) in inputs.iter().zip(&outputs).enumerate() {
                assert_eq!(bits(got), bits(&engine.step(input)), "{label}: step {t}");
            }
            assert_eq!(bits(&read), bits(engine.last_read_row(0)), "{label}: read row");
        }
    }
}
