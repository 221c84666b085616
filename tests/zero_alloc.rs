//! Steady-state **zero-allocation** gate for the batched stepping paths.
//!
//! The perf claim of the engine's pre-sized step workspace is structural,
//! not wall-clock (CI boxes are noisy): after the first step has sized
//! every remaining scratch buffer, `step_batch_into` / `step_batch_masked_into` must
//! perform **zero heap allocations**, for every engine variant — topology
//! × datapath × masked/uniform × batch size. The allocating entry points
//! (`step_batch`, `step_batch_masked`) are thin wrappers whose only
//! allocation is the returned output block, which is pinned here too
//! (exactly one allocation per step). The lane splice is held to the same
//! standard: `import_lane` and `reset_lane` copy into the lane's existing
//! buffers (zero allocations), `export_lane` allocates the snapshot it
//! returns and nothing else, and `swap_lane` — the served grid's park and
//! splice in one — trades buffers with a detached state without
//! allocating at all (the scheduler's own lane miss is held to zero by a
//! unit test beside it, `crates/serve/src/scheduler.rs`).
//!
//! The gate is enforced with a counting global allocator (the
//! `counting_alloc` module below). Rayon is pinned to one worker thread:
//! the vendored rayon spawns scoped threads per call above one worker,
//! and thread spawning allocates — intra-step parallelism is exercised by
//! the conformance suites, while this suite isolates the kernels' own
//! allocation behavior.

use hima::dnc::{DncParams, EngineBuilder, EngineSpec};
use hima::tensor::{LaneMask, Matrix, QFormat};
use hima_dnc::Datapath;

/// A global allocator that counts every allocation (alloc, zeroed alloc
/// and realloc) and its requested bytes **per thread** before delegating
/// to the system allocator
/// — the tiny test-support "counting-alloc" harness.
///
/// The counter is thread-local (const-initialized native TLS, so the
/// counting itself never allocates) because the measured property is
/// "the stepping thread performs no allocation": other threads in the
/// process allocate at scheduler-dependent times — e.g. libtest's main
/// thread lazily initializes its channel-parking context the first time
/// its event `recv()` actually blocks — and a process-global counter
/// would pick those up as spurious in-window allocations.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    pub struct CountingAlloc;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Number of heap allocations made by the calling thread.
    pub fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    /// Bytes requested by the calling thread so far.
    pub fn requested() -> u64 {
        BYTES.with(Cell::get)
    }

    fn count(bytes: usize) {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[global_allocator]
static COUNTER: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn params() -> DncParams {
    DncParams::new(32, 8, 2).with_hidden(24).with_io(6, 6)
}

/// Every engine-variant axis the gate covers: topology × datapath.
fn specs() -> Vec<(EngineSpec, &'static str)> {
    let q = QFormat::q16_16();
    vec![
        (EngineSpec::monolithic(), "monolithic/f32"),
        (EngineSpec::sharded(4), "sharded(4)/f32"),
        (EngineSpec::monolithic().with_datapath(Datapath::Quantized(q)), "monolithic/Q16.16"),
        (EngineSpec::sharded(4).with_datapath(Datapath::Quantized(q)), "sharded(4)/Q16.16"),
    ]
}

/// Pre-built per-step input blocks (built *outside* the measured window).
fn input_blocks(batch: usize, steps: usize) -> Vec<Matrix> {
    (0..steps)
        .map(|t| {
            Matrix::from_fn(batch, params().input_size, |b, i| {
                (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin()
            })
        })
        .collect()
}

/// A partial mask: the first ⌈B/2⌉ lanes active (full for B = 1).
fn partial_mask(batch: usize) -> LaneMask {
    let active = batch.div_ceil(2);
    LaneMask::from_fn(batch, |b| b < active)
}

/// Asserts the measured window of `steps` calls performs exactly
/// `expected` heap allocations.
fn assert_allocs(label: &str, expected: u64, run: impl FnOnce()) {
    let before = counting_alloc::allocations();
    run();
    let got = counting_alloc::allocations() - before;
    assert_eq!(got, expected, "{label}: {got} heap allocations, expected {expected}");
}

/// The gate proper: warm one engine up, then prove the steady state.
fn check_variant(spec: EngineSpec, label: &str, batch: usize) {
    let blocks = input_blocks(batch, 6);
    let mask = partial_mask(batch);
    let full = LaneMask::full(batch);
    let mut engine = EngineBuilder::new(params()).with_spec(spec).lanes(batch).seed(7).build();
    let mut y = Matrix::zeros(batch, params().output_size);

    // Warm-up: the first steps size the workspace, the per-lane scratch
    // and the profile map; the masked branch is warmed with both masks.
    engine.step_batch_into(&blocks[0], &mut y);
    engine.step_batch_masked_into(&blocks[1], &mask, &mut y);

    // Steady state, uniform path: zero allocations.
    assert_allocs(&format!("{label} B={batch} uniform"), 0, || {
        for block in &blocks[2..4] {
            engine.step_batch_into(block, &mut y);
        }
    });

    // Steady state, masked path (partial and full masks): zero.
    assert_allocs(&format!("{label} B={batch} masked"), 0, || {
        engine.step_batch_masked_into(&blocks[4], &mask, &mut y);
        engine.step_batch_masked_into(&blocks[5], &full, &mut y);
    });

    // Reset is in place, and the first post-reset step is still
    // allocation-free: engines reused across episodes never re-pay the
    // warm-up.
    assert_allocs(&format!("{label} B={batch} reset+step"), 0, || {
        engine.reset();
        engine.step_batch_into(&blocks[0], &mut y);
    });

    // The allocating entry point is a thin wrapper: exactly one
    // allocation per step — the returned output block.
    assert_allocs(&format!("{label} B={batch} step_batch wrapper"), 2, || {
        for block in &blocks[2..4] {
            let out = engine.step_batch(block);
            std::hint::black_box(&out);
        }
    });

    // The splice. An export allocates the snapshot it returns — the state
    // memories (4 bytes an element) and one table entry per shard — and
    // nothing else.
    let before = counting_alloc::requested();
    let state = engine.export_lane(0);
    let requested = counting_alloc::requested() - before;
    let allowed = 4 * state.state_elems() + 512 * spec.tiles();
    assert!(
        requested <= allowed as u64,
        "{label} B={batch} export_lane: requested {requested} bytes for a {allowed}-byte snapshot"
    );
    // An import and a lane reset copy into the lane's own buffers, and
    // the lane steps on from either without re-sizing anything.
    assert_allocs(&format!("{label} B={batch} import_lane + reset_lane + step"), 0, || {
        engine.import_lane(batch - 1, &state);
        engine.step_batch_masked_into(&blocks[4], &full, &mut y);
        engine.reset_lane(0);
        engine.step_batch_masked_into(&blocks[5], &mask, &mut y);
    });
    // The exchange parks one session and splices another by trading
    // buffers: nothing to allocate in either direction, and the lane
    // steps on with the buffers it was handed.
    let mut state = state;
    assert_allocs(&format!("{label} B={batch} swap_lane + step"), 0, || {
        engine.swap_lane(0, &mut state);
        engine.step_batch_masked_into(&blocks[4], &mask, &mut y);
        engine.swap_lane(batch - 1, &mut state);
        engine.step_batch_masked_into(&blocks[5], &full, &mut y);
    });
}

// One #[test] for the whole binary (both phases run sequentially): the
// windows measure the calling thread's allocations, and keeping a single
// test keeps the binary immune to libtest's own threading however the
// harness is invoked.
#[test]
fn steady_state_stepping_performs_zero_heap_allocations() {
    // One rayon worker: see the module docs.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("rayon pool");
    pool.install(|| {
        for batch in [1usize, 8] {
            for (spec, label) in specs() {
                check_variant(spec, label, batch);
            }
        }
        // The paper's regime in miniature — 16 tiles, Q16.16, four lanes:
        // two (partial mask) and four (full) active lanes both take the
        // lane-packed shared-weight product, whose tile is on the stack.
        let q16 = Datapath::Quantized(QFormat::q16_16());
        check_variant(EngineSpec::sharded(16).with_datapath(q16), "sharded(16)/Q16.16", 4);
    });
    workspace_and_allocating_paths_are_bit_identical();
}

/// Second phase: the zero-alloc path must not buy speed with drift —
/// every variant's `_into` step reproduces the allocating step
/// bit-for-bit, including interleaved masked/uniform stepping against a
/// reused output block.
fn workspace_and_allocating_paths_are_bit_identical() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("rayon pool");
    pool.install(|| {
        for batch in [1usize, 3] {
            for (spec, label) in specs() {
                let blocks = input_blocks(batch, 5);
                let mask = partial_mask(batch);
                let mut a =
                    EngineBuilder::new(params()).with_spec(spec).lanes(batch).seed(11).build();
                let mut b =
                    EngineBuilder::new(params()).with_spec(spec).lanes(batch).seed(11).build();
                let mut y = Matrix::filled(batch, params().output_size, f32::NAN);
                for (t, block) in blocks.iter().enumerate() {
                    let want = if t % 2 == 0 {
                        a.step_batch(block)
                    } else {
                        a.step_batch_masked(block, &mask)
                    };
                    if t % 2 == 0 {
                        b.step_batch_into(block, &mut y);
                    } else {
                        b.step_batch_masked_into(block, &mask, &mut y);
                    }
                    assert_eq!(y, want, "{label} B={batch} t={t}");
                    assert_eq!(a.last_read_rows(), b.last_read_rows(), "{label} B={batch} t={t}");
                }
            }
        }
    });
}
