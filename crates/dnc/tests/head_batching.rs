//! The memory unit's head-batched read phase against the one-head-at-a-time
//! definition it replaced.
//!
//! [`MemoryUnit::step_into`] makes one pass over `M` or `L` per phase for
//! all `R` read heads — forward `W_r · Lᵀ`, backward `W_r · L`, the content
//! dots `K · Mᵀ` (and the write key's) with the row norms riding along,
//! the memory read `W_r · M` — and updates the linkage through one
//! branch-free row body. [`Reference`] below is the step written out with
//! the plain per-head kernels the crate keeps for exactly this purpose —
//! `TemporalLinkage::{update_linkage, forward_into, backward_into}`,
//! `content_weighting_into`, `Matrix::{row_norms_into, matvec_t}` — one
//! head after another. The contract: outputs and **every** state memory
//! are equal `to_bits`, on the f32 and the Q16.16 datapath, with the exact
//! and the PLA softmax, for `R ∈ 1..=5` (one group of the fused kernels,
//! then a full group plus a lone head), `N ∈ {1, 3, 4, 7, 64, 130}` (below
//! one block of eight rows, whole blocks, blocks plus remainder) and odd
//! `W`.
//!
//! Every run starts from the all-zero read weightings of a fresh unit (all
//! of backward's `w == 0.0` skips) and injects `-0.0` read and write keys.

use hima_dnc::allocation::{
    allocation_from_free_list_into, merge_write_weighting_into, SkimRate,
};
use hima_dnc::content::content_weighting_into;
use hima_dnc::interface::InterfaceVector;
use hima_dnc::linkage::{merge_read_weighting_into, TemporalLinkage};
use hima_dnc::memory::{MemoryConfig, MemoryUnit};
use hima_dnc::quantized::quantize_interface_into;
use hima_dnc::usage::{retention_into, update_usage_inplace};
use hima_sort::{CentralizedMergeSorter, SortEngine};
use hima_tensor::softmax::PlaSoftmax;
use hima_tensor::{Matrix, QFormat};
use hima_testkit::cases::{self, Gen};

const HEADS: std::ops::RangeInclusive<usize> = 1..=5;
const SLOTS: [usize; 6] = [1, 3, 4, 7, 64, 130];
const STEPS: usize = 6;

/// The memory-unit step, one head at a time: every kernel is the plain
/// definition.
struct Reference {
    cfg: MemoryConfig,
    format: Option<QFormat>,
    pla: PlaSoftmax,
    memory: Matrix,
    usage: Vec<f32>,
    linkage: TemporalLinkage,
    write_weighting: Vec<f32>,
    read_weightings: Matrix,
}

impl Reference {
    fn new(cfg: MemoryConfig, format: Option<QFormat>) -> Self {
        let (n, w, r) = (cfg.memory_size, cfg.word_size, cfg.read_heads);
        Self {
            cfg,
            format,
            pla: PlaSoftmax::default(),
            memory: Matrix::zeros(n, w),
            usage: vec![0.0; n],
            linkage: TemporalLinkage::new(n),
            write_weighting: vec![0.0; n],
            read_weightings: Matrix::zeros(r, n),
        }
    }

    fn row_norms(&self) -> Vec<f32> {
        let mut norms = vec![0.0; self.memory.rows()];
        self.memory.row_norms_into(&mut norms);
        norms
    }

    fn content(&self, key: &[f32], beta: f32, norms: &[f32], out: &mut [f32]) {
        let approx = self.cfg.approx_softmax.then_some(&self.pla);
        content_weighting_into(&self.memory, key, beta, approx, norms, out);
    }

    fn step(&mut self, iv: &InterfaceVector) -> Vec<f32> {
        let (n, w, r) = (self.cfg.memory_size, self.cfg.word_size, self.cfg.read_heads);
        let mut rounded = iv.clone();
        if let Some(q) = self.format {
            quantize_interface_into(iv, q, &mut rounded);
        }
        let iv = &rounded;

        // Soft write.
        let mut content_w = vec![0.0; n];
        self.content(&iv.write_key, iv.write_strength, &self.row_norms(), &mut content_w);
        let mut psi = vec![0.0; n];
        retention_into(&iv.free_gates, &self.read_weightings, &mut psi);
        update_usage_inplace(&mut self.usage, &self.write_weighting, &psi);
        let free_list = CentralizedMergeSorter.argsort(&self.usage);
        let mut w_a = vec![0.0; n];
        allocation_from_free_list_into(&self.usage, &free_list, self.cfg.skim, &mut w_a);
        let mut w_w = vec![0.0; n];
        merge_write_weighting_into(&w_a, &content_w, iv.write_gate, iv.allocation_gate, &mut w_w);
        for (i, &ww) in w_w.iter().enumerate() {
            if ww == 0.0 {
                continue;
            }
            for ((m, &e), &v) in self.memory.row_mut(i).iter_mut().zip(&iv.erase).zip(&iv.write) {
                *m = *m * (1.0 - ww * e) + ww * v;
            }
        }
        self.linkage.update_linkage(&w_w);
        self.linkage.update_precedence(&w_w);
        self.write_weighting.copy_from_slice(&w_w);

        // Soft read, head by head.
        let norms = self.row_norms();
        let mut out = vec![0.0; r * w];
        let (mut fwd, mut bwd, mut content_r, mut w_r) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for head in 0..r {
            let prev = self.read_weightings.row(head);
            self.linkage.forward_into(prev, &mut fwd);
            self.linkage.backward_into(prev, &mut bwd);
            self.content(iv.read_keys.row(head), iv.read_strengths[head], &norms, &mut content_r);
            merge_read_weighting_into(&bwd, &content_r, &fwd, iv.read_modes[head], &mut w_r);
            self.memory.matvec_t_into(&w_r, &mut out[head * w..(head + 1) * w]);
            self.read_weightings.row_mut(head).copy_from_slice(&w_r);
        }

        if let Some(q) = self.format {
            q.quantize_slice_inplace(self.memory.as_mut_slice());
            q.quantize_slice_inplace(&mut self.usage);
            self.linkage.quantize_state(q);
            q.quantize_slice_inplace(&mut self.write_weighting);
            q.quantize_slice_inplace(self.read_weightings.as_mut_slice());
            q.quantize_slice_inplace(&mut out);
        }
        out
    }
}

/// The unit under test on either datapath.
fn unit(cfg: MemoryConfig, format: Option<QFormat>) -> MemoryUnit {
    match format {
        None => MemoryUnit::new(cfg),
        Some(q) => MemoryUnit::with_format(cfg, q),
    }
}

/// Deterministic pseudo-random values in `[-1, 1)`.
fn xorshift(seed: u64) -> impl FnMut() -> f32 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// A raw interface emission for step `t`. Step 2 hands head `t % R` an
/// all-`-0.0` read key and step 3 an all-`-0.0` write key; step 4 closes
/// the write gate hard so the read phase runs on the cached row norms.
fn raw_interface(
    w: usize,
    r: usize,
    t: usize,
    amplitude: f32,
    next: &mut impl FnMut() -> f32,
) -> Vec<f32> {
    let mut raw: Vec<f32> = (0..w * r + 3 * w + 5 * r + 3).map(|_| next() * amplitude).collect();
    let write_key = w * r + r;
    let write_gate = write_key + 3 * w + 1 + r + 1;
    match t {
        2 => raw[(t % r) * w..(t % r + 1) * w].fill(-0.0),
        3 => raw[write_key..write_key + w].fill(-0.0),
        4 => raw[write_gate] = -40.0,
        _ => {}
    }
    raw
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `got` equals `want`, `to_bits`.
fn assert_same(got: &[f32], want: &[f32], what: &str, ctx: &str) {
    assert_eq!(bits(got), bits(want), "{ctx}: {what} differs in bits");
}

/// Scale of the raw interface emissions: strong enough to saturate gates
/// and sharpen every softmax.
const AMPLITUDE: f32 = 2.5;

/// Steps a unit and the reference through the same emissions, comparing
/// the read vectors and every state memory after each step.
fn check(cfg: MemoryConfig, format: Option<QFormat>, seed: u64) {
    let (w, r) = (cfg.word_size, cfg.read_heads);
    let mut next = xorshift(seed);
    check_stream(cfg, format, STEPS, &format!("seed={seed}"), |t| {
        InterfaceVector::parse(&raw_interface(w, r, t, AMPLITUDE, &mut next), w, r)
    });
}

/// [`check`] over a caller-made stream of `steps` interface vectors.
fn check_stream(
    cfg: MemoryConfig,
    format: Option<QFormat>,
    steps: usize,
    what: &str,
    mut interface: impl FnMut(usize) -> InterfaceVector,
) {
    let mut u = unit(cfg, format);
    let mut reference = Reference::new(cfg, format);
    for t in 0..steps {
        let ctx = format!("{cfg:?} format={format:?} {what} t={t}");
        let iv = interface(t);
        let got = u.step(&iv).flattened();
        let want = reference.step(&iv);
        assert_same(&got, &want, "read vectors", &ctx);
        assert_same(u.memory().as_slice(), reference.memory.as_slice(), "memory", &ctx);
        assert_same(u.usage(), &reference.usage, "usage", &ctx);
        let (l, lr) = (u.linkage(), &reference.linkage);
        assert_same(l.matrix().as_slice(), lr.matrix().as_slice(), "linkage", &ctx);
        assert_same(l.precedence(), lr.precedence(), "precedence", &ctx);
        assert_same(u.write_weighting(), &reference.write_weighting, "write weighting", &ctx);
        assert_same(
            u.read_weightings().as_slice(),
            reference.read_weightings.as_slice(),
            "read weightings",
            &ctx,
        );
    }
}

fn config(n: usize, w: usize, r: usize, pla: bool) -> MemoryConfig {
    MemoryConfig::new(n, w, r).with_approx_softmax(pla)
}

/// Every `(R, N)` pair, with an odd word width that varies along both.
fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    HEADS.flat_map(|r| {
        SLOTS.into_iter().enumerate().map(move |(i, n)| (n, [3, 5, 17][(r + i) % 3], r))
    })
}

#[test]
fn scalar_step_equals_the_per_head_reference_bit_for_bit_on_every_shape() {
    for (n, w, r) in shapes() {
        for format in [None, Some(QFormat::q16_16())] {
            for pla in [false, true] {
                check(config(n, w, r, pla), format, (r * 31 + n) as u64);
            }
        }
    }
}

#[test]
fn negative_zero_write_key_over_non_negative_memory_keeps_the_reference_bits() {
    // The one place the fused dots and the one-key definition differ: a
    // dot whose products are all `-0.0` — a `-0.0` key over rows that hold
    // nothing negative — is `+0.0` from the kernel (it starts from `+0.0`)
    // and `-0.0` from `vector::dot`. Fresh memory is all `+0.0`, and the
    // writes below only ever add non-negative words, so every write-key
    // dot of every step is such a dot (and on odd steps every read-key
    // dot too); the weightings, and everything downstream, must still be
    // the reference's bits, under the exact and the PLA softmax.
    let (key, rows) = ([-0.0f32; 5], Matrix::zeros(8, 5));
    let mut fused = [f32::NAN; 8];
    hima_tensor::fused::row_dots_into(&key, &rows, &mut fused, None);
    assert_eq!(fused[0].to_bits(), 0.0f32.to_bits(), "the kernel's dot");
    let one_key = hima_tensor::vector::dot(rows.row(0), &key);
    assert_eq!(one_key.to_bits(), (-0.0f32).to_bits(), "the definition's dot");

    for (n, w, r) in [(7usize, 5usize, 2usize), (64, 17, 4), (130, 9, 1)] {
        for format in [None, Some(QFormat::q16_16())] {
            for pla in [false, true] {
                let cfg = config(n, w, r, pla);
                let mut next = xorshift((n + w) as u64);
                check_stream(cfg, format, STEPS, "-0.0 write key", |t| {
                    let raw = raw_interface(w, r, 0, AMPLITUDE, &mut next);
                    let mut iv = InterfaceVector::parse(&raw, w, r);
                    iv.write_key.fill(-0.0);
                    iv.write.iter_mut().for_each(|v| *v = v.abs());
                    if t % 2 == 1 {
                        iv.read_keys.as_mut_slice().fill(-0.0);
                    }
                    iv
                });
            }
        }
    }
}

#[test]
fn steps_that_write_nothing_read_through_the_cached_norms() {
    // A write gate of exactly zero leaves `M` untouched: on the f32
    // datapath the norm cache then stays valid *across* steps (the write
    // key's lookup and the read keys' are dots-only passes), and on the
    // quantized one — which rounds `M`, and so drops the cache, every
    // step — the read phase reuses the norms the write key's pass just
    // took. Steps 0–1 and 5 write; 2–4 do not.
    for (n, w, r) in [(7usize, 5usize, 2usize), (64, 17, 4), (130, 9, 5)] {
        for format in [None, Some(QFormat::q16_16())] {
            let cfg = config(n, w, r, false);
            let mut next = xorshift((3 * n + w) as u64);
            check_stream(cfg, format, 7, "closed write gate", |t| {
                let raw = raw_interface(w, r, 0, AMPLITUDE, &mut next);
                let mut iv = InterfaceVector::parse(&raw, w, r);
                if (2..5).contains(&t) {
                    iv.write_gate = 0.0;
                }
                iv
            });
        }
    }
}

#[test]
fn skimmed_allocation_does_not_disturb_the_equality() {
    let cfg = config(64, 9, 4, false).with_skim(SkimRate::new(0.25));
    check(cfg, None, 5);
    check(cfg, Some(QFormat::q16_16()), 6);
}

#[test]
fn scalar_step_equals_the_per_head_reference_on_random_streams() {
    let draw = |g: &mut Gen| {
        let (seed, r, n) = (g.range(0u64..u64::MAX), g.range(HEADS), g.pick(&SLOTS));
        (seed, r, n, g.pick(&[1usize, 3, 7, 9, 33, 65]), g.bool(), g.bool())
    };
    let name = "scalar_step_equals_the_per_head_reference_on_random_streams";
    cases::check(name, 48, draw, |(seed, r, n, w, quantized, pla)| {
        check(config(n, w, r, pla), quantized.then(QFormat::q16_16), seed);
    });
}
