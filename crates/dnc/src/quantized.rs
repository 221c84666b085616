//! Fixed-point (Q16.16) datapath model.
//!
//! The paper's prototypes run a 32-bit datapath "for a fair comparison
//! with state-of-the-art MANN accelerators". This module holds that
//! datapath's rounding rule and its precision study; the datapath itself
//! is a property of the one [`MemoryUnit`]: built
//! [`with_format`](MemoryUnit::with_format), a unit rounds every
//! interface-vector field on arrival ([`quantize_interface_into`]) and
//! every piece of stored state (external memory, usage, linkage,
//! precedence, weightings) plus the read vectors after each step, so
//! quantization error propagates through time exactly as it would in a
//! fixed-point accelerator. [`DatapathStudy`] runs such a unit in
//! lock-step against the `f32` reference and reports how the divergence
//! grows — the datapath-precision ablation.
//!
//! The model is **`f32` compute plus a Q-format rounding pass**, not
//! integer arithmetic: the step between the two passes is the `f32` one,
//! and each contiguous state buffer goes through
//! [`QFormat::quantize_slice_inplace`]. At the paper's
//! size that pass touches ~8 600 values per tile per step — after the
//! memory unit's own kernels the largest single cost of a quantized
//! step. The rule is round-to-nearest, ties away from zero, saturating,
//! NaN → 0, computed in `f32` only, eight values per vector: *clamp,
//! truncate, add the truncated doubled fraction* — every step exact, no
//! conversion and no libm call. The argument in full, and the tests that
//! pin it against the `round()` definition, are in [`hima_tensor::fixed`].
//!
//! A fixed-point accelerator's write-back *is* the rounding, so with
//! profiling on the time of each buffer's pass is charged to the kernel
//! that stores that state (`M` → `MemoryWrite`, `L` → `Linkage`, the read
//! vectors → `MemoryRead`, …) rather than to an id of its own.

use crate::interface::InterfaceVector;
use crate::memory::{MemoryConfig, MemoryUnit};
use hima_tensor::QFormat;
use serde::{Deserialize, Serialize};

/// The name the frozen `e2e_bench/` builds its fixed-point unit under,
/// through `with_format`. Through this alias `new` is [`MemoryUnit::new`]
/// — an **`f32`** unit.
#[doc(hidden)]
pub type QuantizedMemoryUnit = MemoryUnit;

/// Rounds every field of `iv` to `format` into `out` without allocating
/// (after `out` first matches the `W`/`R` geometry — it is resized once
/// if not).
pub fn quantize_interface_into(iv: &InterfaceVector, format: QFormat, out: &mut InterfaceVector) {
    if out.word_size() != iv.word_size() || out.read_heads() != iv.read_heads() {
        *out = InterfaceVector::zeroed(iv.word_size(), iv.read_heads());
    }
    let q = |x: f32| format.quantize(x);
    let qv = |dst: &mut [f32], src: &[f32]| {
        dst.copy_from_slice(src);
        format.quantize_slice_inplace(dst);
    };
    qv(out.read_keys.as_mut_slice(), iv.read_keys.as_slice());
    qv(&mut out.read_strengths, &iv.read_strengths);
    qv(&mut out.write_key, &iv.write_key);
    out.write_strength = q(iv.write_strength);
    qv(&mut out.erase, &iv.erase);
    qv(&mut out.write, &iv.write);
    qv(&mut out.free_gates, &iv.free_gates);
    out.allocation_gate = q(iv.allocation_gate);
    out.write_gate = q(iv.write_gate);
    for (dst, src) in out.read_modes.iter_mut().zip(&iv.read_modes) {
        *dst = [q(src[0]), q(src[1]), q(src[2])];
    }
}

/// Per-step divergence between the quantized and float datapaths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatapathStudy {
    /// Max |Δ| of the read vectors at each step.
    pub read_error: Vec<f32>,
    /// Max |Δ| of the external-memory contents at each step.
    pub memory_error: Vec<f32>,
}

impl DatapathStudy {
    /// Runs `steps` random-interface steps through a float and a quantized
    /// unit side by side.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn run(config: MemoryConfig, steps: usize, seed: u64) -> Self {
        assert!(steps > 0, "need at least one step");
        let mut float_unit = MemoryUnit::new(config);
        let mut quant_unit = MemoryUnit::with_format(config, QFormat::q16_16());
        let (w, r) = (config.word_size, config.read_heads);
        let len = w * r + 3 * w + 5 * r + 3;

        let mut read_error = Vec::with_capacity(steps);
        let mut memory_error = Vec::with_capacity(steps);
        for t in 0..steps {
            let raw: Vec<f32> = (0..len)
                .map(|i| {
                    let v = (t as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((i as u64).wrapping_mul(0x85EB_CA6B))
                        .wrapping_add(seed);
                    ((v % 2000) as f32 / 1000.0 - 1.0) * 2.0
                })
                .collect();
            let iv = InterfaceVector::parse(&raw, w, r);
            let a = float_unit.step(&iv);
            let b = quant_unit.step(&iv);

            let re = a
                .flattened()
                .iter()
                .zip(b.flattened().iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            read_error.push(re);

            let me = float_unit
                .memory()
                .as_slice()
                .iter()
                .zip(quant_unit.memory().as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            memory_error.push(me);
        }
        Self { read_error, memory_error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Datapath;
    use hima_tensor::Fixed;

    fn config() -> MemoryConfig {
        MemoryConfig::new(32, 8, 2)
    }

    fn q16_unit() -> MemoryUnit {
        MemoryUnit::with_format(config(), QFormat::q16_16())
    }

    fn max(errors: &[f32]) -> f32 {
        errors.iter().copied().fold(0.0, f32::max)
    }

    #[test]
    fn custom_format_rounds_more_coarsely() {
        let mut wide = q16_unit();
        let mut narrow = MemoryUnit::with_format(config(), QFormat::q8_8());
        assert_eq!(narrow.datapath(), Datapath::Quantized(QFormat::q8_8()));
        let len = 8 * 2 + 3 * 8 + 5 * 2 + 3;
        let raw: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let iv = InterfaceVector::parse(&raw, 8, 2);
        wide.step(&iv);
        narrow.step(&iv);
        for &x in narrow.memory().as_slice() {
            assert!(QFormat::q8_8().is_representable(x), "{x} not Q8.8");
        }
        // The narrow datapath diverges from the wide one.
        let diff: f32 = wide
            .memory()
            .as_slice()
            .iter()
            .zip(narrow.memory().as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0, "Q8.8 should measurably differ from Q16.16");
    }

    #[test]
    fn quantized_interface_fields_are_representable() {
        let raw: Vec<f32> = (0..(8 * 2 + 3 * 8 + 5 * 2 + 3))
            .map(|i| (i as f32 * 0.377).sin() * 3.0)
            .collect();
        let iv = InterfaceVector::parse(&raw, 8, 2);
        let mut q = InterfaceVector::zeroed(8, 2);
        quantize_interface_into(&iv, QFormat::q16_16(), &mut q);
        for (a, b) in iv.write_key.iter().zip(&q.write_key) {
            assert!((a - b).abs() <= Fixed::resolution());
            assert_eq!(Fixed::from_f32(*b).to_f32(), *b, "must be exactly representable");
        }
        assert!(q.is_well_formed() || !iv.is_well_formed());
    }

    #[test]
    fn quantized_unit_tracks_float_over_short_horizons() {
        // Q16.16 resolution is ~1.5e-5. Over a few steps the datapaths
        // must agree tightly; over long horizons the recurrent dynamics
        // are chaotic (a similarity-rank flip reroutes a whole write), so
        // only boundedness is claimed there — the same reason the paper
        // validates its RTL against a functional model at kernel level
        // rather than bit-exactly over whole episodes.
        let study = DatapathStudy::run(config(), 30, 7);
        let early = max(&study.read_error[..5]);
        assert!(early < 0.01, "early read err {early}");
        assert!(max(&study.read_error) < 10.0, "read err {}", max(&study.read_error));
        assert!(max(&study.memory_error) < 10.0, "mem err {}", max(&study.memory_error));
        assert!(study.read_error.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn quantized_unit_preserves_invariants() {
        let mut q = q16_unit();
        let len = 8 * 2 + 3 * 8 + 5 * 2 + 3;
        for t in 0..20 {
            let raw: Vec<f32> =
                (0..len).map(|i| ((t * 17 + i * 5) as f32 * 0.13).sin() * 2.0).collect();
            q.step(&InterfaceVector::parse(&raw, 8, 2));
            assert!(q.check_invariants(1e-3), "t={t}");
        }
    }

    #[test]
    fn state_is_exactly_representable_after_step() {
        let mut q = q16_unit();
        let len = 8 * 2 + 3 * 8 + 5 * 2 + 3;
        let raw: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71).cos()).collect();
        q.step(&InterfaceVector::parse(&raw, 8, 2));
        for &x in q.memory().as_slice() {
            assert_eq!(Fixed::from_f32(x).to_f32(), x, "memory holds a non-Q16.16 value");
        }
        for &u in q.usage() {
            assert_eq!(Fixed::from_f32(u).to_f32(), u);
        }
    }

    #[test]
    fn error_stays_bounded_over_long_runs() {
        // Chaotic divergence is expected; unbounded growth (saturation,
        // NaN feedback) is not. State magnitudes cap the possible error.
        let study = DatapathStudy::run(config(), 60, 3);
        assert!(study.read_error.iter().all(|e| e.is_finite()));
        assert!(max(&study.memory_error) < 20.0, "unbounded: {}", max(&study.memory_error));
    }

    #[test]
    fn reset_clears_quantized_state() {
        let mut q = q16_unit();
        let len = 8 * 2 + 3 * 8 + 5 * 2 + 3;
        let raw: Vec<f32> = (0..len).map(|i| i as f32 * 0.1).collect();
        q.step(&InterfaceVector::parse(&raw, 8, 2));
        q.reset();
        assert_eq!(q.memory().max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one step")]
    fn study_rejects_zero_steps() {
        DatapathStudy::run(config(), 0, 0);
    }
}
