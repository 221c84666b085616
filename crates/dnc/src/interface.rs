//! The DNC interface vector: layout, activations and parsing.
//!
//! The controller emits a raw vector `ξ_t` of width `W·R + 3W + 5R + 3`
//! which the memory unit splits into keys, strengths, gates and read modes,
//! applying the constraining activations from Graves et al. 2016:
//! `oneplus` for strengths, `sigmoid` for gates and the erase vector, and a
//! per-head `softmax` for the three read modes (backward, content, forward).

use hima_tensor::transcend::{oneplus, oneplus_into, sigmoid, sigmoid_into, softmax_inplace};
use hima_tensor::Matrix;

/// Parsed, activation-constrained interface vector.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceVector {
    /// Read keys `k_r^i ∈ R^W`, one row per head (`R × W`) — the left
    /// factor of the memory unit's one content-dot product for all heads.
    pub read_keys: Matrix,
    /// Read strengths `β_r^i ≥ 1`.
    pub read_strengths: Vec<f32>,
    /// Write key `k_w ∈ R^W`.
    pub write_key: Vec<f32>,
    /// Write strength `β_w ≥ 1`.
    pub write_strength: f32,
    /// Erase vector `e ∈ [0,1]^W`.
    pub erase: Vec<f32>,
    /// Write vector `v ∈ R^W`.
    pub write: Vec<f32>,
    /// Free gates `g_f^i ∈ [0,1]`, one per head.
    pub free_gates: Vec<f32>,
    /// Allocation gate `g_a ∈ [0,1]`.
    pub allocation_gate: f32,
    /// Write gate `g_w ∈ [0,1]`.
    pub write_gate: f32,
    /// Read modes `π^i ∈ Δ³` (backward, content, forward), one per head.
    pub read_modes: Vec<[f32; 3]>,
}

impl InterfaceVector {
    /// A zero-filled interface vector with the `W`/`R` field shapes — the
    /// reusable parse target of `InterfaceVector::parse_into`.
    pub fn zeroed(word_size: usize, read_heads: usize) -> Self {
        Self {
            read_keys: Matrix::zeros(read_heads, word_size),
            read_strengths: vec![0.0; read_heads],
            write_key: vec![0.0; word_size],
            write_strength: 0.0,
            erase: vec![0.0; word_size],
            write: vec![0.0; word_size],
            free_gates: vec![0.0; read_heads],
            allocation_gate: 0.0,
            write_gate: 0.0,
            read_modes: vec![[0.0; 3]; read_heads],
        }
    }

    /// Parses a raw controller emission into a constrained interface
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != W·R + 3W + 5R + 3`.
    pub fn parse(raw: &[f32], word_size: usize, read_heads: usize) -> Self {
        let mut iv = Self::zeroed(word_size, read_heads);
        iv.parse_into(raw, word_size, read_heads);
        iv
    }

    /// Re-parses a raw controller emission into this vector **in place**
    /// — the allocation-free form of [`InterfaceVector::parse`] used by
    /// the steady-state stepping path, where every lane owns one parse
    /// scratch reused across steps. If the field shapes disagree with
    /// `W`/`R` (first use with a different geometry), they are resized
    /// once. Produces exactly the same activations as the allocating
    /// parse.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != W·R + 3W + 5R + 3`.
    pub(crate) fn parse_into(&mut self, raw: &[f32], word_size: usize, read_heads: usize) {
        let (w, r) = (word_size, read_heads);
        let expected = w * r + 3 * w + 5 * r + 3;
        assert_eq!(
            raw.len(),
            expected,
            "interface vector of {} does not match layout W={w}, R={r} (expect {expected})",
            raw.len()
        );
        if self.word_size() != w || self.read_heads() != r {
            *self = Self::zeroed(w, r);
        }

        let mut pos = 0;
        let mut take = |n: usize| {
            let s = &raw[pos..pos + n];
            pos += n;
            s
        };

        // The emission lists the keys head-major: already the row-major
        // `R × W` block.
        self.read_keys.as_mut_slice().copy_from_slice(take(w * r));
        oneplus_into(take(r), &mut self.read_strengths);
        self.write_key.copy_from_slice(take(w));
        self.write_strength = oneplus(take(1)[0]);
        sigmoid_into(take(w), &mut self.erase);
        self.write.copy_from_slice(take(w));
        sigmoid_into(take(r), &mut self.free_gates);
        self.allocation_gate = sigmoid(take(1)[0]);
        self.write_gate = sigmoid(take(1)[0]);
        for modes in &mut self.read_modes {
            // The three read modes pass through a tiny softmax; a stack
            // buffer keeps the steady state heap-free.
            let mut m = [0.0f32; 3];
            m.copy_from_slice(take(3));
            softmax_inplace(&mut m);
            *modes = m;
        }
        debug_assert_eq!(pos, expected);
    }

    /// Number of read heads this interface drives.
    pub fn read_heads(&self) -> usize {
        self.read_keys.rows()
    }

    /// Word width `W`.
    pub fn word_size(&self) -> usize {
        self.write_key.len()
    }

    /// Checks every constrained field is inside its admissible set
    /// (strengths ≥ 1, gates in `[0,1]`, read modes on the simplex).
    pub fn is_well_formed(&self) -> bool {
        let gates_ok = self
            .free_gates
            .iter()
            .chain([&self.allocation_gate, &self.write_gate])
            .all(|&g| (0.0..=1.0).contains(&g));
        let strengths_ok =
            self.read_strengths.iter().chain([&self.write_strength]).all(|&b| b >= 1.0);
        let erase_ok = self.erase.iter().all(|&e| (0.0..=1.0).contains(&e));
        let modes_ok = self.read_modes.iter().all(|m| {
            m.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x))
                && (m.iter().sum::<f32>() - 1.0).abs() < 1e-4
        });
        gates_ok && strengths_ok && erase_ok && modes_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_for(w: usize, r: usize, fill: f32) -> Vec<f32> {
        vec![fill; w * r + 3 * w + 5 * r + 3]
    }

    #[test]
    fn parses_layout_and_constraints() {
        let (w, r) = (8, 2);
        let raw: Vec<f32> = (0..(w * r + 3 * w + 5 * r + 3)).map(|i| (i as f32 * 0.13).sin()).collect();
        let iv = InterfaceVector::parse(&raw, w, r);
        assert_eq!(iv.read_heads(), r);
        assert_eq!(iv.word_size(), w);
        assert_eq!(iv.read_keys.shape(), (r, w));
        assert_eq!(iv.read_keys.row(1), &raw[w..2 * w], "head 1's key is the second W-block");
        assert_eq!(iv.erase.len(), w);
        assert_eq!(iv.write.len(), w);
        assert!(iv.is_well_formed());
    }

    #[test]
    fn keys_pass_through_unactivated() {
        let (w, r) = (4, 1);
        let mut raw = raw_for(w, r, 0.0);
        raw[0] = 2.5; // first element of first read key
        raw[w * r + r] = -3.5; // first element of the write key
        let iv = InterfaceVector::parse(&raw, w, r);
        assert_eq!(iv.read_keys[(0, 0)], 2.5);
        assert_eq!(iv.write_key[0], -3.5);
    }

    #[test]
    fn zero_raw_gives_neutral_activations() {
        let iv = InterfaceVector::parse(&raw_for(4, 2, 0.0), 4, 2);
        // oneplus(0) = 1 + ln 2, sigmoid(0) = 0.5, softmax(0,0,0) = 1/3.
        assert!((iv.write_strength as f64 - (1.0 + 2f64.ln())).abs() < 1e-6);
        assert!((iv.allocation_gate - 0.5).abs() < 1e-6);
        for m in &iv.read_modes {
            for &x in m {
                assert!((x - 1.0 / 3.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn extreme_raw_stays_well_formed() {
        let iv = InterfaceVector::parse(&raw_for(6, 3, 100.0), 6, 3);
        assert!(iv.is_well_formed());
        let iv = InterfaceVector::parse(&raw_for(6, 3, -100.0), 6, 3);
        assert!(iv.is_well_formed());
    }

    #[test]
    #[should_panic(expected = "does not match layout")]
    fn rejects_wrong_width() {
        InterfaceVector::parse(&[0.0; 10], 8, 2);
    }

    #[test]
    fn parse_into_reuse_matches_fresh_parse() {
        let (w, r) = (6, 2);
        let len = w * r + 3 * w + 5 * r + 3;
        let mut scratch = InterfaceVector::zeroed(w, r);
        for t in 0..4 {
            let raw: Vec<f32> =
                (0..len).map(|i| ((t * 13 + i * 7) as f32 * 0.23).sin() * 2.0).collect();
            scratch.parse_into(&raw, w, r);
            assert_eq!(scratch, InterfaceVector::parse(&raw, w, r), "t={t}");
        }
        // Geometry change resizes the scratch instead of panicking.
        let raw = vec![0.0; 4 + 3 * 4 + 5 + 3];
        scratch.parse_into(&raw, 4, 1);
        assert_eq!(scratch, InterfaceVector::parse(&raw, 4, 1));
    }
}
