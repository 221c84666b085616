//! Per-tile memory footprints.
//!
//! Reproduces the PT memory-system inventory of §7.3: with the paper's
//! configuration (`N × W = 1024 × 64`, `N_t = 16`, 32-bit words, linkage
//! partitioned `4 × 4`) each PT holds a 16.4 KB external-memory bank, a
//! 262 KB linkage bank and multiple 256 B state memories — and the linkage
//! dominates the PT memory area.

use crate::optimizer::{best_external_partition, best_linkage_partition};
use crate::partition::Partition;

/// Bytes per element of the 32-bit datapath.
pub const WORD_BYTES: usize = 4;

/// Per-PT memory footprint under a chosen partition pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMemoryMap {
    memory_size: usize,
    word_size: usize,
    read_heads: usize,
    tiles: usize,
    external: Partition,
    linkage: Partition,
}

impl TileMemoryMap {
    /// Builds the map with explicit partitions.
    ///
    /// # Panics
    ///
    /// Panics if either partition's tile count differs from `tiles`.
    pub fn new(
        memory_size: usize,
        word_size: usize,
        read_heads: usize,
        tiles: usize,
        external: Partition,
        linkage: Partition,
    ) -> Self {
        assert_eq!(external.tiles(), tiles, "external partition must cover all tiles");
        assert_eq!(linkage.tiles(), tiles, "linkage partition must cover all tiles");
        Self { memory_size, word_size, read_heads, tiles, external, linkage }
    }

    /// Builds the map with the optimizer's partitions (row-wise external,
    /// interior linkage).
    pub fn optimized(memory_size: usize, word_size: usize, read_heads: usize, tiles: usize) -> Self {
        Self::new(
            memory_size,
            word_size,
            read_heads,
            tiles,
            best_external_partition(memory_size, word_size, tiles),
            best_linkage_partition(tiles),
        )
    }

    /// The linkage-memory partition in use.
    pub fn linkage_partition(&self) -> Partition {
        self.linkage
    }

    /// Per-PT external-memory bytes (largest block).
    pub fn external_bytes(&self) -> usize {
        let (h, w) = self.external.block_shape(0, self.memory_size, self.word_size);
        h * w * WORD_BYTES
    }

    /// Per-PT linkage-memory bytes (largest block of the `N × N` matrix).
    pub fn linkage_bytes(&self) -> usize {
        let (h, w) = self.linkage.block_shape(0, self.memory_size, self.memory_size);
        h * w * WORD_BYTES
    }

    /// Per-PT bytes for one length-`N` state vector (usage, precedence,
    /// write weighting), split row-wise.
    pub fn state_vector_bytes(&self) -> usize {
        self.memory_size.div_ceil(self.tiles) * WORD_BYTES
    }

    /// Per-PT bytes for the `N × R` read-weighting memory.
    pub fn read_weight_bytes(&self) -> usize {
        self.state_vector_bytes() * self.read_heads
    }

    /// Total per-PT memory bytes: external + linkage + usage + precedence +
    /// write weighting + read weightings.
    pub(crate) fn total_bytes(&self) -> usize {
        self.external_bytes() + self.linkage_bytes() + 3 * self.state_vector_bytes() + self.read_weight_bytes()
    }

    /// Fraction of the PT memory taken by the linkage bank (the paper
    /// reports 81.3% of the PT memory *area*; the byte share is the
    /// capacity analogue).
    pub fn linkage_share(&self) -> f64 {
        self.linkage_bytes() as f64 / self.total_bytes() as f64
    }

    /// Per-PT memory with the DNC-D model: the linkage shrinks to the local
    /// shard's `(N/N_t) × (N/N_t)` (no cross-shard linkage exists).
    pub fn dncd_linkage_bytes(&self) -> usize {
        let local = self.memory_size.div_ceil(self.tiles);
        local * local * WORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_map() -> TileMemoryMap {
        TileMemoryMap::optimized(1024, 64, 4, 16)
    }

    #[test]
    fn paper_external_bank_is_16_4_kb() {
        // 64 rows x 64 words x 4 B = 16 384 B ≈ 16.4 KB (§7.3).
        assert_eq!(paper_map().external_bytes(), 16_384);
    }

    #[test]
    fn paper_linkage_bank_is_262_kb() {
        // 256 x 256 x 4 B = 262 144 B = 262 KB (§7.3), from the 4x4
        // linkage partition.
        let m = paper_map();
        assert_eq!(m.linkage_partition(), Partition::new(4, 4));
        assert_eq!(m.linkage_bytes(), 262_144);
    }

    #[test]
    fn paper_state_memories_are_256_b() {
        // (1024 / 16) x 4 B = 256 B each (§7.3).
        assert_eq!(paper_map().state_vector_bytes(), 256);
    }

    #[test]
    fn linkage_dominates_pt_memory() {
        // The paper reports the linkage at 81.3% of PT memory area and the
        // external memory at 4.8%; by capacity the linkage share is even
        // larger. Check the dominance ordering.
        let m = paper_map();
        assert!(m.linkage_share() > 0.8, "linkage share = {}", m.linkage_share());
        let ext_share = m.external_bytes() as f64 / m.total_bytes() as f64;
        assert!(ext_share < 0.1, "external share = {ext_share}");
    }

    #[test]
    fn dncd_shrinks_linkage_16x() {
        let m = paper_map();
        // Local 64x64 linkage vs the 256x256 block: 16x smaller.
        assert_eq!(m.dncd_linkage_bytes() * 16, m.linkage_bytes());
    }

    #[test]
    fn read_weight_scales_with_heads() {
        let m = paper_map();
        assert_eq!(m.read_weight_bytes(), 4 * 256);
    }

    #[test]
    fn total_adds_up() {
        let m = paper_map();
        assert_eq!(
            m.total_bytes(),
            16_384 + 262_144 + 3 * 256 + 1024
        );
    }

    #[test]
    #[should_panic(expected = "must cover all tiles")]
    fn rejects_mismatched_partition() {
        TileMemoryMap::new(64, 8, 1, 4, Partition::row_wise(2), Partition::new(2, 2));
    }
}
