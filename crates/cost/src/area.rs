//! Component-level silicon area model (40 nm), calibrated to Fig. 11(e).
//!
//! The paper's area table:
//!
//! | mm²        | baseline | HiMA-DNC | HiMA-DNC-D |
//! |------------|----------|----------|------------|
//! | PT         | 4.92     | 5.01     | 4.22       |
//! | PT memory  | 2.07     | 2.07     | 1.53       |
//! | CT         | 0.43     | 0.52     | 0.18       |
//! | Total      | 79.14    | 80.69    | 67.71      |
//!
//! Decomposition used here (documented calibration):
//!
//! * PT memory = fixed periphery/buffers + per-KB SRAM. Solving the two
//!   published points (281 KB → 2.07 mm², 34 KB → 1.53 mm²) gives
//!   ≈ 1.456 mm² fixed + 2.19e-3 mm²/KB.
//! * PT logic (M-M engine + buffers/other) = 1.98 mm²; the multi-mode
//!   router + MDSA sorter add 0.09 mm² (the paper's "1.8% overhead");
//!   DNC-D drops the multi-mode router for a simple CT-PT port (−0.16 mm²
//!   relative to the full router).
//! * CT = 0.18 mm² of LSTM/interface logic, +0.25 mm² for the centralized
//!   merge sorter and buffers (baseline), +0.34 mm² for the global
//!   usage-buffer + PMS stage (HiMA-DNC).

use hima_engine::{EngineConfig, Topology};
use hima_mem::{Partition, TileMemoryMap};

/// Fixed SRAM periphery + buffers per PT (mm²).
pub const PT_MEM_FIXED_MM2: f64 = 1.454;
/// SRAM macro density (mm² per KB, 40 nm).
pub const SRAM_MM2_PER_KB: f64 = 0.002_25;
/// M-M engine + matrix buffers + misc PT logic (mm²).
pub const PT_LOGIC_MM2: f64 = 1.98;
/// Multi-mode router + MDSA sorter overhead on a PT (mm²).
pub const PT_ARCH_FEATURES_MM2: f64 = 0.09;
/// Simple CT-PT-only router on a DNC-D PT, relative saving vs the full
/// 8-way router (mm²).
pub const PT_SIMPLE_ROUTER_SAVING_MM2: f64 = 0.16;
/// Base H-tree router on a baseline PT (mm²).
pub const PT_BASE_ROUTER_MM2: f64 = 0.87;
/// CT LSTM + interface logic (mm²).
pub const CT_BASE_MM2: f64 = 0.18;
/// CT centralized merge sorter + usage buffers (mm²).
pub const CT_CENTRAL_SORTER_MM2: f64 = 0.25;
/// CT global PMS + usage buffers for the two-stage sort (mm²).
pub const CT_PMS_MM2: f64 = 0.34;

/// Area report for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// One PT, total (mm²).
    pub pt_mm2: f64,
    /// The PT's memory system (mm²).
    pub pt_mem_mm2: f64,
    /// The CT (mm²).
    pub ct_mm2: f64,
    /// Number of PTs.
    pub tiles: usize,
}

impl AreaReport {
    /// Whole-chip area: `N_t` PTs plus the CT (mm²).
    pub fn total_mm2(&self) -> f64 {
        self.pt_mm2 * self.tiles as f64 + self.ct_mm2
    }
}

/// The component-level area model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaModel;

impl AreaModel {
    /// Estimates areas for an engine configuration.
    pub fn estimate(cfg: &EngineConfig) -> AreaReport {
        let linkage = if cfg.dncd {
            // DNC-D keeps only the local (N/N_t)² linkage.
            None
        } else if cfg.submatrix_linkage {
            Some(hima_mem::optimizer::best_linkage_partition(cfg.tiles))
        } else {
            Some(Partition::row_wise(cfg.tiles))
        };

        let map = TileMemoryMap::new(
            cfg.memory_size,
            cfg.word_size,
            cfg.read_heads,
            cfg.tiles,
            Partition::row_wise(cfg.tiles),
            linkage.unwrap_or_else(|| Partition::row_wise(cfg.tiles)),
        );
        let linkage_bytes = match linkage {
            Some(_) => map.linkage_bytes(),
            None => map.dncd_linkage_bytes(),
        };
        let mem_kb = (map.external_bytes() + linkage_bytes + 3 * map.state_vector_bytes()
            + map.read_weight_bytes()) as f64
            / 1024.0;
        let pt_mem = PT_MEM_FIXED_MM2 + SRAM_MM2_PER_KB * mem_kb;

        let router = if cfg.dncd {
            PT_BASE_ROUTER_MM2 - PT_SIMPLE_ROUTER_SAVING_MM2
        } else {
            PT_BASE_ROUTER_MM2
        };
        let features = if cfg.two_stage_sort || cfg.topology == Topology::Hima {
            PT_ARCH_FEATURES_MM2
        } else {
            0.0
        };
        // DNC-D still carries the local MDSA sorter but a simpler PT
        // datapath (no global-psum paths).
        let pt_logic = if cfg.dncd { PT_LOGIC_MM2 - 0.09 } else { PT_LOGIC_MM2 };
        let pt = pt_mem + pt_logic + router + features;

        let ct = if cfg.dncd {
            CT_BASE_MM2
        } else if cfg.two_stage_sort {
            CT_BASE_MM2 + CT_PMS_MM2
        } else {
            CT_BASE_MM2 + CT_CENTRAL_SORTER_MM2
        };

        AreaReport { pt_mm2: pt, pt_mem_mm2: pt_mem, ct_mm2: ct, tiles: cfg.tiles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cfg: EngineConfig) -> AreaReport {
        AreaModel::estimate(&cfg)
    }

    #[test]
    fn baseline_matches_fig11e() {
        let r = report(EngineConfig::baseline(16));
        assert!((r.pt_mm2 - 4.92).abs() < 0.08, "PT {:.3}", r.pt_mm2);
        assert!((r.pt_mem_mm2 - 2.07).abs() < 0.03, "PT mem {:.3}", r.pt_mem_mm2);
        assert!((r.ct_mm2 - 0.43).abs() < 0.01, "CT {:.3}", r.ct_mm2);
        assert!((r.total_mm2() - 79.14).abs() < 1.5, "total {:.2}", r.total_mm2());
    }

    #[test]
    fn hima_dnc_matches_fig11e() {
        let r = report(EngineConfig::hima_dnc(16));
        assert!((r.pt_mm2 - 5.01).abs() < 0.08, "PT {:.3}", r.pt_mm2);
        assert!((r.pt_mem_mm2 - 2.07).abs() < 0.03, "PT mem {:.3}", r.pt_mem_mm2);
        assert!((r.ct_mm2 - 0.52).abs() < 0.01, "CT {:.3}", r.ct_mm2);
        assert!((r.total_mm2() - 80.69).abs() < 1.5, "total {:.2}", r.total_mm2());
    }

    #[test]
    fn hima_dncd_matches_fig11e() {
        let r = report(EngineConfig::hima_dncd(16));
        assert!((r.pt_mm2 - 4.22).abs() < 0.1, "PT {:.3}", r.pt_mm2);
        assert!((r.pt_mem_mm2 - 1.53).abs() < 0.03, "PT mem {:.3}", r.pt_mem_mm2);
        assert!((r.ct_mm2 - 0.18).abs() < 0.01, "CT {:.3}", r.ct_mm2);
        assert!((r.total_mm2() - 67.71).abs() < 2.0, "total {:.2}", r.total_mm2());
    }

    #[test]
    fn arch_features_cost_under_two_percent() {
        // §7.3: "the architectural features cost an overhead of 1.8% for
        // the PT over the baseline PT".
        let base = report(EngineConfig::baseline(16)).pt_mm2;
        let dnc = report(EngineConfig::hima_dnc(16)).pt_mm2;
        let overhead = dnc / base - 1.0;
        assert!((0.005..0.03).contains(&overhead), "overhead {overhead:.4}");
    }

    #[test]
    fn dncd_saves_double_digit_area() {
        // §7.3: HiMA-DNC-D uses 16.1% less silicon area than HiMA-DNC.
        let dnc = report(EngineConfig::hima_dnc(16)).total_mm2();
        let dncd = report(EngineConfig::hima_dncd(16)).total_mm2();
        let saving = 1.0 - dncd / dnc;
        assert!((0.10..0.22).contains(&saving), "saving {saving:.3}");
    }

    #[test]
    fn area_grows_with_tiles() {
        // Fig. 12(a): more tiles -> more total area, sublinearly per tile
        // (each PT's memory shrinks).
        let mut prev = 0.0;
        for nt in [4usize, 8, 16, 32] {
            let total = report(EngineConfig::hima_dnc(nt)).total_mm2();
            assert!(total > prev, "N_t={nt}: {total:.1} <= {prev:.1}");
            prev = total;
        }
        let a4 = report(EngineConfig::hima_dnc(4)).total_mm2();
        let a32 = report(EngineConfig::hima_dnc(32)).total_mm2();
        assert!(a32 / a4 < 8.0, "8x tiles must cost < 8x area");
    }

    #[test]
    fn linkage_dominates_pt_memory_area() {
        // §7.3: linkage 81.3% of PT memory area. With the fixed periphery
        // term the variable share is smaller; check the SRAM-macro share.
        let cfg = EngineConfig::hima_dnc(16);
        let map = TileMemoryMap::optimized(cfg.memory_size, cfg.word_size, cfg.read_heads, cfg.tiles);
        let linkage_macro = map.linkage_bytes() as f64 / 1024.0 * SRAM_MM2_PER_KB;
        let total_macro = (map.external_bytes() + map.linkage_bytes()
            + 3 * map.state_vector_bytes() + map.read_weight_bytes()) as f64
            / 1024.0
            * SRAM_MM2_PER_KB;
        assert!(linkage_macro / total_macro > 0.8);
    }
}
